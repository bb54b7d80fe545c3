"""Oracle tests: the two oracles against each other and against counts."""

import random
from functools import lru_cache
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capelli import (
    EnumerationBoundExceededError,
    Poly,
    PrimeField,
    WorkBoundExceededError,
    count_mults,
    count_monic_irreducibles,
    enumerate_irreducibles,
    poly_powmod,
    rabin_test,
    trial_division_test,
)

from capelli import oracle
from capelli.ff import _divmod_raw, _np_safe, _ResidueRing
from capelli.intops import is_prime

from conftest import field_of_order

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def test_rabin_examples():
    assert rabin_test(Poly(F2, [1, 1, 1])).irreducible
    assert not rabin_test(Poly(F5, [1, 0, 1])).irreducible  # 2^2 = -1 mod 5
    assert rabin_test(Poly(F2, [1, 0, 0, 1, 0, 0, 1])).irreducible  # x^6+x^3+1


def test_rabin_validations():
    with pytest.raises(ValueError):
        rabin_test(Poly.zero(F2))
    with pytest.raises(ValueError):
        rabin_test(Poly(F5, [1, 2]))  # not monic
    with pytest.raises(ValueError):
        rabin_test(Poly.one(F2))  # degree 0


def test_rabin_work_bound():
    f = Poly(F2, [1, 1] + [0] * 999 + [1])
    with pytest.raises(WorkBoundExceededError):
        rabin_test(f, work_bound=10_000)
    # an explicit generous budget lifts the refusal
    rabin_test(Poly(F2, [1, 1, 1]), work_bound=None)


@pytest.mark.parametrize("p", [2, 3, 5, 65521])
def test_rabin_estimate_covers_the_metered_work(p):
    """A budget one below the metered work is refused up front."""
    rng = random.Random(p)
    K = PrimeField(p)
    cases = []
    for n in (1, 2, 3, 4, 6, 12, 33):
        sparse = [0] * n + [1]
        sparse[0] = 1 + rng.randrange(p - 1)
        if n > 1:
            sparse[rng.randrange(1, n)] = 1 + rng.randrange(p - 1)
        cases.append(sparse)
        cases.append([rng.randrange(p) for _ in range(n)] + [1])
        # an irreducible dense f runs the whole chain of Frobenius powers
        dense = [rng.randrange(p) for _ in range(n)] + [1]
        while not rabin_test(Poly(K, dense), work_bound=None).irreducible:
            dense = [rng.randrange(p) for _ in range(n)] + [1]
        cases.append(dense)
    for coeffs in cases:
        f = Poly(K, coeffs)
        with count_mults() as work:
            rabin_test(f, work_bound=None)
        with pytest.raises(WorkBoundExceededError):
            rabin_test(f, work_bound=work() - 1)


@pytest.mark.parametrize("q", [4, 9])
def test_rabin_estimate_covers_the_metered_work_over_extension_fields(q):
    """Over F_4 and F_9 too, a budget one below the metered work is refused."""
    K = field_of_order(q)
    rng = random.Random(q)

    def coeff(low=0):
        return K.from_index(rng.randrange(low, q))

    cases = []
    for n in range(1, 7):
        sparse = [K.zero] * n + [K.one]
        sparse[0] = coeff(1)
        if n > 1:
            sparse[rng.randrange(1, n)] = coeff(1)
        cases.append(sparse)
        cases.append([coeff() for _ in range(n)] + [K.one])
        dense = [coeff() for _ in range(n)] + [K.one]
        while not rabin_test(Poly(K, dense), work_bound=None).irreducible:
            dense = [coeff() for _ in range(n)] + [K.one]
        cases.append(dense)
    for coeffs in cases:
        f = Poly(K, coeffs)
        with count_mults() as work:
            rabin_test(f, work_bound=None)
        with pytest.raises(WorkBoundExceededError):
            rabin_test(f, work_bound=work() - 1)


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1])
def test_rabin_rejects_a_power_of_x_over_word_size_p(p):
    """x^2 has no low terms; the ladder must not spread it to stride p."""
    K = PrimeField(p)
    with patch.object(_ResidueRing, "_frob_lists", side_effect=AssertionError), patch.object(
        _ResidueRing, "_frob_np", side_effect=AssertionError
    ):
        assert not rabin_test(Poly(K, [0, 0, 1])).irreducible
        assert not rabin_test(Poly(K, [0] * 33 + [1])).irreducible


def test_trial_division_examples():
    v = trial_division_test(Poly(F3, [1, 0, 0, 0, 1]))
    assert not v.irreducible
    assert v.witness.coeffs == (2, 1, 1)  # x^2+x+2, the first divisor found
    assert (Poly(F3, [1, 0, 0, 0, 1]) % v.witness).is_zero
    assert trial_division_test(Poly(F3, [1, 2, 0, 1])).irreducible  # x^3+2x+1
    assert trial_division_test(Poly(F7, [6, 1])).irreducible  # degree 1


def test_trial_division_work_bound():
    with pytest.raises(WorkBoundExceededError):
        trial_division_test(Poly(F7, [1] * 25), work_bound=100)


def _sequential_trial_division(f):
    """The per-candidate loop on ``_divmod_raw``: (witness or None, metered work)."""
    K, fc = f.field, list(f.coeffs)
    with count_mults() as work:
        for j in range(1, f.degree // 2 + 1):
            for idx in range(K.order**j):
                cand = Poly.monic_from_index(K, j, idx)
                if fc[0] != K.zero and cand.coeffs[0] == K.zero:
                    continue
                if not _divmod_raw(K, fc, list(cand.coeffs))[1]:
                    return cand, work()
    return None, work()


def _assert_trial_division_matches_loop(f):
    witness, loop_work = _sequential_trial_division(f)
    with count_mults() as work:
        verdict = trial_division_test(f, work_bound=None)
    assert verdict.irreducible == (witness is None), f.coeffs
    assert verdict.witness == witness, f.coeffs
    assert work() == loop_work, f.coeffs


# the largest degree at which the sequential reference stays quick
_TRIAL_MAX_DEGREE = {2: 16, 3: 10, 5: 8, 7: 6, 13: 4}


@lru_cache(maxsize=None)
def _irreducibles(p, k):
    return tuple(enumerate_irreducibles(p, k))


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_batched_trial_division_matches_the_loop(data):
    """Verdict, witness and metered work equal the per-candidate loop's."""
    p = data.draw(st.sampled_from(sorted(_TRIAL_MAX_DEGREE)))
    top = _TRIAL_MAX_DEGREE[p]
    K = PrimeField(p)
    shape = data.draw(st.sampled_from(["random", "zero constant", "product", "irreducible"]))
    if shape == "product":
        # factors of degree >= 2 only, so the witness has degree > 1
        f = Poly.one(K)
        while f.degree + 2 <= top and (f.degree < 4 or data.draw(st.booleans())):
            k = data.draw(st.integers(2, min(3, top - f.degree)))
            f = f * data.draw(st.sampled_from(_irreducibles(p, k)))
    else:
        n = data.draw(st.integers(2, top))
        if shape == "irreducible":
            idx = data.draw(st.integers(0, p**n - 1))
            while not rabin_test(Poly.monic_from_index(K, n, idx)).irreducible:
                idx = (idx + 1) % p**n
            f = Poly.monic_from_index(K, n, idx)
        else:
            coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
            if shape == "zero constant":
                coeffs[0] = 0
            f = Poly(K, coeffs + [data.draw(st.integers(1, p - 1))])
    block = data.draw(st.sampled_from([oracle._TRIAL_BLOCK, 7, 1]))
    with patch.object(oracle, "_TRIAL_BLOCK", block):
        _assert_trial_division_matches_loop(f)


def test_batched_trial_division_spans_several_blocks():
    """A degree split into blocks of 7 entries finds the same late witness."""
    K = PrimeField(3)
    # x^2 + 2x + 2 is the last irreducible quadratic, in the last block of degree 2
    g, h = Poly(K, [2, 2, 1]), Poly(K, [1, 2, 0, 1])
    f = g * h * h
    with patch.object(oracle, "_TRIAL_BLOCK", 7):
        _assert_trial_division_matches_loop(f)
        _assert_trial_division_matches_loop(g * g * g)
    assert trial_division_test(g * g * g).witness == g


def test_batched_trial_division_calls_no_ff_kernel():
    f = Poly(F5, [1, 0, 2, 0, 0, 3, 1]) * Poly(F5, [2, 0, 1])
    with patch("capelli.ff._pf_divmod", side_effect=AssertionError), patch.object(
        oracle, "_divmod_raw", side_effect=AssertionError
    ), patch("capelli.ff._ResidueRing", side_effect=AssertionError):
        verdict = trial_division_test(f)
    assert verdict.witness == Poly(F5, [2, 0, 1])


# the largest prime for which the batched trial division runs
_LARGEST_NP_SAFE_P = next(q for q in range(1_518_500_250, 0, -1) if _np_safe(q, 1) and is_prime(q))


def test_candidate_block_index_arithmetic_fits_int64():
    p = _LARGEST_NP_SAFE_P
    K = PrimeField(p)
    for j, start in ((1, p - 5), (2, p * p - 9), (3, p**3 - 9), (3, 12345 * p * p + p - 2)):
        count = min(9, p**j - start)
        block = oracle._candidate_block(p, j, start, count)
        for k in range(count):
            expected = Poly.monic_from_index(K, j, start + k).coeffs[:-1]
            assert tuple(block[:, k].tolist()) == expected


@pytest.mark.parametrize("p", [1_000_000_007, _LARGEST_NP_SAFE_P])
def test_remainder_pass_matches_division_up_to_the_int64_limit(p):
    """At large p the pass still equals plain-integer division."""
    K = PrimeField(p)
    rng = random.Random(p)
    for j in (1, 2, 6, 12):
        fc = [rng.randrange(p // 2, p) for _ in range(2 * j + 3)]
        low = np.array([[rng.randrange(p // 2, p) for _ in range(40)] for _ in range(j)])
        rem = oracle._remainders(p, fc, low)
        for k in range(low.shape[1]):
            expected = _divmod_raw(K, fc, low[:, k].tolist() + [1])[1]
            assert rem[:, k].tolist() == expected + [0] * (j - len(expected))


def test_batched_trial_division_at_a_large_int64_safe_p():
    K = PrimeField(1_000_000_007)
    f = Poly(K, [5, 1]) * Poly(K, [3, 0, 1]) * Poly(K, [K.p - 1, 1])
    _assert_trial_division_matches_loop(f)
    assert trial_division_test(f, work_bound=None).witness == Poly(K, [5, 1])


def test_trial_division_keeps_the_loop_where_int64_does_not_serve():
    """F_9 coefficients and word-size p divide one candidate at a time."""
    F9 = field_of_order(9)
    W = PrimeField(2**61 - 1)
    cases = [Poly.monic_from_index(F9, n, i) for n in (2, 3, 4) for i in range(5, 9**n, 9**n // 12)]
    witnessed = {
        Poly(W, [3, 1]) * Poly(W, [W.p - 1, 1]): Poly(W, [3, 1]),
        Poly(W, [0, 1]) * Poly(W, [7, 1]): Poly(W, [0, 1]),
        Poly(W, [2, 1]) * Poly(W, [1, 0, 1]): Poly(W, [2, 1]),  # x^2 + 1 is irreducible
    }
    with patch.object(oracle, "_batched_trial_division", side_effect=AssertionError):
        for f in cases:
            verdict = trial_division_test(f, work_bound=None)
            assert verdict.irreducible == rabin_test(f, work_bound=None).irreducible
            assert verdict.witness == _sequential_trial_division(f)[0]
        for f, witness in witnessed.items():
            assert not rabin_test(f, work_bound=None).irreducible
            assert trial_division_test(f, work_bound=None).witness == witness


def test_witness_is_proper_factor():
    # every reducible verdict from either oracle carries a valid witness when present
    for q in (2, 3, 5):
        K = PrimeField(q)
        for idx in range(q**4):
            f = Poly.monic_from_index(K, 4, idx)
            for verdict in (rabin_test(f), trial_division_test(f)):
                if verdict.witness is not None:
                    w = verdict.witness
                    assert not verdict.irreducible
                    assert 1 <= w.degree < f.degree
                    assert (f % w).is_zero


def test_oracles_agree_exhaustively_deg_le_6():
    """rabin and trial division agree on every monic poly, deg <= 6, p in {2,3,5}."""
    for p in (2, 3, 5):
        K = PrimeField(p)
        for deg in range(1, 7):
            for idx in range(p**deg):
                f = Poly.monic_from_index(K, deg, idx)
                r = rabin_test(f)
                t = trial_division_test(f)
                assert r.irreducible == t.irreducible, (p, f.coeffs)


def test_oracles_agree_extension_coefficients():
    F9 = field_of_order(9)
    for deg in (2, 3):
        for idx in range(9**deg):
            f = Poly.monic_from_index(F9, deg, idx)
            assert rabin_test(f).irreducible == trial_division_test(f).irreducible


def test_frobenius_orbit_structure():
    """Irreducible f of degree n: x^(q^n) = x mod f and x^(q^j) != x for 0 < j < n."""
    cases = []
    for p, m in ((2, 4), (3, 3), (5, 2), (7, 2)):
        K = PrimeField(p)
        cases.extend((K, f) for f in enumerate_irreducibles(K, m))
    F9 = field_of_order(9)
    cases.append((F9, Poly(F9, [F9.neg(F9.from_index(5)), (0, 0), F9.one])))  # x^2 - a
    for K, f in cases:
        if not rabin_test(f).irreducible:
            continue
        n = f.degree
        q = K.order
        x = Poly.x(K)
        for j in range(1, n):
            assert poly_powmod(x, q**j, f) != x % f, (K, f.coeffs, j)
        assert poly_powmod(x, q**n, f) == x % f


def test_enumerate_examples():
    assert [f.coeffs for f in enumerate_irreducibles(2, 2)] == [(1, 1, 1)]
    assert [f.coeffs for f in enumerate_irreducibles(3, 1)] == [(0, 1), (1, 1), (2, 1)]
    assert [f.coeffs for f in enumerate_irreducibles(2, 3)] == [(1, 1, 0, 1), (1, 0, 1, 1)]


def test_enumerate_bound():
    with pytest.raises(EnumerationBoundExceededError):
        list(enumerate_irreducibles(2, 20))


def test_enumerate_is_restartable():
    gen1 = list(enumerate_irreducibles(3, 2))
    gen2 = list(enumerate_irreducibles(3, 2))
    assert gen1 == gen2
    assert len(gen1) == count_monic_irreducibles(3, 2) == 3


def test_counts_match_necklace_formula():
    """Census of irreducibles equals the formula for all p^m <= 4096."""
    from capelli.intops import primes_up_to

    for p in primes_up_to(4096):
        m = 1
        while p**m <= 4096:
            got = sum(1 for _ in enumerate_irreducibles(p, m))
            assert got == count_monic_irreducibles(p, m), (p, m)
            m += 1
