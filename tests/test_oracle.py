"""Oracle tests: the two oracles against each other and against counts."""

import random
from functools import lru_cache
from math import isqrt
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
    poly_gcd,
    poly_powmod,
    rabin_test,
    trial_division_test,
)

from capelli import oracle
from capelli.ff import _np_safe, _pf_divmod, _ResidueRing
from capelli.intops import distinct_prime_factors, is_prime

from conftest import modulus_case

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


@pytest.mark.parametrize(
    "p, coeffs, pinned",
    [
        # reducing x costs 2, and x^p is a native power: 4 products for p = 7
        (7, [3, 1], 6),
        (2**61 - 1, [5, 1], 122),
        # x^1458 + x^729 + 1, the tower-p2 member: 1458 spreads and two gcds
        (2, [1] + [0] * 728 + [1] + [0] * 728 + [1], 1_960_037),
    ],
    ids=["x+3-over-F7", "x+5-over-F_2^61-1", "degree-1458-tower-member"],
)
def test_rabin_metered_work_pinned(p, coeffs, pinned):
    with count_mults() as work:
        assert rabin_test(Poly(PrimeField(p), coeffs), work_bound=None).irreducible
    assert work() == pinned


@pytest.mark.parametrize("p", [2, 3, 5, 65521, 2**31 - 1, 2**61 - 1])
def test_rabin_estimate_covers_the_metered_work(p):
    """A budget one below the metered work is refused up front, binomials
    x^n - c and x^122 + 2 over F_{2^61-1} included."""
    rng = random.Random(p)
    K = PrimeField(p)
    cases = [[2] + [0] * 121 + [1]] if p == 2**61 - 1 else []
    for n in (1, 2, 3, 4, 6, 12, 33):
        cases.append([rng.randrange(p)] + [0] * (n - 1) + [1])
        cases.append([0] * n + [1])
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


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1])
def test_rabin_rejects_a_power_of_x_over_word_size_p(p):
    """x^2 and x^33 are binomials x^n - 0: their Frobenius steps move
    coefficients and never spread them to stride p."""
    K = PrimeField(p)
    with patch.object(_ResidueRing, "_spread", side_effect=AssertionError):
        assert not rabin_test(Poly(K, [0, 0, 1])).irreducible
        assert not rabin_test(Poly(K, [0] * 33 + [1])).irreducible


def _ladder_rabin(K, f):
    """Rabin with every Frobenius power on the ring's ladder: (irreducible, witness)."""
    n, p = len(f) - 1, K.p
    ring, x = _ResidueRing(p, f), _pf_divmod(p, [0, 1], f)[1]
    h, prev = x, 0
    for e in sorted({n // r for r in distinct_prime_factors(n)}):
        h, prev = ring.pow(h, p ** (e - prev)), e
        diff = Poly(K, h) - Poly(K, x)
        if diff.is_zero:
            return False, None
        g = poly_gcd(Poly(K, f), diff)
        if g.degree > 0:
            return False, g
    return ring.pow(h, p ** (n - prev)) == x, None


# n <= 24 at word-size p, where the ladder reference is slow
@given(case=modulus_case(lambda p: 64 if p < 2**16 else 24))
@settings(max_examples=40, deadline=None)
def test_rabin_by_compositions_matches_the_ladder(case):
    """Verdict and witness equal those of Rabin on the ladder alone."""
    p, f = case
    K = PrimeField(p)
    verdict = rabin_test(Poly(K, f), work_bound=None)
    assert (verdict.irreducible, verdict.witness) == _ladder_rabin(K, f)


@pytest.mark.parametrize("p", [65521, 2**31 - 1, 2**61 - 1])
def test_rabin_by_compositions_accepts_what_the_ladder_accepts(p):
    """Irreducible dense f, found by the ladder, and x^122 + 2 over F_{2^61-1}."""
    K, rng = PrimeField(p), random.Random(p)
    cases = [[2] + [0] * 121 + [1]] if p == 2**61 - 1 else []
    for n in (2, 3, 5, 8, 12):
        f = [rng.randrange(p) for _ in range(n)] + [1]
        while not _ladder_rabin(K, f)[0]:
            f = [rng.randrange(p) for _ in range(n)] + [1]
        cases.append(f)
    for f in cases:
        assert _ladder_rabin(K, f) == (True, None)
        assert rabin_test(Poly(K, f), work_bound=None).irreducible


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
    """The per-candidate loop on ``_pf_divmod``: (witness or None, metered work)."""
    K, fc = f.field, list(f.coeffs)
    with count_mults() as work:
        for j in range(1, f.degree // 2 + 1):
            for idx in range(K.p**j):
                cand = Poly.monic_from_index(K, j, idx)
                if fc[0] and not cand.coeffs[0]:
                    continue
                if not _pf_divmod(K.p, fc, list(cand.coeffs))[1]:
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
    """At p = 5 and at word-size p, where the witness is linear so the search
    stops in its first block."""
    for p, witness in ((5, [2, 0, 1]), (2**61 - 1, [3, 1])):
        K = PrimeField(p)
        f = Poly(K, [1, 0, 2, 0, 0, 3, 1]) * Poly(K, witness)
        with patch("capelli.ff._pf_divmod", side_effect=AssertionError), patch.object(
            oracle, "_pf_divmod", side_effect=AssertionError
        ), patch("capelli.ff._ResidueRing", side_effect=AssertionError), patch.object(
            oracle, "_ResidueRing", side_effect=AssertionError
        ):
            verdict = trial_division_test(f, work_bound=None)
        assert verdict.witness == Poly(K, witness)


def _blocks_built(f, trial_block):
    """(degree, start, count) of each candidate block trial division builds on f."""
    blocks = []
    build = oracle._candidate_block

    def recording(p, j, start, count):
        blocks.append((j, start, count))
        return build(p, j, start, count)

    with patch.object(oracle, "_TRIAL_BLOCK", trial_block), patch.object(
            oracle, "_candidate_block", recording):
        verdict = trial_division_test(f, work_bound=None)
    return verdict, blocks


def test_early_witness_builds_one_first_size_block():
    """A witness among the first candidates costs one block of 1/16 of the
    largest, also at word-size p where the block holds Python ints."""
    W = PrimeField(2**61 - 1)
    verdict, blocks = _blocks_built(Poly(W, [3, 1]) * Poly(W, [W.p - 1, 1]), oracle._TRIAL_BLOCK)
    assert verdict.witness == Poly(W, [3, 1])
    assert blocks == [(1, 0, oracle._TRIAL_BLOCK // 16)]


def test_trial_division_blocks_double_up_to_the_largest():
    """Block sizes of one degree: all p^j candidates at once where they fit
    in ``_TRIAL_BLOCK // j``; otherwise 1/16 of that first, then doubling up
    to it, the last block cut at p^j. The blocks tile the candidates in
    order."""
    # irreducible, so every candidate is tried
    verdict, blocks = _blocks_built(Poly(PrimeField(5), [2, 1, 0, 0, 0, 0, 1]), 64)
    assert verdict.irreducible
    sizes = {}
    for j, start, count in blocks:
        assert start == sum(sizes.setdefault(j, []))
        sizes[j].append(count)
    # largest blocks 64, 32 and 21 candidates: 5 and 25 fit, 125 do not
    assert sizes == {1: [5], 2: [25], 3: [1, 2, 4, 8, 16, 21, 21, 21, 21, 10]}


# the largest prime at which degree-1 candidates divide on int64
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
            expected = _pf_divmod(p, fc, low[:, k].tolist() + [1])[1]
            assert rem[:, k].tolist() == expected + [0] * (j - len(expected))


@pytest.mark.parametrize("j", [2, 6, 12])
def test_remainder_pass_reduces_lazily_up_to_its_int64_bound(j):
    """Rows take up to j subtractions between reductions, on int64 while
    ``_np_safe(p, j)`` holds and on Python ints above it, from the same int64
    block: at the largest such p and the next prime, the pass equals
    ``_pf_divmod`` on every candidate."""
    below = next(q for q in range(isqrt((1 << 62) // (j + 1)) + 2, 0, -1)
                 if _np_safe(q, j) and is_prime(q))
    above = next(q for q in range(below + 1, 2 * below) if is_prime(q))
    for p in (below, above):
        rng = random.Random(p)
        fc = [rng.randrange(p - 9, p) for _ in range(3 * j + 4)]
        low = np.array([[rng.randrange(p - 9, p) for _ in range(30)] for _ in range(j)])
        rem = oracle._remainders(p, fc, low)
        for k in range(low.shape[1]):
            expected = _pf_divmod(p, fc, low[:, k].tolist() + [1])[1]
            assert rem[:, k].tolist() == expected + [0] * (j - len(expected))


def test_batched_trial_division_at_a_large_int64_safe_p():
    K = PrimeField(1_000_000_007)
    f = Poly(K, [5, 1]) * Poly(K, [3, 0, 1]) * Poly(K, [K.p - 1, 1])
    _assert_trial_division_matches_loop(f)
    assert trial_division_test(f, work_bound=None).witness == Poly(K, [5, 1])


def test_batched_trial_division_at_word_size_p_matches_the_loop():
    """Where int64 does not serve, the remainder pass runs on Python ints and
    gives the per-candidate loop's verdict, witness and metered work."""
    W = PrimeField(2**61 - 1)
    witnessed = {
        Poly(W, [3, 1]) * Poly(W, [W.p - 1, 1]): Poly(W, [3, 1]),
        Poly(W, [0, 1]) * Poly(W, [7, 1]): Poly(W, [0, 1]),
        Poly(W, [2, 1]) * Poly(W, [1, 0, 1]): Poly(W, [2, 1]),  # x^2 + 1 is irreducible
    }
    for f, witness in witnessed.items():
        assert not rabin_test(f, work_bound=None).irreducible
        assert _sequential_trial_division(f)[0] == witness
        _assert_trial_division_matches_loop(f)


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


def test_frobenius_orbit_structure():
    """Irreducible f of degree n: x^(q^n) = x mod f and x^(q^j) != x for 0 < j < n."""
    cases = []
    for p, m in ((2, 4), (3, 3), (5, 2), (7, 2)):
        K = PrimeField(p)
        cases.extend((K, f) for f in enumerate_irreducibles(K, m))
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
