"""The decision procedure: residue tests, shortcuts, verdicts, towers."""

import json
import random
import sys
import time
import tracemalloc
from dataclasses import replace
from functools import lru_cache
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capelli import (
    CertificateReplayError,
    ExtensionField,
    FourthPowerTest,
    NoViableStepError,
    OracleDisagreementError,
    OracleVerdict,
    Poly,
    PrimeField,
    Reason,
    ReducibleInputError,
    ResidueTest,
    TowerCertificate,
    TowerStepRejectedError,
    Verdict,
    WorkBoundExceededError,
    compose_power,
    count_mults,
    decide_b_xd,
    decide_many,
    decide_xd_minus_alpha,
    enumerate_irreducibles,
    grow_tower,
    rabin_test,
    reducibility_shortcuts,
    replay_certificate,
    star_condition,
)

from capelli.ff import _LISTS_MAX_DEG, _ResidueRing
from capelli.intops import primes_up_to

from conftest import field_of_order, prime_powers_up_to

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


# --- power-residue tests -------------------------------------------------------


def test_is_nth_power_brute_force_agreement():
    """Each residue test a verdict records, against enumerated powers, over
    every field of order q <= 81 and 2 <= d <= 12."""
    for q in prime_powers_up_to(81):
        K = field_of_order(q)
        units = [K.from_index(i) for i in range(1, q)]
        powers = {n: {K.pow(u, n) for u in units} for n in (2, 3, 4, 5, 7, 11)}
        minus4 = K.scalar(-4)
        for d in range(2, 13):
            for u in units:
                v = decide_xd_minus_alpha(K, u, d)
                for t in v.tests:
                    if isinstance(t, ResidueTest):
                        assert t.is_power == (u in powers[t.dprime]), (q, d, u)
                    else:
                        assert t.is_power == (K.mul(minus4, u) in powers[4]), (q, d, u)
                assert v.irreducible == (not any(t.is_power for t in v.tests)), (q, d, u)


def test_minus4_examples():
    """The -4*alpha test decides only for a non-square alpha: d' = 2 runs first."""
    v = decide_xd_minus_alpha(F7, 3, 4)  # -12 = 2, and the fourth powers mod 7 are {1, 2, 4}
    assert v.evidence == FourthPowerTest(3, (1,), True)
    assert v.tests == (ResidueTest(2, 3, (6,), False), v.evidence)
    assert decide_xd_minus_alpha(F5, 2, 4).tests[-1] == FourthPowerTest(1, (2,), False)
    # over F_9 = F_3[i], -4 = (1 + i)^4 is a fourth power, so the test never finds
    # one for the non-square 1 + i
    F9 = ExtensionField(F3, [1, 0, 1])
    assert decide_xd_minus_alpha(F9, (1, 1), 4).tests == (
        ResidueTest(2, 4, (2, 0), False), FourthPowerTest(2, (0, 2), False))


# --- shortcuts and the star condition ------------------------------------------


def test_shortcut_examples():
    assert reducibility_shortcuts(3, 1, 3).reason == Reason.CHAR_DIVIDES_D
    sc = reducibility_shortcuts(7, 1, 5)
    assert sc.reason == Reason.PRIME_DIVISOR_COPRIME and sc.dprime == 5
    assert reducibility_shortcuts(3, 1, 4).reason == Reason.FOUR_DIVIDES_D_P3MOD4_K_ODD
    assert reducibility_shortcuts(5, 1, 4) is None
    # matching oracle fact: x^4 - 2 is irreducible over F_5
    assert rabin_test(Poly(F5, [3, 0, 0, 0, 1])).irreducible


def test_shortcut_priority_char_first():
    # p | d outranks the coprime-divisor reason even when both apply
    assert reducibility_shortcuts(2, 2, 2).reason == Reason.CHAR_DIVIDES_D
    sc = reducibility_shortcuts(7, 1, 10)
    assert sc.reason == Reason.PRIME_DIVISOR_COPRIME and sc.dprime == 5


def test_star_examples():
    assert not star_condition(3, 1, 4)
    assert star_condition(2, 2, 3)
    assert star_condition(7, 1, 6)


def test_star_equals_no_shortcut():
    for p in (2, 3, 5, 7, 11, 13):
        for k in range(1, 5):
            for d in range(1, 25):
                assert star_condition(p, k, d) == (
                    reducibility_shortcuts(p, k, d) is None
                ), (p, k, d)


# --- the per-element decision ---------------------------------------------------


def test_decide_xd_examples():
    """Raw values: ints over F_7, tuples over F_9."""
    v = decide_xd_minus_alpha(F7, 3, 3)
    assert v.irreducible and v.reason == Reason.PASSES_ALL_RESIDUE_TESTS
    v = decide_xd_minus_alpha(F7, 6, 3)
    assert not v.irreducible and v.reason == Reason.ALPHA_IS_DPRIME_POWER
    assert v.evidence.dprime == 3
    v = decide_xd_minus_alpha(F7, 3, 4)
    assert not v.irreducible and v.reason == Reason.MINUS4ALPHA_IS_FOURTH_POWER
    v = decide_xd_minus_alpha(F7, 5, 1)
    assert v.irreducible and v.reason == Reason.DEGREE_ONE and v.tests == ()
    # the squares mod 7 are {1, 2, 4}
    assert [decide_xd_minus_alpha(F7, a, 2).irreducible for a in range(1, 7)] == [
        False, False, True, False, True, True]
    assert decide_xd_minus_alpha(F7, 4, 2).evidence == ResidueTest(2, 3, (1,), True)
    F9 = ExtensionField(F3, [1, 0, 1])
    i = F9.gen()  # a square: i^4 = 1
    assert decide_xd_minus_alpha(F9, i, 2).evidence == ResidueTest(2, 4, (1, 0), True)
    assert decide_xd_minus_alpha(F9, (1, 1), 2).irreducible
    for field, alpha in ((F7, 3), (F9, i)):
        with pytest.raises(ValueError):
            decide_xd_minus_alpha(field, field.zero, 3)
        with pytest.raises(ValueError):
            decide_xd_minus_alpha(field, alpha, 0)
    # values that are not reduced raw values: 7 = 0 in F_7, (3, 0) = 0 in F_9, a
    # list, and a tuple of the wrong length
    for field, alpha, d in ((F7, 7, 3), (F9, (3, 0), 2), (F9, [0, 0], 2), (F9, (1, 1, 0), 2)):
        with pytest.raises(ValueError):
            decide_xd_minus_alpha(field, alpha, d)


def _random_field(p, k, seed):
    """F_p, or F_p[y]/(g) for the first irreducible monic g that a seeded stream draws."""
    K = PrimeField(p)
    if k == 1:
        return K
    rng = random.Random(seed)
    while True:
        g = Poly(K, [rng.randrange(p) for _ in range(k)] + [1])
        if rabin_test(g, work_bound=None).irreducible:
            return ExtensionField(K, g, trusted=True)


def _per_alpha_mask(F, d, values):
    return [decide_xd_minus_alpha(F, v, d).irreducible for v in values]


# p = 2 and odd p with k from 1 to 9; F_p beyond int64 headroom (from 1,518,500,279
# on) runs the Montgomery ladder; (2^61 - 1, 2) and (2^64 - 59, 2) run the batched
# ladder on Python-int rows, and (2, _LISTS_MAX_DEG + 1) on int64 rows above the
# lists/numpy crossover
BATCH_FIELDS = (
    [(2, k) for k in range(1, 10)]
    + [(3, k) for k in range(1, 7)]
    + [(5, 1), (5, 2), (5, 4), (7, 1), (7, 3), (13, 2), (65521, 1), (65521, 2)]
    + [(2**31 - 1, 1), (1518500279, 1), (2**61 - 1, 1), (2**63 + 29, 1), (2**64 - 59, 1)]
    + [(2**61 - 1, 2), (2**64 - 59, 2), (2, _LISTS_MAX_DEG + 1)]
)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_decide_many_matches_per_alpha_verdicts(data):
    p, k = data.draw(st.sampled_from(BATCH_FIELDS), label="p, k")
    F = _random_field(p, k, data.draw(st.integers(0, 2**16), label="modulus seed"))
    # 30, 60 and 210 have three and four prime factors, so R / r is composite
    d = data.draw(st.one_of(st.integers(1, 24), st.sampled_from([4, 8, 12, 16, 20, 24]),
                            st.sampled_from([30, 60, 210])))
    indices = data.draw(st.lists(st.integers(1, F.order - 1), max_size=40), label="indices")
    values = [F.from_index(i) for i in indices]
    assert decide_many(F, d, values).tolist() == _per_alpha_mask(F, d, values)


@pytest.mark.parametrize("p, k", BATCH_FIELDS)
def test_decide_many_reduces_values_shifted_by_multiples_of_p(p, k):
    """Raw values shifted by multiples of p decide as the reduced values do:
    shifts whose entries fit int64, and shifts past 64 bits, negative too."""
    F = _random_field(p, k, seed=k)
    rng = random.Random(p + k)
    values = [F.from_index(rng.randrange(1, F.order)) for _ in range(20)]
    for shift in (lambda: rng.randrange(2**62 // p + 1), lambda: rng.randrange(-(2**80), 2**80)):
        shifted = [v + p * shift() if k == 1 else tuple(c + p * shift() for c in v)
                   for v in values]
        for d in (2, 3, 12):
            assert decide_many(F, d, shifted).tolist() == decide_many(F, d, values).tolist()
    # F_9 = F_3[y]/(y^2 + 1): (3*10^12 + 1, 0) is 1, a square, so x^2 - 1 is reducible;
    # 2^70 = 2 is not a cube mod 7
    assert decide_many(ExtensionField(3, [1, 0, 1]), 2, [(3 * 10**12 + 1, 0)]).tolist() == [False]
    assert decide_many(PrimeField(7), 3, [2**70]).tolist() == [True]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 13, 16, 25, 27, 49, 81, 125, 512])
def test_decide_many_matches_per_alpha_on_every_unit(q):
    """The census's input: every unit, as an index array or an (N, m) array."""
    F = field_of_order(q)
    indices = np.arange(1, q, dtype=np.int64)
    batch = indices if F.degree == 1 else F.from_indices(indices)
    values = [F.from_index(i) for i in range(1, q)]
    for d in range(1, 17):
        assert decide_many(F, d, batch).tolist() == _per_alpha_mask(F, d, values), d


@pytest.mark.parametrize("p", [1000003, 2**61 - 1])
def test_per_alpha_and_batched_decisions_meter_the_same_powers(p):
    """A power a^e in F_p meters the binary ladder's L(e) products on either
    route. Per alpha, each test runs its own ladder of (q-1)/r. The batch
    runs one ladder of (q-1)/R over every value, R = 6 the product of the
    plan's primes, then one of R/r per test over the values still in the
    mask."""

    def ladder(e):
        return max(0, e.bit_length() + e.bit_count() - 2)

    K, values, plan = PrimeField(p), list(range(1, 301)), (2, 3)
    reached = dict.fromkeys(plan, 0)  # values that reach each test, in plan order
    for v in values:
        for r in plan:
            reached[r] += 1
            if pow(v, (p - 1) // r, p) == 1:
                break
    with count_mults() as per_alpha:
        mask = _per_alpha_mask(K, 6, values)
    with count_mults() as batched:
        assert decide_many(K, 6, values).tolist() == mask
    assert per_alpha() == sum(n * ladder((p - 1) // r) for r, n in reached.items())
    assert batched() == len(values) * ladder((p - 1) // 6) + sum(
        n * ladder(6 // r) for r, n in reached.items())
    assert 0 < batched() < per_alpha()


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_fourth_power_test_decides_only_where_a_shortcut_applies(data):
    """Why decide_many runs no fourth-power test: with 4 | d and no shortcut,
    -4*alpha is a fourth power only when alpha is a square."""
    p, k = data.draw(st.sampled_from([(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2),
                                      (11, 3), (13, 1), (13, 2), (65521, 1), (2**61 - 1, 1)]))
    F = _random_field(p, k, data.draw(st.integers(0, 2**16)))
    d = 4 * data.draw(st.integers(1, 6))
    alpha = F.from_index(data.draw(st.integers(1, F.order - 1)))
    if decide_xd_minus_alpha(F, alpha, d).reason is Reason.MINUS4ALPHA_IS_FOURTH_POWER:
        assert reducibility_shortcuts(p, k, d) is not None


def test_decide_many_validations():
    F9 = field_of_order(9)
    assert decide_many(F9, 4, []).shape == (0,)
    with pytest.raises(ValueError):
        decide_many(F9, 2, [F9.one, F9.zero])
    with pytest.raises(ValueError):
        decide_many(F7, 0, [1, 2])
    with pytest.raises(ValueError):
        decide_many(PrimeField(2**61 - 1), 1, [0])


def test_decide_many_reduces_prime_field_values():
    """10^12 = 1 mod 7, so x^3 - 10^12 is x^3 - 1 over F_7, which x - 1 divides."""
    assert decide_many(F7, 3, [10**12]).tolist() == [False]
    assert decide_many(F7, 3, [10**12 + 2]).tolist() == decide_many(F7, 3, [3]).tolist() == [True]


def test_decide_evidence_order_is_fixed():
    v = decide_xd_minus_alpha(F7, 3, 12)
    kinds = [t.dprime for t in v.tests if isinstance(t, ResidueTest)]
    assert kinds == sorted(kinds)
    # first failing test is the evidence
    if not v.irreducible:
        assert v.evidence is v.tests[-1]


def test_verdict_consistency_enforced():
    with pytest.raises(ValueError):
        Verdict(True, Reason.ALPHA_IS_DPRIME_POWER)
    with pytest.raises(ValueError):
        Verdict(False, Reason.PASSES_ALL_RESIDUE_TESTS)


def test_decide_xd_d4_backed_by_trial_division():
    # x^4 - 3 over F_7: not a square, but -12 = 2 is a fourth power
    v = decide_xd_minus_alpha(F7, 3, 4)
    assert not v.irreducible
    from capelli import trial_division_test

    oracle = trial_division_test(Poly(F7, [4, 0, 0, 0, 1]))  # x^4 - 3
    assert not oracle.irreducible
    assert (Poly(F7, [4, 0, 0, 0, 1]) % oracle.witness).is_zero


def test_same_field_different_b_may_differ():
    # x^2+1 and x^2+x+2 both present F_9, yet their roots have different
    # residue status: only the second admits an irreducible x^2 - alpha
    assert not decide_b_xd(Poly(F3, [1, 0, 1]), 2, trusted=True).irreducible
    assert decide_b_xd(Poly(F3, [2, 1, 1]), 2, trusted=True).irreducible


def test_extended_differential_fuzz():
    """Criterion vs oracle beyond the acceptance grid: m = 4, d up to 20."""
    import random

    rng = random.Random(2024)
    for p in (2, 3, 5, 7, 11, 13):
        K = PrimeField(p)
        found = 0
        while found < 8:
            b = Poly.monic_from_index(K, 4, rng.randrange(p**4))
            if not rabin_test(b).irreducible:
                continue
            found += 1
            d = rng.randrange(2, 21)
            fast = decide_b_xd(b, d, trusted=True).irreducible
            slow = rabin_test(compose_power(b, d), work_bound=None).irreducible
            assert fast == slow, (p, b.coeffs, d)


def test_conjugate_independence():
    """The verdict does not depend on which root of b plays alpha."""
    for p, m in ((2, 3), (3, 2), (5, 2), (7, 2)):
        K = PrimeField(p)
        for b in enumerate_irreducibles(K, m):
            F = ExtensionField(K, b, trusted=True)
            alpha = F.gen()
            for d in range(2, 9):
                base = decide_xd_minus_alpha(F, alpha, d).irreducible
                conj = alpha
                for _ in range(1, m):
                    conj = F.pow(conj, p)
                    got = decide_xd_minus_alpha(F, conj, d).irreducible
                    assert got == base, (p, b.coeffs, d)


# --- the b(x^d) reduction -------------------------------------------------------


def test_decide_b_xd_examples():
    assert decide_b_xd(Poly(F2, [1, 1, 1]), 3).irreducible
    v = decide_b_xd(Poly(F3, [1, 0, 1]), 2)
    assert not v.irreducible and v.reason == Reason.ALPHA_IS_DPRIME_POWER
    assert decide_b_xd(Poly(F3, [2, 1, 1]), 2).irreducible
    assert compose_power(Poly(F3, [2, 1, 1]), 2).coeffs == (2, 0, 1, 0, 1)
    assert rabin_test(compose_power(Poly(F3, [2, 1, 1]), 2)).irreducible


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1])
def test_decide_b_xd_rejects_a_power_of_x_over_word_size_p(p):
    K = PrimeField(p)
    with patch.object(_ResidueRing, "_spread", side_effect=AssertionError):
        with pytest.raises(ReducibleInputError):
            decide_b_xd(Poly(K, [0, 0, 1]), 2)


def test_decide_b_xd_validations():
    with pytest.raises(ReducibleInputError):
        decide_b_xd(Poly(F5, [1, 0, 1]), 2)  # x^2+1 reducible over F_5
    with pytest.raises(ValueError):
        decide_b_xd(Poly(F5, [1, 2]), 2)  # not monic
    with pytest.raises(ValueError):
        decide_b_xd(Poly(F5, [3]), 2)  # degree 0
    # trusted skips the oracle; verdict may then be garbage-in garbage-out,
    # but the call itself must not run the oracle
    decide_b_xd(Poly(F5, [1, 0, 1]), 3, trusted=True)


def test_decide_b_xd_degree_one_and_zero_root():
    x = Poly(F7, [0, 1])
    assert decide_b_xd(x, 1).irreducible
    v = decide_b_xd(x, 3)
    assert not v.irreducible and v.reason == Reason.ALPHA_IS_DPRIME_POWER
    assert v.evidence.dprime == 3
    # m = 1 with nonzero root: b = x - 3 over F_7, d = 3; 3 is not a cube mod 7
    v = decide_b_xd(Poly(F7, [4, 1]), 3)
    assert v.irreducible


def test_small_equivalence_grid():
    """decide_b_xd agrees with the oracle on a quick grid (full one in acceptance)."""
    for p in (2, 3, 5):
        K = PrimeField(p)
        for m in (1, 2):
            for b in enumerate_irreducibles(K, m):
                for d in range(2, 9):
                    fast = decide_b_xd(b, d, trusted=True).irreducible
                    slow = rabin_test(compose_power(b, d)).irreducible
                    assert fast == slow, (p, b.coeffs, d)


# --- norm descent against the direct ladder --------------------------------------


def _ladder_decision(b, d):
    """The residue tests of decide_b_xd, run by the direct ladder in F_p[x]/(b)."""
    F = ExtensionField(b.field, b, trusted=True)
    return decide_xd_minus_alpha(F, F.gen(), d)


def _descends(b, d):
    # decide_b_xd reaches the residue tests in F_p[x]/(b) only here
    return b.degree >= 2 and reducibility_shortcuts(b.field.p, b.degree, d) is None


def _descent_branches(monkeypatch, b, d):
    """Where decide_b_xd(b, d) computed its residue values: F_p, a subfield, or F."""
    seen = set()
    ext_pow, prime_pow = ExtensionField.pow, PrimeField.pow

    def traced_ext_pow(field, a, e):
        seen.add("ladder" if field.degree == b.degree else "subfield")
        return ext_pow(field, a, e)

    def traced_prime_pow(field, a, e):
        seen.add("prime field")
        return prime_pow(field, a, e)

    with monkeypatch.context() as patch:
        patch.setattr(ExtensionField, "pow", traced_ext_pow)
        patch.setattr(PrimeField, "pow", traced_prime_pow)
        decide_b_xd(b, d, trusted=True)
    return seen


def test_descent_matches_ladder_on_acceptance_grid():
    """Every (b, d) of acceptance criterion 1; the residue tests run on m >= 2."""
    pairs = compared = 0
    for p in (2, 3, 5, 7, 11, 13):
        for m in (1, 2, 3):
            if p**m > 343:
                break
            for b in enumerate_irreducibles(p, m):
                for d in range(2, 13):
                    pairs += 1
                    if _descends(b, d):
                        compared += 1
                        assert decide_b_xd(b, d, trusted=True) == _ladder_decision(b, d), (
                            p, b.coeffs, d)
    assert pairs == 4081
    assert compared == 1925


@lru_cache(maxsize=None)
def _compositions():
    """Every irreducible c(x^e) of degree <= 12, c monic irreducible of degree <= 2,
    over F_p for p in {2, 3, 5, 7}."""
    out = []
    for p in (2, 3, 5, 7):
        for k in (1, 2):
            for c in enumerate_irreducibles(p, k):
                for e in range(2, 12 // k + 1):
                    b = compose_power(c, e)
                    if rabin_test(b).irreducible:
                        out.append(b)
    return tuple(out)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_descent_matches_ladder_on_compositions(data):
    b = data.draw(st.deferred(lambda: st.sampled_from(_compositions())))
    d = data.draw(st.sampled_from([d for d in range(2, 65) if _descends(b, d)]))
    assert decide_b_xd(b, d, trusted=True) == _ladder_decision(b, d)


def test_descent_examples_hit_every_branch(monkeypatch):
    examples = [
        (Poly(F7, [4, 0, 1]), 3, {"prime field"}),  # 3 | 7 - 1
        (Poly(F5, [2, 0, 1]), 4, {"prime field"}),  # both tests
        (Poly(F2, [1, 0, 0, 1, 0, 0, 1]), 3, {"subfield"}),  # 3 | 2^2 - 1: F_2(alpha^3) = F_4
        # d' = 2 in F_3, -4*alpha in F_3(alpha^2)
        (Poly(F3, [2, 0, 1, 0, 1]), 4, {"prime field", "subfield"}),
        (Poly(F2, [1, 0, 0, 1, 0, 0, 1]), 7, {"ladder"}),  # 7 does not divide 2^2 - 1
    ]
    for b, d, branches in examples:
        assert _descends(b, d)
        assert decide_b_xd(b, d, trusted=True) == _ladder_decision(b, d), (b, d)
        assert _descent_branches(monkeypatch, b, d) == branches, (b, d)


def test_descent_field_pow_matches_ladder():
    """Every power of any element: descent for c*x at exponents (q-1)/g, else the ladder."""
    from capelli.criterion import _DescentField

    for b in (Poly(F3, [2, 0, 1, 0, 1]), Poly(F2, [1, 0, 0, 1, 0, 0, 1]), Poly(F5, [2, 0, 1])):
        D, F = _DescentField(b), ExtensionField(b.field, b, trusted=True)
        q1 = F.order_minus_one
        exponents = [0, 1, 2, 5, q1 - 1] + [q1 // g for g in range(1, 17) if q1 % g == 0]
        elements = [F.gen(), F.scalar(2), F.mul(F.scalar(-4), F.gen()), F.from_index(F.p + 1)]
        for a in elements:
            for e in exponents:
                assert D.pow(a, e) == F.pow(a, e), (b, a, e)


def test_descent_matches_ladder_on_towers():
    b = Poly(F2, [1, 1, 1])
    while b.degree <= 1458:
        for d in (3, 7):
            if _descends(b, d):
                assert decide_b_xd(b, d, trusted=True) == _ladder_decision(b, d), (b.degree, d)
        b = compose_power(b, 3)
    # every candidate the tower search tries over F_{2^61-1} from x^2+2
    p = 2**61 - 1
    b = Poly(PrimeField(p), [2, 0, 1])
    while b.degree <= 122:
        for r in primes_up_to(61):
            if pow(p, b.degree, r) == 1:
                assert decide_b_xd(b, r, trusted=True) == _ladder_decision(b, r), (b.degree, r)
        b = compose_power(b, 61)


def test_descent_work_is_flat_along_a_tower():
    """Over F_2 every d = 3 step from degree 18 to 4374 decides in F_4."""
    b = compose_power(Poly(F2, [1, 1, 1]), 9)
    work = []
    while b.degree <= 4374:
        with count_mults() as mults:
            assert decide_b_xd(b, 3, trusted=True).irreducible
        work.append(mults())
        b = compose_power(b, 3)
    assert len(work) == 6
    assert len(set(work)) == 1, work


def test_d_one_always_irreducible_p_divides_always_reducible():
    for p in (2, 3, 5, 7):
        K = PrimeField(p)
        for b in enumerate_irreducibles(K, 2):
            assert decide_b_xd(b, 1, trusted=True).irreducible
            assert not decide_b_xd(b, p, trusted=True).irreducible
            assert not decide_b_xd(b, 3 * p, trusted=True).irreducible


# --- towers ---------------------------------------------------------------------


def test_tower_schedule_example():
    cert = grow_tower(Poly(F2, [1, 1, 1]), [3, 3])
    final = cert.final_polynomial()
    assert final.degree == 18
    assert final.coeffs == (1,) + (0,) * 8 + (1,) + (0,) * 8 + (1,)
    assert rabin_test(final).irreducible
    assert cert.final_degree == 18
    assert len(cert.steps) == 2


def test_tower_schedule_f3():
    cert = grow_tower(Poly(F3, [2, 1, 1]), [2])
    assert cert.final_polynomial().coeffs == (2, 0, 1, 0, 1)


def test_tower_rejected_step():
    with pytest.raises(TowerStepRejectedError) as exc:
        grow_tower(Poly(F2, [1, 1, 1]), [2])
    assert exc.value.step_index == 0
    assert exc.value.d == 2
    assert not exc.value.verdict.irreducible
    # 2 divides both the characteristic and d, and 2 does not divide q-1 = 3;
    # the char shortcut is checked first
    assert exc.value.verdict.reason == Reason.CHAR_DIVIDES_D


def test_tower_rejects_reducible_base():
    with pytest.raises(ReducibleInputError):
        grow_tower(Poly(F5, [1, 0, 1]), [2])


def test_tower_target_mode():
    cert = grow_tower(Poly(F2, [1, 1, 1]), target_degree=50)
    assert cert.final_degree >= 50
    assert all(s.d == 3 for s in cert.steps)
    assert replay_certificate(cert)


def test_tower_target_validations():
    with pytest.raises(ValueError):
        grow_tower(Poly(F2, [1, 1, 1]), [3], target_degree=10)
    with pytest.raises(ValueError):
        grow_tower(Poly(F2, [1, 1, 1]))
    with pytest.raises(ValueError):
        grow_tower(Poly(F2, [1, 1, 1]), target_degree=2)
    with pytest.raises(ValueError):
        grow_tower(Poly(F2, [1, 1, 1]), [])


def test_tower_no_viable_step():
    # over F_2 from degree 1: q - 1 = 1 has no prime divisors at all
    with pytest.raises(NoViableStepError):
        grow_tower(Poly(F2, [1, 1]), target_degree=4)


def test_tower_paranoid_mode():
    cert = grow_tower(Poly(F2, [1, 1, 1]), [3, 3], paranoid=True)
    assert cert.final_degree == 18


@pytest.mark.parametrize(
    "how", [{"schedule": [3]}, {"target_degree": 6}], ids=["schedule", "target"]
)
def test_tower_paranoid_mode_raises_when_the_oracle_disagrees(how):
    b0 = Poly(F2, [1, 1, 1])

    def oracle(f, **kwargs):
        # b0 passes; every composition is called reducible
        return rabin_test(f, **kwargs) if f == b0 else OracleVerdict(False, "stub")

    with patch("capelli.criterion.rabin_test", side_effect=oracle), \
            pytest.raises(OracleDisagreementError, match="d=3 at degree 2"):
        grow_tower(b0, paranoid=True, **how)


@pytest.mark.parametrize(
    "p, base, how, degree, generate, replay",
    [
        (2, [1, 1, 1], {"schedule": [3] * 7}, 4374, 7, 2_949_341),
        (2**61 - 1, [2, 0, 1], {"target_degree": 7442}, 7442, 1_565, 799_956),
    ],
    ids=["tower-p2", "tower-wordp"],
)
def test_tower_generate_and_replay_work_pinned(p, base, how, degree, generate, replay):
    """The benchmark's two towers: what growing and replaying each meters."""
    with count_mults() as work:
        cert = grow_tower(Poly(PrimeField(p), base), **how)
    assert (cert.final_degree, work()) == (degree, generate)
    with count_mults() as work:
        assert replay_certificate(cert)
    assert work() == replay


@pytest.mark.parametrize("bound", [100, 1458, 5000])
def test_tower_grown_under_a_bound_replays_under_it(bound):
    """A step composing a degree above the bound is refused before it is
    confirmed or built, so what grow_tower returns replays under the bound."""
    b0 = Poly(F2, [1, 1, 1])
    fits = max(j for j in range(8) if 2 * 3**j <= bound)
    cert = grow_tower(b0, [3] * fits, work_bound=bound, paranoid=True)
    assert replay_certificate(cert, work_bound=bound)
    for grow in (lambda: grow_tower(b0, [3] * (fits + 1), work_bound=bound, paranoid=True),
                 lambda: grow_tower(b0, target_degree=10**6, work_bound=bound)):
        with patch("capelli.criterion.compose_power", wraps=compose_power) as composed, \
                pytest.raises(WorkBoundExceededError, match="above the work bound"):
            grow()
        assert max(c.args[0].degree * c.args[1] for c in composed.call_args_list) <= bound


def test_certificate_replay_and_tampering():
    cert = grow_tower(Poly(F3, [2, 1, 1]), [2, 2])
    assert replay_certificate(cert)

    # tamper with a recorded result
    step = cert.steps[0]
    bad_test = ResidueTest(
        step.prime_tests[0].dprime,
        step.prime_tests[0].exponent,
        (0, 0),
        False,
    )
    bad_step = type(step)(step.d, (bad_test,), step.fourth_power)
    bad = TowerCertificate(cert.p, cert.base, (bad_step,) + cert.steps[1:], cert.final_degree)
    with pytest.raises(CertificateReplayError):
        replay_certificate(bad)

    # tamper with the final degree
    bad = TowerCertificate(cert.p, cert.base, cert.steps, cert.final_degree + 1)
    with pytest.raises(CertificateReplayError):
        replay_certificate(bad)

    # reducible base
    bad = TowerCertificate(5, (1, 0, 1), cert.steps, cert.final_degree)
    with pytest.raises(CertificateReplayError):
        replay_certificate(bad)


def _fourth_power_on_the_d2_step(steps):
    """The correct -4*alpha test at degree 4, where d = 2 admits none."""
    F = ExtensionField(F5, compose_power(Poly(F5, [3, 1]), 4), trusted=True)
    exponent = F.order_minus_one // 4
    value = F.pow(F.mul(F.scalar(-4), F.gen()), exponent)
    return steps[0], replace(steps[1], fourth_power=FourthPowerTest(exponent, value, False))


def _with_prime_test(step, **changes):
    return replace(step, prime_tests=(replace(step.prime_tests[0], **changes),))


# Each mutation of the F_5 tower x + 3 -> [4, 2]: step 0 (d = 4, in F_5) carries a
# prime test and the fourth-power test, step 1 (d = 2, in F_{5^4}) a prime test only.
TOWER_MUTATIONS = {
    "prime-exponent-plus-one": lambda s: (
        s[0], _with_prime_test(s[1], exponent=s[1].prime_tests[0].exponent + 1)),
    "prime-exponent-minus-one": lambda s: (
        _with_prime_test(s[0], exponent=s[0].prime_tests[0].exponent - 1), s[1]),
    "missing-prime-test": lambda s: (s[0], replace(s[1], prime_tests=())),
    "extra-prime-test": lambda s: (
        s[0], replace(s[1], prime_tests=s[1].prime_tests + s[1].prime_tests)),
    "missing-fourth-power-test": lambda s: (replace(s[0], fourth_power=None), s[1]),
    "wrong-fourth-power-exponent": lambda s: (
        replace(s[0], fourth_power=replace(s[0].fourth_power, exponent=2)), s[1]),
    "wrong-fourth-power-value": lambda s: (
        replace(s[0], fourth_power=replace(s[0].fourth_power, result=(3,))), s[1]),
    "fourth-power-test-where-4-does-not-divide-d": _fourth_power_on_the_d2_step,
}


@pytest.mark.parametrize("mutation", TOWER_MUTATIONS)
def test_certificate_replay_refuses_each_tampered_test(mutation):
    cert = grow_tower(Poly(F5, [3, 1]), [4, 2])
    assert cert.steps[0].fourth_power is not None and cert.steps[1].fourth_power is None
    assert replay_certificate(cert)
    bad = replace(cert, steps=TOWER_MUTATIONS[mutation](cert.steps))
    assert bad != cert
    with pytest.raises(CertificateReplayError):
        replay_certificate(bad)


def test_certificate_replay_accepts_a_trivial_step_over_b_equal_to_x():
    # alpha = 0 here, which only the d = 1 step may carry
    assert replay_certificate(grow_tower(Poly(F2, [0, 1]), [1]))


def _consistent_one_step(cert, d):
    """cert's first step with d replaced, and the final degree to match."""
    return replace(cert, steps=(replace(cert.steps[0], d=d),),
                   final_degree=len(cert.base) * d - d)


@pytest.mark.parametrize(
    "cert",
    [
        # d = 1 with the residue test recorded for d = 3
        _consistent_one_step(grow_tower(Poly(F2, [1, 1, 1]), [3]), 1),
        # whole-field shortcuts over F_4: 2 | d, and 5 does not divide 4 - 1
        _consistent_one_step(grow_tower(Poly(F2, [1, 1, 1]), [3]), 2),
        _consistent_one_step(grow_tower(Poly(F2, [1, 1, 1]), [3]), 5),
        # b = x over F_5, so alpha = 0
        _consistent_one_step(grow_tower(Poly(F5, [0, 1]), [1]), 2),
    ],
    ids=["d-one-with-a-test", "char-divides-d", "prime-divisor-coprime", "zero-root"],
)
def test_certificate_replay_refuses_a_consistent_document_the_criterion_rejects(cert):
    with pytest.raises(CertificateReplayError, match="step 0"):
        replay_certificate(cert)


def test_certificate_replay_rejects_non_prime_p():
    doc = grow_tower(Poly(F2, [1, 1, 1]), [3]).to_json_dict()
    doc["p"] = "4"
    with pytest.raises(CertificateReplayError):
        replay_certificate(TowerCertificate.from_json_dict(doc))


def test_certificate_replay_rejects_inconsistent_huge_step():
    # checked against the final degree before any field of degree 2*3^40 exists
    doc = grow_tower(Poly(F2, [1, 1, 1]), [3]).to_json_dict()
    doc["steps"][0]["d"] = str(3**40)
    with pytest.raises(CertificateReplayError):
        replay_certificate(TowerCertificate.from_json_dict(doc))


def _one_step_document(d):
    """A consistent F_2 certificate: base x^2+x+1, one step d = 3^j (alpha has order 3)."""
    doc = grow_tower(Poly(F2, [1, 1, 1]), [3]).to_json_dict()
    doc["steps"][0]["d"] = str(d)
    doc["final_degree"] = str(2 * d)
    return TowerCertificate.from_json_dict(doc)


@pytest.mark.parametrize("d", [3**19, 3**40])
def test_certificate_replay_refuses_a_final_degree_beyond_the_bound(d):
    cert = _one_step_document(d)
    tracemalloc.start()
    start = time.perf_counter()
    with patch("capelli.criterion.PrimeField", side_effect=AssertionError), \
            pytest.raises(CertificateReplayError, match="replay bound"):
        replay_certificate(cert)
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert elapsed < 0.1
    assert peak < 1 << 20
    # the document is consistent: without a bound, one test in F_4 replays it
    assert replay_certificate(cert, work_bound=None)
    assert replay_certificate(_one_step_document(3**12))


def test_certificate_replay_maps_size_errors():
    # with no bound, composing 2*3^40 coefficients overflows an index
    doc = grow_tower(Poly(F2, [1, 1, 1]), [3, 3]).to_json_dict()
    doc["steps"][0]["d"] = str(3**40)
    doc["final_degree"] = str(2 * 3**41)
    cert = TowerCertificate.from_json_dict(doc)
    with pytest.raises(CertificateReplayError, match="too large"):
        replay_certificate(cert, work_bound=None)
    two_steps = grow_tower(Poly(F2, [1, 1, 1]), [3, 3])
    with patch("capelli.criterion.compose_power", side_effect=MemoryError), \
            pytest.raises(CertificateReplayError, match="too large"):
        replay_certificate(two_steps)


def test_certificate_replay_composes_only_before_a_further_step():
    one_step = grow_tower(Poly(F2, [1, 1, 1]), [3])
    with patch("capelli.criterion.compose_power", side_effect=AssertionError):
        assert replay_certificate(one_step)
    two_steps = grow_tower(Poly(F2, [1, 1, 1]), [3, 3])
    with patch("capelli.criterion.compose_power", wraps=compose_power) as composed:
        assert replay_certificate(two_steps)
    assert [c.args[1] for c in composed.call_args_list] == [3]


def test_certificate_replay_bit_for_bit():
    """Replay recomputes the identical evidence values, not merely verdicts."""
    cert = grow_tower(Poly(F2, [1, 1, 1]), [3, 3])
    K = PrimeField(cert.p)
    b = Poly(K, cert.base)
    for step in cert.steps:
        F = ExtensionField(K, b, trusted=True)
        om1 = F.order_minus_one
        for t in step.prime_tests:
            import math

            e = om1 // math.gcd(t.dprime, om1)
            assert e == t.exponent
            assert F.pow(F.gen(), e) == t.result
        b = compose_power(b, step.d)


def test_certificate_json_roundtrip():
    cert = grow_tower(Poly(F5, [3, 1, 1]) if rabin_test(Poly(F5, [3, 1, 1])).irreducible else Poly(F5, [2, 1, 1]), [2])
    doc = cert.to_json_dict()
    text = json.dumps(doc)
    back = TowerCertificate.from_json_dict(json.loads(text))
    assert back == cert
    assert replay_certificate(back)
    with pytest.raises(CertificateReplayError):
        TowerCertificate.from_json_dict({"p": "5"})


def test_certificate_json_roundtrip_beyond_digit_limit():
    # degree 118,098: the last exponent has 11,850 digits, past the default limit of 4300
    limit = sys.get_int_max_str_digits()
    cert = grow_tower(Poly(F2, [1, 1, 1]), target_degree=40000)
    assert cert.final_degree == 118098
    doc = cert.to_json_dict()
    assert len(doc["steps"][-1]["prime_tests"][0]["exponent"]) == 11850
    back = TowerCertificate.from_json_dict(json.loads(json.dumps(doc)))
    assert back == cert
    assert sys.get_int_max_str_digits() == limit


def test_certificate_rejects_malformed_exponents():
    # final degree 6: no exponent reaches 2^6 = 64, so none has more than 2 digits
    doc = grow_tower(Poly(F2, [1, 1, 1]), [3]).to_json_dict()
    assert TowerCertificate.from_json_dict(doc).steps[0].prime_tests[0].exponent == 1
    for text in ("100", "9" * 50000, "1e0", " 1", 1):
        doc["steps"][0]["prime_tests"][0]["exponent"] = text
        with pytest.raises(CertificateReplayError):
            TowerCertificate.from_json_dict(doc)


@lru_cache(maxsize=None)
def _fuzz_document_text(name):
    base, schedule = {"F2 [3, 3]": (Poly(F2, [1, 1, 1]), [3, 3]),
                      "F5 [4, 2]": (Poly(F5, [3, 1]), [4, 2])}[name]
    return json.dumps(grow_tower(base, schedule).to_json_dict())


def _paths(node, path=()):
    """The path (keys and indices) of every value below the root of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


JSON_VALUES = st.one_of(
    st.text(max_size=4),
    st.integers(-10**6, 10**6),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.sampled_from(["d", "exponent", "result"]), st.just("1"), max_size=2),
    st.none(),
)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_replay_of_a_mutated_document_accepts_or_refuses_within_bounds(data):
    """Every mutated document either replays True or is refused with
    CertificateReplayError, in under 1 s and 1 MiB per document."""
    doc = json.loads(_fuzz_document_text(data.draw(st.sampled_from(["F2 [3, 3]", "F5 [4, 2]"]))))
    p, steps = int(doc["p"]), doc["steps"]
    mutation = data.draw(st.sampled_from(
        ["delete", "swap-type", "bad-d", "exponent", "coefficient", "reorder", "other-p"]))
    if mutation == "delete":
        keys = [q for q in _paths(doc) if isinstance(_at(doc, q[:-1]), dict)]
        path = data.draw(st.sampled_from(keys))
        del _at(doc, path[:-1])[path[-1]]
    elif mutation == "swap-type":
        path = data.draw(st.sampled_from(list(_paths(doc))))
        _at(doc, path[:-1])[path[-1]] = data.draw(JSON_VALUES)
    elif mutation == "bad-d":
        data.draw(st.sampled_from(steps))["d"] = str(data.draw(st.sampled_from([0, -1, 3**40])))
    elif mutation == "exponent":
        tests = [t for s in steps for t in s["prime_tests"] + [s["fourth_power_test"]] if t]
        test = data.draw(st.sampled_from(tests))
        test["exponent"] = str(int(test["exponent"]) + data.draw(st.sampled_from([-1, 1])))
    elif mutation == "coefficient":
        coeffs = data.draw(st.sampled_from(
            [doc["base"]] + [t["result"] for s in steps for t in s["prime_tests"]]))
        i = data.draw(st.integers(0, len(coeffs) - 1))
        coeffs[i] = str((int(coeffs[i]) + data.draw(st.integers(1, p - 1))) % p)
    elif mutation == "reorder":
        doc["steps"] = data.draw(st.permutations(steps))
    else:
        doc["p"] = str(data.draw(st.sampled_from([q for q in (2, 3, 5, 7, 2**61 - 1) if q != p])))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        assert replay_certificate(TowerCertificate.from_json_dict(doc)) is True
    except CertificateReplayError:
        pass
    finally:
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 1 << 20


def test_tower_trivial_steps():
    cert = grow_tower(Poly(F2, [1, 1, 1]), [1, 3, 1])
    assert cert.final_degree == 6
    assert cert.steps[0].prime_tests == ()
    assert replay_certificate(cert)


def test_decide_b_xd_large_characteristic():
    p = 2**61 - 1
    K = PrimeField(p)
    # p = 1 mod 3, so F_p contains cube roots of unity and x^2+x+1 splits
    assert p % 3 == 1
    with pytest.raises(ReducibleInputError):
        decide_b_xd(Poly(K, [1, 1, 1]), 2)
    # smallest non-cube c: x^3 - c and even x^9 - c are irreducible over F_p
    c = next(c for c in range(2, 50) if pow(c, (p - 1) // 3, p) != 1)
    b = Poly(K, [p - c, 1])  # x - c
    for d in (3, 9):
        assert decide_b_xd(b, d).irreducible
        # the oracle agrees, exercising the pure-python big-coefficient kernels
        assert rabin_test(compose_power(b, d)).irreducible
    # a perfect square alpha makes x^2 - alpha split
    b = Poly(K, [p - c * c % p, 1])
    verdict = decide_b_xd(b, 2)
    assert not verdict.irreducible and verdict.reason == Reason.ALPHA_IS_DPRIME_POWER
    assert not rabin_test(compose_power(b, 2)).irreducible


def test_fourth_power_evidence_recorded_when_4_divides_d():
    # F_5, d = 4: star holds (5 = 1 mod 4); pick alpha = 2 (not a square mod 5)
    v = decide_xd_minus_alpha(F5, 2, 4)
    assert v.irreducible
    kinds = [type(t).__name__ for t in v.tests]
    assert kinds == ["ResidueTest", "FourthPowerTest"]
    cert = grow_tower(Poly(F5, [3, 1]), [4])  # b = x + 3, alpha = 2
    assert cert.steps[0].fourth_power is not None
    assert replay_certificate(cert)
