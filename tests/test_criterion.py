"""The decision procedure: residue tests, shortcuts, verdicts, towers."""

import json
import random
import sys
from functools import lru_cache
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capelli import (
    CertificateReplayError,
    Element,
    ExtensionField,
    NoViableStepError,
    Poly,
    PrimeField,
    Reason,
    ReducibleInputError,
    ResidueTest,
    TowerCertificate,
    TowerStepRejectedError,
    Verdict,
    compose_power,
    count_mults,
    decide_b_xd,
    decide_many,
    decide_xd_minus_alpha,
    enumerate_irreducibles,
    grow_tower,
    is_nth_power,
    minus4_fourth_power_condition,
    rabin_test,
    reducibility_shortcuts,
    replay_certificate,
    star_condition,
)

from capelli.ff import _ResidueRing
from capelli.intops import primes_up_to

from conftest import field_of_order, prime_powers_up_to

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


# --- power-residue tests -------------------------------------------------------


def test_is_nth_power_examples():
    assert is_nth_power(F7(4), 2)  # squares mod 7 are {1,2,4}
    assert not is_nth_power(F7(3), 2)
    assert is_nth_power(F7(5), 1)
    F9 = ExtensionField(F3, [1, 0, 1])
    assert is_nth_power(Element(F9, F9.gen()), 2)


def test_is_nth_power_rejects_zero():
    with pytest.raises(ValueError):
        is_nth_power(F7(0), 2)
    with pytest.raises(ValueError):
        is_nth_power(F7(3), 0)


def test_is_nth_power_brute_force_agreement():
    """Against enumerated n-th powers over every field of order q <= 81, n <= 12."""
    for q in prime_powers_up_to(81):
        K = field_of_order(q)
        units = [K.from_index(i) for i in range(1, q)]
        for n in range(1, 13):
            powers = {K.pow(u, n) for u in units}
            for u in units:
                assert is_nth_power(Element(K, u), n) == (u in powers), (q, n, u)


def test_minus4_examples():
    assert minus4_fourth_power_condition(F7(3))  # -12 = 2, fourth powers {1,2,4}
    assert minus4_fourth_power_condition(F5(1))  # -4 = 1 = 1^4
    F9 = ExtensionField(F3, [2, 1, 1])
    assert minus4_fourth_power_condition(Element(F9, F9.scalar(2)))  # -8 = 1


def test_minus4_char2_rejected():
    F4 = ExtensionField(F2, [1, 1, 1])
    with pytest.raises(ValueError):
        minus4_fourth_power_condition(Element(F4, F4.gen()))
    with pytest.raises(ValueError):
        minus4_fourth_power_condition(F2(1))


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
    v = decide_xd_minus_alpha(F7(3), 3)
    assert v.irreducible and v.reason == Reason.PASSES_ALL_RESIDUE_TESTS
    v = decide_xd_minus_alpha(F7(6), 3)
    assert not v.irreducible and v.reason == Reason.ALPHA_IS_DPRIME_POWER
    assert v.evidence.dprime == 3
    v = decide_xd_minus_alpha(F7(3), 4)
    assert not v.irreducible and v.reason == Reason.MINUS4ALPHA_IS_FOURTH_POWER
    v = decide_xd_minus_alpha(F7(5), 1)
    assert v.irreducible and v.reason == Reason.DEGREE_ONE
    with pytest.raises(ValueError):
        decide_xd_minus_alpha(F7(0), 3)


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
    return [decide_xd_minus_alpha(Element(F, v), d).irreducible for v in values]


# p = 2 and odd p with k from 1 to 9; word-size p runs native pow per value,
# and so do (2^61 - 1, 2) and (2, 33), whose rings do not batch
BATCH_FIELDS = (
    [(2, k) for k in range(1, 10)]
    + [(3, k) for k in range(1, 7)]
    + [(5, 1), (5, 2), (5, 4), (7, 1), (7, 3), (13, 2), (65521, 1), (65521, 2)]
    + [(2**31 - 1, 1), (2**61 - 1, 1), (2**64 - 59, 1), (2**61 - 1, 2), (2, 33)]
)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_decide_many_matches_per_alpha_verdicts(data):
    p, k = data.draw(st.sampled_from(BATCH_FIELDS), label="p, k")
    F = _random_field(p, k, data.draw(st.integers(0, 2**16), label="modulus seed"))
    d = data.draw(st.one_of(st.integers(1, 24), st.sampled_from([4, 8, 12, 16, 20, 24])))
    indices = data.draw(st.lists(st.integers(1, F.order - 1), max_size=40), label="indices")
    values = [F.from_index(i) for i in indices]
    assert decide_many(F, d, values).tolist() == _per_alpha_mask(F, d, values)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 13, 16, 25, 27, 49, 81, 125, 512])
def test_decide_many_matches_per_alpha_on_every_unit(q):
    """The census's input: every unit, as an index array or an (N, m) array."""
    F = field_of_order(q)
    indices = np.arange(1, q, dtype=np.int64)
    batch = indices if F.degree == 1 else F.from_indices(indices)
    values = [F.from_index(i) for i in range(1, q)]
    for d in range(1, 17):
        assert decide_many(F, d, batch).tolist() == _per_alpha_mask(F, d, values), d


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_fourth_power_test_decides_only_where_a_shortcut_applies(data):
    """Why decide_many runs no fourth-power test: with 4 | d and no shortcut,
    -4*alpha is a fourth power only when alpha is a square."""
    p, k = data.draw(st.sampled_from([(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2),
                                      (11, 3), (13, 1), (13, 2), (65521, 1), (2**61 - 1, 1)]))
    F = _random_field(p, k, data.draw(st.integers(0, 2**16)))
    d = 4 * data.draw(st.integers(1, 6))
    alpha = Element(F, F.from_index(data.draw(st.integers(1, F.order - 1))))
    if decide_xd_minus_alpha(alpha, d).reason is Reason.MINUS4ALPHA_IS_FOURTH_POWER:
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


def test_decide_evidence_order_is_fixed():
    v = decide_xd_minus_alpha(F7(3), 12)
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
    v = decide_xd_minus_alpha(F7(3), 4)
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
                base = decide_xd_minus_alpha(Element(F, alpha), d).irreducible
                conj = alpha
                for _ in range(1, m):
                    conj = F.pow(conj, p)
                    got = decide_xd_minus_alpha(Element(F, conj), d).irreducible
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
    with patch.object(_ResidueRing, "_frob_lists", side_effect=AssertionError), patch.object(
        _ResidueRing, "_frob_np", side_effect=AssertionError
    ):
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
    return decide_xd_minus_alpha(Element(F, F.gen()), d)


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
    v = decide_xd_minus_alpha(F5(2), 4)
    assert v.irreducible
    kinds = [type(t).__name__ for t in v.tests]
    assert kinds == ["ResidueTest", "FourthPowerTest"]
    cert = grow_tower(Poly(F5, [3, 1]), [4])  # b = x + 3, alpha = 2
    assert cert.steps[0].fourth_power is not None
    assert replay_certificate(cert)
