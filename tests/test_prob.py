"""Probability model: formulas, censuses, and the Monte Carlo estimator."""

import random
import tracemalloc
from fractions import Fraction

import pytest

from capelli import (
    Convention,
    EnumerationBoundExceededError,
    ExtensionField,
    OracleDisagreementError,
    Poly,
    PrimeField,
    Reason,
    Verdict,
    WorkBoundExceededError,
    compose_power,
    count_mults,
    decide_xd_minus_alpha,
    exact_probability,
    exhaustive_census,
    monte_carlo_estimate,
    rabin_test,
    star_condition,
    union_lower_bound,
)
from capelli import prob

from conftest import prime_powers_up_to


def test_exact_probability_examples():
    assert exact_probability(7, 1, 3) == Fraction(2, 3)
    for p in (3, 5, 7, 11):
        for k in (1, 2, 3):
            assert exact_probability(p, k, 2) == Fraction(1, 2)
    assert exact_probability(7, 1, 6) == Fraction(1, 3)
    assert exact_probability(3, 1, 4) == 0


def test_exact_probability_include_zero():
    assert exact_probability(7, 1, 3, Convention.INCLUDE_ZERO) == Fraction(2, 3) * Fraction(6, 7)
    assert exact_probability(7, 1, 1) == 1
    assert exact_probability(7, 1, 1, Convention.INCLUDE_ZERO) == Fraction(6, 7)


def test_union_lower_bound_examples():
    assert union_lower_bound(12) == Fraction(1, 6)
    assert union_lower_bound(2) == Fraction(1, 2)
    assert union_lower_bound(30) == Fraction(-1, 30)
    # the exact value stays positive where the bound goes vacuous
    assert exact_probability(31, 1, 30) == Fraction(4, 15)
    with pytest.raises(ValueError):
        union_lower_bound(1)


def test_census_examples():
    c = exhaustive_census(7, 1, 3)
    assert (c.irreducible_count, c.total) == (4, 6)
    assert c.convention is Convention.UNITS_ONLY
    c = exhaustive_census(5, 1, 2)
    assert (c.irreducible_count, c.total) == (2, 4)
    c = exhaustive_census(3, 1, 4)
    assert (c.irreducible_count, c.total) == (0, 2)


def test_census_builds_each_field_once():
    from capelli.prob import _build_field

    exhaustive_census(3, 4, 2, oracle_fraction=0)
    field = _build_field(3, 4, 10_000)
    exhaustive_census(3, 4, 5, oracle_fraction=0)
    assert _build_field(3, 4, 10_000) is field


@pytest.mark.parametrize("index", [1, 6, 80])
def test_census_subsample_catches_a_corrupted_mask(index, monkeypatch):
    """The count comes from the mask, so the subsample checks the mask itself."""
    batched = prob.decide_many

    def corrupted(field, d, values):
        mask = batched(field, d, values)
        mask[index - 1] = not mask[index - 1]
        return mask

    monkeypatch.setattr(prob, "decide_many", corrupted)
    with pytest.raises(OracleDisagreementError, match=f"alpha index {index} "):
        exhaustive_census(3, 4, 4, oracle_fraction=1.0)


def test_census_oracle_needs_d_coprime_to_the_degree_ratio():
    """x^d - alpha, alpha of degree j over F_p, is irreducible over F_{p^k}
    iff b(x^d) is over F_p and gcd(d, k/j) = 1. Over F_9, alpha = -1 lies
    in F_3: Rabin over F_3 calls x^2 + 1 irreducible, yet it splits over F_9."""
    F9 = prob._build_field(3, 2, 10_000)
    minus_one = F9.neg(F9.one)
    assert rabin_test(Poly(PrimeField(3), [1, 0, 1])).irreducible
    assert not prob._oracle_verdict(F9, minus_one, 2, None)
    assert not decide_xd_minus_alpha(F9, minus_one, 2).irreducible
    assert exhaustive_census(3, 2, 2, oracle_fraction=1.0).irreducible_count == 4


def test_census_oracle_on_alpha_of_degree_two_in_f81():
    """k = 4, j = 2: alpha has minimal polynomial x^2 - (alpha + alpha^3)x
    + alpha^4 over F_3. Where b(x^2) is irreducible, x^2 - alpha is
    irreducible over F_9 and splits over F_81, as gcd(2, 2) = 2 says."""
    F3, F81 = PrimeField(3), prob._build_field(3, 4, 10_000)
    irreducible_over_f9 = 0
    for i in range(1, 81):
        alpha = F81.from_index(i)
        if F81.pow(alpha, 9) != alpha or F81.pow(alpha, 3) == alpha:
            continue
        trace, norm = F81.add(alpha, F81.pow(alpha, 3)), F81.pow(alpha, 4)
        b = Poly(F3, [F81.to_index(norm), F81.to_index(F81.neg(trace)), 1])
        irreducible_over_f9 += rabin_test(compose_power(b, 2)).irreducible
        for d in (2, 4, 5):
            assert not prob._oracle_verdict(F81, alpha, d, None), (i, d)
    assert irreducible_over_f9 == 4
    for d in (2, 4, 5, 10):
        exhaustive_census(3, 4, d, oracle_fraction=1.0)


def test_census_subsample_catches_a_wrong_per_alpha_verdict(monkeypatch):
    def flipped(field, alpha, d):
        if decide_xd_minus_alpha(field, alpha, d).irreducible:
            return Verdict(False, Reason.ALPHA_IS_DPRIME_POWER)
        return Verdict(True, Reason.PASSES_ALL_RESIDUE_TESTS)

    monkeypatch.setattr(prob, "decide_xd_minus_alpha", flipped)
    with pytest.raises(OracleDisagreementError):
        exhaustive_census(5, 2, 3, oracle_fraction=0.05)


def test_census_bound():
    with pytest.raises(EnumerationBoundExceededError):
        exhaustive_census(10007, 1, 2, bound=10_000)


def test_census_convention_consistency():
    # d = 1 included: alpha = 0 enlarges the total only, never the count
    for (p, k, d) in ((7, 1, 3), (3, 2, 2), (5, 1, 4), (2, 3, 7), (7, 1, 1)):
        units = exhaustive_census(p, k, d, Convention.UNITS_ONLY)
        both = exhaustive_census(p, k, d, Convention.INCLUDE_ZERO)
        assert units.irreducible_count == both.irreducible_count
        assert both.total == units.total + 1


def test_census_matches_exact_small_grid():
    """Census count = exact probability * (q-1) on a quick grid (full in acceptance)."""
    for q in prime_powers_up_to(64):
        from capelli.intops import factor_integer

        factors = factor_integer(q)
        p, k = factors[0], len(factors)
        for d in range(1, 13):
            census = exhaustive_census(p, k, d)
            expect = exact_probability(p, k, d) * (q - 1)
            assert expect.denominator == 1
            assert census.irreducible_count == expect.numerator, (p, k, d)


def test_union_bound_le_exact_under_star():
    for p in (3, 5, 7, 13):
        for k in (1, 2):
            for d in range(2, 13):
                if star_condition(p, k, d):
                    assert union_lower_bound(d) <= exact_probability(p, k, d)


def test_monte_carlo_deterministic():
    a = monte_carlo_estimate(7, 1, 3, 500, seed=7)
    b = monte_carlo_estimate(7, 1, 3, 500, seed=7)
    assert a == b
    c = monte_carlo_estimate(7, 1, 3, 500, seed=8)
    assert a != c or a.estimate == c.estimate  # different stream, equality only by chance


def test_monte_carlo_exact_cases():
    mc = monte_carlo_estimate(3, 1, 4, 300, seed=2)
    assert mc.estimate == 0
    mc = monte_carlo_estimate(7, 1, 1, 300, seed=3)
    assert mc.estimate == 1
    assert mc.stderr == 0.0


def test_monte_carlo_statistical_example():
    mc = monte_carlo_estimate(7, 1, 3, 6000, seed=1)
    assert abs(float(mc.estimate) - 2 / 3) <= 3 * mc.stderr


def test_monte_carlo_extension_field_modulus():
    mc = monte_carlo_estimate(3, 2, 2, 400, seed=5)
    assert mc.modulus is not None
    assert mc.modulus.degree == 2
    assert abs(float(mc.estimate) - 0.5) <= 4 * mc.stderr


def test_monte_carlo_refuses_an_oversized_modulus_before_it_draws():
    """No Rabin test of degree 10^7 fits the default bound, so the search
    raises with no candidate's k + 1 coefficients drawn."""
    tracemalloc.start()
    try:
        with pytest.raises(WorkBoundExceededError, match="rabin_test on degree 10000000"):
            monte_carlo_estimate(3, 10**7, 2, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_monte_carlo_validations():
    with pytest.raises(ValueError):
        monte_carlo_estimate(7, 1, 3, 0)
    with pytest.raises(ValueError):
        monte_carlo_estimate(8, 1, 3, 10)


def _per_alpha_successes(p, k, d, trials, seed):
    """monte_carlo_estimate's draws, decided one alpha at a time."""
    rng = random.Random(seed)
    F = PrimeField(p)
    if k > 1:
        while True:
            g = Poly(F, [rng.randrange(p) for _ in range(k)] + [1])
            if rabin_test(g).irreducible:
                break
        F = ExtensionField(F, g, trusted=True)
    drawn = (F.from_index(rng.randrange(1, F.order)) for _ in range(trials))
    return sum(decide_xd_minus_alpha(F, v, d).irreducible for v in drawn)


@pytest.mark.parametrize(
    "p, k, d, trials, pinned",
    [(3, 6, 4, 6000, {1: 2971, 2: 3003}), (2**61 - 1, 1, 6, 3000, {1: 1023, 2: 1004})],
)
@pytest.mark.parametrize("seed", [1, 2])
def test_monte_carlo_matches_the_per_alpha_loop(p, k, d, trials, pinned, seed):
    mc = monte_carlo_estimate(p, k, d, trials, seed=seed)
    assert mc.successes == _per_alpha_successes(p, k, d, trials, seed) == pinned[seed]


def test_monte_carlo_batches_keep_the_draw_order(monkeypatch):
    expected = _per_alpha_successes(5, 3, 8, 500, 3)
    monkeypatch.setattr(prob, "_SAMPLE_BATCH", 7)
    assert monte_carlo_estimate(5, 3, 8, 500, seed=3).successes == expected


@pytest.mark.parametrize(
    "p, k, d, pinned",
    # q = 2^63: the largest index fits int64; q = 3^40 > 2^63 takes Python-int indices
    [(2, 63, 7, 254), (3, 40, 2, 138)],
)
def test_monte_carlo_converts_each_batch_in_one_call(p, k, d, pinned, monkeypatch):
    """Each batch of 128 draws goes to ``from_indices`` once; no draw is
    converted alone."""
    calls = []
    from_indices = ExtensionField.from_indices

    def counted(field, indices):
        calls.append(len(indices))
        return from_indices(field, indices)

    monkeypatch.setattr(prob, "_SAMPLE_BATCH", 128)
    monkeypatch.setattr(ExtensionField, "from_indices", counted)
    monkeypatch.setattr(ExtensionField, "from_index", lambda *args: pytest.fail("from_index"))
    assert monte_carlo_estimate(p, k, d, 300, seed=4).successes == pinned
    assert calls == [128, 128, 44]


def test_census_and_monte_carlo_work_pinned():
    """Batched ladders over F_{3^6} and Montgomery ladders at p = 2^61 - 1:
    what a census and a Monte Carlo run meter together."""
    with count_mults() as work:
        census = exhaustive_census(3, 6, 4, oracle_fraction=0)
        sample = monte_carlo_estimate(2**61 - 1, 1, 6, 30000, seed=7)
    assert (census.irreducible_count, sample.successes) == (364, 9834)
    assert work() == 3_086_948
