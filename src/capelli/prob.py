"""Probabilities for "x^d - alpha is irreducible" with alpha drawn uniformly.

Three independent routes to the same quantity keep each other honest: the
closed product formula (zero when the whole-field shortcuts apply), the
union lower bound, and an exhaustive census that decides every alpha
separately and spot-checks a sample against the brute-force oracle. A
seeded Monte Carlo estimator rounds out the empirical side.

Unless asked otherwise, probabilities are over the units (alpha uniform on
the multiplicative group). The include-zero convention enlarges only the
denominator: alpha = 0 never counts as irreducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from .criterion import decide_xd_minus_alpha, star_condition
from .errors import CapelliError, EnumerationBoundExceededError, OracleDisagreementError
from .ff import Element, ExtensionField, Poly, PrimeField
from .intops import distinct_prime_factors, is_prime
from .oracle import (
    DEFAULT_ENUMERATION_BOUND,
    DEFAULT_WORK_BOUND,
    enumerate_irreducibles,
    rabin_test,
)

__all__ = [
    "Convention",
    "CensusResult",
    "MonteCarloResult",
    "exact_probability",
    "union_lower_bound",
    "exhaustive_census",
    "monte_carlo_estimate",
]


class Convention(str, Enum):
    """Which population alpha is drawn from."""

    UNITS_ONLY = "units-only"
    INCLUDE_ZERO = "include-zero"


@dataclass(frozen=True)
class CensusResult:
    """Exhaustive count of alpha with x^d - alpha irreducible."""

    q: int
    irreducible_count: int
    total: int
    convention: Convention

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.irreducible_count, self.total)


@dataclass(frozen=True)
class MonteCarloResult:
    """Seeded sampling estimate with its binomial standard error."""

    estimate: Fraction
    stderr: float
    successes: int
    trials: int
    modulus: Optional[Poly] = None


def _validate(p: int, k: int, d: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1 or d < 1:
        raise ValueError("k and d must be >= 1")


def exact_probability(
    p: int, k: int, d: int, convention: Convention = Convention.UNITS_ONLY
) -> Fraction:
    """Probability that x^d - alpha is irreducible over F_{p^k}.

    Zero whenever a whole-field shortcut applies; otherwise the product of
    (1 - 1/d') over the distinct primes d' dividing d, which closes the
    inclusion-exclusion over the index-d' power subgroups (for distinct
    primes their intersection has index equal to the product).
    """
    _validate(p, k, d)
    convention = Convention(convention)
    if not star_condition(p, k, d):
        prob = Fraction(0)
    else:
        prob = Fraction(1)
        for r in distinct_prime_factors(d):
            prob *= 1 - Fraction(1, r)
    if convention is Convention.INCLUDE_ZERO:
        q = p**k
        prob *= Fraction(q - 1, q)
    return prob


def union_lower_bound(d: int) -> Fraction:
    """1 minus the sum of 1/d' over distinct primes d' | d; may be <= 0.

    A valid lower bound on the irreducible fraction whenever irreducible
    alpha exist at all; vacuous when it drops to zero or below.
    """
    if not isinstance(d, int) or d < 2:
        raise ValueError("d must be an integer >= 2")
    bound = Fraction(1)
    for r in distinct_prime_factors(d):
        bound -= Fraction(1, r)
    return bound


@lru_cache(maxsize=256)
def _build_field(p: int, k: int, bound: int) -> Union[PrimeField, ExtensionField]:
    base = PrimeField(p)
    if k == 1:
        return base
    modulus = next(enumerate_irreducibles(base, k, bound=bound))
    return ExtensionField(base, modulus, trusted=True)


def exhaustive_census(
    p: int,
    k: int,
    d: int,
    convention: Convention = Convention.UNITS_ONLY,
    *,
    seed: int = 0,
    oracle_fraction: float = 0.1,
    oracle_cap: Optional[int] = None,
    bound: int = DEFAULT_ENUMERATION_BOUND,
    work_bound: Optional[int] = DEFAULT_WORK_BOUND,
) -> CensusResult:
    """Decide x^d - alpha for every unit alpha of F_{p^k} and count.

    For k > 1 the field is built on the first monic irreducible of degree k
    in enumeration order. A random subsample (fraction ``oracle_fraction``
    of the units, optionally capped at ``oracle_cap``) is re-tested against
    the Rabin oracle on the literal polynomial x^d - alpha; any mismatch
    raises. Set ``oracle_fraction=0`` to skip the cross-check in bulk sweeps.
    """
    _validate(p, k, d)
    convention = Convention(convention)
    q = p**k
    if q > bound:
        raise EnumerationBoundExceededError(
            f"census over a field of order {q} exceeds the bound {bound}"
        )
    field = _build_field(p, k, bound)
    count = 0
    for i in range(1, q):
        alpha = Element(field, field.from_index(i))
        if decide_xd_minus_alpha(alpha, d).irreducible:
            count += 1
    if oracle_fraction > 0:
        samples = math.ceil(oracle_fraction * (q - 1))
        if oracle_cap is not None:
            samples = min(samples, oracle_cap)
        samples = min(samples, q - 1)
        rng = random.Random(seed)
        zero, one = field.zero, field.one
        for i in rng.sample(range(1, q), samples):
            raw = field.from_index(i)
            verdict = decide_xd_minus_alpha(Element(field, raw), d)
            binomial = Poly(field, [field.neg(raw)] + [zero] * (d - 1) + [one])
            oracle = rabin_test(binomial, work_bound=work_bound)
            if oracle.irreducible != verdict.irreducible:
                raise OracleDisagreementError(
                    f"criterion and oracle disagree on x^{d} - alpha for alpha index {i} "
                    f"over a field of order {q}"
                )
    total = q - 1 if convention is Convention.UNITS_ONLY else q
    return CensusResult(q=q, irreducible_count=count, total=total, convention=convention)


def monte_carlo_estimate(
    p: int,
    k: int,
    d: int,
    trials: int,
    seed: int = 0,
    *,
    modulus_attempts: Optional[int] = None,
) -> MonteCarloResult:
    """Sample alpha uniformly from the units and estimate the probability.

    Fully deterministic for fixed (seed, parameters): the seed drives both
    the modulus search (random monic candidates, Rabin-tested, at most
    50*k attempts by default) and the alpha stream. stderr is the plug-in
    binomial standard error sqrt(phat*(1-phat)/trials).
    """
    _validate(p, k, d)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    modulus = None
    if k == 1:
        field: Union[PrimeField, ExtensionField] = PrimeField(p)
    else:
        base = PrimeField(p)
        attempts = modulus_attempts if modulus_attempts is not None else 50 * k
        for _ in range(attempts):
            candidate = Poly(base, [rng.randrange(p) for _ in range(k)] + [1])
            if rabin_test(candidate).irreducible:
                modulus = candidate
                break
        else:
            raise CapelliError(
                f"no irreducible degree-{k} modulus found in {attempts} attempts"
            )
        field = ExtensionField(base, modulus, trusted=True)
    q = field.order
    successes = 0
    for _ in range(trials):
        alpha = Element(field, field.from_index(rng.randrange(1, q)))
        if decide_xd_minus_alpha(alpha, d).irreducible:
            successes += 1
    estimate = Fraction(successes, trials)
    phat = successes / trials
    stderr = math.sqrt(phat * (1.0 - phat) / trials)
    return MonteCarloResult(
        estimate=estimate,
        stderr=stderr,
        successes=successes,
        trials=trials,
        modulus=modulus,
    )
