"""Probabilities for "x^d - alpha is irreducible" with alpha drawn uniformly.

Three independent routes to the same quantity keep each other honest: the
closed product formula (zero when the whole-field shortcuts apply), the
union lower bound, and an exhaustive census. The census decides every unit
in one batch (``criterion.decide_many``: the shortcuts and the residue plan
once, one vectorized ladder to alpha^((q-1)/R), R the product of the
primes d' | d, then a short one per d') and counts the mask. A random
subsample then checks each sampled mask entry against the per-alpha
``decide_xd_minus_alpha``, which stays the reference, and against the
Rabin oracle over F_p on b(x^d), b the minimal polynomial of alpha
(``_oracle_verdict``). A seeded Monte Carlo estimator rounds out the
empirical side; it draws alpha in the same order as a per-alpha loop and
decides them in batches.

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

import numpy as np

from .criterion import decide_many, decide_xd_minus_alpha, star_condition
from .errors import (CapelliError, EnumerationBoundExceededError, OracleDisagreementError,
                     WorkBoundExceededError)
from .ff import ExtensionField, Poly, PrimeField, compose_power
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

_SAMPLE_BATCH = 1 << 12  # alpha decided per batch by monte_carlo_estimate


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


def _oracle_verdict(
    field: Union[PrimeField, ExtensionField], alpha, d: int, work_bound: Optional[int]
) -> bool:
    """Whether x^d - alpha is irreducible over the field F_{p^k}, by Rabin
    over F_p.

    Let j be the degree of alpha over F_p and b its minimal polynomial, the
    product of x - c over the conjugates c = alpha, alpha^p, ... Then
    x^d - alpha is irreducible over F_{p^j} iff b(x^d) is irreducible over
    F_p, and an irreducible polynomial of degree d over F_{p^j} stays
    irreducible over F_{p^k} iff gcd(d, k/j) = 1 (Lidl and Niederreiter,
    Thm 3.46).
    """
    b, c = [field.one], alpha
    while True:
        # b <- b * (x - c): coefficient i is b[i - 1] - c * b[i]
        b = [field.sub(lo, field.mul(c, hi))
             for lo, hi in zip([field.zero] + b, b + [field.zero])]
        c = field.pow(c, field.p)
        if c == alpha:
            break
    j = len(b) - 1
    if math.gcd(d, field.degree // j) != 1:
        return False
    # b's coefficients lie in F_p, the field's first p indices
    b_xd = compose_power(Poly(PrimeField(field.p), [field.to_index(v) for v in b]), d)
    return rabin_test(b_xd, work_bound=work_bound).irreducible


def exhaustive_census(
    p: int,
    k: int,
    d: int,
    convention: Convention = Convention.UNITS_ONLY,
    *,
    seed: int = 0,
    oracle_fraction: float = 0.1,
    bound: int = DEFAULT_ENUMERATION_BOUND,
    work_bound: Optional[int] = DEFAULT_WORK_BOUND,
) -> CensusResult:
    """Decide x^d - alpha for every unit alpha of F_{p^k} and count.

    For k > 1 the field is built on the first monic irreducible of degree k
    in enumeration order. The count is that of ``decide_many``'s mask. A
    random subsample, a fraction ``oracle_fraction`` of the units, compares
    three answers for each sampled alpha: the mask entry,
    ``decide_xd_minus_alpha`` and the Rabin oracle over F_p on b(x^d), b the
    minimal polynomial of alpha (``_oracle_verdict``, under ``work_bound``);
    any disagreement raises. Set
    ``oracle_fraction=0`` to skip the cross-check in bulk sweeps.
    """
    _validate(p, k, d)
    convention = Convention(convention)
    # p >= 2, so 2^k > bound already shows p^k > bound, before p^k is built
    if k >= bound.bit_length() or (q := p**k) > bound:
        order = p if k == 1 else f"{p}^{k}"
        raise EnumerationBoundExceededError(
            f"census over a field of order {order} exceeds the bound {bound}"
        )
    field = _build_field(p, k, bound)
    indices = np.arange(1, q, dtype=np.int64)
    mask = decide_many(field, d, indices if k == 1 else field.from_indices(indices))
    count = int(mask.sum())
    if oracle_fraction > 0:
        samples = min(math.ceil(oracle_fraction * (q - 1)), q - 1)
        rng = random.Random(seed)
        for i in rng.sample(range(1, q), samples):
            raw = field.from_index(i)
            verdict = decide_xd_minus_alpha(field, raw, d)
            oracle = _oracle_verdict(field, raw, d, work_bound)
            counted = bool(mask[i - 1])
            if not counted == verdict.irreducible == oracle:
                raise OracleDisagreementError(
                    f"on x^{d} - alpha for alpha index {i} over a field of order {q}, "
                    f"the batched decision says {counted}, the per-alpha criterion "
                    f"{verdict.irreducible} and the oracle {oracle}"
                )
    total = q - 1 if convention is Convention.UNITS_ONLY else q
    return CensusResult(q=q, irreducible_count=count, total=total, convention=convention)


def monte_carlo_estimate(
    p: int,
    k: int,
    d: int,
    trials: int,
    seed: int = 0,
) -> MonteCarloResult:
    """Sample alpha uniformly from the units and estimate the probability.

    Fully deterministic for fixed (seed, parameters): the seed drives both
    the modulus search (at most 50*k random monic candidates, Rabin-tested
    under the default work bound, so a degree whose test cannot fit it is
    refused before the first draw) and the alpha stream, which
    ``decide_many`` decides in batches of at most ``_SAMPLE_BATCH``. stderr
    is the plug-in binomial standard error sqrt(phat*(1-phat)/trials).
    """
    _validate(p, k, d)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if k > 1 and k * (k + 2) > DEFAULT_WORK_BOUND:
        # refused before a candidate is drawn: Rabin charges its first gcd k(k + 2)
        raise WorkBoundExceededError(
            f"the modulus search needs rabin_test on degree {k}, at least {k * (k + 2)} "
            f"multiplications each (bound {DEFAULT_WORK_BOUND})"
        )
    rng = random.Random(seed)
    modulus = None
    if k == 1:
        field: Union[PrimeField, ExtensionField] = PrimeField(p)
    else:
        base = PrimeField(p)
        attempts = 50 * k
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
    for start in range(0, trials, _SAMPLE_BATCH):
        # the per-alpha draw order, in batches, so memory does not grow with trials
        drawn = [rng.randrange(1, q) for _ in range(min(_SAMPLE_BATCH, trials - start))]
        values = drawn if k == 1 else field.from_indices(drawn)
        successes += int(decide_many(field, d, values).sum())
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
