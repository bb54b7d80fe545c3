"""Ground-truth irreducibility testing, independent of the fast criterion.

Two oracles with very different failure modes: the Rabin test (gcd
conditions on Frobenius powers of x) and plain trial division by every
monic polynomial of at most half the degree. Both carry explicit work
budgets; exceeding a budget raises instead of silently degrading.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Union

from .errors import EnumerationBoundExceededError, WorkBoundExceededError
from .ff import Poly, PrimeField, _divmod_raw, _gcd_raw, _powmod_raw, _spreads
from .intops import distinct_prime_factors, divisors, mobius

__all__ = [
    "OracleVerdict",
    "rabin_test",
    "trial_division_test",
    "enumerate_irreducibles",
    "count_monic_irreducibles",
    "DEFAULT_WORK_BOUND",
    "DEFAULT_ENUMERATION_BOUND",
]

DEFAULT_WORK_BOUND = 10**7
DEFAULT_ENUMERATION_BOUND = 10**4


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of an oracle call.

    ``witness``, when present, is a proper monic factor of the input.
    """

    irreducible: bool
    method: str
    witness: Optional[Poly] = None


def _raw_sub(K, a: list, b: list) -> list:
    zero = K.zero
    out = list(a) + [zero] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = K.sub(out[i], c)
    while out and out[-1] == zero:
        out.pop()
    return out


def _rabin_work(K, f: list, checkpoints: list[int]) -> int:
    """An upper bound on the multiplications that rabin_test meters on f.

    Over F_p the powers x^(p^k) on the chain are charged what the residue
    ring meters for them, on the ladder the ring picks, with every operand
    at full length: n Frobenius steps in all, each folding (p - 1)(n - 1)
    coefficients by t terms, and no products, when it spreads (see
    ``ff._spreads``, which also bounds the spread); else a product of two
    full residues per square-and-multiply step of each p^k. Each gcd is
    charged n(n + 2): a Euclid step from l to l' < l coefficients meters
    (l - l' + 1)*l', at most 2(j - 1) for each j in (l', l], so the steps
    from n + 1 coefficients meter at most n(n + 1), and the final scaling
    at most n. Reducing x modulo a linear f costs 2, and its powers are
    native, one per step.

    Over K = F_p[y]/(g) of degree m the generic ladder runs, and the same
    counts are charged in products of K, each at most M = m^2 + (m - 1)t_g,
    plus inversions in K, each an extended Euclid over F_p metering at most
    2m(m + 1). A square-and-multiply step charges n^2 products, one
    inversion of f's leading coefficient, and per quotient coefficient one
    product for the coefficient and one per nonzero low term of f. Each gcd
    inverts once per Euclid step, at most n of them, and once to scale.
    """
    n = len(f) - 1
    if isinstance(K, PrimeField):
        p, t = K.p, n - f[:n].count(0)
        work = (2 if n == 1 else 0) + len(checkpoints) * n * (n + 2)
        if n > 1 and _spreads(p, n, t):
            return work + n * (p - 1) * (n - 1) * t
        step = n * n + (n - 1) * t
    else:
        m, t = K.degree, n - f[:n].count(K.zero)
        mul = m * m + (m - 1) * (m - K.modulus[:m].count(0))
        inv = 2 * m * (m + 1)
        work = (inv + 2 * mul if n == 1 else 0) + len(checkpoints) * (
            n * (n + 2) * mul + (n + 1) * inv
        )
        step = (n * n + (n - 1) * (t + 1)) * mul + inv
    prev = 0
    for e in checkpoints + [n]:
        qk = K.order ** (e - prev)
        work += (qk.bit_length() + qk.bit_count() - 2) * step
        prev = e
    return work


def rabin_test(f: Poly, *, work_bound: Optional[int] = DEFAULT_WORK_BOUND) -> OracleVerdict:
    """Rabin irreducibility test over the coefficient field of f.

    f of degree n over F_q is irreducible iff x^(q^n) = x (mod f) and
    gcd(x^(q^(n/r)) - x, f) = 1 for every prime r dividing n. The Frobenius
    powers are computed once along an ascending chain, so the total cost is
    that of a single exponentiation to q^n.
    """
    if f.is_zero:
        raise ValueError("rabin_test requires a nonzero polynomial")
    if not f.is_monic:
        raise ValueError("rabin_test requires a monic polynomial")
    n = f.degree
    if n < 1:
        raise ValueError("rabin_test requires degree >= 1")
    K = f.field
    q = K.order
    fc = list(f.coeffs)
    checkpoints = sorted({n // r for r in distinct_prime_factors(n)})
    if work_bound is not None:
        estimate = _rabin_work(K, fc, checkpoints)
        if estimate > work_bound:
            raise WorkBoundExceededError(
                f"rabin_test on degree {n} over a field of {q.bit_length()}-bit order "
                f"needs about {estimate} multiplications (bound {work_bound})"
            )
    x_red = _divmod_raw(K, [K.zero, K.one], fc)[1]
    h = x_red
    prev = 0
    for e in checkpoints:
        h = _powmod_raw(K, h, q ** (e - prev), fc)
        prev = e
        diff = _raw_sub(K, h, x_red)
        if not diff:
            # x^(q^e) fixes x, so every factor has degree dividing e < n
            return OracleVerdict(False, "rabin")
        g = _gcd_raw(K, fc, diff)
        if len(g) > 1:
            return OracleVerdict(False, "rabin", witness=Poly(K, g))
    h = _powmod_raw(K, h, q ** (n - prev), fc)
    if h != x_red:
        return OracleVerdict(False, "rabin")
    return OracleVerdict(True, "rabin")


@lru_cache(maxsize=256)
def _monic_candidates(K, degree: int) -> tuple[tuple, ...]:
    out = []
    for idx in range(K.order**degree):
        out.append(Poly.monic_from_index(K, degree, idx).coeffs)
    return tuple(out)


def trial_division_test(
    f: Poly, *, work_bound: Optional[int] = DEFAULT_WORK_BOUND
) -> OracleVerdict:
    """Divide f by every monic polynomial of degree <= deg(f)/2.

    Deliberately the dumbest possible oracle. Returns the first divisor
    found as a witness.
    """
    n = f.degree
    if n < 1:
        raise ValueError("trial_division_test requires degree >= 1")
    if n == 1:
        return OracleVerdict(True, "trial-division")
    K = f.field
    q = K.order
    half = n // 2
    if work_bound is not None:
        estimate = sum(q**j * (n - j + 1) * (j + 1) for j in range(1, half + 1))
        if estimate > work_bound:
            raise WorkBoundExceededError(
                f"trial division over order-{q} field at degree {n} needs about "
                f"{estimate} multiplications (bound {work_bound})"
            )
    fc = list(f.coeffs)
    zero = K.zero
    skip_zero_constant = f.coeffs[0] != zero
    for j in range(1, half + 1):
        for cand in _monic_candidates(K, j):
            if skip_zero_constant and cand[0] == zero:
                continue
            if not _divmod_raw(K, fc, list(cand))[1]:
                return OracleVerdict(False, "trial-division", witness=Poly(K, cand))
    return OracleVerdict(True, "trial-division")


def enumerate_irreducibles(
    p: Union[int, PrimeField],
    m: int,
    *,
    bound: int = DEFAULT_ENUMERATION_BOUND,
) -> Iterator[Poly]:
    """Yield every monic irreducible of degree m over F_p, ascending.

    Candidates are ordered by their little-endian coefficient index, so the
    stream is deterministic and restartable. Every linear candidate x + c is
    irreducible and is yielded without a test.
    """
    field = p if isinstance(p, PrimeField) else PrimeField(p)
    if m < 1:
        raise ValueError("degree must be >= 1")
    total = field.p**m
    if total > bound:
        raise EnumerationBoundExceededError(
            f"enumerating degree {m} over GF({field.p}) means {total} candidates (bound {bound})"
        )
    for idx in range(total):
        cand = Poly.monic_from_index(field, m, idx)
        if m == 1 or rabin_test(cand).irreducible:
            yield cand


def count_monic_irreducibles(p: int, m: int) -> int:
    """Necklace count of monic irreducibles: (1/m) * sum over e|m of mu(e) p^(m/e)."""
    if m < 1:
        raise ValueError("degree must be >= 1")
    total = sum(mobius(e) * p ** (m // e) for e in divisors(m))
    return total // m
