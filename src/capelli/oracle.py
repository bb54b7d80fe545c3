"""Ground-truth irreducibility testing, independent of the fast criterion.

Two oracles with very different failure modes: the Rabin test (gcd
conditions on Frobenius powers of x, computed in the residue ring) and
plain trial division by every monic polynomial of at most half the degree,
in index order. Both take polynomials over F_p. Trial division takes one
vectorized Horner remainder pass per block of candidates of one degree
(at most ``_TRIAL_BLOCK`` entries; where a degree needs more than one,
the first holds 1/16 of that and each next one twice the last), on int64
where its sums fit and on Python ints elsewhere. It calls no ``ff``
kernel, so at every p it shares no code with the ring and gcd that Rabin
uses. Both carry explicit work budgets; exceeding a budget raises instead
of silently degrading.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterator, Optional, Union

import numpy as np

from .errors import EnumerationBoundExceededError, WorkBoundExceededError
from .ff import (
    _METER_LOCAL,
    Poly,
    PrimeField,
    _ResidueRing,
    _gcd_raw,
    _ladder_products,
    _np_safe,
    _pf_divmod,
    _strip,
)
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
_TRIAL_BLOCK = 1 << 16  # entries per block of trial-division candidates


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of an oracle call.

    ``witness``, when present, is a proper monic factor of the input.
    """

    irreducible: bool
    method: str
    witness: Optional[Poly] = None


def _raw_sub(p: int, a: list[int], b: list[int]) -> list[int]:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _strip(out, 0)


def _doubling_chain(k: int, known) -> list[tuple[int, int]]:
    """The compositions that reach x^(p^k) from the powers in ``known``.

    ``known`` holds exponents j whose x^(p^j) mod f is at hand, 1 among
    them. Each pair (k', i), in ascending k', stands for
    x^(p^k') = x^(p^i) composed with x^(p^(k' - i)): k' is halved when
    even and stepped down by one when odd, until it is known.
    """
    chain = []
    while k not in known:
        i = k - 1 if k & 1 else k >> 1
        chain.append((k, i))
        k = i
    return chain[::-1]


def _rabin_work(ring: _ResidueRing, checkpoints: list[int]) -> int:
    """An upper bound on the multiplications that rabin_test meters on the
    ring's modulus f.

    The powers x^(p^k) on the chain are charged what the residue ring
    meters for them, with every operand at full length. A ring whose
    Frobenius step is cheap (``spreads``) takes n steps in all and no
    products: for a binomial f = x^n - c each moves at most n coefficients
    and counts at most n*t, and otherwise each folds (p - 1)(n - 1)
    coefficients by t terms. Any other ring takes x^p on the binary ladder,
    a product of two full residues per square-and-multiply step, and then
    each composition of the doubling chain (``_doubling_chain``): Brent and
    Kung's s + ceil(n / s) - 2 products for s = ceil(sqrt(n)), which no
    shorter g exceeds, and at most n^2 for combining the baby steps. Each
    gcd is charged n(n + 2): a Euclid step from l to l' < l coefficients
    meters (l - l' + 1)*l', at most 2(j - 1) for each j in (l', l], so the
    steps from n + 1 coefficients meter at most n(n + 1), and the final
    scaling at most n. Reducing x modulo a linear f costs 2, and x^p is then
    a native power, charged its ladder's products.
    """
    p, n, t = ring.p, ring.n, len(ring.terms)
    work = (2 if n == 1 else 0) + len(checkpoints) * n * (n + 2)
    if n > 1 and ring.spreads:
        return work + n * (n if ring.binomial else (p - 1) * (n - 1)) * t
    step = n * n + (n - 1) * t
    s = isqrt(n - 1) + 1
    known = {1}
    for e in checkpoints + [n]:
        chain = _doubling_chain(e, known)
        known.update(k for k, _ in chain)
        work += len(chain) * ((s - 2 - (-n // s)) * step + n * n)
    return work + _ladder_products(p) * step


def rabin_test(f: Poly, *, work_bound: Optional[int] = DEFAULT_WORK_BOUND) -> OracleVerdict:
    """Rabin irreducibility test over F_p.

    f of degree n is irreducible iff x^(p^n) = x (mod f) and
    gcd(x^(p^(n/r)) - x, f) = 1 for every prime r dividing n. The Frobenius
    powers are computed once along an ascending chain: by n Frobenius steps
    in all, or where a step is not cheap, by x^p and O(log n) compositions
    (``_frobenius_climb``).
    """
    if f.is_zero:
        raise ValueError("rabin_test requires a nonzero polynomial")
    if not f.is_monic:
        raise ValueError("rabin_test requires a monic polynomial")
    n = f.degree
    if n < 1:
        raise ValueError("rabin_test requires degree >= 1")
    p = f.field.p
    fc = list(f.coeffs)
    checkpoints = sorted({n // r for r in distinct_prime_factors(n)})
    ring = _ResidueRing(p, fc)
    if work_bound is not None:
        estimate = _rabin_work(ring, checkpoints)
        if estimate > work_bound:
            raise WorkBoundExceededError(
                f"rabin_test on degree {n} over a field of {p.bit_length()}-bit order "
                f"needs about {estimate} multiplications (bound {work_bound})"
            )
    x_red = _pf_divmod(p, [0, 1], fc)[1]
    climb = _frobenius_climb(ring, x_red)
    for e in checkpoints:
        diff = _raw_sub(p, climb(e), x_red)
        if not diff:
            # x^(p^e) fixes x, so every factor has degree dividing e < n
            return OracleVerdict(False, "rabin")
        g = _gcd_raw(p, fc, diff)
        if len(g) > 1:
            return OracleVerdict(False, "rabin", witness=Poly(f.field, g))
    if climb(n) != x_red:
        return OracleVerdict(False, "rabin")
    return OracleVerdict(True, "rabin")


def _frobenius_climb(ring: _ResidueRing, x_red: list[int]):
    """A function e -> x^(p^e) mod f in the ring modulo f, to be called with
    ascending e.

    Where the ring's Frobenius step is not cheap (``spreads``), x^p is taken
    once on its ladder and each x^(p^e) by compositions from the powers
    known so far (``_doubling_chain``). Elsewhere each call climbs from the
    last power by e - prev Frobenius steps (``frobenius_steps``), which
    meter what the radix-p ladder of h^(p^(e - prev)) meters.
    """
    p = ring.p
    if not ring.spreads:
        known = {1: ring.pow(x_red, p)}

        def climb(e: int) -> list:
            for k, i in _doubling_chain(e, known):
                known[k] = ring.compose(known[i], known[k - i])
            return known[e]

    else:
        known = {0: x_red}

        def climb(e: int) -> list:
            prev = max(known)
            known[e] = ring.frobenius_steps(known[prev], e - prev)
            return known[e]

    return climb


def _candidate_block(p: int, j: int, start: int, count: int) -> np.ndarray:
    """Low coefficients of the monic degree-j candidates start, ..., start + count - 1.

    Entry [i, k] is coefficient i of candidate start + k: base-p digit i of
    its index, as in ``Poly.monic_from_index``. The digits of start are
    taken in Python and k is added with carries, so no entry ever exceeds
    count + p, however large p^j is. The block is int64 where
    ``_remainders`` runs on int64 (``_np_safe(p, j)``) and holds Python
    ints elsewhere.
    """
    dtype = np.int64 if _np_safe(p, j) else object
    out = np.empty((j, count), dtype=dtype)
    carry = np.arange(count, dtype=dtype)
    for i in range(j):
        start, digit = divmod(start, p)
        carry += digit
        out[i] = carry % p
        carry //= p
    return out


def _remainders(p: int, fc: list[int], low: np.ndarray) -> np.ndarray:
    """f mod x^j + low[:, k] for every column k, by one Horner pass.

    Starts from the top j coefficients of f, one row each; for each lower
    coefficient it reduces the top row mod p, rotates it to the bottom as
    the new coefficient, and subtracts top * C from every row. Only the row
    that multiplies is reduced, so top * C < p^2; a row takes at most j
    such subtractions before it is the top, so entries stay above
    -j(p - 1)^2. The rows are int64 where that fits (``_np_safe(p, j)``)
    and Python ints elsewhere, whatever the dtype of low. All rows are
    reduced at the end.
    """
    j, count = low.shape
    dtype = np.int64 if _np_safe(p, j) else object
    low = low.astype(dtype, copy=False)
    rows = [np.full(count, c, dtype=dtype) for c in fc[-j:]]
    for c in reversed(fc[:-j]):
        row = rows.pop()
        top = row % p
        row.fill(c)
        rows.insert(0, row)
        for r, coeff in zip(rows, low):
            r -= top * coeff
    return np.array(rows) % p


def trial_division_test(
    f: Poly, *, work_bound: Optional[int] = DEFAULT_WORK_BOUND
) -> OracleVerdict:
    """Divide f by every monic polynomial of degree <= deg(f)/2.

    Deliberately the dumbest possible oracle. Candidates are tried in
    ascending degree and, within a degree, in ``Poly.monic_from_index``
    order; zero-constant candidates are skipped when f(0) != 0. Returns the
    first divisor found as a witness. Degree by degree, in blocks of
    candidates, one remainder pass (``_remainders``) finds the first zero
    remainder, at every p. A degree-j block holds at most ``_TRIAL_BLOCK``
    entries, j per candidate. A degree whose candidates fit in one block
    takes them in one pass; a longer one starts at 1/16 of a block and
    doubles, so an early witness among p^j candidates costs a small block.
    It calls no ``ff`` kernel, so it shares no code with the ring and gcd
    that Rabin uses. Each candidate up to and including the witness is
    charged what dividing f by it counts, (n - j + 1)(j + 1) for degree j.
    """
    n = f.degree
    if n < 1:
        raise ValueError("trial_division_test requires degree >= 1")
    if n == 1:
        return OracleVerdict(True, "trial-division")
    p = f.field.p
    if work_bound is not None:
        estimate = sum(p**j * (n - j + 1) * (j + 1) for j in range(1, n // 2 + 1))
        if estimate > work_bound:
            raise WorkBoundExceededError(
                f"trial division over order-{p} field at degree {n} needs about "
                f"{estimate} multiplications (bound {work_bound})"
            )
    fc = list(f.coeffs)
    for j in range(1, n // 2 + 1):
        total, largest = p**j, max(1, _TRIAL_BLOCK // j)
        start, step = 0, largest if total <= largest else max(1, largest // 16)
        while start < total:
            low = _candidate_block(p, j, start, min(step, total - start))
            start, step = start + step, min(2 * step, largest)
            if fc[0]:
                low = low[:, low[0] != 0]
            hits = np.flatnonzero((_remainders(p, fc, low) == 0).all(axis=0))
            tried = int(hits[0]) + 1 if hits.size else low.shape[1]
            _METER_LOCAL.mults += tried * (n - j + 1) * (j + 1)
            if hits.size:
                witness = Poly(f.field, low[:, hits[0]].tolist() + [1])
                return OracleVerdict(False, "trial-division", witness=witness)
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
