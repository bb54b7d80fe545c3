"""Exact arithmetic: prime fields, extension fields, and dense polynomials
over prime fields.

Representation choices:

 - Group orders and exponents are plain Python ints; they are exact at any
   size, so q - 1 for q = p^m needs no special big-integer type.
 - A prime-field element is an int in [0, p). An extension-field element is
   a fixed-length tuple of ints: the little-endian coefficients of its
   residue polynomial, zero-padded to the field degree. Both are immutable
   and hashable, and the tuple is what certificates record.
 - ``Poly`` stores a normalized little-endian coefficient tuple over F_p;
   it accepts no other field. The zero polynomial has an empty tuple and
   degree -1, which acts as the "minus infinity" degree: it compares below
   every real degree.
 - Fields compute on raw values only (``field.mul(a, b)`` etc.); a
   function that takes an element takes the field and the raw value.

All arithmetic modulo a monic f over F_p goes through one residue ring,
``_ResidueRing(p, f)``: extension-field products and powers, and the
modular powers of ``poly_powmod`` and the Rabin oracle. Inside it values
are trimmed int lists, converted to padded tuples only at the
``ExtensionField`` boundary. Its backend follows from p and deg f, and
its kernels are bound when it is built: plain int lists up to degree
``_LISTS_MAX_DEG``, int64 numpy above it when the sums cannot overflow,
and lists otherwise. Both reduce by folding with the t nonzero terms of
x^n - f, so a ring costs O(n) to build and sparse moduli such as b(x^d)
reduce in O(t) per coefficient.
Outside the ring, ``Poly`` products and division (``_pf_mul``,
``_pf_divmod``, and the gcd on it) run schoolbook loops on int lists at
every size.

The module has one powering ladder, ``_ladder``, and every power runs on
it: residues; (N, n) rows of residues, int64 where a batched product's
sums fit and Python ints elsewhere (``pow_many``); F_p values on int64
arrays or, for p above about 1.5 * 10^9, in Montgomery form on uint64
arrays. It reads the exponent in a radix r and spends, per digit, one step
a -> a^r and one product by a^digit if the digit is nonzero. Over F_p,
a(x)^p = a(x^p), so a p-th power (a Frobenius step) takes no products.
For a binomial f = x^n - c it moves and scales each coefficient,
x^(ip) = c^floor(ip/n) x^(ip mod n), in O(n) at any p; for other f it is
a spread of the coefficients to stride p and a fold by f. Only
``_ResidueRing.pow`` passes r = p with that step, when the step is cheap
(``_spreads``): f is a binomial, or one spread counts no more in the work
model than the products the binary ladder spends on one p-th power
(``_ladder_products``) and stays below n^2 + 2n coefficients. Every other
power takes r = 2 and squares.

The ring also composes, g(h) mod f, by Brent and Kung's baby steps and
giant steps in about 2 sqrt(n) products (``compose``). Where a ring's
Frobenius step is cheap, the Rabin oracle reaches each x^(p^k) by
Frobenius steps alone (``frobenius_steps``). Elsewhere it takes x^p once
on the ladder and reaches each x^(p^k) by compositions, since
x^(p^(i+j)) = x^(p^i) composed with x^(p^j) mod f (von zur Gathen and
Shoup, 1992).

A per-thread work meter tallies coefficient multiplications by a fixed
model of the operand sizes (see ``count_mults``), never by what a backend
happened to do. It is diagnostic instrumentation: results of all
operations are independent of it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from functools import partial
from math import isqrt
from typing import Sequence, Union

import numpy as np

from .errors import FieldMismatchError, ReducibleModulusError
from .intops import is_prime

__all__ = [
    "PrimeField",
    "ExtensionField",
    "Poly",
    "poly_gcd",
    "poly_powmod",
    "compose_power",
    "count_mults",
]

# lists/numpy crossover for residue rings only, from timed Frobenius chains at
# p in {2, 3, 7, 13} (BENCH_9.json): lists won for sparse f up to n = 128, numpy
# for dense f from n = 64 to 128
_LISTS_MAX_DEG = 64
_MONTGOMERY_BLOCK = 4096  # values per Montgomery ladder; larger blocks outgrow the cache
_BITS = bytes.maketrans(b"01", b"\0\1")


class _MeterLocal(threading.local):
    # the per-thread tally of coefficient-field multiplications; runs once in
    # each thread that touches the meter
    def __init__(self) -> None:
        self.mults = 0


_METER_LOCAL = _MeterLocal()


@contextmanager
def count_mults():
    """Yield a zero-arg callable reporting multiplications since entry.

    Counts model schoolbook coefficient multiplications in the current
    thread. In the residue ring modulo f of degree n, whose low part
    x^n - f has t nonzero coefficients, a product of trimmed operands with
    la and lb coefficients counts la*lb + max(0, la + lb - 1 - n)*t: one
    multiplication per coefficient pair, and one per quotient coefficient
    and low term to reduce. A Frobenius step a -> a^p takes no products.
    Modulo a binomial x^n - c it moves la coefficients and counts la*t,
    one scaling each when c != 0 and nothing for x^n. Modulo any other f it
    spreads la coefficients over L = (la - 1)*p + 1 and counts only its
    fold, max(0, L - n)*t. ``_spreads`` decides which rings take such
    steps. A composition g(h) mod f (``compose``) counts its
    s + ceil(len g / s) - 2 products as above, and for each nonzero
    coefficient of g whose index i is not a multiple of s the length of
    the baby step h^(i mod s) it scales. The count is the same on both
    backends, lists and numpy. A batched product of N values
    (``pow_many``), on int64 or Python-int rows, counts N products of
    full-length rows, N*(n^2 + (n - 1)*t), whatever the values' actual
    lengths; over F_p it counts N, however the values are blocked. Outside
    the ring, a polynomial product counts la*lb, a division by a divisor
    of lb coefficients counts lb per quotient coefficient, making a gcd
    monic counts one per coefficient, and a power a^e in F_p counts the
    binary ladder's products, ``_ladder_products(e)``. Trial
    division of f of degree n counts, for each candidate divisor it tries
    up to and including the witness, that division: (n - j + 1)(j + 1) for
    a monic candidate of degree j over F_p. Inside the block the reading is
    live; once the block exits it freezes, so work done afterwards never
    leaks into the figure.
    """
    start = _METER_LOCAL.mults
    frozen: list = []

    def reading() -> int:
        return (frozen[0] if frozen else _METER_LOCAL.mults) - start

    try:
        yield reading
    finally:
        frozen.append(_METER_LOCAL.mults)


def _np_safe(p: int, width: int) -> bool:
    # int64 accumulation headroom for convolutions and fold sums
    return (p - 1) * (p - 1) * (width + 1) < (1 << 62)


def _pack_mod(values, p: int, dtype) -> np.ndarray:
    """values mod p as an array of dtype (int64, uint64 or object), packed in
    one call; where numpy refuses an int outside dtype's range, each value is
    reduced as a Python int first."""
    if isinstance(values, np.ndarray) and values.dtype != dtype:
        values = values.tolist()  # a cast between integer dtypes would wrap
    try:
        packed = np.asarray(values, dtype=dtype)
    except OverflowError:
        return (np.asarray(values, dtype=object) % p).astype(dtype)
    return packed % packed.dtype.type(p)


_U32 = np.uint64(32)
_LOW32 = np.uint64(0xFFFFFFFF)


def _mulhi(x, y0, y1):
    """High 64 bits of the 128-bit products x*y of uint64 arrays or scalars,
    given y's 32-bit halves y0 = y & (2^32 - 1) and y1 = y >> 32."""
    x0, x1 = x & _LOW32, x >> _U32
    low = x0 * y0
    mid = x1 * y0 + (low >> _U32)
    mid2 = x0 * y1 + (mid & _LOW32)
    return x1 * y1 + (mid >> _U32) + (mid2 >> _U32)


def _montgomery_pow(a: np.ndarray, e: int, p: int) -> np.ndarray:
    """a_i^e mod p for a uint64 array of values in [0, p), p odd below 2^64,
    e >= 1: one square-and-multiply ladder in Montgomery form, R = 2^64.

    A value v is held as vR mod p. The product of two held values is
    REDC(x*y) = (x*y + m*p)/R = x*y/R mod p (Montgomery, Math. Comp. 44,
    1985), from the 128-bit (hi, lo) of x*y and m = lo*N' mod R with
    N' = -p^-1 mod R. When 4p <= R, held values stay lazy, in [0, 2p): then
    x*y < 4p^2 <= pR, so REDC is below 2p with no subtraction. The final
    REDC(r*1), r < 2p, is at most p, and p only where r = 0 mod p; but zero
    is held as 0 throughout (REDC of 0 is 0), so the result needs no
    subtraction either. For p > 2^62 every REDC subtracts p when its sum
    reaches p, so held values stay in [0, p).
    """
    P = np.uint64(p)
    p0, p1 = P & _LOW32, P >> _U32
    n_prime = np.uint64(-pow(p, -1, 1 << 64) % (1 << 64))
    lazy = 4 * p <= 1 << 64

    def mul(x, y):
        lo = x * y  # wraps mod R
        m = lo * n_prime
        # lo + low(m*p) = 0 mod R carries into the high half exactly when lo != 0;
        # hi < p, so adding the carry cannot wrap
        hi = _mulhi(x, y & _LOW32, y >> _U32) + (lo != 0)
        t = hi + _mulhi(m, p0, p1)
        if lazy:
            return t
        # the true sum is below 2p, so for p >= 2^63 it may wrap past 2^64
        return np.where((t < hi) | (t >= P), t - P, t)

    return mul(_ladder(mul(a, np.uint64((1 << 128) % p)), e, mul), np.uint64(1))


def _strip(coeffs: list, zero) -> list:
    while coeffs and coeffs[-1] == zero:
        coeffs.pop()
    return coeffs


# ---------------------------------------------------------------------------
# prime-field kernels (coefficients are plain ints mod p)
# ---------------------------------------------------------------------------


def _product_lists(a: list[int], b: list[int]) -> list[int]:
    # the schoolbook product of nonempty int lists, not reduced mod p
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for k, bj in enumerate(b, i):
                prod[k] += ai * bj
    return prod


def _pf_mul(p: int, a: list[int], b: list[int]) -> list[int]:
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return []
    _METER_LOCAL.mults += la * lb
    return _strip([v % p for v in _product_lists(a, b)], 0)


def _pf_divmod(p: int, a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    lb = len(b)
    if lb == 0:
        raise ZeroDivisionError("division by zero polynomial")
    la = len(a)
    if la < lb:
        return [], _strip(list(a), 0)
    inv_lead = pow(b[-1], -1, p)
    r = list(a)
    q = [0] * (la - lb + 1)
    _METER_LOCAL.mults += (la - lb + 1) * lb
    for k in range(la - 1, lb - 2, -1):
        c = r[k] * inv_lead % p
        if c:
            q[k - lb + 1] = c
            for i in range(lb - 1):
                r[k - lb + 1 + i] = (r[k - lb + 1 + i] - c * b[i]) % p
    r = r[: lb - 1]
    return _strip(q, 0), _strip(r, 0)


def _as_is(a):
    return a


def _list_zeros(size: int) -> list[int]:
    return [0] * size


_as_int64 = partial(np.asarray, dtype=np.int64)
_int64_zeros = partial(np.zeros, dtype=np.int64)


def _trim_np(r: np.ndarray) -> np.ndarray:
    if r.shape[0] and r[-1]:
        return r
    nz = (r != 0).nonzero()[0]  # several times faster on bools than on int64
    return r[: nz[-1] + 1] if nz.size else r[:0]


def _mod_np(r: np.ndarray, p: int) -> np.ndarray:
    # r % p, in place: numpy's int64 floor division by a scalar runs several
    # times faster than its remainder on long arrays
    r -= r // p * p
    return r


def _spreads(p: int, n: int, t: int, binomial: bool) -> bool:
    """Whether a Frobenius step is cheap, so the ring's ladder runs on
    base-p digits.

    For a binomial f = x^n - c, c = 0 included, it always is: the step
    moves and scales each coefficient (``_ResidueRing._frob``) and counts
    len(a)*t <= n. Otherwise the step is a spread to stride p, and
    it is cheap when one spread of a full residue counts no more than the
    binary ladder's bits(p) + popcount(p) - 2 products for one p-th power,
    n^2 + (n - 1)t each; t is the number of nonzero low terms of f. The
    spread is charged its fold, (p - 1)(n - 1)t. Its (n - 1)p + 1
    coefficients must also stay below n^2 + 2n. So word-size p keeps the
    binary ladder for every f but a binomial, and a spread that counts no
    more than one squaring is always taken. For p = 2 this is that
    comparison alone.
    """
    spread = (p - 1) * (n - 1)
    return binomial or (
        spread < n * n + n and spread * t <= _ladder_products(p) * (n * n + (n - 1) * t))


def _base_digits(e: int, p: int) -> Sequence[int]:
    """The base-p digits of e > 0, most significant first."""
    if p == 2:
        return bin(e)[2:].encode().translate(_BITS)  # bytes 0 and 1
    k = max(1, 62 // p.bit_length())  # digits per word-size chunk
    chunk = p**k
    out = []
    while e >= chunk:
        e, r = divmod(e, chunk)
        for _ in range(k):
            r, d = divmod(r, p)
            out.append(d)
    while e:
        e, d = divmod(e, p)
        out.append(d)
    out.reverse()
    return out


def _digit_power(powers: dict, j: int, mulmod):
    """a^j from the table {1: a, ...}, adding it from a^(j//2) the first time."""
    if j not in powers:
        h = _digit_power(powers, j >> 1, mulmod)
        h = mulmod(h, h)
        powers[j] = mulmod(h, powers[1]) if j & 1 else h
    return powers[j]


def _ladder(a, e: int, mulmod, radix: int = 2, step=None):
    """a^e for e >= 1, for any values with a product ``mulmod``, by the
    left-to-right m-ary method in radix r (Knuth, TAOCP vol. 2, 4.6.3).
    Each base-r digit of e after the first costs one step x -> x^r, by
    ``step`` or else by squaring (r = 2), and one product by a^digit if it
    is nonzero; a^digit is built the first time a digit needs it."""
    powers = {1: a}
    digits = _base_digits(e, radix)
    r = _digit_power(powers, digits[0], mulmod)
    for d in digits[1:]:
        r = step(r) if step else mulmod(r, r)
        if d:
            r = mulmod(r, _digit_power(powers, d, mulmod))
    return r


def _ladder_products(e: int) -> int:
    """The products the binary ladder spends on a^e: one squaring per bit of
    e after the first, one product per set bit after the first; 0 for e < 2."""
    return max(0, e.bit_length() + e.bit_count() - 2)


class _ResidueRing:
    """Arithmetic in F_p[x]/(f) for one monic f of degree n >= 1.

    Values are trimmed little-endian int lists with entries in [0, p). The
    backend follows from (p, n) alone: int64 numpy for n > _LISTS_MAX_DEG
    when the sums cannot overflow, plain int lists otherwise. Its kernels
    are bound at construction, and no call tests the backend again: the
    packing of lists and back, a zero allocator, the schoolbook
    ``_product_lists`` or ``np.convolve``, the fold ``_reduce_lists`` or
    ``_reduce_np``, the Frobenius step ``_frob`` and the ladder's radix.
    Both folds rewrite x^n as low(x) = x^n - f, whose t nonzero terms are
    ``terms``: lists fold one quotient coefficient at a time from the top,
    t adds each. Where t < 2w, w = n - deg(low), numpy folds in place from
    the top, one block of w coefficients at a time, t vector adds each;
    otherwise one coefficient at a time, adding its multiple of low.
    Building a ring is O(n). ``_mul`` and ``_frob`` meter the same work on
    either backend (see ``count_mults``). The radix follows from (p, n, t)
    and whether f is a binomial x^n - c, by ``_spreads``; a binomial ring
    builds its Frobenius map on its first step, so rings that never take
    one do not pay for it.
    """

    __slots__ = (
        "p", "n", "terms", "backend", "binomial", "spreads", "_sparse", "_maxnz",
        "_low_np", "_pack", "_unpack", "_zeros", "_product", "_fold", "_frob",
        "_radix", "_step", "_map",
    )

    def __init__(self, p: int, f: Sequence[int]):
        n = len(f) - 1
        if n < 1:
            raise ValueError("modulus must have degree >= 1")
        if f[-1] != 1:
            raise ValueError("modulus must be monic")
        self.p = p
        self.n = n
        low = [(-c) % p for c in f[:n]]
        self.terms = tuple((j, c) for j, c in enumerate(low) if c)
        self.binomial = not any(low[1:])
        self.spreads = _spreads(p, n, len(self.terms), self.binomial)
        self._map = None  # the binomial Frobenius map, built by its first step
        if n > _LISTS_MAX_DEG and _np_safe(p, n + 1):
            self.backend = "numpy"
            self._maxnz = max((j for j, _ in self.terms), default=-1)
            self._sparse = len(self.terms) < 2 * (n - self._maxnz)
            self._low_np = np.asarray(low, dtype=np.int64)
            self._pack, self._unpack, self._zeros = _as_int64, np.ndarray.tolist, _int64_zeros
            self._product = lambda a, b: np.convolve(a, b) % p
            self._fold, moves = self._reduce_np, self._binomial_np
        else:
            self.backend = "lists"
            # a list packs to a copy, since a fold consumes its input
            self._pack, self._unpack, self._zeros = list, _as_is, _list_zeros
            self._product, self._fold = _product_lists, self._reduce_lists
            moves = self._binomial_lists
        self._frob = moves if self.binomial else self._spread
        self._radix, self._step = (p, self._frob) if self.spreads else (2, None)

    def reduce(self, a: list[int]) -> list[int]:
        """a mod f, for a trimmed list with entries in [0, p)."""
        if len(a) <= self.n:
            return a
        _METER_LOCAL.mults += (len(a) - self.n) * len(self.terms)
        return self._unpack(self._fold(self._pack(a)))

    def mul(self, a: list[int], b: list[int]) -> list[int]:
        """a*b mod f, for reduced a and b."""
        return self._unpack(self._mul(self._pack(a), self._pack(b)))

    def pow(self, a: list[int], e: int) -> list[int]:
        """a^e mod f; e is any non-negative int. ``_ladder`` reads e in
        radix p with Frobenius steps when ``spreads`` holds, else in radix 2
        with squarings: square-and-multiply."""
        a = self.reduce(a)
        if e < 2:
            return a if e else [1]
        if self.n == 1 and a:
            # residues are constants: hand the same ladder to the native pow
            _METER_LOCAL.mults += _ladder_products(e)
            return [pow(a[0], e, self.p)]
        return self._unpack(_ladder(self._pack(a), e, self._mul, self._radix, self._step))

    def frobenius_steps(self, a: list[int], k: int) -> list[int]:
        """a^(p^k) mod f for reduced a, by k Frobenius steps: the radix-p
        ladder of ``pow(a, p**k)``, without building p^k. For n = 1 it is
        that native power, charged its ladder's products."""
        if self.n == 1:
            return self.pow(a, self.p**k)
        r = self._pack(a)
        for _ in range(k):
            r = self._frob(r)
        return self._unpack(r)

    def compose(self, g: list[int], h: list[int]) -> list[int]:
        """g(h) mod f for reduced g and h, by Brent and Kung's baby steps
        and giant steps.

        With s = ceil(sqrt(len g)), the baby steps are h^0, ..., h^(s-1)
        and the giant step is H = h^s. Horner in H runs over the blocks of
        s coefficients of g, from the top; each block is a combination of
        the baby steps, plus the product by H of the blocks above it. That
        is s + ceil(len g / s) - 2 products (see ``count_mults``).
        """
        if len(g) < 2:
            return g
        p, n, mul = self.p, self.n, self.mul
        s = isqrt(len(g) - 1) + 1
        baby = [h]  # h^1, ..., h^(s-1)
        for _ in range(s - 2):
            baby.append(mul(baby[-1], h))
        giant = mul(baby[-1], h) if len(g) > s else []
        r: list[int] = []
        for k in range((len(g) - 1) // s * s, -1, -s):
            acc = mul(r, giant)
            acc += [0] * (n - len(acc))
            acc[0] += g[k]
            for c, a in zip(g[k + 1 : k + s], baby):
                if c:
                    _METER_LOCAL.mults += len(a)
                    for j, v in enumerate(a):
                        acc[j] += c * v
            r = _strip([v % p for v in acc], 0)
        return r

    def mul_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise a*b mod f for (N, n) arrays of reduced values, int64
        where the sums fit (see ``ExtensionField.pow_many``) or Python ints.

        A batched schoolbook product, folded from the top by ``terms``.
        Counts N products of full-length rows (see ``count_mults``).
        """
        count, n, p = a.shape[0], self.n, self.p
        _METER_LOCAL.mults += count * (n * n + (n - 1) * len(self.terms))
        prod = np.zeros((count, 2 * n - 1), dtype=a.dtype)
        for i in range(n):
            prod[:, i : i + n] += a[:, i : i + 1] * b
        for k in range(2 * n - 2, n - 1, -1):
            c = prod[:, k] % p
            for j, t in self.terms:
                prod[:, k - n + j] += c * t
        return prod[:, :n] % p

    def pow_many(self, a: np.ndarray, e: int) -> np.ndarray:
        """Row-wise a^e mod f for an (N, n) array of reduced values, by one
        square-and-multiply ladder over the whole batch."""
        if e == 0:
            out = np.zeros_like(a)
            out[:, 0] = 1
            return out
        return _ladder(a, e, self.mul_many)

    # products and Frobenius steps, on the backend's lists or int64 arrays -----

    def _mul(self, a, b):
        """a*b mod f for reduced a and b: the product kernel, then the fold."""
        la, lb = len(a), len(b)
        if not la or not lb:
            return a[:0]
        _METER_LOCAL.mults += la * lb + max(0, la + lb - 1 - self.n) * len(self.terms)
        return self._fold(self._product(a, b))

    def _binomial_lists(self, a: list[int]) -> list[int]:
        """a^p mod a binomial f = x^n - c, for a reduced list: coefficient i
        moves to ip mod n, scaled by c^floor(ip/n), and adds to what is there
        (several i meet when p | n); counts len(a)*t."""
        if self._map is None:
            self._map = self._binomial_map()
        dest, scale = self._map
        la, p = len(a), self.p
        _METER_LOCAL.mults += la * len(self.terms)
        if a.count(0) == la - 1:
            # a monomial, as is every power of x that Rabin climbs through
            d, v = dest[la - 1], a[-1] * scale[la - 1] % p
            return [0] * d + [v] if v else []
        # touch only the nonzero coefficients
        out, top = [0] * self.n, -1
        for ai, d, s in zip(a, dest, scale):
            if ai:
                out[d] = (out[d] + ai * s) % p
                if d > top:
                    top = d
        del out[top + 1 :]
        return _strip(out, 0)

    def _binomial_np(self, a: np.ndarray) -> np.ndarray:
        """``_binomial_lists`` on an int64 array."""
        if self._map is None:
            self._map = self._binomial_map()
        dest, scale = self._map
        la, p = len(a), self.p
        _METER_LOCAL.mults += la * len(self.terms)
        out = np.zeros(self.n, dtype=np.int64)
        np.add.at(out, dest[:la], a * scale[:la] % p)
        # unless p | n, each slot took at most one value, already below p
        return _trim_np(out if self.n % p else out % p)

    def _binomial_map(self):
        # dest[i] = ip mod n and scale[i] = c^floor(ip/n), by one product per
        # index: from i to i + 1 the quotient grows by floor(p/n), or by one more
        p, n = self.p, self.n
        c = self.terms[0][1] if self.terms else 0
        step, gain = divmod(p, n)
        c_step = pow(c, step, p)
        dest, scale = [0] * n, [1] * n
        for i in range(1, n):
            r, s = dest[i - 1] + gain, scale[i - 1] * c_step
            if r >= n:
                r, s = r - n, s * c
            dest[i], scale[i] = r, s % p
        return self._pack(dest), self._pack(scale)

    def _spread(self, a):
        """a^p mod f for reduced a: a(x^p), spread to stride p, then the fold."""
        if not len(a):
            return a
        size = (len(a) - 1) * self.p + 1
        spread = self._zeros(size)
        spread[:: self.p] = a
        if size <= self.n:
            return spread
        _METER_LOCAL.mults += (size - self.n) * len(self.terms)
        return self._fold(spread)

    def _reduce_lists(self, a: list[int]) -> list[int]:
        # a: nonnegative ints, not yet reduced mod p; consumed
        p, n, terms = self.p, self.n, self.terms
        for k in range(len(a) - 1, n - 1, -1):
            c = a[k] % p
            if c:
                for j, t in terms:
                    a[k - n + j] += c * t
        out = [v % p for v in a[:n]]
        while out and not out[-1]:
            out.pop()
        return out

    def _reduce_np(self, r: np.ndarray) -> np.ndarray:
        # r: entries in [0, p); consumed
        p, n = self.p, self.n
        if r.shape[0] <= n:
            return r
        if self._sparse:
            # in place, from the top, w = n - maxnz coefficients at a time: x^k
            # for k in the block [lo, top) lands at k - n + j <= k - w < lo, so
            # below the block. Each entry takes at most one add per term, so
            # sums stay below p + t(p - 1)^2, inside _np_safe(p, n + 1)
            w, top = n - self._maxnz, r.shape[0]
            while top > n:
                lo = max(n, top - w)
                block = _mod_np(r[lo:top], p)
                for j, c in self.terms:
                    r[lo - n + j : top - n + j] += block if c == 1 else block * c
                top = lo
            return _trim_np(_mod_np(r[:n], p))
        low = self._low_np
        for k in range(r.shape[0] - 1, n - 1, -1):
            c = r[k]
            if c:
                r[k - n : k] = (r[k - n : k] + c * low) % p
        return _trim_np(r[:n])


def _gcd_raw(p: int, a: list[int], b: list[int]) -> list[int]:
    """The monic gcd of two int lists over F_p, by Euclid on ``_pf_divmod``."""
    while b:
        a, b = b, _pf_divmod(p, a, b)[1]
    if not a:
        raise ZeroDivisionError("gcd(0, 0) is undefined")
    if a[-1] != 1:
        # the scaling counts one product per coefficient
        _METER_LOCAL.mults += len(a)
        inv_lead = pow(a[-1], -1, p)
        a = [c * inv_lead % p for c in a]
    return a


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


class PrimeField:
    """The prime field F_p. Raw elements are ints in [0, p).

    The modulus must be a prime fitting in 64 bits; compositeness is
    rejected at construction.
    """

    __slots__ = ("p", "order", "order_minus_one", "zero", "one")

    degree = 1

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError("p must be an int")
        if p < 2:
            raise ValueError("p must be at least 2")
        if p.bit_length() > 64:
            raise ValueError("p must fit in 64 bits")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.order = p
        self.order_minus_one = p - 1
        self.zero = 0
        self.one = 1

    # raw-value arithmetic ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        _METER_LOCAL.mults += 1
        return a * b % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("exponent must be non-negative")
        _METER_LOCAL.mults += _ladder_products(e)
        return pow(a, e, self.p)

    def pow_many(self, a: Sequence[int], e: int) -> np.ndarray:
        """a_i^e for each raw value of a, by one square-and-multiply ladder.

        Each value is reduced mod p as it is packed (``_pack_mod``). The
        ladder runs on an int64 array when products fit (``_np_safe(p, 1)``).
        For larger p it runs in Montgomery form on a uint64 array
        (``_montgomery_pow``), one block of at most ``_MONTGOMERY_BLOCK``
        values at a time. Each step counts len(a) products, as a power in a
        residue ring of degree 1 does; the conversions into and out of
        Montgomery form are not steps and count nothing.
        """
        if e < 0:
            raise ValueError("exponent must be non-negative")
        p = self.p
        _METER_LOCAL.mults += len(a) * _ladder_products(e)
        if not _np_safe(p, 1):
            reduced = _pack_mod(a, p, np.uint64)
            if e == 0:
                return np.ones_like(reduced)
            out = np.empty_like(reduced)
            for i in range(0, len(out), _MONTGOMERY_BLOCK):
                out[i : i + _MONTGOMERY_BLOCK] = _montgomery_pow(
                    reduced[i : i + _MONTGOMERY_BLOCK], e, p)
            return out
        base = _pack_mod(a, p, np.int64)
        if e == 0:
            return np.ones_like(base)
        return _ladder(base, e, lambda x, y: x * y % p)

    # conversions and iteration ----------------------------------------------

    def coerce(self, value) -> int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value % self.p
        raise TypeError(f"cannot interpret {value!r} as an element of {self!r}")

    def scalar(self, c: int) -> int:
        return c % self.p

    def from_index(self, i: int) -> int:
        if not 0 <= i < self.order:
            raise ValueError("index out of range")
        return i

    def to_index(self, a: int) -> int:
        return a

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


class ExtensionField:
    """F_p[x]/(b(x)) for a monic irreducible b of degree m >= 2.

    Raw elements are m-tuples of ints (little-endian residue coefficients).
    The modulus is verified irreducible at construction unless
    ``trusted=True`` is passed by a caller who has already certified it.
    """

    __slots__ = (
        "base",
        "p",
        "modulus",
        "degree",
        "order",
        "order_minus_one",
        "zero",
        "one",
        "_ring",
    )

    def __init__(self, base: Union[PrimeField, int], modulus, *, trusted: bool = False):
        if isinstance(base, int):
            base = PrimeField(base)
        if not isinstance(base, PrimeField):
            raise ValueError("extension base must be a prime field")
        if isinstance(modulus, Poly):
            if modulus.field != base:
                raise FieldMismatchError("modulus is not over the base field")
            mod_coeffs = list(modulus.coeffs)
        else:
            mod_coeffs = _strip([base.coerce(c) for c in modulus], 0)
        m = len(mod_coeffs) - 1
        if m < 2:
            raise ValueError("extension modulus must have degree >= 2 (use PrimeField for m = 1)")
        if mod_coeffs[-1] != 1:
            raise ValueError("extension modulus must be monic")
        self.base = base
        self.p = base.p
        self.modulus = tuple(mod_coeffs)
        self.degree = m
        self.order = base.p**m
        self.order_minus_one = self.order - 1
        self.zero = (0,) * m
        self.one = (1,) + (0,) * (m - 1)
        self._ring = _ResidueRing(base.p, mod_coeffs)
        if not trusted:
            from .oracle import rabin_test  # deferred: oracle builds on this module

            verdict = rabin_test(Poly(base, mod_coeffs))
            if not verdict.irreducible:
                raise ReducibleModulusError(
                    f"modulus {mod_coeffs} is reducible over GF({base.p})"
                )

    # raw-value arithmetic ---------------------------------------------------

    def add(self, a: tuple, b: tuple) -> tuple:
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a: tuple, b: tuple) -> tuple:
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a: tuple) -> tuple:
        p = self.p
        return tuple(-x % p for x in a)

    def _residue(self, r: list) -> tuple:
        # the public raw value: coefficients zero-padded to an m-tuple
        return tuple(r) + (0,) * (self.degree - len(r))

    def mul(self, a: tuple, b: tuple) -> tuple:
        return self._residue(self._ring.mul(_strip(list(a), 0), _strip(list(b), 0)))

    def pow(self, a: tuple, e: int) -> tuple:
        if e < 0:
            raise ValueError("exponent must be non-negative")
        return self._residue(self._ring.pow(_strip(list(a), 0), e))

    def pow_many(self, a, e: int) -> np.ndarray:
        """a_i^e for each row a_i of a, an (N, m) array or sequence of raw
        values, by one ladder over the whole batch (``_ResidueRing.pow_many``)
        on int64 rows where its sums fit, ``_np_safe(p, 2m)`` (each sums m
        convolution terms and t <= m fold adds, all below p^2), and on
        Python-int rows, an object array, elsewhere. Each entry is reduced
        mod p as it is packed (``_pack_mod``)."""
        if e < 0:
            raise ValueError("exponent must be non-negative")
        p, m = self.p, self.degree
        rows = _pack_mod(a, p, np.int64 if _np_safe(p, 2 * m) else object)
        return self._ring.pow_many(rows.reshape(-1, m), e)

    # conversions and iteration ----------------------------------------------

    def scalar(self, c: int) -> tuple:
        return (c % self.p,) + (0,) * (self.degree - 1)

    def gen(self) -> tuple:
        """The residue class of x, a root of the modulus."""
        return (0, 1) + (0,) * (self.degree - 2)

    def from_index(self, i: int) -> tuple:
        if not 0 <= i < self.order:
            raise ValueError("index out of range")
        p = self.p
        digits = []
        for _ in range(self.degree):
            i, r = divmod(i, p)
            digits.append(r)
        return tuple(digits)

    def from_indices(self, indices) -> np.ndarray:
        """``from_index`` for each of a sequence of indices, as an (N, m)
        array: int64 where q <= 2^63, so every index fits, else Python ints."""
        indices = np.asarray(indices, dtype=np.int64 if self.order <= 1 << 63 else object)
        if indices.size and not 0 <= indices.min() <= indices.max() < self.order:
            raise ValueError("index out of range")
        powers = np.array([self.p**i for i in range(self.degree)], dtype=indices.dtype)
        return indices[:, None] // powers % self.p

    def to_index(self, a: tuple) -> int:
        out = 0
        for c in reversed(a):
            out = out * self.p + c
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExtensionField)
            and other.p == self.p
            and other.modulus == self.modulus
        )

    def __hash__(self) -> int:
        return hash(("ExtensionField", self.p, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.degree})"


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class Poly:
    """Dense univariate polynomial over a ``PrimeField``.

    Coefficients are stored little-endian (index i holds the coefficient of
    x^i) and normalized so the top stored coefficient is nonzero; the zero
    polynomial stores nothing and reports degree -1. Any other field raises
    ``FieldMismatchError``.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs: Sequence):
        if not isinstance(field, PrimeField):
            raise FieldMismatchError(f"polynomials are over a prime field, not {field!r}")
        vals = [field.coerce(c) for c in coeffs]
        _strip(vals, field.zero)
        self.field = field
        self.coeffs = tuple(vals)

    # constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field) -> "Poly":
        return cls(field, (field.one,))

    @classmethod
    def x(cls, field) -> "Poly":
        return cls(field, (field.zero, field.one))

    @classmethod
    def monic_from_index(cls, field, degree: int, index: int) -> "Poly":
        """The index-th monic polynomial of the given degree.

        The index is read as little-endian base-q digits for the lower
        coefficients, so index 0 is x^degree and enumeration is total.
        """
        q = field.order
        lower = []
        for _ in range(degree):
            index, r = divmod(index, q)
            lower.append(field.from_index(r))
        if index:
            raise ValueError("index out of range for this degree")
        return cls(field, lower + [field.one])

    # structure ------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def term_count(self) -> int:
        zero = self.field.zero
        return sum(1 for c in self.coeffs if c != zero)

    def _same_field(self, other: "Poly") -> None:
        if not isinstance(other, Poly):
            raise TypeError("expected a Poly")
        if other.field != self.field:
            raise FieldMismatchError("polynomials over different fields")

    def _wrap(self, raw: list) -> "Poly":
        out = object.__new__(Poly)
        out.field = self.field
        out.coeffs = tuple(raw)
        return out

    # arithmetic -----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._same_field(other)
        K = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = K.add(out[i], c)
        return self._wrap(_strip(out, K.zero))

    def __sub__(self, other: "Poly") -> "Poly":
        self._same_field(other)
        K = self.field
        a, b = self.coeffs, other.coeffs
        out = [K.neg(c) for c in b]
        if len(a) > len(out):
            out.extend([K.zero] * (len(a) - len(out)))
        for i, c in enumerate(a):
            out[i] = K.add(out[i], c)
        return self._wrap(_strip(out, K.zero))

    def __neg__(self) -> "Poly":
        K = self.field
        return self._wrap([K.neg(c) for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        self._same_field(other)
        return self._wrap(_pf_mul(self.field.p, list(self.coeffs), list(other.coeffs)))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._same_field(other)
        q, r = _pf_divmod(self.field.p, list(self.coeffs), list(other.coeffs))
        return self._wrap(q), self._wrap(r)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        K = self.field
        if self.is_monic:
            return self
        c = K.inv(self.coeffs[-1])
        return self._wrap([K.mul(v, c) for v in self.coeffs])

    def evaluate(self, point) -> int:
        """Horner evaluation at a value of F_p."""
        K = self.field
        x = K.coerce(point)
        acc = K.zero
        for c in reversed(self.coeffs):
            acc = K.add(K.mul(acc, x), c)
        return acc

    def compose_power(self, d: int) -> "Poly":
        return compose_power(self, d)

    # comparisons ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r} over {self.field!r})"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) is an error."""
    a._same_field(b)
    raw = _gcd_raw(a.field.p, list(a.coeffs), list(b.coeffs))
    return a._wrap(raw)


def poly_powmod(base: Poly, e: int, modulus: Poly) -> Poly:
    """base^e reduced mod modulus.

    The exponent is an arbitrary-size non-negative int; the run costs
    O(bit length of e) modular multiplications on the residue ring's ladder,
    which takes Frobenius steps for small p.
    """
    base._same_field(modulus)
    if modulus.is_zero:
        raise ZeroDivisionError("zero modulus")
    if modulus.degree < 1:
        raise ValueError("modulus must have degree >= 1")
    if e < 0:
        raise ValueError("exponent must be non-negative")
    p, mod = base.field.p, list(modulus.coeffs)
    if mod[-1] != 1:
        # the remainder mod f equals the remainder mod f/lc(f)
        inv_lead = pow(mod[-1], -1, p)
        mod = [c * inv_lead % p for c in mod]
    return base._wrap(_ResidueRing(p, mod).pow(list(base.coeffs), e))


def compose_power(b: Poly, d: int) -> Poly:
    """b(x^d): coefficient i of b lands on x^(d*i); term count is preserved."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if d == 1 or b.is_zero:
        return b
    K = b.field
    out = [K.zero] * (d * b.degree + 1)
    for i, c in enumerate(b.coeffs):
        if c != K.zero:
            out[d * i] = c
    return b._wrap(out)
