"""Exact arithmetic: prime fields, extension fields, and dense polynomials.

Representation choices:

 - Group orders and exponents are plain Python ints; they are exact at any
   size, so q - 1 for q = p^m needs no special big-integer type.
 - A prime-field element is an int in [0, p). An extension-field element is
   a fixed-length tuple of ints: the little-endian coefficients of its
   residue polynomial, zero-padded to the field degree. Both are immutable
   and hashable, and the tuple is what certificates record.
 - ``Poly`` stores a normalized little-endian coefficient tuple over its
   field. The zero polynomial has an empty tuple and degree -1, which acts
   as the "minus infinity" degree: it compares below every real degree.
 - Fields expose arithmetic on the raw values (``field.mul(a, b)`` etc.);
   ``Element`` wraps a raw value with operator sugar.

All arithmetic modulo a monic f over F_p goes through one residue ring,
``_ResidueRing(p, f)``: extension-field products and powers, and the
modular powers of ``poly_powmod`` and the Rabin oracle. Inside it values
are trimmed int lists, converted to padded tuples only at the
``ExtensionField`` boundary. Its backend follows from p and deg f:
precomputed fold rows for small degrees, int64 numpy kernels above that
when the sums cannot overflow, and plain Python lists otherwise. Moduli
with few nonzero terms reduce by folding, which is what makes high-degree
sparse towers fast. A batch of residues, an (N, n) int64 array, is raised
to a power by one square-and-multiply ladder over the whole batch, folded
by the same rows (``pow_many``).

The ring has one powering ladder. It reads the exponent in a radix r and
spends, per digit, one step a -> a^r and one product by a^digit if the
digit is nonzero. Over F_p, a(x)^p = a(x^p), so a p-th power (a Frobenius
step) is a spread of the coefficients to stride p and a fold by f, with no
products. When one spread counts no more than one squaring in the work
model, r = p and the step is a spread; otherwise (word-size p) r = 2 and
the step is a squaring. For p = 2 the two differ only in that step.

A per-thread work meter tallies coefficient multiplications by a fixed
model of the operand sizes (see ``count_mults``), never by what a backend
happened to do. It is diagnostic instrumentation: results of all
operations are independent of it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import FieldMismatchError, ReducibleModulusError
from .intops import is_prime

__all__ = [
    "PrimeField",
    "ExtensionField",
    "Element",
    "Poly",
    "poly_gcd",
    "poly_powmod",
    "compose_power",
    "ext_pow",
    "count_mults",
    "WorkMeter",
]

_NP_MUL_MIN_WORK = 256  # len(a)*len(b) below this: pure python wins
_ROWS_MAX_DEG = 32  # residue rings up to this degree reduce by precomputed rows


class WorkMeter:
    """Per-thread tally of coefficient-field multiplications."""

    __slots__ = ("mults",)

    def __init__(self) -> None:
        self.mults = 0


class _MeterLocal(threading.local):
    # runs once in each thread that touches the meter
    def __init__(self) -> None:
        self.meter = WorkMeter()


_METER_LOCAL = _MeterLocal()


@contextmanager
def count_mults():
    """Yield a zero-arg callable reporting multiplications since entry.

    Counts model schoolbook coefficient multiplications in the current
    thread. In the residue ring modulo f of degree n, whose low part
    x^n - f has t nonzero coefficients, a product of trimmed operands with
    la and lb coefficients counts la*lb + max(0, la + lb - 1 - n)*t: one
    multiplication per coefficient pair, and one per quotient coefficient
    and low term to reduce. A Frobenius step a -> a^p spreads la
    coefficients over L = (la - 1)*p + 1 and counts only its fold,
    max(0, L - n)*t, with no products. The count is the same on every
    backend. A batched product of N values (``pow_many``) counts N products
    of full-length rows, N*(n^2 + (n - 1)*t), whatever the values' actual
    lengths; over F_p it counts N. Outside the ring, a polynomial product
    counts la*lb, a division by a divisor of lb coefficients counts lb per
    quotient coefficient, and a power in F_p counts 3/2 per exponent bit.
    Trial division of f of degree n counts, for each candidate divisor it
    tries up to and including the witness, that division: (n - j + 1)(j + 1)
    for a monic candidate of degree j over F_p, on the batched route as on
    the per-candidate one. Inside the block the reading is live; once the
    block exits it freezes, so work done afterwards never leaks into the
    figure.
    """
    m = _METER_LOCAL.meter
    start = m.mults
    frozen: list = []

    def reading() -> int:
        return (frozen[0] if frozen else m.mults) - start

    try:
        yield reading
    finally:
        frozen.append(m.mults)


def _np_safe(p: int, width: int) -> bool:
    # int64 accumulation headroom for convolutions and fold sums
    return (p - 1) * (p - 1) * (width + 1) < (1 << 62)


def _strip(coeffs: list, zero) -> list:
    while coeffs and coeffs[-1] == zero:
        coeffs.pop()
    return coeffs


# ---------------------------------------------------------------------------
# prime-field kernels (coefficients are plain ints mod p)
# ---------------------------------------------------------------------------


def _pf_mul(p: int, a: list[int], b: list[int]) -> list[int]:
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return []
    _METER_LOCAL.meter.mults += la * lb
    if la * lb >= _NP_MUL_MIN_WORK and _np_safe(p, min(la, lb)):
        out = np.convolve(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
        return _strip((out % p).tolist(), 0)
    out = [0] * (la + lb - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _strip([v % p for v in out], 0)


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
    _METER_LOCAL.meter.mults += (la - lb + 1) * lb
    use_np = lb >= 64 and _np_safe(p, lb)
    if use_np:
        rn = np.asarray(r, dtype=np.int64)
        bn = np.asarray(b[:-1], dtype=np.int64)
        for k in range(la - 1, lb - 2, -1):
            c = int(rn[k]) * inv_lead % p
            if c:
                q[k - lb + 1] = c
                rn[k - lb + 1 : k] = (rn[k - lb + 1 : k] - c * bn) % p
        r = rn[: lb - 1].tolist()
    else:
        for k in range(la - 1, lb - 2, -1):
            c = r[k] * inv_lead % p
            if c:
                q[k - lb + 1] = c
                for i in range(lb - 1):
                    r[k - lb + 1 + i] = (r[k - lb + 1 + i] - c * b[i]) % p
        r = r[: lb - 1]
    return _strip(q, 0), _strip(r, 0)


def _trim_np(r: np.ndarray) -> np.ndarray:
    nz = np.flatnonzero(r)
    return r[: nz[-1] + 1] if nz.size else r[:0]


def _spreads(p: int, n: int, t: int) -> bool:
    """Whether the ring's ladder runs on base-p digits.

    It does when one Frobenius spread of a full residue counts no more than
    one squaring, n^2 + (n - 1)t; t is the number of nonzero low terms of
    f. The spread is charged (p - 1)(n - 1) max(t, 1): its fold, and for
    t = 0 (f = x^n, where nothing folds) the length it writes. This keeps
    word-size p on the binary ladder for every f and bounds a spread to
    fewer than n^2/max(t, 1) + 2n coefficients.
    """
    return (p - 1) * (n - 1) * max(t, 1) <= n * n + (n - 1) * t


def _base_digits(e: int, p: int) -> list[int]:
    """The base-p digits of e > 0, most significant first."""
    if p == 2:
        return list(map(int, bin(e)[2:]))
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


class _ResidueRing:
    """Arithmetic in F_p[x]/(f) for one monic f of degree n >= 1.

    Values are trimmed little-endian int lists with entries in [0, p). The
    backend follows from (p, n) alone: fold rows for n <= _ROWS_MAX_DEG,
    int64 numpy above that when the sums cannot overflow, plain lists
    otherwise. Reduction rewrites x^n as low(x) = x^n - f one quotient
    coefficient at a time; numpy instead folds the whole high part at once
    when low has few terms. Every backend meters the same work (see
    ``count_mults``). The ladder in ``pow`` follows from (p, n, t) by
    ``_spreads``.
    """

    __slots__ = (
        "p", "n", "terms", "backend", "spreads",
        "_rows", "_sparse", "_maxnz", "_low_np", "_mulmod", "_frob",
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
        self.spreads = _spreads(p, n, len(self.terms))
        self._rows = None
        self._mulmod, self._frob = self._mul_lists, self._frob_lists
        if n <= _ROWS_MAX_DEG:
            self.backend = "rows"
            # rows[t] holds the nonzero terms of x^(n+t) mod f
            rows, row = [], low
            for _ in range(n - 1):
                rows.append(tuple((j, c) for j, c in enumerate(row) if c))
                top = row[-1]
                row = [0] + row[:-1]
                if top:
                    row = [(v + top * c) % p for v, c in zip(row, low)]
            self._rows = tuple(rows)
        elif _np_safe(p, n + 1):
            self.backend = "numpy"
            self._maxnz = max((j for j, _ in self.terms), default=-1)
            folds = 1 + (n - 2) // (n - self._maxnz)
            self._sparse = len(self.terms) * folds * 4 <= n
            self._low_np = np.asarray(low, dtype=np.int64)
            self._mulmod, self._frob = self._mul_np, self._frob_np
        else:
            self.backend = "lists"

    def reduce(self, a: list[int]) -> list[int]:
        """a mod f, for a trimmed list with entries in [0, p)."""
        if len(a) <= self.n:
            return a
        _METER_LOCAL.meter.mults += (len(a) - self.n) * len(self.terms)
        if self.backend == "numpy":
            return self._reduce_np(np.asarray(a, dtype=np.int64)).tolist()
        return self._reduce_lists(list(a))

    def mul(self, a: list[int], b: list[int]) -> list[int]:
        """a*b mod f, for reduced a and b."""
        if self.backend == "numpy":
            a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
            return self._mul_np(a, b).tolist()
        return self._mul_lists(a, b)

    def frobenius(self, a: list[int]) -> list[int]:
        """a^p mod f for reduced a: a(x^p) mod f, one spread and a fold
        when ``spreads`` holds, else the binary ladder."""
        return self.pow(a, self.p)

    def pow(self, a: list[int], e: int) -> list[int]:
        """a^e mod f; e is any non-negative int.

        The ladder reads e in radix p when ``spreads`` holds, else in
        radix 2. Each digit after the first costs one step, a Frobenius
        step or a squaring, and one product by a^digit if it is nonzero;
        in radix 2 that is square-and-multiply.
        """
        a = self.reduce(a)
        if e < 2:
            return a if e else [1]
        if self.n == 1 and a:
            # residues are constants: hand the same ladder to the native pow
            _METER_LOCAL.meter.mults += e.bit_length() + e.bit_count() - 2
            return [pow(a[0], e, self.p)]
        numpy = self.backend == "numpy"
        r = base = np.asarray(a, dtype=np.int64) if numpy else a
        mulmod = self._mulmod
        if self.spreads:
            frob, powers = self._frob, {1: base}
            digits = _base_digits(e, self.p)
            r = _digit_power(powers, digits[0], mulmod)
            for d in digits[1:]:
                r = frob(r)
                if d:
                    r = mulmod(r, _digit_power(powers, d, mulmod))
        else:
            for bit in bin(e)[3:]:
                r = mulmod(r, r)
                if bit == "1":
                    r = mulmod(r, base)
        return r.tolist() if numpy else r

    @property
    def batches(self) -> bool:
        """Whether ``pow_many`` applies: the ring folds by rows and the
        int64 sums of a batched product (at most 2n - 1 terms below p^2 per
        coefficient) cannot overflow."""
        return self._rows is not None and _np_safe(self.p, 2 * self.n)

    def mul_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise a*b mod f for (N, n) int64 arrays of reduced values.

        A batched schoolbook product, folded from the top by the rows
        x^(n+t) mod f; requires ``batches``. Counts N products of
        full-length rows (see ``count_mults``).
        """
        count, n, p = a.shape[0], self.n, self.p
        _METER_LOCAL.meter.mults += count * (n * n + (n - 1) * len(self.terms))
        prod = np.zeros((count, 2 * n - 1), dtype=np.int64)
        for i in range(n):
            prod[:, i : i + n] += a[:, i : i + 1] * b
        for k in range(2 * n - 2, n - 1, -1):
            c = prod[:, k] % p
            for j, t in self._rows[k - n]:
                prod[:, j] += c * t
        return prod[:, :n] % p

    def pow_many(self, a: np.ndarray, e: int) -> np.ndarray:
        """Row-wise a^e mod f for an (N, n) int64 array of reduced values,
        by one square-and-multiply ladder over the whole batch."""
        if e == 0:
            out = np.zeros_like(a)
            out[:, 0] = 1
            return out
        r = a
        for bit in bin(e)[3:]:
            r = self.mul_many(r, r)
            if bit == "1":
                r = self.mul_many(r, a)
        return r

    # backends: products of reduced values, as lists or as int64 arrays ------

    def _mul_lists(self, a: list[int], b: list[int]) -> list[int]:
        la, lb = len(a), len(b)
        if not la or not lb:
            return []
        _METER_LOCAL.meter.mults += la * lb + max(0, la + lb - 1 - self.n) * len(self.terms)
        prod = [0] * (la + lb - 1)
        for i, ai in enumerate(a):
            if ai:
                for k, bj in enumerate(b, i):
                    prod[k] += ai * bj
        return self._reduce_lists(prod)

    def _frob_lists(self, a: list[int]) -> list[int]:
        if not a:
            return a
        spread = [0] * ((len(a) - 1) * self.p + 1)
        spread[:: self.p] = a
        if len(spread) <= self.n:
            return spread
        _METER_LOCAL.meter.mults += (len(spread) - self.n) * len(self.terms)
        return self._reduce_lists(spread)

    def _reduce_lists(self, a: list[int]) -> list[int]:
        # a: nonnegative ints, not yet reduced mod p; consumed
        p, n = self.p, self.n
        if self._rows is not None and len(a) < 2 * n:
            rows = self._rows
            for k in range(len(a) - 1, n - 1, -1):
                c = a[k] % p
                if c:
                    for j, t in rows[k - n]:
                        a[j] += c * t
        else:
            terms = self.terms
            for k in range(len(a) - 1, n - 1, -1):
                c = a[k] % p
                if c:
                    for j, t in terms:
                        a[k - n + j] += c * t
        out = [v % p for v in a[:n]]
        while out and not out[-1]:
            out.pop()
        return out

    def _mul_np(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        la, lb = a.shape[0], b.shape[0]
        if not la or not lb:
            return a[:0]
        _METER_LOCAL.meter.mults += la * lb + max(0, la + lb - 1 - self.n) * len(self.terms)
        return self._reduce_np(np.convolve(a, b) % self.p)

    def _frob_np(self, a: np.ndarray) -> np.ndarray:
        if not a.shape[0]:
            return a
        spread = np.zeros((a.shape[0] - 1) * self.p + 1, dtype=np.int64)
        spread[:: self.p] = a
        if spread.shape[0] <= self.n:
            return spread
        _METER_LOCAL.meter.mults += (spread.shape[0] - self.n) * len(self.terms)
        return self._reduce_np(spread)

    def _reduce_np(self, r: np.ndarray) -> np.ndarray:
        # r: entries in [0, p); consumed
        p, n = self.p, self.n
        if self._sparse:
            while r.shape[0] > n:
                hi = r[n:]
                acc = np.zeros(max(n, hi.shape[0] + self._maxnz), dtype=np.int64)
                acc[:n] = r[:n]
                for j, c in self.terms:
                    acc[j : j + hi.shape[0]] += hi * c
                r = _trim_np(acc % p)
            return r
        low = self._low_np
        for k in range(r.shape[0] - 1, n - 1, -1):
            c = r[k]
            if c:
                r[k - n : k] = (r[k - n : k] + c * low) % p
        return _trim_np(r[:n])


# ---------------------------------------------------------------------------
# generic kernels (coefficients live in any field object)
# ---------------------------------------------------------------------------


def _gen_mul(K, a: list, b: list) -> list:
    if not a or not b:
        return []
    zero = K.zero
    out = [zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai != zero:
            for j, bj in enumerate(b):
                if bj != zero:
                    out[i + j] = K.add(out[i + j], K.mul(ai, bj))
    return _strip(out, zero)


def _gen_divmod(K, a: list, b: list) -> tuple[list, list]:
    lb = len(b)
    if lb == 0:
        raise ZeroDivisionError("division by zero polynomial")
    la = len(a)
    zero = K.zero
    if la < lb:
        return [], _strip(list(a), zero)
    inv_lead = K.inv(b[-1])
    r = list(a)
    q = [zero] * (la - lb + 1)
    for k in range(la - 1, lb - 2, -1):
        c = K.mul(r[k], inv_lead)
        if c != zero:
            q[k - lb + 1] = c
            for i in range(lb - 1):
                r[k - lb + 1 + i] = K.sub(r[k - lb + 1 + i], K.mul(c, b[i]))
            r[k] = zero
    return _strip(q, zero), _strip(r[: lb - 1], zero)


def _mul_raw(K, a: list, b: list) -> list:
    if isinstance(K, PrimeField):
        return _pf_mul(K.p, a, b)
    return _gen_mul(K, a, b)


def _divmod_raw(K, a: list, b: list) -> tuple[list, list]:
    if isinstance(K, PrimeField):
        return _pf_divmod(K.p, a, b)
    return _gen_divmod(K, a, b)


def _powmod_raw(K, base: list, e: int, mod: list) -> list:
    if isinstance(K, PrimeField):
        p = K.p
        if mod[-1] != 1:
            # the remainder mod f equals the remainder mod f/lc(f)
            inv_lead = pow(mod[-1], -1, p)
            mod = [c * inv_lead % p for c in mod]
        return _ResidueRing(p, mod).pow(base, e)
    # extension-coefficient polynomials stay small; a plain ladder suffices
    _, r = _divmod_raw(K, base, mod)
    if e == 0:
        return [K.one]
    if not r:
        return []
    out = list(r)
    for bit in bin(e)[3:]:
        out = _divmod_raw(K, _gen_mul(K, out, out), mod)[1]
        if bit == "1":
            out = _divmod_raw(K, _gen_mul(K, out, r), mod)[1]
        if not out:
            return []
    return out


def _gcd_raw(K, a: list, b: list) -> list:
    zero = K.zero
    a, b = list(a), list(b)
    while b:
        a, b = b, _divmod_raw(K, a, b)[1]
    if not a:
        raise ZeroDivisionError("gcd(0, 0) is undefined")
    inv_lead = K.inv(a[-1])
    if a[-1] != K.one:
        a = [K.mul(c, inv_lead) for c in a]
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
        _METER_LOCAL.meter.mults += 1
        return a * b % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("exponent must be non-negative")
        _METER_LOCAL.meter.mults += (e.bit_length() * 3) // 2
        return pow(a, e, self.p)

    def pow_many(self, a: Sequence[int], e: int) -> np.ndarray:
        """a_i^e for each raw value of a, by one square-and-multiply ladder.

        The ladder runs on an int64 array when products fit
        (``_np_safe(p, 1)``), else native pow runs per value and the
        result is an object array of ints. Each step counts len(a)
        products, as a power in a residue ring of degree 1 does.
        """
        if e < 0:
            raise ValueError("exponent must be non-negative")
        p = self.p
        _METER_LOCAL.meter.mults += len(a) * max(0, e.bit_length() + e.bit_count() - 2)
        if not _np_safe(p, 1):
            return np.array([pow(int(v), e, p) for v in a], dtype=object)
        base = np.asarray(a, dtype=np.int64)
        if e == 0:
            return np.ones_like(base)
        r = base
        for bit in bin(e)[3:]:
            r = r * r % p
            if bit == "1":
                r = r * base % p
        return r

    # conversions and iteration ----------------------------------------------

    def coerce(self, value) -> int:
        if isinstance(value, Element):
            if value.field != self:
                raise FieldMismatchError("element from a different field")
            return value.value
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

    def elements(self) -> Iterator["Element"]:
        for i in range(self.p):
            yield Element(self, i)

    def random_element(self, rng) -> "Element":
        return Element(self, rng.randrange(self.order))

    def __call__(self, value) -> "Element":
        return Element(self, self.coerce(value))

    def poly(self, coeffs: Sequence) -> "Poly":
        return Poly(self, coeffs)

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

    def inv(self, a: tuple) -> tuple:
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        p = self.p
        # extended Euclid keeping s with s*a = r (mod modulus)
        r0, r1 = list(self.modulus), _strip(list(a), 0)
        s0, s1 = [], [1]
        while r1:
            q, r = _pf_divmod(p, r0, r1)
            qs1 = _pf_mul(p, q, s1)
            width = max(len(s0), len(qs1))
            s_new = [
                ((s0[i] if i < len(s0) else 0) - (qs1[i] if i < len(qs1) else 0)) % p
                for i in range(width)
            ]
            r0, r1 = r1, r
            s0, s1 = s1, _strip(s_new, 0)
        # modulus irreducible and a nonzero, so the gcd r0 is a nonzero constant
        c = pow(r0[0], -1, p)
        return self._residue([v * c % p for v in s0])

    def pow(self, a: tuple, e: int) -> tuple:
        if e < 0:
            raise ValueError("exponent must be non-negative")
        return self._residue(self._ring.pow(_strip(list(a), 0), e))

    def pow_many(self, a, e: int) -> np.ndarray:
        """a_i^e for each row a_i of a, an (N, m) array of raw values.

        One ladder over the whole batch (``_ResidueRing.pow_many``) when the
        ring ``batches``; otherwise ``pow`` per value, returned as an (N, m)
        object array of ints.
        """
        if e < 0:
            raise ValueError("exponent must be non-negative")
        ring, m = self._ring, self.degree
        if ring.batches:
            return ring.pow_many(np.asarray(a, dtype=np.int64).reshape(-1, m), e)
        out = np.empty((len(a), m), dtype=object)
        for i, v in enumerate(a):
            out[i] = self.pow(tuple(map(int, v)), e)
        return out

    # conversions and iteration ----------------------------------------------

    def coerce(self, value) -> tuple:
        if isinstance(value, Element):
            if value.field != self:
                raise FieldMismatchError("element from a different field")
            return value.value
        if isinstance(value, int) and not isinstance(value, bool):
            return self.scalar(value)
        if isinstance(value, (tuple, list)):
            if len(value) > self.degree:
                raise ValueError("residue longer than the field degree")
            return self._residue([int(v) % self.p for v in value])
        raise TypeError(f"cannot interpret {value!r} as an element of {self!r}")

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

    def from_indices(self, indices: np.ndarray) -> np.ndarray:
        """``from_index`` for each entry of an int64 array, as an (N, m) array."""
        if indices.size and not 0 <= indices.min() <= indices.max() < self.order:
            raise ValueError("index out of range")
        powers = np.array([self.p**i for i in range(self.degree)], dtype=np.int64)
        return indices[:, None] // powers % self.p

    def to_index(self, a: tuple) -> int:
        out = 0
        for c in reversed(a):
            out = out * self.p + c
        return out

    def elements(self) -> Iterator["Element"]:
        for i in range(self.order):
            yield Element(self, self.from_index(i))

    def random_element(self, rng) -> "Element":
        return Element(self, self.from_index(rng.randrange(self.order)))

    def __call__(self, value) -> "Element":
        return Element(self, self.coerce(value))

    def poly(self, coeffs: Sequence) -> "Poly":
        return Poly(self, coeffs)

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


class Element:
    """A field element: a raw value bound to its field, with operator sugar."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value

    @property
    def is_zero(self) -> bool:
        return self.value == self.field.zero

    def _coerced(self, other):
        if isinstance(other, Element):
            if other.field != self.field:
                raise FieldMismatchError("elements from different fields")
            return other.value
        return self.field.coerce(other)

    def __add__(self, other):
        return Element(self.field, self.field.add(self.value, self._coerced(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return Element(self.field, self.field.sub(self.value, self._coerced(other)))

    def __rsub__(self, other):
        return Element(self.field, self.field.sub(self._coerced(other), self.value))

    def __neg__(self):
        return Element(self.field, self.field.neg(self.value))

    def __mul__(self, other):
        return Element(self.field, self.field.mul(self.value, self._coerced(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return Element(
            self.field, self.field.mul(self.value, self.field.inv(self._coerced(other)))
        )

    def __pow__(self, e: int):
        return Element(self.field, self.field.pow(self.value, e))

    def __eq__(self, other) -> bool:
        if isinstance(other, Element):
            return other.field == self.field and other.value == self.value
        try:
            return self._coerced(other) == self.value
        except (TypeError, FieldMismatchError):
            return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field, self.value))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        return f"{self.value!r} in {self.field!r}"


def ext_pow(a: Element, e: int) -> Element:
    """a^e by square-and-multiply in a's field; e is any non-negative int."""
    return Element(a.field, a.field.pow(a.value, e))


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class Poly:
    """Dense univariate polynomial over a ``PrimeField`` or ``ExtensionField``.

    Coefficients are stored little-endian (index i holds the coefficient of
    x^i) and normalized so the top stored coefficient is nonzero; the zero
    polynomial stores nothing and reports degree -1.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs: Sequence):
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
        return self._wrap(_mul_raw(self.field, list(self.coeffs), list(other.coeffs)))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._same_field(other)
        q, r = _divmod_raw(self.field, list(self.coeffs), list(other.coeffs))
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

    def evaluate(self, point) -> Element:
        """Horner evaluation at a field element."""
        K = self.field
        x = K.coerce(point)
        acc = K.zero
        for c in reversed(self.coeffs):
            acc = K.add(K.mul(acc, x), c)
        return Element(K, acc)

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
    raw = _gcd_raw(a.field, list(a.coeffs), list(b.coeffs))
    return a._wrap(raw)


def poly_powmod(base: Poly, e: int, modulus: Poly) -> Poly:
    """base^e reduced mod modulus.

    The exponent is an arbitrary-size non-negative int; the run costs
    O(bit length of e) modular multiplications. Over F_p it is the residue
    ring's ladder, which takes Frobenius steps for small p.
    """
    base._same_field(modulus)
    if modulus.is_zero:
        raise ZeroDivisionError("zero modulus")
    if modulus.degree < 1:
        raise ValueError("modulus must have degree >= 1")
    if e < 0:
        raise ValueError("exponent must be non-negative")
    raw = _powmod_raw(base.field, list(base.coeffs), e, list(modulus.coeffs))
    return base._wrap(raw)


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
