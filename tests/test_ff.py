"""Field and polynomial arithmetic: spec'd examples plus algebraic laws."""

import random
from math import isqrt
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from capelli import (
    CapelliError,
    ExtensionField,
    FieldMismatchError,
    Poly,
    PrimeField,
    ReducibleModulusError,
    compose_power,
    count_mults,
    poly_gcd,
    poly_powmod,
    rabin_test,
)

from capelli.ff import (
    _LISTS_MAX_DEG,
    _MONTGOMERY_BLOCK,
    _ResidueRing,
    _ladder,
    _ladder_products,
    _np_safe,
    _pf_divmod,
    _pf_mul,
    _spreads,
    _strip,
)
from capelli.intops import distinct_prime_factors, is_prime
from capelli.oracle import _frobenius_climb, _rabin_work, trial_division_test

from conftest import field_of_order, modulus_case, prime_powers_up_to

F2 = PrimeField(2)
F3 = PrimeField(3)
F7 = PrimeField(7)


# --- field construction ------------------------------------------------------


def test_prime_field_rejects_composites():
    for bad in (0, 1, 4, 9, 15, 2**31):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_prime_field_rejects_oversized():
    with pytest.raises(ValueError):
        PrimeField(2**64 + 13)


def test_extension_rejects_reducible_modulus():
    with pytest.raises(ReducibleModulusError):
        ExtensionField(F2, [1, 0, 1])  # x^2+1 = (x+1)^2 over F_2
    # trusted skips the check entirely
    ExtensionField(F2, [1, 0, 1], trusted=True)


def test_extension_requires_monic():
    with pytest.raises(ValueError):
        ExtensionField(F3, [1, 0, 2])


def test_extension_orders():
    F9 = ExtensionField(F3, [1, 0, 1])
    assert F9.order == 9
    assert F9.order_minus_one == 8
    assert F9.degree == 2
    F8 = ExtensionField(F2, [1, 1, 0, 1])
    assert F8.order_minus_one == 7


def test_from_index_roundtrip():
    for q in (7, 9, 8, 27, 25):
        K = field_of_order(q)
        seen = set()
        for i in range(q):
            v = K.from_index(i)
            assert K.to_index(v) == i
            seen.add(v)
        assert len(seen) == q


# --- spec'd arithmetic examples ----------------------------------------------


def test_char2_square():
    assert (Poly(F2, [1, 1]) * Poly(F2, [1, 1])).coeffs == (1, 0, 1)


def test_gcd_common_root():
    g = poly_gcd(Poly(F7, [6, 0, 1]), Poly(F7, [6, 1]))
    assert g.coeffs == (6, 1)  # x - 1


def test_division_with_multiply_back():
    a = Poly(F3, [1, 0, 0, 0, 1])  # x^4 + 1
    b = Poly(F3, [2, 1, 1])  # x^2 + x + 2
    q, r = divmod(a, b)
    assert q.coeffs == (2, 2, 1)
    assert r.is_zero
    assert q * b + r == a


def test_powmod_examples():
    assert poly_powmod(Poly.x(F3), 1, Poly(F3, [1, 0, 1])).coeffs == (0, 1)
    assert poly_powmod(Poly.x(F3), 4, Poly(F3, [1, 0, 1])).coeffs == (1,)
    assert poly_powmod(Poly.x(F2), 8, Poly(F2, [1, 1, 1])).coeffs == (1, 1)


def test_powmod_non_monic_modulus_same_over_both_field_kinds():
    # 2x^2 + 1 over F_3 has the monic associate x^2 + 2, and the same remainders
    for e in (0, 1, 2, 5, 17):
        got = poly_powmod(Poly.x(F3), e, Poly(F3, [1, 0, 2]))
        assert got == poly_powmod(Poly.x(F3), e, Poly(F3, [2, 0, 1])), e


def test_powmod_validations():
    with pytest.raises(ZeroDivisionError):
        poly_powmod(Poly.x(F3), 2, Poly.zero(F3))
    with pytest.raises(ValueError):
        poly_powmod(Poly.x(F3), 2, Poly.one(F3))
    with pytest.raises(ValueError):
        poly_powmod(Poly.x(F3), -1, Poly(F3, [1, 0, 1]))


def test_ext_pow_examples():
    F9 = ExtensionField(F3, [1, 0, 1])
    assert F9.pow(F9.gen(), 4) == F9.one
    F9b = ExtensionField(F3, [2, 1, 1])
    b = F9b.gen()
    assert F9b.pow(b, 4) == F9b.scalar(2)
    # cross-check by repeated multiplication
    acc = b
    for _ in range(7):
        acc = F9b.mul(acc, b)
    assert acc == F9b.pow(b, 8)


def test_ext_pow_lagrange_exhaustive():
    """a^(q-1) = 1 for every nonzero a, every field of order q <= 49."""
    for q in prime_powers_up_to(49):
        K = field_of_order(q)
        for i in range(1, q):
            assert K.pow(K.from_index(i), q - 1) == K.one, (q, i)


def test_compose_power_examples():
    assert compose_power(Poly(F2, [1, 1, 1]), 3).coeffs == (1, 0, 0, 1, 0, 0, 1)
    assert compose_power(Poly(F3, [1, 0, 1]), 2).coeffs == (1, 0, 0, 0, 1)
    b = Poly(F7, [3, 1, 0, 5])
    assert compose_power(b, 1) is b
    with pytest.raises(ValueError):
        compose_power(b, 0)


def test_compose_power_preserves_terms_and_degree():
    rng = random.Random(5)
    for _ in range(200):
        q = rng.choice([2, 3, 5, 7])
        K = PrimeField(q)
        deg = rng.randrange(1, 8)
        b = Poly.monic_from_index(K, deg, rng.randrange(q**deg))
        d = rng.randrange(2, 7)
        c = compose_power(b, d)
        assert c.degree == d * b.degree
        assert c.term_count() == b.term_count()


def test_compose_power_evaluation_identity():
    """b(x^d) at gamma equals b at gamma^d."""
    rng = random.Random(11)
    for _ in range(300):
        q = rng.choice([2, 3, 5, 7, 13])
        K = PrimeField(q)
        deg = rng.randrange(1, 6)
        b = Poly.monic_from_index(K, deg, rng.randrange(q**deg))
        d = rng.randrange(1, 9)
        gamma = K.from_index(rng.randrange(q))
        lhs = compose_power(b, d).evaluate(gamma)
        rhs = b.evaluate(K.pow(gamma, d))
        assert lhs == rhs


# --- algebraic laws -----------------------------------------------------------


@st.composite
def _poly_pair(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 13]))
    K = PrimeField(p)
    mk = lambda: Poly(K, draw(st.lists(st.integers(0, p - 1), max_size=9)))
    return K, mk(), mk(), mk()


@given(_poly_pair())
@settings(max_examples=150, deadline=None)
def test_ring_axioms(data):
    _, a, b, c = data
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    one = Poly.one(a.field)
    assert a * one == a
    assert a - a == Poly.zero(a.field)


@given(_poly_pair())
@settings(max_examples=150, deadline=None)
def test_division_invariant(data):
    _, a, b, _ = data
    if b.is_zero:
        with pytest.raises(ZeroDivisionError):
            divmod(a, b)
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


@given(_poly_pair())
@settings(max_examples=100, deadline=None)
def test_gcd_divides_both(data):
    _, a, b, _ = data
    if a.is_zero and b.is_zero:
        with pytest.raises(ZeroDivisionError):
            poly_gcd(a, b)
        return
    g = poly_gcd(a, b)
    assert g.is_monic
    for f in (a, b):
        if not f.is_zero:
            assert (f % g).is_zero


def test_powmod_matches_naive():
    rng = random.Random(7)
    for _ in range(80):
        q = rng.choice([2, 3, 5, 7])
        K = PrimeField(q)
        mod = Poly.monic_from_index(K, rng.randrange(1, 5), rng.randrange(q ** 1))
        base = Poly(K, [K.from_index(rng.randrange(q)) for _ in range(4)])
        e = rng.randrange(0, 40)
        expect = Poly.one(K)
        for _ in range(e):
            expect = (expect * base) % mod
        assert poly_powmod(base, e, mod) == expect % mod


def test_field_mismatch_raises():
    with pytest.raises(FieldMismatchError):
        Poly(F2, [1, 1]) + Poly(F3, [1, 1])


def test_poly_is_over_a_prime_field_only():
    """Poly's kernels compute on ints mod p, so a polynomial over F_9 or F_8,
    whose values are tuples, is refused when it is built."""
    F9 = field_of_order(9)
    for field in (F9, field_of_order(8), 3):
        with pytest.raises(FieldMismatchError):
            Poly(field, [F9.one] if field is F9 else [1, 1])
        with pytest.raises(FieldMismatchError):
            Poly.zero(field)
    assert issubclass(FieldMismatchError, CapelliError)


def test_zero_polynomial_degree_marker():
    z = Poly.zero(F7)
    assert z.degree == -1
    assert z.coeffs == ()
    assert not z
    assert Poly(F7, [3]).degree == 0


def test_work_meter_counts_something():
    b = Poly(F7, [1, 2, 3, 4, 5])
    with count_mults() as work:
        _ = b * b
    assert work() >= 25


def test_large_degree_numpy_path_consistency():
    """The numpy kernels and the pure-python kernels agree; the moduli have
    degree 70, above the residue ring's lists/numpy crossover."""
    rng = random.Random(42)
    p = 13
    K = PrimeField(p)
    a = Poly(K, [rng.randrange(p) for _ in range(60)])
    b = Poly(K, [rng.randrange(p) for _ in range(50)])
    # schoolbook reference
    ref = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            ref[i + j] = (ref[i + j] + ai * bj) % p
    while ref and ref[-1] == 0:
        ref.pop()
    assert list((a * b).coeffs) == ref

    mod_sparse = Poly(K, [5] + [0] * 39 + [7] + [0] * 29 + [1])  # sparse, degree 70
    mod_dense = Poly(K, [rng.randrange(p) for _ in range(70)] + [1])
    for mod in (mod_sparse, mod_dense):
        got = poly_powmod(a, 3, mod)
        expect = ((a * a) % mod * a) % mod
        assert got == expect


# --- the residue ring against schoolbook ---------------------------------------

# p on both sides of the int64 headroom check; n = 32 and 33 run on lists, and
# the first n above the lists/numpy crossover on numpy where int64 sums fit
RING_PRIMES = [2, 65521, 2**31 - 1, 2**61 - 1]
RING_DEGREES = [32, 33, _LISTS_MAX_DEG + 1]


def _ring_on(backend, p, f):
    """A ring on the named backend: numpy below the crossover by lowering it
    to deg f - 1, lists above it by declaring int64 sums unsafe."""
    n = len(f) - 1
    if backend == "numpy":
        with patch("capelli.ff._LISTS_MAX_DEG", min(_LISTS_MAX_DEG, n - 1)):
            return _ResidueRing(p, f)
    with patch("capelli.ff._np_safe", return_value=False):
        return _ResidueRing(p, f)


@st.composite
def _ring_case(draw, p, n):
    coeff, unit = st.integers(0, p - 1), st.integers(1, p - 1)
    if draw(st.booleans()):
        # trinomial x^n + c*x^k + c0; numpy folds it in one round (k = 1),
        # in several (k = n/2, n - 8), or divides (k = n - 1)
        f = [0] * n + [1]
        f[0] = draw(unit)
        f[draw(st.sampled_from([1, n // 2, max(1, n - 8), n - 1]))] = draw(unit)
    else:
        f = draw(st.lists(coeff, min_size=n, max_size=n)) + [1]
    # mostly full-length residues, so that products need reducing
    length = st.sampled_from([0, 1, 2, n // 2, n - 1, n, n, n])
    residue = length.flatmap(lambda k: st.lists(coeff, min_size=k, max_size=k))
    return f, _strip(draw(residue), 0), _strip(draw(residue), 0)


def _gen_mul(K, a: list, b: list) -> list:
    """The schoolbook product through the field's own operations: the
    reference for the ring and the prime-field kernels."""
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
    """Long division through the field's own operations: the reference for
    the ring's fold and for ``_pf_divmod``."""
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


def _schoolbook_mulmod(K, f, a, b):
    return _gen_divmod(K, _gen_mul(K, a, b), f)[1]


@pytest.mark.parametrize("n", RING_DEGREES)
@pytest.mark.parametrize("p", RING_PRIMES)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_ring_mul_and_reduce_match_schoolbook(p, n, data):
    f, a, b = data.draw(_ring_case(p, n))
    K = PrimeField(p)
    ring = _ResidueRing(p, f)
    assert ring.mul(a, b) == _schoolbook_mulmod(K, f, a, b)
    # a long input: more than 2n coefficients, beyond one product's length
    long = _strip(a + b + a + [1], 0)
    assert ring.reduce(long) == _gen_divmod(K, long, f)[1]


@pytest.mark.parametrize("p", [2, 13, 65521, 2**61 - 1])
def test_prime_field_product_and_division_match_generic_kernels(p):
    """The schoolbook kernels on int lists, at lengths 63 to 67 around the
    residue ring's lists/numpy crossover, give the generic kernels' answer
    and meter the model, at every p."""
    K = PrimeField(p)
    rng = random.Random(p)

    def poly(length):
        return [rng.randrange(p) for _ in range(length - 1)] + [rng.randrange(1, p)]

    lengths = range(_LISTS_MAX_DEG - 1, _LISTS_MAX_DEG + 4)
    for la in lengths:
        for lb in lengths:
            a, b = poly(la), poly(lb)
            with count_mults() as work:
                product = _pf_mul(p, a, b)
            assert product == _gen_mul(K, a, b)
            assert work() == la * lb
            with count_mults() as work:
                quotient_remainder = _pf_divmod(p, a + b, b)
            assert quotient_remainder == _gen_divmod(K, a + b, b)
            assert work() == (la + 1) * lb


@pytest.mark.parametrize("n", RING_DEGREES)
@pytest.mark.parametrize("p", RING_PRIMES)
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_ring_pow_matches_schoolbook(p, n, data):
    f, a, _ = data.draw(_ring_case(p, n))
    e = data.draw(st.integers(0, 12))
    K = PrimeField(p)
    ring = _ResidueRing(p, f)
    expect = [1]
    for _ in range(e):
        expect = _schoolbook_mulmod(K, f, expect, a)
    assert ring.pow(a, e) == expect
    # a long exponent splits: a^(e1 + e2) = a^e1 * a^e2
    e1, e2 = data.draw(st.integers(0, 2**80)), data.draw(st.integers(0, 2**80))
    assert ring.pow(a, e1 + e2) == ring.mul(ring.pow(a, e1), ring.pow(a, e2))


@pytest.mark.parametrize(
    "p, n, backend",
    [
        (2, _LISTS_MAX_DEG, "lists"),
        (65521, 33, "numpy"),
        (2**61 - 1, 33, "lists"),
        (65521, _LISTS_MAX_DEG + 1, "numpy"),
        (2**61 - 1, _LISTS_MAX_DEG + 1, "lists"),
    ],
)
def test_ring_product_count_matches_model(p, n, backend):
    """A product counts la*lb + max(0, la + lb - 1 - n)*t on every backend;
    n = 33 runs the numpy kernels below the crossover."""
    rng = random.Random(n)
    f = [rng.randrange(p) for _ in range(n)] + [1]
    f[3] = f[7] = 0
    ring = _ring_on("numpy", p, f) if backend == "numpy" else _ResidueRing(p, f)
    assert ring.backend == backend
    t = sum(1 for c in f[:n] if c)
    for la, lb in [(n, n), (n, 5), (7, 9), (1, n), (0, 4)]:
        a, b = ([rng.randrange(p) for _ in range(k - 1)] + [1] if k else [] for k in (la, lb))
        with count_mults() as work:
            ring.mul(a, b)
        if la and lb:
            assert work() == la * lb + max(0, la + lb - 1 - n) * t
        else:
            assert work() == 0


@pytest.mark.parametrize(
    "p, n", [(2, 9), (5, 9), (2, 32), (65521, 32), (2**61 - 1, 3), (2, _LISTS_MAX_DEG + 1)])
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_ring_pow_many_matches_pow_and_counts_full_rows(p, n, data):
    """The batched ladder, on int64 rows or Python-int rows, gives the ring's
    powers and counts N full-row products per square-and-multiply step."""
    f, a, b = data.draw(_ring_case(p, n))
    e = data.draw(st.integers(0, 2**40))
    ring = _ResidueRing(p, f)
    rows = [a, b, ring.mul(a, b), [], [1]]
    dtype = np.int64 if _np_safe(p, 2 * n) else object
    batch = np.array([r + [0] * (n - len(r)) for r in rows], dtype=dtype)
    with count_mults() as work:
        got = ring.pow_many(batch, e)
    assert [_strip(row.tolist(), 0) for row in got] == [ring.pow(r, e) for r in rows]
    t = sum(1 for c in f[:n] if c)
    steps = max(0, e.bit_length() + e.bit_count() - 2)
    assert work() == len(rows) * steps * (n * n + (n - 1) * t)


def test_extension_rows_are_int64_exactly_where_batched_sums_fit():
    """``ExtensionField.pow_many`` runs on int64 rows where ``_np_safe(p, 2m)``
    holds and on Python-int rows elsewhere. Every row equals ``pow``, and
    Python-int rows give the same powers and work as int64 rows. 811,672,523
    is the last prime with int64 rows at m = 3, 811,672,541 the first without."""
    for p in (65521, 811672523, 811672541, 2**31 - 1, 2**61 - 1, 2**64 - 59):
        for m in (2, 3, 65):
            rng = random.Random(p * m)
            f = [rng.randrange(1, p)] + [0] * (m - 1) + [1]
            f[m // 2] = rng.randrange(1, p)
            F = ExtensionField(p, f, trusted=True)
            values = [tuple(rng.randrange(p) for _ in range(m)) for _ in range(3)]
            values += [F.one, F.gen(), (p - 1,) * m]
            e = rng.randrange(2**8, 2**10)
            t = sum(1 for c in F.modulus[:m] if c)
            with count_mults() as work:
                got = F.pow_many(values, e)
            assert got.dtype == (np.int64 if _np_safe(p, 2 * m) else object), (p, m)
            assert [tuple(map(int, row)) for row in got] == [F.pow(v, e) for v in values]
            assert work() == len(values) * _ladder_products(e) * (m * m + (m - 1) * t)
            with count_mults() as python_ints:
                on_objects = F._ring.pow_many(np.array(values, dtype=object), e)
            assert on_objects.dtype == object and on_objects.tolist() == got.tolist()
            assert python_ints() == work()


@pytest.mark.parametrize("p", [65521, 2**61 - 1, 2**64 - 59])
def test_prime_field_pow_many_matches_pow_and_counts(p):
    """int64 or Montgomery ladder, each step counting N products."""
    rng = random.Random(p)
    K = PrimeField(p)
    # unreduced values too: negative, p and above, beyond int64 products, beyond 64 bits
    values = [rng.randrange(p) for _ in range(20)] + [10**12, -5, p, 2 * p + 3]
    values += [2**63, 2**70, -(2**70) - 3]
    for e in (0, 1, 2, 3, p - 1, (p - 1) // 2, rng.randrange(2**90)):
        with count_mults() as work:
            got = K.pow_many(values, e)
        assert [int(v) for v in got] == [pow(v, e, p) for v in values]
        assert work() == len(values) * max(0, e.bit_length() + e.bit_count() - 2)
    # 10^12 = 1 mod 7: squared on int64 it once overflowed, and e = 1 left it unreduced
    assert PrimeField(7).pow_many([10**12], 2).tolist() == [1]
    assert PrimeField(7).pow_many([10**12], 1).tolist() == [1]
    # past int64 the int64 route once raised OverflowError; 2^70 = 2 mod 7
    assert PrimeField(7).pow_many([2**70], 1).tolist() == [2]
    # F_9 rows were packed unreduced: (3, 0) is zero
    assert ExtensionField(3, [1, 0, 1]).pow_many([(3, 0)], 1).tolist() == [[0, 0]]


# 1,518,500,213 is the last prime with int64 headroom, 1,518,500,279 the first without;
# 2^62 - 57 is the last prime whose ladder keeps lazy values in [0, 2p), 2^62 + 135
# the first that reduces every product fully
MONTGOMERY_PRIMES = st.one_of(
    st.sampled_from([1518500279, 2**61 - 1, 2**62 - 57, 2**62 + 135, 2**63 - 25, 2**63 + 29,
                     2**64 - 59]),
    # primes in (2^63, 2^64), where the REDC sum can wrap past 2^64
    st.integers(2**63, 2**64 - 60).map(lambda n: next(q for q in range(n, 2**64) if is_prime(q))),
)


def test_montgomery_route_starts_at_the_int64_boundary():
    assert _np_safe(1518500213, 1) and not _np_safe(1518500279, 1)
    assert PrimeField(1518500213).pow_many([2], 3).dtype == np.int64
    assert PrimeField(1518500279).pow_many([2], 3).dtype == np.uint64


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_montgomery_pow_many_matches_native_pow(data):
    """The Montgomery ladder against native pow, with the work of the int64 route."""
    p = data.draw(MONTGOMERY_PRIMES, label="p")
    K = PrimeField(p)
    extremes = [0, 1, p - 1, p, 2 * p + 3, -1, -p - 5, 2**80 + 7]
    values = extremes + data.draw(
        st.lists(st.integers(-(2**70), 2**70), max_size=20), label="values")
    exponents = [0, 1, 2, p - 1, (p - 1) // 2, data.draw(st.integers(0, 2**90), label="e")]
    for e in exponents:
        with count_mults() as work:
            got = K.pow_many(values, e)
        assert np.issubdtype(got.dtype, np.integer)
        assert [int(v) for v in got] == [pow(v, e, p) for v in values], e
        assert work() == len(values) * max(0, e.bit_length() + e.bit_count() - 2)
    # an earlier result goes back in as it is
    again = K.pow_many(K.pow_many(values, 1), exponents[-1])
    assert [int(v) for v in again] == [pow(v, exponents[-1], p) for v in values]
    # an int64 array, negative values included
    signed = [v for v in values if -(2**63) <= v < 2**63]
    got = K.pow_many(np.array(signed, dtype=np.int64), exponents[-1])
    assert [int(v) for v in got] == [pow(v, exponents[-1], p) for v in signed]


def test_montgomery_pow_many_runs_in_blocks():
    """An array longer than one block: every block's values, dtype and work
    equal those of native pow and of one ladder."""
    p = 2**61 - 1
    rng = random.Random(7)
    values = [rng.randrange(p) for _ in range(2 * _MONTGOMERY_BLOCK + 5)]
    K = PrimeField(p)
    e = (p - 1) // 2 + rng.randrange(2**20)
    with count_mults() as work:
        got = K.pow_many(values, e)
    assert got.dtype == np.uint64 and got.shape == (len(values),)
    assert [int(v) for v in got] == [pow(v, e, p) for v in values]
    assert work() == len(values) * (e.bit_length() + e.bit_count() - 2)


def test_from_indices_matches_from_index():
    F = field_of_order(125)
    got = F.from_indices(np.arange(125, dtype=np.int64))
    assert [tuple(row) for row in got.tolist()] == [F.from_index(i) for i in range(125)]
    for bad in ([125], [-1, 3]):
        with pytest.raises(ValueError):
            F.from_indices(np.array(bad, dtype=np.int64))
    # q = 3^40 > 2^63: Python-int indices and rows
    F = ExtensionField(3, [1, 2] + [0] * 38 + [1], trusted=True)
    rng = random.Random(40)
    indices = [0, 1, 2**63, F.order - 1] + [rng.randrange(F.order) for _ in range(20)]
    got = F.from_indices(np.array(indices, dtype=object))
    assert got.dtype == object
    assert [tuple(row) for row in got.tolist()] == [F.from_index(i) for i in indices]
    assert F.from_indices(indices).tolist() == got.tolist()
    with pytest.raises(ValueError):
        F.from_indices([F.order])


# --- the Frobenius ladder ------------------------------------------------------

# small p, each n on both backends: lists and numpy's kernels forced at n = 33
# below the crossover, numpy above it and lists there with int64 sums declared
# unsafe; n = 12 on lists alone
FROB_PRIMES = [2, 3, 5, 7, 13]
FROB_BACKENDS = [
    ("lists", 12),
    ("numpy", 33),
    ("lists", 33),
    ("numpy", _LISTS_MAX_DEG + 1),
    ("lists", _LISTS_MAX_DEG + 1),
]


def _on_ladder(p, f, spreads):
    """A ring whose ``pow`` takes the radix-p ladder with Frobenius steps
    (spreads) or the binary ladder, whichever ``_spreads`` would pick."""
    with patch("capelli.ff._spreads", return_value=spreads):
        return _ResidueRing(p, f)


def _schoolbook_pow(K, f, a, e):
    out, a = [1], _gen_divmod(K, a, f)[1]
    for bit in bin(e)[2:]:
        out = _schoolbook_mulmod(K, f, out, out)
        if bit == "1":
            out = _schoolbook_mulmod(K, f, out, a)
    return out


@st.composite
def _frob_case(draw, p, n):
    coeff, unit = st.integers(0, p - 1), st.integers(1, p - 1)
    shape = draw(st.sampled_from(["trinomial", "dense", "power"]))
    if shape == "dense":
        f = draw(st.lists(coeff, min_size=n, max_size=n)) + [1]
    else:
        f = [0] * n + [1]
        if shape == "trinomial":
            f[0] = draw(unit)
            f[draw(st.integers(1, n - 1))] = draw(unit)
    a = _strip(draw(st.lists(coeff, min_size=0, max_size=n)), 0)
    # p^k, an exponent (p^n - 1)/r of the residue tests, or a random one
    e = draw(
        st.one_of(
            st.integers(0, n + 2).map(lambda k: p**k),
            st.sampled_from([r for r in (2, 3, 5, 7, 11) if (p**n - 1) % r == 0] or [1]).map(
                lambda r: (p**n - 1) // r
            ),
            st.integers(0, p ** (n + 2)),
        )
    )
    return f, a, e


@pytest.mark.parametrize("backend, n", FROB_BACKENDS)
@pytest.mark.parametrize("p", FROB_PRIMES)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_frobenius_ladder_matches_schoolbook(p, backend, n, data):
    f, a, e = data.draw(_frob_case(p, n))
    ring = _ring_on(backend, p, f)
    assert ring.backend == backend
    K = PrimeField(p)
    with count_mults() as work:
        frob = ring.pow(a, p)
    assert frob == _schoolbook_pow(K, f, a, p)
    if ring.spreads:
        # one spread to (len(a) - 1)p + 1 coefficients, charged its fold alone
        assert work() == max(0, (len(a) - 1) * p + 1 - n) * sum(1 for c in f[:n] if c)
    assert ring.pow(a, e) == _schoolbook_pow(K, f, a, e)


@pytest.mark.parametrize("p", FROB_PRIMES)
def test_frobenius_powers_of_x_take_no_products(p):
    """x^(p^k) is k Frobenius steps; no power a^j is built for digit 0."""
    big = _LISTS_MAX_DEG + 1  # on numpy: x^big - x^(big // 2) + 1
    middle = [1] + [0] * (big // 2 - 1) + [p - 1] + [0] * (big - big // 2 - 1) + [1]
    for n, f in [(12, [1] + [0] * 11 + [1]), (big, middle)]:
        ring = _ResidueRing(p, f)
        assert ring.spreads
        K = PrimeField(p)
        with patch.object(_ResidueRing, "_mul", side_effect=AssertionError):
            for k in (1, 2, n, n + 3):
                assert ring.pow([0, 1], p**k) == _schoolbook_pow(K, f, [0, 1], p**k)


# trinomials x^n + c*x^k + c0, whose numpy fold takes w = n - k coefficients a
# block: one block (k = 1), two (k = n/2) or about n/8 (k = n - 8)
FOLD_CASES = [(p, n, k) for p in (2, 3) for n in (65, 200) for k in (1, n // 2, n - 8)]


def _trinomial(p, n, k):
    rng = random.Random(p * n + k)
    f = [rng.randrange(1, p)] + [0] * (n - 1) + [1]
    f[k] = rng.randrange(1, p)
    return f


@pytest.mark.parametrize("p, n, k", FOLD_CASES)
def test_numpy_frobenius_step_matches_schoolbook_and_lists(p, n, k):
    """The numpy spread and its block fold give the lists backend's and
    schoolbook's a^p, meter the same work, and climb to the same a^(p^j)."""
    f = _trinomial(p, n, k)
    on_numpy, on_lists = _ring_on("numpy", p, f), _ring_on("lists", p, f)
    assert on_numpy.backend == "numpy" and on_numpy._sparse and on_numpy.spreads
    rng = random.Random(k)
    K = PrimeField(p)
    for a in ([0, 1], [0] * (n - 1) + [1], [rng.randrange(p) for _ in range(n - 1)] + [1]):
        with count_mults() as numpy_work:
            frob = on_numpy._frob(np.asarray(a, dtype=np.int64)).tolist()
        with count_mults() as lists_work:
            assert frob == on_lists._frob(a)
        assert numpy_work() == lists_work()
        assert frob == _schoolbook_pow(K, f, a, p)
        for j in (2, n // 2, n + 3):
            assert on_numpy.pow(a, p**j) == on_lists.pow(a, p**j)
            assert on_numpy.frobenius_steps(a, j) == on_lists.pow(a, p**j)


def _largest_np_safe_prime(width):
    # down from the first p - 1 whose (p - 1)^2 (width + 1) reaches 2^62
    p = isqrt(((1 << 62) - 1) // (width + 1)) + 1
    while not (_np_safe(p, width) and is_prime(p)):
        p -= 1
    return p


@pytest.mark.parametrize("n", [65, 200])
def test_numpy_block_fold_at_the_largest_int64_safe_p(n):
    """At the largest p with numpy sums (``_np_safe(p, n + 1)``), operands of
    p - 1 and the most low terms a sparse fold admits, all p - 1, give the
    lists backend's products, long reductions and powers. A spread there
    would be (n - 1)p + 1 long, so the ring squares."""
    p = _largest_np_safe_prime(n + 1)
    for k in (1, n // 2, n - 8):
        # terms from x^0 to x^k, as many as a sparse fold admits (t < 2(n - k)),
        # each of low = x^n - f equal to p - 1
        t = min(k + 1, 2 * (n - k) - 1)
        f = [0] * n + [1]
        for j in np.linspace(0, k, t).round().astype(int):
            f[j] = 1
        on_numpy, on_lists = _ring_on("numpy", p, f), _ring_on("lists", p, f)
        assert on_numpy._sparse and not on_numpy.spreads
        top = [p - 1] * n
        assert on_numpy.mul(top, top) == on_lists.mul(top, top)
        long = [p - 1] * (3 * n)
        assert on_numpy.reduce(long) == on_lists.reduce(long) == _pf_divmod(p, long, f)[1]
        for e in (p, p**2 + 5):
            assert on_numpy.pow(top, e) == on_lists.pow(top, e)


def _sum_of_terms(n, *exponents):
    f = [0] * n + [1]
    for j in exponents:
        f[j] = 1
    return f


def test_numpy_fold_choice_follows_block_geometry():
    """The block fold takes a modulus whose low part x^n - f has t < 2w terms,
    w = n - deg(low); any other modulus folds one coefficient at a time."""
    rng = random.Random(13)
    dense = [rng.randrange(13) for _ in range(99)] + [1, 1]
    cases = [
        (3, _sum_of_terms(200, 0, 120, 150, 190), True),  # t = 4, w = 10
        (2, _sum_of_terms(1458, 0, 1450), True),  # t = 2, w = 8
        (3, _sum_of_terms(200, 0, 199), False),  # t = 2, w = 1
        (13, dense, False),
    ]
    # every tower-p2 member of numpy degree, x^(2m) + x^m + 1 for m = 3^k
    cases += [(2, _sum_of_terms(2 * m, 0, m), True) for m in (81, 243, 729, 2187)]
    for p, f, sparse in cases:
        ring = _ResidueRing(p, f)
        assert ring.backend == "numpy" and ring._sparse == sparse, (p, len(f) - 1)
    for p, f, _ in cases[:4]:
        a = [rng.randrange(p) for _ in range(len(f) - 2)] + [1]
        assert _ResidueRing(p, f).mul(a, a) == _ring_on("lists", p, f).mul(a, a)


@pytest.mark.parametrize("p", [65521, 2**31 - 1, 2**61 - 1])
def test_word_size_p_keeps_the_binary_ladder(p):
    """No spread to stride p, (n - 1)p + 1 coefficients long, is ever built:
    trinomial and dense f square, binomials x^n - c (x^n included) take
    the binomial Frobenius on the radix-p ladder."""
    rng = random.Random(p)
    with patch.object(_ResidueRing, "_spread", side_effect=AssertionError):
        for n in (2, 32, _LISTS_MAX_DEG + 1):
            trinomial = [1] + [0] * (n - 1) + [1]
            trinomial[n // 2] = 1
            dense = [rng.randrange(1, p) for _ in range(n)] + [1]
            binomials = ([rng.randrange(1, p)] + [0] * (n - 1) + [1], [0] * n + [1])
            for f in (trinomial, dense) + binomials:
                ring = _ResidueRing(p, f)
                assert ring.spreads == (f in binomials)
                a = [rng.randrange(p) for _ in range(n - 1)] + [1]
                for e in (p, p**2 + 1):
                    ring.pow(a, e)


# binomials x^n - c: n on both sides of the lists/numpy crossover at every p, and
# p | n, where several coefficients land on one slot: x^9 - c and x^66 - c over
# F_3, x^66 - c over F_2, x^13 - c and x^78 - c over F_13
BINOMIAL_CASES = [
    (p, n) for p in (2, 3, 13, 65521, 2**31 - 1, 2**61 - 1)
    for n in (2, 12, _LISTS_MAX_DEG, _LISTS_MAX_DEG + 1)
] + [(3, 9), (3, 66), (2, 66), (13, 13), (13, 78)]


@pytest.mark.parametrize("p, n", BINOMIAL_CASES)
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_binomial_frobenius_matches_the_ladder_and_the_spread(p, n, data):
    """On each backend whose int64 sums fit, the binomial Frobenius step of a
    residue or a scaled monomial equals a^p by the binary ladder and, where
    it is short enough, the spread to stride p and its fold; it counts
    len(a)*t. Up to n = 12 the radix-p ladder's powers equal the binary
    ladder's too."""
    c = data.draw(st.sampled_from([0, 1]) | st.integers(0, p - 1), label="c")
    f = [-c % p] + [0] * (n - 1) + [1]
    backends = ["lists", "numpy"] if _np_safe(p, n + 1) else ["lists"]
    ring = _ring_on(data.draw(st.sampled_from(backends), label="backend"), p, f)
    assert ring.binomial and ring.spreads
    coeff = st.integers(0, p - 1)
    residue = st.sampled_from([0, 1, n // 2, n, n]).flatmap(
        lambda k: st.lists(coeff, min_size=k, max_size=k))
    monomial = st.tuples(st.integers(0, n - 1), coeff).map(lambda jv: [0] * jv[0] + [jv[1]])
    a = _strip(data.draw(residue | monomial, label="a"), 0)

    def native(v):
        return np.asarray(v, dtype=np.int64) if ring.backend == "numpy" else v

    with count_mults() as work:
        frob = [int(v) for v in ring._frob(native(a))]
    assert work() == len(a) * (1 if c else 0)
    if a:
        assert frob == [int(v) for v in _ladder(native(a), p, ring._mul)]
    if (n - 1) * p + 1 <= 1 << 16:
        assert frob == [int(v) for v in ring._spread(native(a))]
    if n <= 12 and a:
        e = data.draw(st.integers(1, p**3), label="e")
        assert ring.pow(a, e) == [int(v) for v in _ladder(native(a), e, ring._mul)]


# --- modular composition --------------------------------------------------------


def _schoolbook_compose(K, f, g, h):
    """The sum of g_i h^i mod f, by plain products and divisions."""
    out, power = [0] * len(f), [1]
    for c in g:
        for i, v in enumerate(_gen_mul(K, [c], power)):
            out[i] = K.add(out[i], v)
        power = _gen_divmod(K, _gen_mul(K, power, h), f)[1]
    return _strip(out, 0)


@given(case=modulus_case(lambda p: 64), data=st.data())
@settings(max_examples=80, deadline=None)
def test_composition_matches_schoolbook(case, data):
    """Brent-Kung on either backend equals the plain sum, and meters no more
    than ``_rabin_work`` charges a composition."""
    p, f = case
    n, t = len(f) - 1, sum(1 for c in f[:-1] if c)
    backend = data.draw(st.sampled_from(["lists", "numpy"]), label="backend")
    ring = _ring_on(backend if _np_safe(p, n + 1) else "lists", p, f)
    residue = st.lists(st.integers(0, p - 1), max_size=n).map(lambda v: _strip(v, 0))
    g, h = data.draw(residue, label="g"), data.draw(residue, label="h")
    with count_mults() as work:
        composed = ring.compose(g, h)
    assert composed == _schoolbook_compose(PrimeField(p), f, g, h)
    s = isqrt(n - 1) + 1
    assert work() <= (s + -(-n // s) - 2) * (n * n + (n - 1) * t) + n * n


@given(case=modulus_case(lambda p: 64), ks=st.sets(st.integers(1, 6), min_size=1, max_size=3))
@settings(max_examples=20, deadline=None)
def test_composition_chain_reaches_the_frobenius_powers_of_x(case, ks):
    """x^(p^k) by x^p and a doubling chain of compositions, on every ring,
    equals the ring's own ladder."""
    p, f = case
    K = PrimeField(p)
    composing = _on_ladder(p, f, False)
    climb = _frobenius_climb(composing, _gen_divmod(K, [0, 1], f)[1])
    ring = _ResidueRing(p, f)
    for k in sorted(ks):
        assert climb(k) == ring.pow([0, 1], p**k)


# --- the spread rule -----------------------------------------------------------

SPREAD_PRIMES = [3, 5, 7, 13, 65521, 2**31 - 1, 2**61 - 1]
WORD_PRIMES = [65521, 2**31 - 1, 2**61 - 1]


@st.composite
def _spread_case(draw, primes, max_n):
    """p, and a monic f of degree n <= max_n: x^n plus at most three low
    terms, a binomial x^n - c with c in {0, 1, random}, or dense."""
    p = draw(st.sampled_from(primes), label="p")
    n = draw(st.integers(2, max_n), label="n")
    shape = draw(st.sampled_from(["sparse", "binomial", "dense"]), label="shape")
    if shape == "dense":
        return p, draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)) + [1]
    f = [0] * n + [1]
    if shape == "binomial":
        f[0] = -draw(st.sampled_from([0, 1]) | st.integers(0, p - 1), label="c") % p
    else:
        for j in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            f[j] = draw(st.integers(1, p - 1))
    return p, f


@given(case=_spread_case(SPREAD_PRIMES, 80))
@settings(max_examples=200, deadline=None)
def test_spread_rule_bounds_the_spread_and_spares_word_size_p(case):
    """Every binomial takes Frobenius steps; any other f spreads to stride p
    only below n^2 + 2n coefficients, so never at word-size p."""
    p, f = case
    n = len(f) - 1
    t = sum(1 for c in f[:n] if c)
    binomial = not any(f[1:n])
    ring = _ResidueRing(p, f)
    assert ring.binomial == binomial
    assert ring.spreads == _spreads(p, n, t, binomial)
    if binomial:
        assert ring.spreads
    elif ring.spreads:
        assert (n - 1) * p + 1 < n * n + 2 * n
    if p in WORD_PRIMES:
        assert ring.spreads == binomial
    # a spread that counts no more than a single squaring is always taken
    if (p - 1) * (n - 1) * t <= n * n + (n - 1) * t:
        assert ring.spreads


def test_trinomial_at_p13_n12_spreads_though_a_spread_costs_more_than_a_squaring():
    """The spread is weighed against the whole binary p-th power, five
    products at p = 13, so this ring spreads; both ladders give schoolbook's
    powers."""
    p, n, t = 13, 12, 2
    f = [1] + [0] * 4 + [3] + [0] * 6 + [1]
    assert (p - 1) * (n - 1) * t > n * n + (n - 1) * t
    ring = _ResidueRing(p, f)
    assert ring.spreads
    K = PrimeField(p)
    for a in ([0, 1], [5, 0, 7, 1, 0, 0, 0, 0, 0, 0, 2, 9]):
        for e in (p, p**3, p**12 - 1, (p**12 - 1) // 3 + 11):
            expect = _schoolbook_pow(K, f, a, e)
            assert ring.pow(a, e) == expect
            assert _on_ladder(p, f, False).pow(a, e) == expect


@given(case=_spread_case(SPREAD_PRIMES[:4], 80), data=st.data())
@settings(max_examples=30, deadline=None)
def test_both_ladders_match_schoolbook_on_small_p(case, data):
    """Whichever ladder the rule picks, and the other one, on every small p."""
    p, f = case
    n = len(f) - 1
    a = _strip(data.draw(st.lists(st.integers(0, p - 1), max_size=n), label="a"), 0)
    e = data.draw(st.one_of(st.integers(0, 3).map(lambda k: p**k), st.integers(0, p**3)),
                  label="e")
    expect = _schoolbook_pow(PrimeField(p), f, a, e)
    for spreads in (False, True):
        assert _on_ladder(p, f, spreads).pow(a, e) == expect


@given(case=_spread_case(SPREAD_PRIMES, 80))
@settings(max_examples=60, deadline=None)
def test_rabin_estimate_covers_its_ladder_and_rabin_agrees_with_trial_division(case):
    """``_rabin_work`` charges at least what ``rabin_test`` meters, on
    whichever ladder the rule picks; where trial division is cheap, both
    oracles agree."""
    p, f = case
    n = len(f) - 1
    K = PrimeField(p)
    checkpoints = sorted({n // r for r in distinct_prime_factors(n)})
    with count_mults() as work:
        verdict = rabin_test(Poly(K, f), work_bound=None)
    assert work() <= _rabin_work(_ResidueRing(p, f), checkpoints)
    if p ** (n // 2) <= 2500:
        assert trial_division_test(Poly(K, f), work_bound=None).irreducible == verdict.irreducible


@given(case=st.one_of(_spread_case([2, 3, 5, 13, 2**61 - 1], 80),
                      st.tuples(st.sampled_from([2, 3, 7, 2**61 - 1]), st.integers(0, 6)).map(
                          lambda pc: (pc[0], [pc[1] % pc[0], 1]))),
       ks=st.sets(st.integers(1, 8), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_frobenius_climb_by_steps_matches_the_ladder(case, ks):
    """On a ring whose Frobenius step is cheap, binomials and linear f
    included, each x^(p^k) the climb reaches by steps equals the ring's
    radix-p ladder from x and meters what that ladder meters from the power
    before it."""
    p, f = case
    ring = _ResidueRing(p, f)
    assume(ring.spreads)
    x = _gen_divmod(PrimeField(p), [0, 1], f)[1]
    climb = _frobenius_climb(ring, x)
    prev, h = 0, x
    for k in sorted(ks):
        with count_mults() as climbed:
            got = climb(k)
        with count_mults() as powered:
            expect = ring.pow(h, p ** (k - prev))
        assert got == expect == ring.pow(x, p**k)
        assert climbed() == powered()
        prev, h = k, got
