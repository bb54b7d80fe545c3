"""Shared helpers: building the field of a given prime-power order, and
drawing moduli over F_p for the residue-ring tests."""

from functools import lru_cache

from hypothesis import strategies as st

from capelli import ExtensionField, PrimeField, enumerate_irreducibles, factor_integer


@lru_cache(maxsize=None)
def field_of_order(q: int):
    """F_q for a prime power q, using the first irreducible modulus when q = p^m."""
    factors = factor_integer(q)
    p = factors[0]
    if any(f != p for f in factors):
        raise ValueError(f"{q} is not a prime power")
    m = len(factors)
    base = PrimeField(p)
    if m == 1:
        return base
    modulus = next(enumerate_irreducibles(base, m))
    return ExtensionField(base, modulus, trusted=True)


def prime_powers_up_to(bound: int, min_q: int = 2) -> list[int]:
    out = []
    for q in range(min_q, bound + 1):
        factors = factor_integer(q)
        if len(set(factors)) == 1:
            out.append(q)
    return out


COMPOSE_PRIMES = [13, 65521, 2**31 - 1, 2**61 - 1]


@st.composite
def modulus_case(draw, max_n):
    """p from COMPOSE_PRIMES and a monic f over F_p of degree n <= max_n(p):
    dense, sparse (x^n plus one to three low terms), a binomial x^n - c with
    c in {0, 1, random}, or x^n itself."""
    p = draw(st.sampled_from(COMPOSE_PRIMES), label="p")
    n = draw(st.integers(1, max_n(p)), label="n")
    shape = draw(st.sampled_from(["dense", "sparse", "binomial", "power"]), label="shape")
    if shape == "dense":
        return p, draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)) + [1]
    f = [0] * n + [1]
    if shape == "sparse":
        for j in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
            f[j] = draw(st.integers(1, p - 1))
    if shape == "binomial":
        f[0] = -draw(st.sampled_from([0, 1]) | st.integers(0, p - 1), label="c") % p
    return p, f
