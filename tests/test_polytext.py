"""Polynomial text form: canonical rendering and liberal parsing."""

import random
import tracemalloc

import pytest

from capelli import Poly, PolyParseError, PrimeField, parse_coeff_array, parse_poly, render_poly
from capelli.oracle import DEFAULT_WORK_BOUND
from capelli.polytext import MAX_DEGREE


def test_render_examples():
    F2 = PrimeField(2)
    F7 = PrimeField(7)
    assert render_poly(Poly(F2, [1, 0, 0, 1, 0, 0, 1])) == "x^6+x^3+1"
    assert render_poly(Poly(F7, [0, 2, 3])) == "3x^2+2x"
    assert render_poly(Poly(F7, [5])) == "5"
    assert render_poly(Poly.zero(F7)) == "0"
    assert render_poly(Poly.x(F7)) == "x"


def test_parse_liberal_forms():
    F7 = PrimeField(7)
    f = Poly(F7, [6, 2, 1])
    assert parse_poly("x^2+2x+6", F7) == f
    assert parse_poly("x^2 + 2*x + 6", F7) == f
    assert parse_poly("x^2+2x-1", F7) == f
    assert parse_poly("6+x^2+2x", F7) == f
    assert parse_poly("x^2+x+x+6", F7) == f  # duplicate powers accumulate
    assert parse_poly("-x", F7) == Poly(F7, [0, 6])
    assert parse_poly("0", F7) == Poly.zero(F7)


def test_parse_rejects_unreduced_coefficients():
    F3 = PrimeField(3)
    with pytest.raises(PolyParseError):
        parse_poly("5x", F3)
    with pytest.raises(PolyParseError):
        parse_poly("x^2+3", F3)


def test_parse_rejects_garbage():
    F3 = PrimeField(3)
    for bad in ("", "  ", "x^", "2**x", "y+1", "x^2++1", "1.5x", "*x"):
        with pytest.raises(PolyParseError):
            parse_poly(bad, F3)


def test_parse_refuses_a_degree_above_the_bound_before_it_allocates():
    """The bound admits every final degree that replay checks under the
    default work bound; one past it raises with no coefficient list built."""
    F2 = PrimeField(2)
    assert MAX_DEGREE >= DEFAULT_WORK_BOUND
    assert parse_poly("x^7442+x+1", F2).degree == 7442
    tracemalloc.start()
    try:
        for text in (f"x^{MAX_DEGREE + 1}+1", "x+x^100000000"):
            with pytest.raises(PolyParseError, match="largest parsed degree"):
                parse_poly(text, F2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_roundtrip_random():
    """parse(render(f)) = f, 10^4 random polynomials per characteristic."""
    for p in (2, 3, 5, 7, 11, 13, 65521):
        field = PrimeField(p)
        rng = random.Random(p)
        for _ in range(10_000):
            deg = rng.randrange(0, 9)
            coeffs = [rng.randrange(p) for _ in range(deg + 1)]
            f = Poly(field, coeffs)
            assert parse_poly(render_poly(f), field) == f


def test_coeff_array_parsing():
    F5 = PrimeField(5)
    assert parse_coeff_array("[1, 0, 2]", F5) == Poly(F5, [1, 0, 2])
    assert parse_coeff_array("[]", F5) == Poly.zero(F5)
    with pytest.raises(PolyParseError):
        parse_coeff_array("[1, 5]", F5)
    with pytest.raises(PolyParseError):
        parse_coeff_array("[1, -1]", F5)
    with pytest.raises(PolyParseError):
        parse_coeff_array('{"a": 1}', F5)
    with pytest.raises(PolyParseError):
        parse_coeff_array("[1, true]", F5)
    with pytest.raises(PolyParseError):
        parse_coeff_array("not json", F5)
