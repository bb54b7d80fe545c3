"""Text and JSON-array forms for polynomials over prime fields.

Canonical text is descending powers joined by "+", coefficients already
reduced mod p, constant last: "x^6+x^3+1", "2x^2+x", "5", "0". Parsing is
more liberal: optional "*", optional whitespace, "-" signs. Coefficients
with absolute value >= p are rejected rather than silently reduced, and so
is a power of x above ``MAX_DEGREE``, before any coefficient list is built.
"""

from __future__ import annotations

import json
import re

from .errors import PolyParseError
from .ff import Poly, PrimeField

__all__ = ["render_poly", "parse_poly", "parse_coeff_array"]

# The largest degree ``parse_poly`` accepts. A few bytes of text name a dense
# coefficient list of degree + 1 slots, 8 bytes each: 134 MB at 2^24. The
# bound admits every tower that replay checks under the default work bound,
# which refuses a final degree above 10^7.
MAX_DEGREE = 1 << 24

_TERM_RE = re.compile(r"^([+-]?)(\d+)?(?:(\*)?(x)(?:\^(\d+))?)?$")


def render_poly(f: Poly) -> str:
    """Canonical text form; defined for polynomials over prime fields only."""
    if f.is_zero:
        return "0"
    terms = []
    for power in range(f.degree, -1, -1):
        c = f.coeffs[power]
        if c == 0:
            continue
        if power == 0:
            terms.append(str(c))
        else:
            xpart = "x" if power == 1 else f"x^{power}"
            terms.append(xpart if c == 1 else f"{c}{xpart}")
    return "+".join(terms)


def parse_poly(text: str, field: PrimeField) -> Poly:
    """Parse the text form; inverse of render_poly on canonical strings.

    A power of x above ``MAX_DEGREE`` raises ``PolyParseError`` before the
    coefficient list is allocated.
    """
    if not isinstance(field, PrimeField):
        raise ValueError("parsing targets a prime field")
    s = re.sub(r"\s+", "", text)
    if not s:
        raise PolyParseError("empty polynomial string")
    coeffs: dict[int, int] = {}
    for chunk in re.split(r"(?=[+-])", s):
        if not chunk:
            continue
        m = _TERM_RE.match(chunk)
        if not m or (m.group(2) is None and m.group(4) is None):
            raise PolyParseError(f"cannot parse term {chunk!r}")
        sign, digits, star, xpart, exp = m.groups()
        if star is not None and digits is None:
            raise PolyParseError(f"cannot parse term {chunk!r}")
        coef = int(digits) if digits is not None else 1
        if coef >= field.p:
            raise PolyParseError(
                f"coefficient {coef} is not reduced mod {field.p}"
            )
        if sign == "-":
            coef = -coef
        power = 0
        if xpart is not None:
            power = int(exp) if exp is not None else 1
            if power > MAX_DEGREE:
                raise PolyParseError(
                    f"degree {power} exceeds the largest parsed degree {MAX_DEGREE}"
                )
        coeffs[power] = coeffs.get(power, 0) + coef
    out = [0] * (max(coeffs) + 1)
    for power, c in coeffs.items():
        out[power] = c
    return Poly(field, out)


def parse_coeff_array(text: str, field: PrimeField) -> Poly:
    """Parse a JSON array of little-endian coefficients (index = power).

    Unlike the text form, an array names each coefficient, so what it
    allocates grows in proportion to the input text; it takes no degree
    bound.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PolyParseError(f"invalid JSON coefficient array: {exc}") from exc
    if not isinstance(data, list) or not all(
        isinstance(c, int) and not isinstance(c, bool) for c in data
    ):
        raise PolyParseError("coefficient array must be a JSON list of integers")
    for c in data:
        if c < 0 or c >= field.p:
            raise PolyParseError(f"coefficient {c} is not reduced mod {field.p}")
    return Poly(field, data)
