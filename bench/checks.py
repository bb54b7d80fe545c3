"""Correctness checks made apart from the program, in plain integers.

Nothing here imports capelli. Each check takes outputs the program produced
and raises ``CheckFailed`` when they disagree with a computation done here
from first principles: prime factors by trial division, orders by repeated
multiplication, and the irreducibility theorems of Lidl & Niederreiter,
*Finite Fields*: Thm 3.35 (when f(x^t) is irreducible) and Thm 3.75 (when
the binomial x^t - a is irreducible).
"""

from __future__ import annotations

import math
from fractions import Fraction

# A Monte Carlo estimate further than this many standard errors from the
# closed form fails; a correct estimator misses it with chance below 1e-6.
MC_TOLERANCE_SIGMAS = 5.0


class CheckFailed(AssertionError):
    """A program output disagrees with the independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def prime_factors(n: int) -> list[int]:
    """Distinct primes dividing n >= 1, by plain trial division."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def multiplicative_order(a: int, p: int) -> int:
    """Order of a in (Z/p)^*, for prime p, from the factors of p - 1."""
    order = p - 1
    for r in prime_factors(p - 1):
        while order % r == 0 and pow(a, order // r, p) == 1:
            order //= r
    return order


def mobius(n: int) -> int:
    result = 1
    for r in prime_factors(n):
        if n % (r * r) == 0:
            return 0
        result = -result
    return result


def necklace_count(p: int, m: int) -> int:
    """Number of monic irreducibles of degree m over F_p (Gauss's formula)."""
    total = sum(mobius(e) * p ** (m // e) for e in range(1, m + 1) if m % e == 0)
    return total // m


def gf2_order_of_x(f: int) -> int:
    """Order of x modulo f over F_2, f a bit mask with f(0) = 1.

    Multiplies by x one step at a time until the power returns to 1, so it
    is meant for the small base polynomials of the p = 2 towers.
    """
    deg = f.bit_length() - 1
    require(deg >= 1 and f & 1, "order of x needs deg f >= 1 and f(0) != 0")
    power = 1
    for k in range(1, 1 << deg):
        power <<= 1
        if power >> deg & 1:
            power ^= f
        if power == 1:
            return k
    raise CheckFailed("x has no order modulo f: f is not coprime to x")


def gf2_is_irreducible(f: int) -> bool:
    """Irreducibility over F_2 by trial division with every lower-degree mask."""
    deg = f.bit_length() - 1
    for g in range(2, 1 << (deg // 2 + 1)):
        r = f
        while r.bit_length() >= g.bit_length():
            r ^= g << (r.bit_length() - g.bit_length())
        if r == 0:
            return False
    return deg >= 1


def is_composition_irreducible(q: int, m: int, order: int, t: int) -> bool:
    """Thm 3.35: f irreducible of degree m and order e over F_q; f(x^t) is
    irreducible when each prime factor of t divides e but not (q^m - 1)/e,
    and q^m = 1 mod 4 if 4 | t.
    """
    cofactor = (q**m - 1) // order
    for r in prime_factors(t):
        if order % r or cofactor % r == 0:
            return False
    return t % 4 != 0 or q**m % 4 == 1


def is_binomial_irreducible(p: int, a: int, t: int) -> bool:
    """Thm 3.75: x^t - a over F_p is irreducible iff each prime factor of t
    divides ord(a) but not (p - 1)/ord(a), and p = 1 mod 4 if 4 | t.
    """
    order = multiplicative_order(a % p, p)
    cofactor = (p - 1) // order
    for r in prime_factors(t):
        if order % r or cofactor % r == 0:
            return False
    return t % 4 != 0 or p % 4 == 1


def sparse_terms(coeffs) -> dict[int, int]:
    """Nonzero coefficients of a little-endian sequence, by power."""
    return {i: c for i, c in enumerate(coeffs) if c}


def check_tower_p2(base: int, t: int, final_coeffs) -> None:
    """The p = 2 tower from f = base (a bit mask): its final polynomial must
    be exactly f(x^t), and Thm 3.35 must make that irreducible.
    """
    require(gf2_is_irreducible(base), "tower base is reducible over F_2")
    expected = {i * t: 1 for i in range(base.bit_length()) if base >> i & 1}
    require(sparse_terms(final_coeffs) == expected, f"final polynomial is not f(x^{t})")
    require(p2_member_irreducible(base, t), f"Thm 3.35 does not certify f(x^{t})")


def p2_member_irreducible(base: int, t: int) -> bool:
    """Whether Thm 3.35 makes f(x^t) irreducible over F_2, f = base."""
    return is_composition_irreducible(2, base.bit_length() - 1, gf2_order_of_x(base), t)


def check_binomial_tower(p: int, c: int, t: int, final_coeffs) -> None:
    """The tower from x^2 + c over F_p: its final polynomial must be
    x^t + c, which Thm 3.75 (with a = -c) must make irreducible.
    """
    require(sparse_terms(final_coeffs) == {0: c % p, t: 1},
            f"final polynomial is not x^{t} + {c}")
    require(is_binomial_irreducible(p, -c, t), f"Thm 3.75 does not certify x^{t} + {c}")


def check_p2_residues(base: int, steps) -> None:
    """Residue values of the tower x^2+x+1 -> f(x^3) -> f(x^9) ... over F_2.

    At step k the field has degree m = 2*3^k, alpha = x and y = x^(3^k) is
    a root of x^2+x+1, so y^3 = 1. With q = 2^m, 3^(k+1) exactly divides
    q - 1 = 3^(k+1)*u, so alpha^((q-1)/3) = y^u = y (u = 1 mod 3) or
    y^2 = y + 1 (u = 2 mod 3).
    """
    require(base == 0b111, "the residue closed form is for the base x^2+x+1")
    for k, step in enumerate(steps):
        require(step.d == 3, f"step {k}: d = {step.d}, expected 3")
        require(len(step.prime_tests) == 1,
                f"step {k}: {len(step.prime_tests)} prime tests, expected 1")
        (test,) = step.prime_tests
        m, t = 2 * 3**k, 3**k
        order = 2**m - 1
        require(test.dprime == 3 and test.exponent == order // 3,
                f"step {k}: wrong residue exponent")
        expected = {t: 1} if order // 3**(k + 1) % 3 == 1 else {0: 1, t: 1}
        require(len(test.result) == m and sparse_terms(test.result) == expected,
                f"step {k}: residue value is not y^u for y = x^{t}")


def check_binomial_residues(p: int, c: int, steps) -> None:
    """Residue values of the tower x^2 + c -> x^(2d) + c ... over F_p.

    For a prime r | p - 1 and q = p^m, alpha^((q-1)/r) = N(alpha)^((p-1)/r)
    with N(alpha) = (-1)^m * c the norm of a root of x^m + c, a constant.
    """
    m = 2
    for k, step in enumerate(steps):
        order = p**m - 1
        norm = (-1) ** m * c % p
        for test in step.prime_tests:
            r = test.dprime
            require((p - 1) % r == 0, f"step {k}: test prime {r} does not divide p - 1")
            require(test.exponent == order // r, f"step {k}: wrong exponent for r = {r}")
            expected = [pow(norm, (p - 1) // r, p)] + [0] * (m - 1)
            require(list(test.result) == expected,
                    f"step {k}: residue value for r = {r} is not N(alpha)^((p-1)/r)")
        m *= step.d


def check_member(label: str, irreducible: bool, certified: bool) -> None:
    """A tower member the theorem certifies must pass the oracle too."""
    require(certified, f"the theorem does not certify {label}")
    require(irreducible, f"the oracle finds {label} reducible; the theorem proves it irreducible")


def closed_form_probability(q: int, d: int) -> Fraction:
    """Share of units alpha of F_q with x^d - alpha irreducible.

    prod(1 - 1/r) over the primes r | d when every such r divides q - 1 and
    (if 4 | d) q = 1 mod 4; zero otherwise.
    """
    primes = prime_factors(d)
    if any((q - 1) % r for r in primes) or (d % 4 == 0 and q % 4 != 1):
        return Fraction(0)
    prob = Fraction(1)
    for r in primes:
        prob *= 1 - Fraction(1, r)
    return prob


def check_census(q: int, d: int, count: int) -> None:
    expected = closed_form_probability(q, d) * (q - 1)
    require(count == expected, f"census q={q} d={d}: count {count} != {expected}")


def check_monte_carlo(q: int, d: int, successes: int, trials: int) -> None:
    prob = float(closed_form_probability(q, d))
    sigma = math.sqrt(prob * (1 - prob) / trials)
    deviation = abs(successes / trials - prob)
    require(deviation <= MC_TOLERANCE_SIGMAS * sigma,
            f"Monte Carlo q={q} d={d}: {successes}/{trials} is {deviation:.4g} "
            f"from {prob:.4g}, more than {MC_TOLERANCE_SIGMAS} standard errors")


def check_enumeration(p: int, m: int, count: int) -> None:
    expected = necklace_count(p, m)
    require(count == expected,
            f"enumerated {count} irreducibles of degree {m} over F_{p}, expected {expected}")


def check_agreement(label: str, criterion: bool, rabin: bool, trial=None) -> None:
    verdicts = {"criterion": criterion, "rabin": rabin}
    if trial is not None:
        verdicts["trial division"] = trial
    require(len(set(verdicts.values())) == 1, f"{label}: verdicts differ {verdicts}")
