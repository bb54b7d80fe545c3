"""The fast irreducibility decision for b(x^d) and the tower generator.

The decision never touches the composed polynomial. Writing F = F_p[x]/(b)
and alpha for the residue of x, b(x^d) is irreducible over F_p exactly when
x^d - alpha is irreducible over F, and that in turn is settled by a handful
of power-residue tests in F:

 - x^d - alpha is reducible iff alpha is a d'-th power for some prime d'
   dividing d, or 4 | d and -4*alpha is a fourth power;
 - alpha is an n-th power iff alpha^((q-1)/gcd(n, q-1)) = 1, the group of
   units being cyclic of order q - 1.

Three whole-field shortcuts settle many (p, m, d) combinations before any
exponentiation: p | d, a prime divisor of d coprime to p^m - 1, and the
(4 | d, p = 3 mod 4, odd m) case. Each shortcut certifies reducibility for
every nonzero alpha.

``decide_xd_minus_alpha`` computes each residue value by norm descent
(``_power``). A test raises c*alpha (c = 1, or c = -4 for the fourth-power
test) to (q - 1)/g. When g divides p^s - 1 for a subfield F_{p^s} of F,
the same value is N(c*alpha)^((p^s - 1)/g), where N is the norm from F to
that subfield (Lidl & Niederreiter, Finite Fields, §2.3 and Thm 3.75). The
subfields come from b alone: F_p, where N(alpha) = (-1)^m * b(0), and
F_p(alpha^k) for each k dividing the gcd of the exponents of b's nonzero
terms. There beta = alpha^k has minimal polynomial
b_k(y) = sum of b_(ik) * y^i, and N(alpha) = (-1)^(k+1) * beta; the value
is computed in F_p[y]/(b_k) and embedded by y^i -> x^(ik), with no
reduction. The smallest subfield that holds the value is used, and the
direct ladder in F otherwise. In a sparse tower every step is such a
composition, so a step costs about as much as deciding at its base.

``decide_many`` decides x^d - alpha for a batch of alpha in one field, as
the census and Monte Carlo need: the shortcuts and the residue plan once,
then one vectorized ladder to beta = alpha^((q-1)/R), R the product of the
primes d' dividing d, and each d'-th power test as beta^(R/d') = 1.

Accepted tower steps record every residue test performed. Replay decides
each step again by the same descent and compares whole steps. What checks
the descent independently is Rabin's test of a certificate's base, the
test suite's reference that reruns every recorded test by the direct
ladder in F, and the benchmark's closed-form residue checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    CertificateReplayError,
    NoViableStepError,
    OracleDisagreementError,
    ReducibleInputError,
    TowerStepRejectedError,
    WorkBoundExceededError,
)
from .ff import ExtensionField, Poly, PrimeField, compose_power
from .intops import distinct_prime_factors, divisors, is_prime, primes_up_to
from .oracle import DEFAULT_WORK_BOUND, rabin_test

__all__ = [
    "Reason",
    "Verdict",
    "ResidueTest",
    "FourthPowerTest",
    "Shortcut",
    "ZeroRootEvidence",
    "reducibility_shortcuts",
    "star_condition",
    "decide_xd_minus_alpha",
    "decide_many",
    "decide_b_xd",
    "grow_tower",
    "TowerStep",
    "TowerCertificate",
    "replay_certificate",
    "DEFAULT_CANDIDATE_BOUND",
]

DEFAULT_CANDIDATE_BOUND = 1000


class Reason(str, Enum):
    """Why a verdict came out the way it did."""

    DEGREE_ONE = "degree-one"
    PRIME_DIVISOR_COPRIME = "prime-divisor-coprime"
    CHAR_DIVIDES_D = "char-divides-d"
    FOUR_DIVIDES_D_P3MOD4_K_ODD = "four-divides-d-p3mod4-k-odd"
    ALPHA_IS_DPRIME_POWER = "alpha-is-dprime-power"
    MINUS4ALPHA_IS_FOURTH_POWER = "minus4alpha-is-fourth-power"
    PASSES_ALL_RESIDUE_TESTS = "passes-all-residue-tests"


_IRREDUCIBLE_REASONS = frozenset({Reason.DEGREE_ONE, Reason.PASSES_ALL_RESIDUE_TESTS})


@dataclass(frozen=True, slots=True)
class ResidueTest:
    """Evidence of one prime-power residue check.

    ``result`` holds the coefficients of alpha^exponent; the test finds a
    d'-th power exactly when that value is 1.
    """

    dprime: int
    exponent: int
    result: tuple
    is_power: bool


@dataclass(frozen=True, slots=True)
class FourthPowerTest:
    """Evidence of the -4*alpha fourth-power check (only relevant when 4 | d)."""

    exponent: int
    result: tuple
    is_power: bool


@dataclass(frozen=True)
class Shortcut:
    """A whole-field reducibility shortcut: reducible for every nonzero alpha."""

    reason: Reason
    dprime: Optional[int] = None


@dataclass(frozen=True)
class ZeroRootEvidence:
    """alpha = 0, so x^d - alpha = x^d and 0 = 0^dprime is trivially a power."""

    dprime: int


@dataclass(frozen=True)
class Verdict:
    """Decision plus machine-checkable evidence.

    ``tests`` lists every residue test run, in evaluation order (prime
    divisors ascending, then the fourth-power test); ``evidence`` is the
    single item that decided a reducible verdict, or None.
    """

    irreducible: bool
    reason: Reason
    evidence: object = None
    tests: tuple = ()

    def __post_init__(self):
        if self.irreducible != (self.reason in _IRREDUCIBLE_REASONS):
            raise ValueError(f"reason {self.reason} inconsistent with verdict")


def _element_coeffs(field, raw) -> tuple[int, ...]:
    if isinstance(field, PrimeField):
        return (raw,)
    return raw


@lru_cache(maxsize=4096)
def _residue_plan(order_minus_one: int, d: int):
    prime_tests = tuple(
        (r, order_minus_one // math.gcd(r, order_minus_one))
        for r in distinct_prime_factors(d)
    )
    fourth_exponent = (
        order_minus_one // math.gcd(4, order_minus_one) if d % 4 == 0 else None
    )
    return prime_tests, fourth_exponent


def reducibility_shortcuts(p: int, k: int, d: int) -> Optional[Shortcut]:
    """Whole-field shortcuts making x^d - alpha reducible for every unit alpha.

    Checked in a fixed order: characteristic divides d; some prime divisor
    of d coprime to p^k - 1 (smallest first); then the 4 | d, p = 3 mod 4,
    k odd case. Returns None when no shortcut applies.
    """
    if k < 1 or d < 1:
        raise ValueError("k and d must be >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if d % p == 0:
        return Shortcut(Reason.CHAR_DIVIDES_D, dprime=p)
    for r in distinct_prime_factors(d):
        if pow(p, k, r) != 1:
            return Shortcut(Reason.PRIME_DIVISOR_COPRIME, dprime=r)
    if d % 4 == 0 and p % 4 == 3 and k % 2 == 1:
        return Shortcut(Reason.FOUR_DIVIDES_D_P3MOD4_K_ODD)
    return None


def star_condition(p: int, k: int, d: int) -> bool:
    """Every prime divisor of d divides p^k - 1, and if 4 | d then
    p = 1 mod 4 or k is even. Exactly the regime where irreducible
    x^d - alpha exist: no whole-field shortcut applies.
    """
    return reducibility_shortcuts(p, k, d) is None


def decide_xd_minus_alpha(field: Union[PrimeField, ExtensionField], alpha, d: int) -> Verdict:
    """Decide irreducibility of x^d - alpha over ``field``.

    alpha is a nonzero raw value of the field: an int in [0, p) over F_p,
    an m-tuple of them over F_{p^m}; any other value raises ValueError.
    x^d - alpha is irreducible iff alpha is not a d'-th power for any prime
    d' | d, and (when 4 | d) -4*alpha is not a fourth power; alpha is an
    n-th power iff alpha^((q-1)/gcd(n, q-1)) = 1. Tests run in a fixed
    order, each recorded with its ``is_power``, and the first that finds a
    power becomes the verdict's evidence.
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError("d must be a positive integer")
    coeffs = _element_coeffs(field, alpha)
    if not isinstance(coeffs, tuple) or len(coeffs) != field.degree:
        raise ValueError(f"alpha must be a tuple of {field.degree} ints")
    values = set(coeffs)  # one pass over a long tuple; its values repeat
    if min(values) < 0 or max(values) >= field.p:
        raise ValueError(f"alpha's coefficients must lie in [0, {field.p})")
    if values == {0}:
        raise ValueError("alpha must be nonzero (x^d is trivially reducible for d >= 2)")
    if d == 1:
        return Verdict(True, Reason.DEGREE_ONE)
    plan, fourth_exponent = _residue_plan(field.order_minus_one, d)
    one = field.one
    tests = []
    for dprime, exponent in plan:
        value = _power(field, alpha, exponent)
        test = ResidueTest(dprime, exponent, _element_coeffs(field, value), value == one)
        tests.append(test)
        if test.is_power:
            return Verdict(
                False, Reason.ALPHA_IS_DPRIME_POWER, evidence=test, tests=tuple(tests)
            )
    if fourth_exponent is not None:
        # unreachable in characteristic 2: the d' = 2 test above always fires there
        assert field.p != 2
        minus4a = field.mul(field.scalar(-4), alpha)
        value = _power(field, minus4a, fourth_exponent)
        test = FourthPowerTest(fourth_exponent, _element_coeffs(field, value), value == one)
        tests.append(test)
        if test.is_power:
            return Verdict(
                False,
                Reason.MINUS4ALPHA_IS_FOURTH_POWER,
                evidence=test,
                tests=tuple(tests),
            )
    return Verdict(True, Reason.PASSES_ALL_RESIDUE_TESTS, tests=tuple(tests))


def _equal_many(powers: np.ndarray, target) -> np.ndarray:
    """Which entries (over F_p) or rows (over F_{p^m}) of powers equal target."""
    if powers.ndim == 1:
        return powers == target
    return (powers == np.array(target, dtype=powers.dtype)).all(axis=1)


def decide_many(field: Union[PrimeField, ExtensionField], d: int, values) -> np.ndarray:
    """``decide_xd_minus_alpha(field, alpha, d).irreducible`` for a batch of alpha.

    ``values`` holds nonzero raw values of ``field``: ints over F_p, an
    (N, m) array or m-tuples over F_{p^m}. Returns a bool mask of length N.
    The whole-field shortcuts and the residue plan are worked out once; no
    Verdict is built. ``decide_xd_minus_alpha`` stays the per-alpha
    reference.

    With no shortcut, every prime r of the plan divides q - 1, and so does
    their product R. One ladder over the whole batch (``field.pow_many``)
    raises each alpha to beta = alpha^((q-1)/R). Each d'-th power test then
    runs in plan order on the values not yet found reducible, as
    beta^(R/r) == 1, which is alpha^((q-1)/r) == 1; a short ladder of
    R/r, or none where R = r.

    The fourth-power test is not run: it cannot change the mask. When 4 | d
    and no shortcut applies, q = 1 mod 4, so -4 = (1 + i)^4 is a fourth
    power and -4*alpha is one only when alpha is a square, which the d' = 2
    test has already found. Where q = 3 mod 4 the shortcut decides.
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError("d must be a positive integer")
    q1 = field.order_minus_one
    shortcut = d > 1 and reducibility_shortcuts(field.p, field.degree, d) is not None
    primes = [] if d == 1 or shortcut else [r for r, _ in _residue_plan(q1, d)[0]]
    R = math.prod(primes)
    # one ladder over the whole batch, or with no test to run just the values, packed;
    # alpha^e = 0 exactly when alpha = 0, as e >= 1
    beta = field.pow_many(values, q1 // R if primes else 1)
    if _equal_many(beta, field.zero).any():
        raise ValueError("alpha must be nonzero (x^d is trivially reducible for d >= 2)")
    mask = np.full(len(beta), not shortcut)
    for r in primes:
        powers = beta[mask] if R == r else field.pow_many(beta[mask], R // r)
        mask[mask] = ~_equal_many(powers, field.one)
    return mask


def _power(field: Union[PrimeField, ExtensionField], a, e: int):
    """a^e in ``field``. Over F_p[x]/(b), a = c*x (c in F_p) and e | q - 1
    descend to the smallest subfield known from b that holds the value (see
    the module docstring); every other power runs ``field.pow``."""
    if (not isinstance(field, ExtensionField) or e < 1 or field.order_minus_one % e
            or a[0] or not a[1] or any(a[2:])):
        return field.pow(a, e)
    c, g = a[1], field.order_minus_one // e
    K, p, m, b = field.base, field.p, field.degree, field.modulus
    if (p - 1) % g == 0:
        # N(c*alpha) = (-c)^m * b(0)
        norm = pow(-c, m, p) * b[0] % p
        return field.scalar(K.pow(norm, (p - 1) // g))
    gap = math.gcd(*(i for i, coeff in enumerate(b) if coeff))
    # k with F_p(alpha^k) a proper subfield of degree m/k, smallest subfield first
    for k in reversed(divisors(gap)):
        s = m // k
        if 1 < k < m and pow(p, s, g) == 1:
            # alpha is a root of x^k - beta over F_p(beta), beta = alpha^k,
            # so N(c*alpha) = (-1)^(k+1) * c^k * beta
            sub = ExtensionField(K, b[::k], trusted=True)
            norm = (0, -pow(-c, k, p) % p) + (0,) * (s - 2)
            out = [0] * m
            out[::k] = sub.pow(norm, (p**s - 1) // g)
            return tuple(out)
    return field.pow(a, e)


def _root(b: Poly) -> Optional[tuple]:
    """(field, alpha) for alpha the residue of x modulo b, None when b = x."""
    if b.degree == 1:
        alpha = b.field.neg(b.coeffs[0])
        return (b.field, alpha) if alpha else None
    F = ExtensionField(b.field, b, trusted=True)
    return F, F.gen()


def decide_b_xd(
    b: Poly,
    d: int,
    trusted: bool = False,
    *,
    work_bound: Optional[int] = DEFAULT_WORK_BOUND,
) -> Verdict:
    """Decide irreducibility of b(x^d) over F_p without composing.

    b must be monic and irreducible over a prime field; irreducibility is
    verified with the oracle unless ``trusted=True``. The verdict consults
    the whole-field shortcuts first, then runs the residue tests on a root
    of b in F_p[x]/(b), each in the smallest subfield that holds its value.
    """
    if not isinstance(b, Poly):
        raise ValueError("b must be a polynomial over a prime field")
    if not b.is_monic:
        raise ValueError("b must be monic")
    if b.degree < 1:
        raise ValueError("b must have degree >= 1")
    if not isinstance(d, int) or d < 1:
        raise ValueError("d must be a positive integer")
    if not trusted:
        check = rabin_test(b, work_bound=work_bound)
        if not check.irreducible:
            raise ReducibleInputError(
                f"b is reducible over GF({b.field.p}); the reduction requires irreducible b",
                witness=check.witness,
            )
    return _decide_step(b, d)


def _decide_step(b: Poly, d: int) -> Verdict:
    """The verdict on b(x^d) for irreducible monic b and d >= 1: the degree-one
    and whole-field shortcuts, the zero root, then the residue tests on a root
    of b."""
    if d == 1:
        return Verdict(True, Reason.DEGREE_ONE)
    shortcut = reducibility_shortcuts(b.field.p, b.degree, d)
    if shortcut is not None:
        return Verdict(False, shortcut.reason, evidence=shortcut)
    root = _root(b)
    if root is None:
        # b = x, so b(x^d) = x^d
        smallest = distinct_prime_factors(d)[0]
        return Verdict(
            False,
            Reason.ALPHA_IS_DPRIME_POWER,
            evidence=ZeroRootEvidence(dprime=smallest),
        )
    return decide_xd_minus_alpha(*root, d)


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TowerStep:
    """One accepted composition step with its full residue evidence."""

    d: int
    prime_tests: tuple
    fourth_power: Optional[FourthPowerTest] = None


def _test_json(test: Union[ResidueTest, FourthPowerTest]) -> dict:
    """A residue test's evidence as JSON fields, every integer a decimal string.

    An exponent has about m*log10(p) digits; Decimal writes it past the
    interpreter's int/str limit (4300 digits by default) and leaves that unchanged.
    """
    fields = {"dprime": str(test.dprime)} if isinstance(test, ResidueTest) else {}
    fields["exponent"] = str(Decimal(test.exponent))
    fields["result"] = [str(c) for c in test.result]
    return fields


@dataclass(frozen=True)
class TowerCertificate:
    """Replayable record of a tower run: base, steps, and final degree.

    ``base`` stores the little-endian coefficients of the starting
    polynomial; ``replay_certificate`` decides every step again.
    """

    p: int
    base: tuple
    steps: tuple
    final_degree: int

    def final_polynomial(self) -> Poly:
        b = Poly(PrimeField(self.p), self.base)
        for step in self.steps:
            b = compose_power(b, step.d)
        return b

    def to_json_dict(self) -> dict:
        """The JSON document; every integer is a decimal string."""
        steps = [
            {
                "d": str(step.d),
                "prime_tests": [_test_json(t) for t in step.prime_tests],
                "fourth_power_test": _test_json(step.fourth_power) if step.fourth_power else None,
            }
            for step in self.steps
        ]
        return {
            "format": "tower-certificate/1",
            "p": str(self.p),
            "base": [str(c) for c in self.base],
            "steps": steps,
            "final_degree": str(self.final_degree),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TowerCertificate":
        """Parse a document written by ``to_json_dict``.

        An exponent must be a string of decimal digits no longer than
        p^final_degree, which bounds every exponent; it is read with
        Decimal, past the interpreter's int/str limit. A longer string is
        rejected before it is converted.
        """
        try:
            p = int(data["p"])
            final_degree = int(data["final_degree"])
            max_digits = math.floor(final_degree * math.log10(p)) + 1

            def exponent(text) -> int:
                if not isinstance(text, str) or not (text.isascii() and text.isdigit()):
                    raise CertificateReplayError("an exponent must be a string of decimal digits")
                if len(text) > max_digits:
                    raise CertificateReplayError(
                        f"exponent of {len(text)} digits exceeds the {max_digits} "
                        f"digits of p^final_degree"
                    )
                return int(Decimal(text))

            base = tuple(int(c) for c in data["base"])
            steps = []
            for entry in data["steps"]:
                prime_tests = tuple(
                    ResidueTest(
                        int(t["dprime"]),
                        exponent(t["exponent"]),
                        tuple(int(c) for c in t["result"]),
                        False,
                    )
                    for t in entry["prime_tests"]
                )
                fourth = entry.get("fourth_power_test")
                fourth_power = None
                if fourth is not None:
                    fourth_power = FourthPowerTest(
                        exponent(fourth["exponent"]),
                        tuple(int(c) for c in fourth["result"]),
                        False,
                    )
                steps.append(TowerStep(int(entry["d"]), prime_tests, fourth_power))
            return cls(p, base, tuple(steps), final_degree)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CertificateReplayError(f"malformed certificate document: {exc}") from exc


def _step_from_verdict(d: int, verdict: Verdict) -> TowerStep:
    prime_tests = tuple(t for t in verdict.tests if isinstance(t, ResidueTest))
    fourth = next((t for t in verdict.tests if isinstance(t, FourthPowerTest)), None)
    return TowerStep(d=d, prime_tests=prime_tests, fourth_power=fourth)


def _next_step(b: Poly, candidate_bound: int) -> tuple[int, Verdict]:
    """The smallest prime d <= candidate_bound for which b(x^d) is certified.

    Only primes dividing p^m - 1 (m = deg b) can pass, so the others are
    skipped without a test. b must be irreducible. When no candidate passes,
    raises NoViableStepError listing every tested candidate with its verdict.
    """
    p, m = b.field.p, b.degree
    tried = []
    for r in primes_up_to(candidate_bound):
        if pow(p, m, r) != 1:
            continue
        verdict = decide_b_xd(b, r, trusted=True)
        if verdict.irreducible:
            return r, verdict
        tried.append((r, verdict))
    raise NoViableStepError(
        f"no prime step size <= {candidate_bound} certifies at degree {m}",
        degree=m,
        tried=tried,
    )


def _compose_within(b: Poly, d: int, work_bound: Optional[int]) -> Poly:
    """b(x^d), refused before it is built when its degree exceeds work_bound."""
    if work_bound is not None and b.degree * d > work_bound:
        raise WorkBoundExceededError(
            f"b(x^{d}) for b of degree {b.degree} has degree {b.degree * d}, "
            f"above the work bound {work_bound}"
        )
    return compose_power(b, d)


def grow_tower(
    b0: Poly,
    schedule: Optional[Sequence[int]] = None,
    *,
    target_degree: Optional[int] = None,
    candidate_bound: int = DEFAULT_CANDIDATE_BOUND,
    paranoid: bool = False,
    work_bound: Optional[int] = DEFAULT_WORK_BOUND,
) -> TowerCertificate:
    """Iterate b <- b(x^d), accepting steps certified by the criterion.

    Exactly one of ``schedule`` (explicit step sizes) or ``target_degree``
    must be given. With a target, candidate d are the primes up to
    ``candidate_bound`` dividing p^m - 1 for the current degree m, tried
    smallest first; growing stops once the degree reaches the target.

    b0 is verified irreducible with the oracle once; accepted steps trust
    the criterion chain unless ``paranoid=True``, which re-runs the oracle,
    with no work bound, on every composition.

    ``work_bound`` (None: unbounded) bounds b0's oracle run and, as in
    ``replay_certificate``, the degree: an accepted step that would compose
    a degree above it raises WorkBoundExceededError before it is confirmed
    or built, so every certificate returned replays under the same bound.
    """
    if (schedule is None) == (target_degree is None):
        raise ValueError("provide exactly one of schedule or target_degree")
    if not isinstance(b0, Poly):
        raise ValueError("b0 must be a polynomial over a prime field")
    if not b0.is_monic or b0.degree < 1:
        raise ValueError("b0 must be monic of degree >= 1")
    p = b0.field.p
    check = rabin_test(b0, work_bound=work_bound)
    if not check.irreducible:
        raise ReducibleInputError(
            f"b0 is reducible over GF({p})", witness=check.witness
        )
    if schedule is not None:
        schedule = [int(d) for d in schedule]
        if not schedule:
            raise ValueError("schedule must be nonempty")
    elif target_degree <= b0.degree:
        raise ValueError("target_degree must exceed deg(b0)")

    b = b0
    steps: list[TowerStep] = []
    while b.degree < target_degree if schedule is None else len(steps) < len(schedule):
        if schedule is None:
            d, verdict = _next_step(b, candidate_bound)
        else:
            i = len(steps)
            d = schedule[i]
            verdict = decide_b_xd(b, d, trusted=True)
            if not verdict.irreducible:
                raise TowerStepRejectedError(
                    f"schedule step {i} (d={d}) rejected: {verdict.reason.value}",
                    step_index=i,
                    d=d,
                    verdict=verdict,
                )
        steps.append(_step_from_verdict(d, verdict))
        composed = _compose_within(b, d, work_bound)
        if paranoid and not rabin_test(composed, work_bound=None).irreducible:
            raise OracleDisagreementError(
                f"criterion accepted d={d} at degree {b.degree} but the oracle "
                f"finds the composition reducible"
            )
        b = composed
    return TowerCertificate(p=p, base=b0.coeffs, steps=tuple(steps), final_degree=b.degree)


def replay_certificate(
    cert: TowerCertificate, *, work_bound: Optional[int] = DEFAULT_WORK_BOUND
) -> bool:
    """Decide every step of a certificate again; raise on any discrepancy.

    Each step is decided as generation decides it, by norm descent, in the
    field of the previous composition: the verdict must be irreducible and its
    tests the recorded ones. See the module docstring for the checks that
    stay independent of the descent.

    ``work_bound`` (None: unbounded) also bounds the size of the document:
    a final degree above it is refused before any field is built, each
    coefficient of the final polynomial counting as one unit of work. An
    ``OverflowError`` or ``MemoryError`` met during replay is raised as a
    ``CertificateReplayError``.
    """
    try:
        return _replay(cert, work_bound)
    except (OverflowError, MemoryError) as exc:
        raise CertificateReplayError(f"certificate too large to replay: {exc!r}") from exc


def _replay(cert: TowerCertificate, work_bound: Optional[int]) -> bool:
    # plain-integer checks first, so no field is built from a bad document
    p = cert.p
    if not 2 <= p < 1 << 64 or not is_prime(p):
        raise CertificateReplayError(f"certificate p = {p} is not a prime of at most 64 bits")
    if work_bound is not None and cert.final_degree > work_bound:
        raise CertificateReplayError(
            f"final degree {cert.final_degree} exceeds the replay bound {work_bound}"
        )
    base_degree = max((i for i, c in enumerate(cert.base) if c % p), default=-1)
    final_degree = base_degree * math.prod(step.d for step in cert.steps)
    if final_degree != cert.final_degree:
        raise CertificateReplayError(
            f"final degree {final_degree} != certificate claim {cert.final_degree}"
        )
    K = PrimeField(p)
    b = Poly(K, cert.base)
    if b.degree < 1 or not b.is_monic:
        raise CertificateReplayError("certificate base must be monic of degree >= 1")
    if not rabin_test(b, work_bound=work_bound).irreducible:
        raise CertificateReplayError("certificate base polynomial is reducible")
    for i, step in enumerate(cert.steps):
        d = step.d
        if d < 1:
            raise CertificateReplayError(f"step {i}: d must be >= 1, got {d}")
        verdict = _decide_step(b, d)
        if not verdict.irreducible:
            raise CertificateReplayError(
                f"step {i}: the criterion rejects d={d} at degree {b.degree} "
                f"({verdict.reason.value})"
            )
        if _step_from_verdict(d, verdict) != step:
            raise CertificateReplayError(
                f"step {i}: recorded residue tests for d={d} differ from the recomputed ones"
            )
        if i + 1 < len(cert.steps):
            # the last composition is never tested, so it is never built
            b = compose_power(b, d)
    return True
