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

``decide_b_xd`` computes each residue value by norm descent. A test raises
c*alpha (c = 1, or c = -4 for the fourth-power test) to (q - 1)/g. When g
divides p^s - 1 for a subfield F_{p^s} of F, the same value is
N(c*alpha)^((p^s - 1)/g), where N is the norm from F to that subfield
(Lidl & Niederreiter, Finite Fields, §2.3 and Thm 3.75). The subfields
come from b alone: F_p, where N(alpha) = (-1)^m * b(0), and F_p(alpha^k) for
each k dividing the gcd of the exponents of b's nonzero terms. There
beta = alpha^k has minimal polynomial b_k(y) = sum of b_(ik) * y^i, and
N(alpha) = (-1)^(k+1) * beta; the value is computed in F_p[y]/(b_k) and
embedded by y^i -> x^(ik), with no reduction. The smallest subfield that
holds the value is used, and the direct ladder in F otherwise. In a sparse
tower every step is such a composition, so a step costs about as much as
deciding at its base. Replay does not descend: it raises alpha itself in
F with the residue ring's ladder (Frobenius steps included), so generation
and replay still check each other.

``decide_many`` decides x^d - alpha for a batch of alpha in one field, as
the census and Monte Carlo need: the shortcuts and the residue plan once,
then one vectorized ladder per prime d' dividing d.

Accepted tower steps record every residue test performed; the resulting
certificate can be replayed from scratch and must reproduce the evidence
bit for bit.
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
    CapelliError,
    CertificateReplayError,
    NoViableStepError,
    OracleDisagreementError,
    ReducibleInputError,
    TowerStepRejectedError,
)
from .ff import Element, ExtensionField, Poly, PrimeField, compose_power
from .intops import distinct_prime_factors, divisors, is_prime, primes_up_to
from .oracle import DEFAULT_WORK_BOUND, rabin_test

__all__ = [
    "Reason",
    "Verdict",
    "ResidueTest",
    "FourthPowerTest",
    "Shortcut",
    "ZeroRootEvidence",
    "is_nth_power",
    "minus4_fourth_power_condition",
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


def is_nth_power(a: Element, n: int) -> bool:
    """Whether a = c^n for some c in a's field, for nonzero a.

    Tests a^((q-1)/g) = 1 with g = gcd(n, q-1), valid because the unit
    group is cyclic of order q-1. When g = 1 every element passes, which is
    the correct answer (raising to n permutes the units).
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    K = a.field
    if a.value == K.zero:
        raise ValueError("is_nth_power is defined on nonzero elements only")
    g = math.gcd(n, K.order_minus_one)
    return K.pow(a.value, K.order_minus_one // g) == K.one


def minus4_fourth_power_condition(a: Element) -> bool:
    """Whether -4*a is a fourth power; callable only in odd characteristic."""
    K = a.field
    if K.p == 2:
        raise ValueError("the fourth-power condition is not defined in characteristic 2")
    if a.value == K.zero:
        raise ValueError("alpha must be nonzero")
    minus4a = K.mul(K.scalar(-4), a.value)
    return is_nth_power(Element(K, minus4a), 4)


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


def decide_xd_minus_alpha(a: Element, d: int) -> Verdict:
    """Decide irreducibility of x^d - alpha over alpha's field.

    Irreducible iff alpha is not a d'-th power for any prime d' | d, and
    (when 4 | d) -4*alpha is not a fourth power. Tests run in a fixed
    order and the first failing one becomes the verdict's evidence.
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError("d must be a positive integer")
    K = a.field
    raw = a.value
    if raw == K.zero:
        raise ValueError("alpha must be nonzero (x^d is trivially reducible for d >= 2)")
    if d == 1:
        return Verdict(True, Reason.DEGREE_ONE)
    plan, fourth_exponent = _residue_plan(K.order_minus_one, d)
    one = K.one
    tests = []
    for dprime, exponent in plan:
        value = K.pow(raw, exponent)
        test = ResidueTest(dprime, exponent, _element_coeffs(K, value), value == one)
        tests.append(test)
        if test.is_power:
            return Verdict(
                False, Reason.ALPHA_IS_DPRIME_POWER, evidence=test, tests=tuple(tests)
            )
    if fourth_exponent is not None:
        # unreachable in characteristic 2: the d' = 2 test above always fires there
        assert K.p != 2
        minus4a = K.mul(K.scalar(-4), raw)
        value = K.pow(minus4a, fourth_exponent)
        test = FourthPowerTest(fourth_exponent, _element_coeffs(K, value), value == one)
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
    """``decide_xd_minus_alpha(alpha, d).irreducible`` for a batch of alpha.

    ``values`` holds nonzero raw values of ``field``: ints over F_p, an
    (N, m) array or m-tuples over F_{p^m}. Returns a bool mask of length N.
    The whole-field shortcuts and the residue plan are worked out once, and
    each planned d'-th power test runs as one ladder over the values not
    yet found reducible (``field.pow_many``); no Verdict is built.
    ``decide_xd_minus_alpha`` stays the per-alpha reference.

    The fourth-power test is not run: it cannot change the mask. When 4 | d
    and no shortcut applies, q = 1 mod 4, so -4 = (1 + i)^4 is a fourth
    power and -4*alpha is one only when alpha is a square, which the d' = 2
    test has already found. Where q = 3 mod 4 the shortcut decides.
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError("d must be a positive integer")
    batch = field.pow_many(values, 1)  # the values as the field's batch array
    if _equal_many(batch, field.zero).any():
        raise ValueError("alpha must be nonzero (x^d is trivially reducible for d >= 2)")
    mask = np.ones(len(batch), dtype=bool)
    if d == 1:
        return mask
    if reducibility_shortcuts(field.p, field.degree, d) is not None:
        return ~mask
    plan, _ = _residue_plan(field.order_minus_one, d)
    for _, exponent in plan:
        mask[mask] = ~_equal_many(field.pow_many(batch[mask], exponent), field.one)
    return mask


class _DescentField(ExtensionField):
    """F = F_p[x]/(b) whose residue-test powers of c*x (c in F_p) use norm descent.

    Any other power, and a power whose value lies in no subfield known from
    b, runs the ExtensionField ladder. See the module docstring.
    """

    __slots__ = ("_coarsenings",)

    def __init__(self, b: Poly):
        super().__init__(b.field, b, trusted=True)
        gap = math.gcd(*(i for i, c in enumerate(b.coeffs) if c))
        # k with F_p(alpha^k) a proper subfield of degree m/k, smallest subfield first
        self._coarsenings = tuple(k for k in reversed(divisors(gap)) if 1 < k < self.degree)

    def pow(self, a: tuple, e: int) -> tuple:
        c = a[1]
        if e < 1 or not c or a[0] or any(a[2:]) or self.order_minus_one % e:
            return super().pow(a, e)
        g = self.order_minus_one // e
        K, p, m = self.base, self.p, self.degree
        if (p - 1) % g == 0:
            # N(c*alpha) = (-c)^m * b(0)
            norm = pow(-c, m, p) * self.modulus[0] % p
            return self.scalar(K.pow(norm, (p - 1) // g))
        for k in self._coarsenings:
            s = m // k
            if pow(p, s, g) == 1:
                # alpha is a root of x^k - beta over F_p(beta), beta = alpha^k,
                # so N(c*alpha) = (-1)^(k+1) * c^k * beta
                sub = ExtensionField(K, self.modulus[::k], trusted=True)
                norm = (0, -pow(-c, k, p) % p) + (0,) * (s - 2)
                out = [0] * m
                out[::k] = sub.pow(norm, (p**s - 1) // g)
                return tuple(out)
        return super().pow(a, e)


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
    if not isinstance(b, Poly) or not isinstance(b.field, PrimeField):
        raise ValueError("b must be a polynomial over a prime field")
    if not b.is_monic:
        raise ValueError("b must be monic")
    m = b.degree
    if m < 1:
        raise ValueError("b must have degree >= 1")
    if not isinstance(d, int) or d < 1:
        raise ValueError("d must be a positive integer")
    K = b.field
    if not trusted:
        check = rabin_test(b, work_bound=work_bound)
        if not check.irreducible:
            raise ReducibleInputError(
                f"b is reducible over GF({K.p}); the reduction requires irreducible b",
                witness=check.witness,
            )
    if d == 1:
        return Verdict(True, Reason.DEGREE_ONE)
    shortcut = reducibility_shortcuts(K.p, m, d)
    if shortcut is not None:
        return Verdict(False, shortcut.reason, evidence=shortcut)
    if m == 1:
        alpha_raw = K.neg(b.coeffs[0])
        if alpha_raw == 0:
            # b = x, so b(x^d) = x^d
            smallest = distinct_prime_factors(d)[0]
            return Verdict(
                False,
                Reason.ALPHA_IS_DPRIME_POWER,
                evidence=ZeroRootEvidence(dprime=smallest),
            )
        alpha = Element(K, alpha_raw)
    else:
        F = _DescentField(b)
        alpha = Element(F, F.gen())
    return decide_xd_minus_alpha(alpha, d)


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TowerStep:
    """One accepted composition step with its full residue evidence."""

    d: int
    prime_tests: tuple
    fourth_power: Optional[FourthPowerTest] = None


@dataclass(frozen=True)
class TowerCertificate:
    """Replayable record of a tower run: base, steps, and final degree.

    ``base`` stores the little-endian coefficients of the starting
    polynomial. Replaying recomputes every recorded test value in the field
    built from the previous composition.
    """

    p: int
    base: tuple
    steps: tuple
    final_degree: int

    def base_polynomial(self) -> Poly:
        return Poly(PrimeField(self.p), self.base)

    def final_polynomial(self) -> Poly:
        b = self.base_polynomial()
        for step in self.steps:
            b = compose_power(b, step.d)
        return b

    def to_json_dict(self) -> dict:
        """The JSON document; every integer is a decimal string.

        An exponent has about m*log10(p) digits, past the interpreter's
        int/str limit (4300 by default) once q > 10^4300. Decimal converts
        without that limit and leaves it unchanged.
        """

        def test_dict(t):
            return {
                "dprime": str(t.dprime),
                "exponent": str(Decimal(t.exponent)),
                "result": [str(c) for c in t.result],
            }

        steps = []
        for step in self.steps:
            entry = {
                "d": str(step.d),
                "prime_tests": [test_dict(t) for t in step.prime_tests],
                "fourth_power_test": None,
            }
            if step.fourth_power is not None:
                entry["fourth_power_test"] = {
                    "exponent": str(Decimal(step.fourth_power.exponent)),
                    "result": [str(c) for c in step.fourth_power.result],
                }
            steps.append(entry)
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


def grow_tower(
    b0: Poly,
    schedule: Optional[Sequence[int]] = None,
    *,
    target_degree: Optional[int] = None,
    candidate_bound: int = DEFAULT_CANDIDATE_BOUND,
    max_steps: int = 64,
    paranoid: bool = False,
    work_bound: Optional[int] = DEFAULT_WORK_BOUND,
    paranoid_work_bound: Optional[int] = None,
) -> TowerCertificate:
    """Iterate b <- b(x^d), accepting steps certified by the criterion.

    Exactly one of ``schedule`` (explicit step sizes) or ``target_degree``
    must be given. With a target, candidate d are the primes up to
    ``candidate_bound`` dividing p^m - 1 for the current degree m, tried
    smallest first; growing stops once the degree reaches the target.

    b0 is verified irreducible with the oracle once; accepted steps trust
    the criterion chain unless ``paranoid=True``, which re-runs the oracle
    on every composition (``paranoid_work_bound=None`` lifts its budget).
    """
    if (schedule is None) == (target_degree is None):
        raise ValueError("provide exactly one of schedule or target_degree")
    if not isinstance(b0, Poly) or not isinstance(b0.field, PrimeField):
        raise ValueError("b0 must be a polynomial over a prime field")
    if not b0.is_monic or b0.degree < 1:
        raise ValueError("b0 must be monic of degree >= 1")
    K = b0.field
    p = K.p
    check = rabin_test(b0, work_bound=work_bound)
    if not check.irreducible:
        raise ReducibleInputError(
            f"b0 is reducible over GF({p})", witness=check.witness
        )

    def confirm(b: Poly, d: int) -> None:
        if not paranoid:
            return
        composed = compose_power(b, d)
        oracle = rabin_test(composed, work_bound=paranoid_work_bound)
        if not oracle.irreducible:
            raise OracleDisagreementError(
                f"criterion accepted d={d} at degree {b.degree} but the oracle "
                f"finds the composition reducible"
            )

    b = b0
    steps: list[TowerStep] = []
    if schedule is not None:
        schedule = [int(d) for d in schedule]
        if not schedule:
            raise ValueError("schedule must be nonempty")
        for i, d in enumerate(schedule):
            verdict = decide_b_xd(b, d, trusted=True)
            if not verdict.irreducible:
                raise TowerStepRejectedError(
                    f"schedule step {i} (d={d}) rejected: {verdict.reason.value}",
                    step_index=i,
                    d=d,
                    verdict=verdict,
                )
            confirm(b, d)
            steps.append(_step_from_verdict(d, verdict))
            b = compose_power(b, d)
    else:
        if target_degree <= b0.degree:
            raise ValueError("target_degree must exceed deg(b0)")
        while b.degree < target_degree:
            if len(steps) >= max_steps:
                raise CapelliError(f"tower exceeded {max_steps} steps")
            d, verdict = _next_step(b, candidate_bound)
            confirm(b, d)
            steps.append(_step_from_verdict(d, verdict))
            b = compose_power(b, d)
    return TowerCertificate(p=p, base=b0.coeffs, steps=tuple(steps), final_degree=b.degree)


def replay_certificate(
    cert: TowerCertificate,
    *,
    verify_base: bool = True,
    work_bound: Optional[int] = DEFAULT_WORK_BOUND,
) -> bool:
    """Recompute every test in a certificate; raise on any discrepancy.

    Rebuilds each step's field from the previous composition, recomputes
    exponents and power values, and demands bit-for-bit agreement with the
    recorded evidence plus a non-identity result for every test.
    """
    # plain-integer checks first, so no field is built from a bad document
    p = cert.p
    if not 2 <= p < 1 << 64 or not is_prime(p):
        raise CertificateReplayError(f"certificate p = {p} is not a prime of at most 64 bits")
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
    if verify_base:
        check = rabin_test(b, work_bound=work_bound)
        if not check.irreducible:
            raise CertificateReplayError("certificate base polynomial is reducible")
    for i, step in enumerate(cert.steps):
        d = step.d
        m = b.degree
        if d < 1:
            raise CertificateReplayError(f"step {i}: d must be >= 1, got {d}")
        if d == 1:
            # trivial step: nothing to test, composition unchanged
            if step.prime_tests or step.fourth_power is not None:
                raise CertificateReplayError(f"step {i}: d = 1 admits no residue tests")
            continue
        if reducibility_shortcuts(p, m, d) is not None:
            raise CertificateReplayError(
                f"step {i}: a whole-field shortcut proves d={d} reducible at degree {m}"
            )
        order_minus_one = p**m - 1
        expected_primes = distinct_prime_factors(d)
        recorded_primes = tuple(t.dprime for t in step.prime_tests)
        if recorded_primes != expected_primes:
            raise CertificateReplayError(
                f"step {i}: recorded prime tests {recorded_primes} != expected {expected_primes}"
            )
        if m == 1:
            F = K
            alpha_raw = K.neg(b.coeffs[0])
            if alpha_raw == 0:
                raise CertificateReplayError(f"step {i}: base has root 0, never certifiable")
        else:
            F = ExtensionField(K, b, trusted=True)
            alpha_raw = F.gen()
        for t in step.prime_tests:
            exponent = order_minus_one // math.gcd(t.dprime, order_minus_one)
            if exponent != t.exponent:
                raise CertificateReplayError(
                    f"step {i}: exponent for d'={t.dprime} should be {exponent}, "
                    f"certificate says {t.exponent}"
                )
            value = F.pow(alpha_raw, exponent)
            if _element_coeffs(F, value) != tuple(t.result):
                raise CertificateReplayError(
                    f"step {i}: recomputed alpha^{exponent} differs from recorded result"
                )
            if value == F.one:
                raise CertificateReplayError(
                    f"step {i}: alpha is a {t.dprime}-th power; step could not have been accepted"
                )
        if d % 4 == 0:
            if step.fourth_power is None:
                raise CertificateReplayError(f"step {i}: 4 | d but no fourth-power test recorded")
            exponent = order_minus_one // math.gcd(4, order_minus_one)
            if exponent != step.fourth_power.exponent:
                raise CertificateReplayError(f"step {i}: fourth-power exponent mismatch")
            minus4a = F.mul(F.scalar(-4), alpha_raw)
            value = F.pow(minus4a, exponent)
            if _element_coeffs(F, value) != tuple(step.fourth_power.result):
                raise CertificateReplayError(
                    f"step {i}: recomputed fourth-power value differs from recorded result"
                )
            if value == F.one:
                raise CertificateReplayError(
                    f"step {i}: -4*alpha is a fourth power; step could not have been accepted"
                )
        elif step.fourth_power is not None:
            raise CertificateReplayError(f"step {i}: fourth-power test recorded but 4 does not divide d")
        if i + 1 < len(cert.steps):
            # the last composition is never tested, so it is never built
            b = compose_power(b, d)
    return True
