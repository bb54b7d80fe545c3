"""Finite-field toolkit built around one question: is b(x^d) irreducible?

The answer comes from power-residue tests on a root of b instead of any
work on the composed polynomial, which makes certified sparse irreducible
towers of multiplicatively growing degree cheap to build. Brute-force
oracles, an exhaustive census, and exact probability formulas keep every
fast path verifiable.
"""

from .criterion import (
    FourthPowerTest,
    Reason,
    ResidueTest,
    Shortcut,
    TowerCertificate,
    TowerStep,
    Verdict,
    ZeroRootEvidence,
    decide_b_xd,
    decide_many,
    decide_xd_minus_alpha,
    grow_tower,
    reducibility_shortcuts,
    replay_certificate,
    star_condition,
)
from .errors import (
    CapelliError,
    CertificateReplayError,
    EnumerationBoundExceededError,
    FieldMismatchError,
    NoViableStepError,
    OracleDisagreementError,
    PolyParseError,
    ReducibleInputError,
    ReducibleModulusError,
    TowerStepRejectedError,
    WorkBoundExceededError,
)
from .ff import (
    ExtensionField,
    Poly,
    PrimeField,
    compose_power,
    count_mults,
    poly_gcd,
    poly_powmod,
)
from .intops import distinct_prime_factors, factor_integer, is_prime
from .oracle import (
    OracleVerdict,
    count_monic_irreducibles,
    enumerate_irreducibles,
    rabin_test,
    trial_division_test,
)
from .polytext import parse_coeff_array, parse_poly, render_poly
from .prob import (
    CensusResult,
    Convention,
    MonteCarloResult,
    exact_probability,
    exhaustive_census,
    monte_carlo_estimate,
    union_lower_bound,
)

__version__ = "0.1.0"
