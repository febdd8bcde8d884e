"""Bilateral Fibonacci/Lucas Eisenstein-like series and their semi-modular symmetries.

Public surface: exact Lucas-sequence values (`lucas`), windowed series
evaluation with certified truncation tails and pole maps (`series`), the
Moebius/slash machinery and identity checkers (`symmetry`), exact integer
matrix algebra (`gl2`), and a json-lines CLI (`cli`).
"""

from .errors import (
    IndexCapExceeded,
    InvalidPairing,
    MobiusPole,
    OddWeight,
    PoleProximity,
    SemimodularError,
    ToleranceUnreachable,
    UncertifiedOnly,
)
from .gl2 import (
    IDENTITY,
    IntMat2,
    M_PRIME,
    P,
    S,
    T,
    U,
    V,
    fib_matrix_check,
    generator_identities,
    mirror_matrix,
)
from .lucas import (
    FIBONACCI,
    INDEX_CAP,
    GrowthInfo,
    Kind,
    LUCAS_NUMBERS,
    SequenceSpec,
    growth_info,
    is_certified_spec,
    seq_value,
)
from .series import (
    GUARD_EPS,
    PoleMap,
    SeriesResult,
    SeriesSpec,
    Variant,
    evaluate,
    evaluate_halves,
    pole_distance,
    pole_map,
)
from .symmetry import (
    PROOF_STEPS,
    InversionS,
    MirrorPa,
    ResidualReport,
    StepCheck,
    check_identity,
    mobius_apply,
    proof_step,
    slash,
)

__version__ = "0.1.0"
