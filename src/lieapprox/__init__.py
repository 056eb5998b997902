"""Exact root-system invariants, Weyl dimension counts, section spaces on
wonderful compactifications, Liouville-type approximation bounds, and an
empirical lab for approximation constants of rational points."""

from .bounds import (
    NefReport,
    Verdict,
    full_conjecture_check,
    liouville_bound,
    table_binomial,
    verify_colour,
    verify_nef,
)
from .dioph import (
    AlphaEstimate,
    ApproxLine,
    ApproxSample,
    PlaceSpec,
    RationalProjectivePoint,
    Trend,
    alpha_estimate,
    best_sequence_on_line,
    boundedness_trend,
    distance,
    make_sample,
)
from .errors import (
    BadArgs,
    BadIndex,
    DimensionMismatch,
    EngineError,
    InvalidRank,
    NonDominant,
    NotARoot,
    NotConverging,
    NotNef,
    TooFewPoints,
)
from .repdim import (
    dominance_box_size,
    dominant_weights_below,
    end_dim,
    h0_dim,
    weyl_dim,
)
from .rootsys import (
    CartanMatrix,
    DominantWeight,
    RootSystem,
    SimpleType,
    build_root_system,
    supported_types,
)
from .wonderful import (
    NefDivisor,
    SemisimpleType,
    dim_X,
    h0_product,
    root_curve_degree,
    root_systems,
)

__version__ = "0.1.0"
