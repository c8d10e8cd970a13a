"""Desk-scale laboratory for waves reconstructed from snapshots.

Band-limited fields evolve under multiplier propagators; integer-time
snapshots close under a Chebyshev recursion; two or three snapshots
determine the wave up to explicit kernels, with small-denominator
arithmetic deciding when the reconstruction stays bounded, on flat space
and on spheres.
"""

__version__ = "0.1.0"

from .fields import (
    DimensionMismatch,
    Field,
    Mode,
    MultiplierSymbol,
    SpectralField,
    SymbolUndefined,
    apply_multiplier,
    field,
    field_from_json,
    linear_combine,
    load_field,
    max_abs_amp,
    save_field,
    subtract,
    symbol_constant,
)
from .propagators import (
    IdentityReport,
    InvalidScale,
    as_radians,
    chebyshev_U,
    cos_at,
    fundamental_identities_check,
    sine_at,
    symbol_Psi,
    symbol_S,
    symbol_Sprime,
)
from .snapshots import (
    CauchyData,
    IncompatibleData,
    InvalidTime,
    InvalidTimes,
    LiouvilleDemoReport,
    SolveReport,
    STATUS_NONUNIQUE,
    STATUS_OBSTRUCTED,
    STATUS_UNIQUE,
    compatibility_residual_general,
    diagonal_solve,
    evolve,
    general_integer_snapshot,
    liouville_obstruction_demo,
    rational_reconstruct,
    three_snapshot_solve,
    two_snapshot_solve,
)
from .diophantine import (
    ContinuedFraction,
    InvalidCoefficient,
    NotCoprime,
    NumberClass,
    OddTypeReport,
    PrecisionExhausted,
    SineInterval,
    SmallDenominatorTable,
    Unclassifiable,
    bezout,
    binary_factorial_class,
    continued_fraction,
    doubled,
    doubled_liouville_bound,
    exact_sine_abs,
    golden_class,
    irrationality_exponent_probe,
    joint_sine_lower_bound_check,
    liouville_truncation,
    odd_type_verifier,
    rational_number,
    slow_decay_check,
    slowly_decreasing_probe,
    small_denominator_sequence,
    sqrt2_class,
    ternary_odd_type_class,
)
from .sphere import (
    Classification,
    ParamsMismatch,
    RequiresOddDimension,
    RequiresZonal,
    SphereField,
    classify_alpha,
    dim_Hl,
    gegenbauer_phi,
    huygens_antipodal_check,
    load_sphere_field,
    save_sphere_field,
    sphere_evolve,
    sphere_field,
    sphere_snapshot,
    sphere_two_snapshot_solve,
    surjectivity_margin,
    zonal_value,
)
