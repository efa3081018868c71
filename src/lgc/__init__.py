"""Lattice Gaussian coding: exact lattice tools, discrete Gaussian
sampling, AWGN scheme simulation, and mod-p ensemble search."""

from .errors import (
    BudgetExceeded,
    ConfigError,
    DimensionMismatch,
    DimensionTooLarge,
    FlatnessTooLarge,
    InsufficientErrors,
    LgcError,
    MuBelowOne,
    MultipleAxes,
    NonpositiveSigma,
    NotSquare,
    RandomnessExhausted,
    RankDeficientCode,
    SingularBasis,
    UnknownName,
)
from .rng import RngSeed, stream
from .lattice import (
    Lattice,
    closest_point,
    closest_points_batch,
    enumerate_ball,
    load_basis,
    make_lattice,
    standard_lattice,
)
from .analytics import (
    EntropyReport,
    FlatnessReport,
    ThetaValue,
    entropy_check,
    entropy_deviation,
    eps_prime_formula,
    flatness,
    flatness_direct,
    gsnr,
    moment_check,
    partition_sandwich_check,
    theta,
)
from .sampler import (
    DiscreteGaussianSpec,
    build_spec,
    sample,
    sample_coeffs,
    sphere_tail_bound,
    tail_event_rate,
)
from .scheme import (
    CSV_HEADER,
    GaussianParams,
    PoltyrevPoint,
    RateBudget,
    SimResult,
    decode_agreement,
    design_volume,
    feasible_volume_interval,
    make_params,
    map_decode,
    mmse_decode,
    paired_ratio_interval,
    poltyrev_exponent,
    rate_budget,
    rate_lower_formula,
    sandwich_check,
    simulate_error,
    simulate_poltyrev,
    vnr,
    wilson_interval,
)
from .construction_a import (
    LinearCode,
    ensemble_search,
    lift,
    random_code,
    theorem1_bound,
)

__version__ = "0.1.0"
