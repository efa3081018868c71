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
    LatticePoint,
    closest_point,
    closest_points_batch,
    contains,
    coset_decode,
    enumerate_ball,
    load_basis,
    make_lattice,
    mod_lattice,
    save_basis,
    standard_lattice,
)
from .analytics import (
    EntropyReport,
    FlatnessReport,
    ThetaValue,
    entropy_check,
    entropy_deviation,
    flatness,
    flatness_direct,
    gaussian_density,
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
    awgn,
    check_conditions,
    decode_agreement,
    design_volume,
    eps_prime_formula,
    feasible_volume_interval,
    make_params,
    map_decode,
    mmse_decode,
    mmse_gap,
    poltyrev_exponent,
    power_stats,
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
    load_code,
    random_code,
    save_code,
    theorem1_bound,
)

__version__ = "0.1.0"
