"""Infinite-server queues in a resampled random environment.

Arrivals form a mixed-Poisson (Cox) process whose rate is redrawn every
slot; the package provides the exact and asymptotic performance formulas
(moments, PGF, Gaussian limits, large-deviations rates), a Monte Carlo
simulator of the coupled queues, an importance-sampling rare-event
estimator, and a verification harness with a CLI front end (``coxq``).
"""

__version__ = "0.1.0"

from .analytic import (
    LimitCovariance,
    QueueParams,
    SurvivalConstants,
    clt_sigma2,
    fclt_covariance,
    fluid_limit,
    scaled_variance,
    stationary_correlation,
    stationary_covariance,
    stationary_mean,
    stationary_pgf,
    stationary_variance,
    transient_moments,
)
from .env import (
    Deterministic,
    DiscreteFinite,
    EnvSpec,
    Exponential,
    Gamma,
    ScalingRegime,
    env_from_json,
    spawn_streams,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    CoxqError,
    DegenerateQuery,
    DomainError,
    InsufficientData,
    RangeError,
    RegimeError,
    ResourceError,
    UnsupportedFamily,
)
from .ldp import (
    RateQuery,
    RateResult,
    classify_regime,
    estimate_log_tail,
    integrated_log_mgf,
    rate_fast,
    rate_intermediate,
    rate_multivariate,
    rate_slow,
    rate_slow_bounded,
)
from .sim import (
    MomentReport,
    SimConfig,
    Trajectory,
    estimate_moments,
    normalized_endpoint,
    sample_stationary,
    simulate,
    trajectory_to_csv,
)
