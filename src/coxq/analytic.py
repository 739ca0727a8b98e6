"""Closed-form moments, transforms, and Gaussian-limit parameters.

Single infinite-server queue with service rate mu fed by the resampled
mixed-Poisson arrival process (slot length delta, rate distribution env):

* stationary mean  E[L]/mu  and variance  E[L]/mu + C Var[L]/mu^2  with
  C = (1 - p)/(1 + p), p = exp(-mu delta);
* the stationary PGF as an infinite product of per-slot mixed-Poisson
  factors, evaluated with a geometric tail bound;
* transient moments for an empty start, assembled from the per-slot
  survival transforms (full slots) plus the partial-slot contribution;
* under the scaling L -> N L, 1/delta -> N^alpha/delta: the exact scaled
  variance, its trichotomy asymptote, the scalar CLT variance sigma^2,
  the fluid limit, and the d-queue FCLT covariance matrix with its
  limiting correlation constant.

All formulas use expm1 where exponents can be small so the trichotomy
survives large N in double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .env import EnvSpec, ScalingRegime
from .errors import ConvergenceError, DomainError

__all__ = [
    "QueueParams",
    "SurvivalConstants",
    "LimitCovariance",
    "stationary_mean",
    "stationary_variance",
    "transient_moments",
    "stationary_pgf",
    "scaled_variance",
    "clt_sigma2",
    "fluid_limit",
    "fclt_covariance",
    "stationary_correlation",
    "stationary_covariance",
]


@dataclass(frozen=True)
class QueueParams:
    """Service rates of the d coupled exponential infinite-server queues."""

    mu: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(float(m) for m in self.mu))
        if len(self.mu) == 0 or any(m <= 0 for m in self.mu):
            raise ValueError(f"all service rates mu must be positive, got mu = {list(self.mu)}")

    @property
    def d(self) -> int:
        return len(self.mu)


@dataclass(frozen=True)
class SurvivalConstants:
    """Survival quantities of one slot of length t for service rate mu.

    p = exp(-mu t): survival over a full slot; r = (1-p)/mu: survival to the
    slot end integrated over the arrival time in the slot; c_ratio =
    (1-p)/(1+p), the variance inflation factor.
    """

    mu: float
    t: float
    p: float = field(init=False)
    r: float = field(init=False)
    c_ratio: float = field(init=False)

    def __post_init__(self):
        if self.mu <= 0 or self.t <= 0:
            raise ValueError("mu and t must be positive")
        p = math.exp(-self.mu * self.t)
        one_minus_p = -math.expm1(-self.mu * self.t)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", one_minus_p / self.mu)
        object.__setattr__(self, "c_ratio", one_minus_p / (1.0 + p))


@dataclass
class LimitCovariance:
    """FCLT covariance matrix C(t) with the regime label of the scaling."""

    matrix: np.ndarray
    regime: str  # "fast" (alpha>1), "slow" (alpha<1), "intermediate" (alpha=1)


def _regime_label(alpha: float) -> str:
    if alpha > 1:
        return "fast"
    if alpha < 1:
        return "slow"
    return "intermediate"


def stationary_mean(env: EnvSpec, mu: float) -> float:
    if mu <= 0:
        raise ValueError("mu must be positive")
    return env.mean / mu


def stationary_variance(env: EnvSpec, mu: float, delta: float) -> float:
    sc = SurvivalConstants(mu, delta)
    return env.mean / mu + sc.c_ratio * env.variance / mu**2


def transient_moments(env: EnvSpec, mu: float, delta: float, t: float) -> tuple[float, float]:
    """Mean and variance of the queue length at time t, started empty.

    The conditional (mixed-Poisson) parameter decomposes over the n = floor(t/delta)
    full slots, slot j contributing weight r_delta * exp(-mu (t - (j+1) delta)),
    plus the partial slot [n delta, t) with weight (1 - exp(-mu (t - n delta)))/mu.
    The variance sums Var[L] times the squared weights in closed (geometric) form.

    The t -> infinity limit reproduces the stationary variance along multiples of
    delta; the slot-anchored environment makes the law delta-periodic in the
    observation phase, and the stationary formula is the slot-boundary phase.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        return 0.0, 0.0
    mean = env.mean * (-math.expm1(-mu * t)) / mu
    n = int(math.floor(t / delta))
    tau = t - n * delta
    r = -math.expm1(-mu * delta) / mu
    if n >= 1:
        slot_sq = (
            r**2
            * math.exp(-2 * mu * tau)
            * (-math.expm1(-2 * mu * n * delta))
            / (-math.expm1(-2 * mu * delta))
        )
    else:
        slot_sq = 0.0
    partial_sq = ((-math.expm1(-mu * tau)) / mu) ** 2
    variance = mean + env.variance * (slot_sq + partial_sq)
    return mean, variance


def stationary_pgf(
    env: EnvSpec, mu: float, delta: float, z: float, k_max: int = 10_000
) -> float:
    """Stationary queue-length PGF at z in [0, 1].

    Infinite product over slot ages k of the per-slot mixed-Poisson factors
    E exp(-L r_delta p^k (1-z)); the log-product is accumulated until a term
    falls below 1e-14, with the geometric tail bounded by
    exp(E[L] (1-z) p^k / mu) - 1.
    """
    if not 0.0 <= z <= 1.0:
        raise ValueError("z must lie in [0, 1]")
    sc = SurvivalConstants(mu, delta)
    one_minus_z = 1.0 - z
    if one_minus_z == 0.0:
        return 1.0
    log_phi = 0.0
    pk = 1.0
    for _ in range(k_max):
        term = env.log_mgf(-sc.r * one_minus_z * pk)
        log_phi += term
        pk *= sc.p
        if abs(term) < 1e-14:
            return math.exp(log_phi)
    tail = math.expm1(env.mean * one_minus_z * pk / mu)
    if tail > 1e-9:
        raise ConvergenceError(
            f"PGF product not converged after {k_max} factors (tail bound {tail:.3e})"
        )
    return math.exp(log_phi)


def scaled_variance(env: EnvSpec, mu: float, scaling: ScalingRegime) -> tuple[float, float]:
    """Exact variance of the N-scaled stationary queue length and its asymptote.

    Exact: N E[L]/mu + N^2 (1-p)/(1+p) Var[L]/mu^2 with p = exp(-mu delta N^-alpha).
    Asymptote: N E[L]/mu (alpha > 1), N^(2-alpha) delta Var[L]/(2 mu) (alpha < 1),
    their sum at equal order (alpha = 1).
    """
    N, alpha, delta = scaling.N, scaling.alpha, scaling.delta
    sc = SurvivalConstants(mu, scaling.delta_n)
    exact = N * env.mean / mu + N**2 * sc.c_ratio * env.variance / mu**2
    poisson_part = N * env.mean / mu
    ovd_part = N ** (2 - alpha) * delta * env.variance / (2 * mu)
    if alpha > 1:
        asymptotic = poisson_part
    elif alpha < 1:
        asymptotic = ovd_part
    else:
        asymptotic = poisson_part + ovd_part
    return exact, asymptotic


def clt_sigma2(env: EnvSpec, mu: float, delta: float, alpha: float) -> float:
    """Limit variance of N^(-gamma/2) (M^(N) - E M^(N)) in stationarity."""
    s2 = 0.0
    if alpha >= 1:
        s2 += env.mean / mu
    if alpha <= 1:
        s2 += delta * env.variance / (2 * mu)
    return s2


def fluid_limit(rho0: float, env: EnvSpec, mu: float, t: float) -> float:
    """Law-of-large-numbers path: convex mixture of the start and E[L]/mu."""
    if t < 0:
        raise ValueError("t must be non-negative")
    p = math.exp(-mu * t)
    return rho0 * p + (env.mean / mu) * (1.0 - p)


def fclt_covariance(
    env: EnvSpec,
    queues: QueueParams,
    delta: float,
    alpha: float,
    rho0,
    t: float,
) -> LimitCovariance:
    """Covariance matrix C(t) of the d-dimensional Gaussian FCLT limit.

    Diagonal: 1{alpha>=1} (E[L]/mu_i + rho0_i e^(-mu_i t))(1 - e^(-mu_i t))
            + 1{alpha<=1} delta Var[L]/(2 mu_i) (1 - e^(-2 mu_i t)).
    Off-diagonal (i != k):
      (1{alpha>=1} E[L] + 1{alpha<=1} delta Var[L]) / (mu_i + mu_k)
      * (1 - e^(-(mu_i+mu_k) t)).
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    rho0 = np.broadcast_to(np.asarray(rho0, dtype=float), (queues.d,))
    fast = 1.0 if alpha >= 1 else 0.0
    slow = 1.0 if alpha <= 1 else 0.0
    d = queues.d
    C = np.zeros((d, d))
    for i, mi in enumerate(queues.mu):
        grow_i = -math.expm1(-mi * t)
        C[i, i] = fast * (env.mean / mi + rho0[i] * math.exp(-mi * t)) * grow_i
        C[i, i] += slow * delta * env.variance / (2 * mi) * (-math.expm1(-2 * mi * t))
        for k in range(i + 1, d):
            mk = queues.mu[k]
            level = (fast * env.mean + slow * delta * env.variance) / (mi + mk)
            C[i, k] = C[k, i] = level * (-math.expm1(-(mi + mk) * t))
    return LimitCovariance(matrix=C, regime=_regime_label(alpha))


def stationary_correlation(
    env: EnvSpec, mu_i: float, mu_k: float, delta: float, alpha: float
) -> tuple[float, float]:
    """Limiting stationary correlation of two coupled queues and its constant.

    corr = c(alpha) sqrt(mu_i mu_k)/(mu_i + mu_k) with
    c = (E[L] 1{a>=1} + delta Var[L] 1{a<=1}) / (E[L] 1{a>=1} + delta Var[L]/2 1{a<=1}),
    hence 1 in the fast regime and 2 in the slow regime.
    """
    fast = 1.0 if alpha >= 1 else 0.0
    slow = 1.0 if alpha <= 1 else 0.0
    num = fast * env.mean + slow * delta * env.variance
    den = fast * env.mean + slow * delta * env.variance / 2.0
    if den == 0.0:
        raise DomainError(
            "degenerate limit: no fluctuation term survives (e.g. deterministic "
            "rate in the slow regime), correlation undefined"
        )
    c = num / den
    return c * math.sqrt(mu_i * mu_k) / (mu_i + mu_k), c


def stationary_covariance(env: EnvSpec, mu_i: float, mu_k: float, scaling: ScalingRegime) -> float:
    """Exact stationary covariance of two distinct coupled queues at slot boundaries.

    N E[L]/(mu_i + mu_k) + N^2 Var[L] r_i r_k / (1 - p_i p_k) with
    p = exp(-mu delta_N) and r = (1 - p)/mu.  The first term counts shared
    arrivals alive in both queues, the second the common rate of each slot.
    For mu_i = mu_k this is not the variance, whose Poisson term is N E[L]/mu.
    """
    N, h = scaling.N, scaling.delta_n
    si, sk = SurvivalConstants(mu_i, h), SurvivalConstants(mu_k, h)
    shared = -math.expm1(-(mu_i + mu_k) * h)
    return N * env.mean / (mu_i + mu_k) + N**2 * env.variance * si.r * sk.r / shared
