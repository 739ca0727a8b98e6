"""Large-deviations decay rates and rare-event importance sampling.

Tail probabilities P(M^(N)(t)/N >= a), a above the fluid value
rho(t) = E[L](1 - e^(-mu t))/mu, decay at a regime-dependent speed:

* fast (alpha > 1): speed N, Poisson (Cramer) rate
  a log(rho(t)/a) - rho(t) + a;
* slow (alpha < 1) with the rate-reachable ceiling u(t) = y(1-e^(-mu t))/mu
  (y the essential supremum) at or above a: speed N^alpha/Delta, rate
  -sup_{theta>0} (theta a - int_0^t log M(theta e^(-mu s)) ds);
* slow with u(t) < a: speed N, Poisson rate at mean u(t);
* intermediate (alpha = 1): speed N/Delta, the same Legendre form with
  argument Delta (e^(theta/Delta) - 1) e^(-mu s).

The slow and intermediate rates are one Legendre transform that differs only
in its argument map, x(theta) = theta or Delta (e^(theta/Delta) - 1)
(``legendre_argument``); the fast and bounded-slow rates are one Poisson
(Cramer) rate.  The integrated log-MGF is evaluated by adaptive quadrature two
ways (direct in s, and via u = x e^(-mu s)), cross-checked in tests.  The
supremum is located by bracketed root finding on the derivative (strict
concavity), with the stationarity residual reported.  Multivariate rectangle
queries use the limiting log-MGFs of the coupled model and a projected
quasi-Newton search.

The importance-sampling estimator ``estimate_log_tail`` targets
P(M^(N)(t) >= N a), m = ceil(N a), under the simulator's RNG contract
(``sim.replication_blocks``): block b draws its rows' rate layers on the
simulator's cell table, each cell's slot sum S_c tilted by its own eta_c, then
their counts, from stream b alone.  With kappa = sum_c w_c S_c/n_c (w_c the
cell's survival weight, n_c its slot count), one log likelihood ratio serves
every regime: sum_c (n_c log M(eta_c) - eta_c S_c), plus either
N kappa (e^tau - 1) - tau x on {x >= m} for a count x tilted by tau, or the
exact log P(Poisson(N kappa) >= m) in the slow regime.  Per regime: fast (eta = 0,
tau = theta*); slow (eta_c = theta* w_c / (n_c r), r = (1 - e^(-mu Delta_N))/mu,
no count drawn); intermediate (eta_c = N (w_c/n_c)(e^(theta*/Delta) - 1),
tau = theta*/Delta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq, minimize
from scipy.special import logsumexp
from scipy.stats import poisson

from .env import EnvSpec, ScalingRegime
from .errors import (
    ConvergenceError,
    DegenerateQuery,
    DomainError,
    RegimeError,
    UnsupportedFamily,
)
from .sim import cell_table, replication_blocks

__all__ = [
    "RateQuery",
    "RateResult",
    "integrated_log_mgf",
    "legendre_argument",
    "rate_fast",
    "rate_slow",
    "rate_slow_bounded",
    "rate_intermediate",
    "classify_regime",
    "estimate_log_tail",
    "rate_multivariate",
    "speed_value",
]

_QUAD_KW = dict(epsabs=1e-12, epsrel=1e-12, limit=400)

SPEED_N = "N"
SPEED_SLOW = "N^alpha/Delta"
SPEED_INTERMEDIATE = "N/Delta"


@dataclass(frozen=True)
class RateQuery:
    """Tail query: P(queue length / N >= a) at time t under (delta, alpha) scaling.

    mu and a are scalars for the univariate operations; rate_multivariate
    accepts tuples (rectangle upper sets prod_i [a_i, inf))."""

    env: EnvSpec
    mu: float | tuple[float, ...]
    delta: float
    alpha: float
    t: float
    a: float | tuple[float, ...]

    def __post_init__(self):
        if self.t <= 0:
            raise ValueError("t must be positive")
        if self.delta <= 0:
            raise ValueError("delta must be positive")

    @property
    def rho_t(self) -> float:
        """Fluid value at t from an empty start (univariate)."""
        return self.env.mean * (-math.expm1(-self._scalar_mu * self.t)) / self._scalar_mu

    @property
    def u_t(self) -> float:
        """Reachable rate ceiling y (1 - e^(-mu t))/mu, +inf for unbounded env."""
        y = self.env.essential_sup()
        return y * (-math.expm1(-self._scalar_mu * self.t)) / self._scalar_mu

    @property
    def _scalar_mu(self) -> float:
        if isinstance(self.mu, (tuple, list)):
            raise ValueError("this operation requires a scalar service rate")
        return float(self.mu)

    @property
    def _scalar_a(self) -> float:
        if isinstance(self.a, (tuple, list)):
            raise ValueError("this operation requires a scalar tail level")
        return float(self.a)


@dataclass
class RateResult:
    """Decay-rate value (<= 0), optimizer, regime, speed, and diagnostics."""

    rate: float
    theta_star: float | np.ndarray
    regime: str
    speed: str
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        theta = self.theta_star
        if isinstance(theta, np.ndarray):
            theta = theta.tolist()
        return {
            "schema": "coxq-rate/1",
            "rate": self.rate,
            "theta_star": theta,
            "regime": self.regime,
            "speed": self.speed,
            "diagnostics": {k: float(v) if np.isscalar(v) else v for k, v in self.diagnostics.items()},
        }


def speed_value(speed: str, scaling: ScalingRegime) -> float:
    """The normalizing sequence at finite N: log P ~ speed_value * rate."""
    if speed == SPEED_N:
        return float(scaling.N)
    if speed == SPEED_SLOW:
        return scaling.N**scaling.alpha / scaling.delta
    if speed == SPEED_INTERMEDIATE:
        return scaling.N / scaling.delta
    raise ValueError(f"unknown speed {speed!r}")


# ---------------------------------------------------------------------------
# Integrated log-MGF.


def integrated_log_mgf(
    env: EnvSpec, mu: float, t: float, theta: float, route: str = "time"
) -> float:
    """int_0^t log M(theta e^(-mu s)) ds by adaptive quadrature.

    route="time" integrates in s directly; route="substitution" uses
    u = theta e^(-mu s), giving (1/mu) int_{theta e^(-mu t)}^{theta} log M(u)/u du.
    """
    val, _ = _ilm_with_err(env, mu, t, theta, route)
    return val


def _ilm_with_err(env, mu, t, theta, route="time"):
    if theta == 0.0:
        return 0.0, 0.0
    if theta > 0:
        env.log_mgf(theta)  # probe: raises DomainError outside the domain
    if route == "time":
        return quad(lambda s: env.log_mgf(theta * math.exp(-mu * s)), 0.0, t, **_QUAD_KW)
    if route == "substitution":
        val, err = quad(
            lambda u: env.log_mgf(u) / u, theta * math.exp(-mu * t), theta, **_QUAD_KW
        )
        return val / mu, err / mu
    raise ValueError(f"unknown route {route!r}")


# ---------------------------------------------------------------------------
# Univariate rates.


def _cramer(m: float, a: float, regime: str, **diagnostics) -> RateResult:
    """Poisson (Cramer) rate a log(m/a) - m + a of mean m at level a, speed N."""
    return RateResult(
        rate=a * math.log(m / a) - m + a,
        theta_star=math.log(a / m),
        regime=regime,
        speed=SPEED_N,
        diagnostics={"closed_form": 1.0, **diagnostics},
    )


def rate_fast(rho_t: float, a: float) -> RateResult:
    """Fast regime (alpha > 1): Poisson tail at mean rho(t), speed N."""
    if not 0 < rho_t < a:
        raise DomainError(f"need a > rho(t) > 0, got a={a}, rho(t)={rho_t}")
    return _cramer(rho_t, a, "fast")


def _bracketed_argmax(deriv, hi_domain: float):
    """Argmax of a strictly concave objective with derivative ``deriv`` on (0, hi).

    Returns (theta_star, iterations).  A non-positive derivative at 0+ means the
    supremum sits at the boundary theta -> 0 (rate 0)."""
    lo = 1e-12
    if deriv(lo) <= 0:
        return lo, 0
    if math.isfinite(hi_domain):
        hi = None
        pad = 1e-6
        while pad >= 1e-11:
            cand = hi_domain * (1.0 - pad)
            if deriv(cand) < 0:
                hi = cand
                break
            pad *= 0.1
        if hi is None:
            raise ConvergenceError(
                "no interior stationary point resolvable before the MGF domain "
                "boundary; the tail level is too deep for this family"
            )
    else:
        hi = 1.0
        for _ in range(200):
            if deriv(hi) < 0:
                break
            hi *= 2.0
        else:
            raise ConvergenceError("derivative never changes sign; supremum diverges")
    theta, info = brentq(deriv, lo, hi, xtol=1e-13, rtol=8.9e-16, maxiter=200, full_output=True)
    return theta, info.iterations


def legendre_argument(regime: str, delta: float, theta: float) -> tuple[float, float]:
    """(x, dx/dtheta): the Legendre rate at theta integrates log M(x e^(-mu s)).

    x = theta in the slow regime and Delta (e^(theta/Delta) - 1) in the
    intermediate one."""
    if regime == "intermediate":
        return delta * math.expm1(theta / delta), math.exp(theta / delta)
    return theta, 1.0


def _legendre(query: RateQuery, hi_domain: float, regime: str, speed: str) -> RateResult:
    """-sup_{0<theta<hi} (theta a - int_0^t log M(x(theta) e^(-mu s)) ds), x by regime."""
    mu, a, t, env = query._scalar_mu, query._scalar_a, query.t, query.env
    rho = query.rho_t
    if a <= rho:
        raise DomainError(f"need a > rho(t) = {rho}")

    def deriv(theta):
        x, x_prime = legendre_argument(regime, query.delta, theta)

        def integrand(s):
            e = math.exp(-mu * s)
            return env.log_mgf_prime(x * e) * x_prime * e

        return a - quad(integrand, 0.0, t, **_QUAD_KW)[0]

    theta, iters = _bracketed_argmax(deriv, hi_domain)
    val, quad_err = _ilm_with_err(env, mu, t, legendre_argument(regime, query.delta, theta)[0])
    residual = abs(deriv(theta))
    if residual > 1e-8:
        raise ConvergenceError(f"stationarity residual {residual:.2e} > 1e-8")
    return RateResult(
        rate=min(0.0, -(theta * a - val)),
        theta_star=theta,
        regime=regime,
        speed=speed,
        diagnostics={
            "stationarity_residual": residual,
            "iterations": iters,
            "quad_abserr": quad_err,
        },
    )


def rate_slow(query: RateQuery) -> RateResult:
    """Slow regime (alpha < 1), rate-reachable branch: speed N^alpha/Delta.

    rate = -sup_{theta>0} (theta a - int_0^t log M(theta e^(-mu s)) ds).
    """
    if query.u_t < query._scalar_a:
        raise RegimeError(
            f"u(t) = {query.u_t} < a = {query._scalar_a}: the rate cannot reach a; "
            "use rate_slow_bounded"
        )
    return _legendre(query, query.env.theta_max, "slow_unbounded", SPEED_SLOW)


def rate_slow_bounded(query: RateQuery) -> RateResult:
    """Slow regime with u(t) < a: Poisson tail at mean u(t), speed N."""
    rho, a = query.rho_t, query._scalar_a
    if a <= rho:
        raise DomainError(f"need a > rho(t) = {rho}")
    u = query.u_t
    if math.isinf(u):
        raise UnsupportedFamily(
            "rate_slow_bounded needs a finite essential supremum "
            "(Deterministic or DiscreteFinite rate)"
        )
    if u >= a:
        raise RegimeError(f"u(t) = {u} >= a = {a}: use rate_slow")
    return _cramer(u, a, "slow_bounded", u_t=u)


def rate_intermediate(query: RateQuery) -> RateResult:
    """Intermediate regime (alpha = 1): speed N/Delta.

    rate = -sup_{theta>0}(theta a - int_0^t log M(Delta (e^(theta/Delta)-1) e^(-mu s)) ds).
    """
    # Delta (e^(theta/Delta) - 1) < theta_max bounds the search box (inf stays inf).
    hi_domain = query.delta * math.log1p(query.env.theta_max / query.delta)
    return _legendre(query, hi_domain, "intermediate", SPEED_INTERMEDIATE)


def classify_regime(query: RateQuery) -> str:
    """fast / intermediate / slow_unbounded / slow_bounded per (alpha, u(t), a)."""
    a = query._scalar_a
    if a <= query.rho_t:
        raise DomainError(f"need a > rho(t) = {query.rho_t}")
    if query.alpha > 1:
        return "fast"
    if query.alpha == 1:
        return "intermediate"
    return "slow_unbounded" if query.u_t >= a else "slow_bounded"


# ---------------------------------------------------------------------------
# Importance sampling.


def estimate_log_tail(
    query: RateQuery,
    N: int,
    replications: int,
    seed: int,
    theta_star: float,
    block_tol: float,
) -> tuple[float, float]:
    """log P(M^(N)(t) >= N a) from an empty queue, and its relative SE, by IS.

    The rate layer lives on ``sim.cell_table`` with d = 1 and grid (t,);
    ``theta_star`` is the optimizer of the query's rate function.  The
    estimate is -inf when no replication hits the event.
    """
    logw = _log_weights(query, N, replications, seed, theta_star, block_tol)
    finite = logw[np.isfinite(logw)]
    if finite.size == 0:
        return -math.inf, math.inf
    log_mean = float(logsumexp(finite)) - math.log(replications)
    log_sq = float(logsumexp(2.0 * finite)) - math.log(replications)
    # Var(W)/R / P^2, with E[W^2] and E[W]^2 kept in log space
    rel_var = math.expm1(min(log_sq - 2.0 * log_mean, 700.0))
    return log_mean, math.sqrt(max(rel_var, 0.0) / replications)


def _log_weights(query, N, replications, seed, theta_star, block_tol) -> np.ndarray:
    """(replications,) log IS weights, -inf off the event, that ``estimate_log_tail`` reduces."""
    env, mu, t, a, delta = query.env, query._scalar_mu, query.t, query._scalar_a, query.delta
    if a <= query.rho_t:
        raise DegenerateQuery(
            f"a = {a} <= rho(t) = {query.rho_t}: not a rare event, use plain Monte Carlo"
        )
    regime = classify_regime(query)
    h = ScalingRegime(N, query.alpha, delta).delta_n
    table = cell_table((mu,), h, (t,), block_tol)
    counts = table.slots
    wk = table.weights[0][:, 0] / counts  # per-draw weight within each cell
    m = math.ceil(N * a - 1e-9)

    tau = None  # the count tilt; the slow regime integrates the count out
    if regime == "fast":
        etas, tau = np.zeros_like(wk), theta_star
    elif regime == "slow_unbounded":
        etas = theta_star * wk / (-math.expm1(-mu * h) / mu)
    elif regime == "intermediate":
        etas, tau = N * wk * math.expm1(theta_star / delta), theta_star / delta
    else:
        raise RegimeError(
            "no importance sampler for the bounded slow branch; "
            "rate_slow_bounded gives the closed-form rate"
        )
    log_norm = env.twisted_log_norm(etas, counts)

    rows, streams = replication_blocks(seed, replications, counts.size)
    # a constant rate layer is the same in every replication: draw one row
    # (a constant rate never reaches slow_unbounded, which needs kappa per row)
    rate_rows = 1 if env.variance == 0 else rows
    kappa, logw = [], []
    for rng in streams:
        s = env.sample_block_sums_twisted(etas, rng, counts, rate_rows)
        k = np.broadcast_to(s @ wk, rows)
        lw = np.broadcast_to(log_norm - s @ etas, rows)
        if tau is not None:
            x = rng.poisson(N * k * math.exp(tau))
            lw = np.where(x >= m, lw + N * k * math.expm1(tau) - tau * x, -np.inf)
        kappa.append(k)
        logw.append(lw)
    logw = np.concatenate(logw)[:replications]
    if tau is None:
        logw += poisson.logsf(m - 1, N * np.concatenate(kappa)[:replications])
    return logw


# ---------------------------------------------------------------------------
# Multivariate (coupled queues, rectangular sets).


def _mv_limit_log_mgf(query: RateQuery):
    """Limiting log-MGF Gamma(theta) and the per-theta domain guard."""
    env, t, delta = query.env, query.t, query.delta
    mu = np.asarray(query.mu, dtype=float)

    if query.alpha > 1:

        def gamma(theta):
            def integrand(s):
                return np.prod(np.exp(-mu * s) * np.expm1(theta) + 1.0)

            val, _ = quad(integrand, 0.0, t, **_QUAD_KW)
            return env.mean * (val - t)

        def in_domain(theta):
            return True

        return gamma, in_domain, "fast", SPEED_N

    if query.alpha == 1:

        def gamma(theta):
            scaled = np.expm1(theta / delta)

            def integrand(s):
                return env.log_mgf(delta * (np.prod(np.exp(-mu * s) * scaled + 1.0) - 1.0))

            val, _ = quad(integrand, 0.0, t, **_QUAD_KW)
            return val

        def in_domain(theta):
            worst = delta * (np.prod(np.expm1(theta / delta) + 1.0) - 1.0)
            return worst < env.theta_max - 1e-11

        return gamma, in_domain, "intermediate", SPEED_INTERMEDIATE

    def gamma(theta):
        def integrand(s):
            return env.log_mgf(float(theta @ np.exp(-mu * s)))

        val, _ = quad(integrand, 0.0, t, **_QUAD_KW)
        return val

    def in_domain(theta):
        return float(theta.sum()) < env.theta_max - 1e-11

    return gamma, in_domain, "slow_unbounded", SPEED_SLOW


def rate_multivariate(query: RateQuery) -> RateResult:
    """Decay rate of the rectangle prod_i [a_i, inf) for the coupled model.

    The objective sum_i theta_i a_i - Gamma(theta) is increasing in each a_i,
    so the outer infimum over the rectangle is attained at the corner a; the
    inner supremum runs over theta >= 0 (projected quasi-Newton, numeric
    gradients over the quadrature).
    """
    mu = np.asarray(query.mu, dtype=float)
    a = np.atleast_1d(np.asarray(query.a, dtype=float))
    if mu.ndim == 0:
        mu = mu[None]
    if a.shape != mu.shape:
        raise ValueError("a and mu must have matching length")
    fluid = query.env.mean * (-np.expm1(-mu * query.t)) / mu
    if np.any(a <= fluid):
        raise DomainError(f"each a_i must exceed the fluid value {fluid.tolist()}")

    gamma, in_domain, regime, speed = _mv_limit_log_mgf(query)
    d = mu.size
    penalty = 1e50

    def neg_objective(theta):
        theta = np.asarray(theta)
        if np.any(theta < 0) or not in_domain(theta):
            return penalty * (1.0 + float(np.abs(theta).sum()))
        return -(float(theta @ a) - gamma(theta))

    x0 = np.full(d, 1e-3)
    bounds = [(0.0, None)] * d
    if math.isfinite(query.env.theta_max):
        cap = None
        if regime == "slow_unbounded":
            cap = query.env.theta_max * (1.0 - 1e-9)
        elif regime == "intermediate":
            cap = query.delta * math.log1p(query.env.theta_max / query.delta) * (1.0 - 1e-9)
        bounds = [(0.0, cap)] * d
    res = minimize(
        neg_objective,
        x0,
        method="L-BFGS-B",
        bounds=bounds,
        options=dict(maxiter=500, maxfun=20_000, ftol=1e-15, gtol=1e-9, eps=1e-7),
    )
    theta = np.maximum(res.x, 0.0)
    # projected-gradient residual by central differences
    grad = np.empty(d)
    step = 1e-5
    for i in range(d):
        up = theta.copy()
        dn = theta.copy()
        up[i] += step
        dn[i] = max(dn[i] - step, 0.0)
        width = up[i] - dn[i]
        grad[i] = (neg_objective(up) - neg_objective(dn)) / width
    projected = np.where((theta <= 1e-12) & (grad > 0), 0.0, grad)
    gnorm = float(np.abs(projected).max())
    if gnorm > 1e-6:
        raise ConvergenceError(
            f"projected gradient norm {gnorm:.2e} > 1e-6 after {res.nit} iterations"
        )
    value = -neg_objective(theta)
    return RateResult(
        rate=min(0.0, -value),
        theta_star=theta,
        regime=regime,
        speed=speed,
        diagnostics={
            "iterations": res.nit,
            "projected_grad_norm": gnorm,
            "corner": a.tolist(),
        },
    )
