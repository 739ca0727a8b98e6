"""Large-deviations decay rates and rare-event importance sampling.

Tail probabilities P(M^(N)(t)/N >= a), a above the fluid value
rho(t) = E[L](1 - e^(-mu t))/mu, decay at a regime-dependent speed (at or
below rho(t) the event is not rare: building a ``RateQuery`` refuses such a
level, each a_i of a rectangle against its own fluid value):

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
(Cramer) rate.  The integrated log-MGF I(x) = int_0^t log M(x e^(-mu s)) ds
is evaluated two ways, direct in s and via u = x e^(-mu s), by one numpy
rule (``_quad``): 10-point Gauss-Legendre panels, each bisected until its
halves agree with it, every open panel's nodes evaluated in one array call
of ``log_mgf``.  The dual-route gap is reported as a criterion.  The same
substitution gives the derivative in closed form, for every family,
dI/dx = (log M(x) - log M(x e^(-mu t)))/(mu x), so the supremum (strict
concavity) is the root of theta -> a - x'(theta) dI/dx, found by bisection
inside a bracket with no quadrature per step; the stationarity residual is
reported.  Multivariate rectangle queries use the limiting log-MGFs of the
coupled model, integrated by the same rule, and a projected quasi-Newton
search.

The importance-sampling estimator ``estimate_log_tail`` targets
P(M^(N)(t) >= N a), m = ceil(N a), under the simulator's RNG contract
(``sim.replication_blocks``): block b draws its rows' rate layers on the
simulator's cell table, each cell's slot sum S_c tilted by its own eta_c, from
stream b alone.  Given the rate layer the count is Poisson(N kappa), with
kappa = sum_c w_c S_c/n_c (w_c the cell's survival weight, n_c its slot
count), so no count is drawn: one log likelihood ratio serves every regime,
sum_c (n_c log M(eta_c) - eta_c S_c) + log P(Poisson(N kappa) >= m), the
second term exact and in log space.  Only the tilts differ: fast (eta = 0),
slow (eta_c = theta* w_c / (n_c r), r = (1 - e^(-mu Delta_N))/mu) and
intermediate (eta_c = N (w_c/n_c)(e^(theta*/Delta) - 1)).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy

from .env import EnvSpec, ScalingRegime
from .errors import ConvergenceError, DomainError, RegimeError, ResourceError
from .sim import _MAX_EXACT_INT, _check_replications, block_rows, cell_table, replication_blocks

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

# A panel closes when its halves' sum agrees with its own estimate to
# _QUAD_RTOL relative, or to _QUAD_ATOL absolute: the floor for integrands
# whose rounding is absolute, such as a discrete log M(u)/u at small u,
# where no relative agreement is reachable.
_QUAD_RTOL = 1e-13
_QUAD_ATOL = 1e-15
# Panels a quadrature may evaluate before it raises ConvergenceError.
_QUAD_PANELS = 4096
# Tilted cell draws (cells x drawn rows) per importance-sampling run above
# which estimate_log_tail refuses: 33x the largest any shipped config,
# benchmark workload or test draws (8,038,400: the ldp_slow shape at N = 1600,
# 200 cells x 40,192 rows).
_IS_DRAW_BUDGET = 2**28

SPEED_N = "N"
SPEED_SLOW = "N^alpha/Delta"
SPEED_INTERMEDIATE = "N/Delta"


@dataclass(frozen=True)
class RateQuery:
    """Tail query: P(queue length / N >= a) at time t under (delta, alpha) scaling.

    mu and a are scalars for the univariate operations; rate_multivariate
    accepts tuples (rectangle upper sets prod_i [a_i, inf)).  A level at or
    below the fluid value (rho(t), or each queue's own in a rectangle) is not
    a rare event: building the query raises DomainError, and a and mu of
    different lengths raise ValueError."""

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
        mu, a = np.atleast_1d(self.mu).tolist(), np.atleast_1d(self.a).tolist()
        if len(a) != len(mu):
            raise ValueError("a and mu must have matching length")
        fluid = [self._fluid(m) for m in mu]
        if any(x <= f for x, f in zip(a, fluid)):
            rho = fluid if np.ndim(self.a) else fluid[0]
            raise DomainError(f"a = {self.a} must exceed the fluid value rho(t) = {rho}")

    def _fluid(self, mu: float) -> float:
        return self.env.mean * (-math.expm1(-mu * self.t)) / mu

    @property
    def rho_t(self) -> float:
        """Fluid value at t from an empty start (univariate)."""
        return self._fluid(self._scalar_mu)

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


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """10-point Gauss-Legendre nodes and weights on [-1, 1], computed (and
    numpy.polynomial loaded) on first use."""
    return np.polynomial.legendre.leggauss(10)


def _quad(f, lo: float, hi: float) -> tuple[float, float]:
    """(int_lo^hi f, error estimate) by adaptive 10-point Gauss-Legendre.

    f maps an array of points to an array of values.  Each round bisects
    every open panel and evaluates all the halves in one call of f; a panel
    closes when its halves' sum agrees with its own estimate (``_QUAD_RTOL``,
    ``_QUAD_ATOL``), and the estimate sums the closed panels' halves.  The
    error estimate sums the closed panels' disagreements, a bound on the
    coarser of the two estimates."""

    nodes, weights = _gauss_legendre()

    def rule(a, b):  # the Gauss-Legendre estimate on each panel [a_i, b_i]
        half = 0.5 * (b - a)
        x = (a + half)[:, None] + half[:, None] * nodes
        return half * (f(x.ravel()).reshape(x.shape) @ weights)

    a, b = np.array([lo], dtype=float), np.array([hi], dtype=float)
    whole = rule(a, b)
    parts, errs, panels = [], [], 1
    while a.size:
        panels += 2 * a.size
        if panels > _QUAD_PANELS:
            raise ConvergenceError(f"quadrature unresolved after {_QUAD_PANELS} panels")
        m = 0.5 * (a + b)
        halves = rule(np.concatenate([a, m]), np.concatenate([m, b]))
        left, right = halves[: a.size], halves[a.size :]
        pair = left + right
        gap = np.abs(whole - pair)
        done = gap <= np.maximum(_QUAD_RTOL * np.abs(pair), _QUAD_ATOL)
        parts.append(pair[done])
        errs.append(gap[done])
        more = ~done
        a, b = np.concatenate([a[more], m[more]]), np.concatenate([m[more], b[more]])
        whole = np.concatenate([left[more], right[more]])
    return math.fsum(np.concatenate(parts)), float(np.concatenate(errs).sum())


def integrated_log_mgf(
    env: EnvSpec, mu: float, t: float, theta: float, route: str = "time"
) -> float:
    """int_0^t log M(theta e^(-mu s)) ds by adaptive quadrature (``_quad``).

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
        return _quad(lambda s: env.log_mgf(theta * np.exp(-mu * s)), 0.0, t)
    if route == "substitution":
        val, err = _quad(lambda u: env.log_mgf(u) / u, theta * math.exp(-mu * t), theta)
        return val / mu, err / mu
    raise ValueError(f"unknown route {route!r}")


def _ilm_prime(env, mu, t, x) -> float:
    """d/dx int_0^t log M(x e^(-mu s)) ds = (log M(x) - log M(x e^(-mu t)))/(mu x), x != 0.

    Exact for every family: with u = x e^(-mu s) the integral is
    (1/mu) int_{x e^(-mu t)}^x log M(u)/u du."""
    top, bottom = env.log_mgf(np.array([x, x * math.exp(-mu * t)]))
    return float(top - bottom) / (mu * x)


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
    supremum sits at the boundary theta -> 0 (rate 0).  Inside the bracket,
    bisection runs until no float lies strictly between its ends (about 55
    steps at microseconds each): near the MGF domain boundary the derivative
    is steep, and an absolute tolerance would leave a stationarity residual
    that grows as theta_max shrinks."""
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
    iterations = 0
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if deriv(mid) > 0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
        iterations += 1
    return mid, iterations


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

    def deriv(theta):
        x, x_prime = legendre_argument(regime, query.delta, theta)
        return a - x_prime * _ilm_prime(env, mu, t, x)

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
    """Slow regime with u(t) < a: Poisson tail at mean u(t), speed N.  An
    unbounded family has u(t) = inf, so its queries belong to ``rate_slow``."""
    u, a = query.u_t, query._scalar_a
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
    if query.alpha > 1:
        return "fast"
    if query.alpha == 1:
        return "intermediate"
    return "slow_unbounded" if query.u_t >= query._scalar_a else "slow_bounded"


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
    ``theta_star`` is the optimizer of the query's rate function.  Each
    replication's weight holds the exact conditional tail given its rate
    layer, so it is finite unless that layer is all zero (kappa = 0); the
    estimate is -inf only when every replication's is.  A count level N a
    past 2^53, which float64 cannot index, raises ResourceError, as does a run
    that would draw more than ``_IS_DRAW_BUDGET`` tilted cell rates.
    """
    logw = _log_weights(query, N, replications, seed, theta_star, block_tol)
    finite = logw[np.isfinite(logw)]
    if finite.size == 0:
        return -math.inf, math.inf
    log_mean = float(scipy.special.logsumexp(finite)) - math.log(replications)
    log_sq = float(scipy.special.logsumexp(2.0 * finite)) - math.log(replications)
    # Var(W)/R / P^2, with E[W^2] and E[W]^2 kept in log space
    rel_var = math.expm1(min(log_sq - 2.0 * log_mean, 700.0))
    return log_mean, math.sqrt(max(rel_var, 0.0) / replications)


def _log_weights(query, N, replications, seed, theta_star, block_tol) -> np.ndarray:
    """(replications,) log IS weights that ``estimate_log_tail`` reduces.

    Weight r is log_norm - S_r . eta + log P(Poisson(N kappa_r) >= m): the
    rate layer's likelihood ratio times the count's tail given that layer.
    It is -inf only where kappa_r = 0."""
    env, mu, t, a, delta = query.env, query._scalar_mu, query.t, query._scalar_a, query.delta
    if not N * a <= _MAX_EXACT_INT:  # also refuses inf
        raise ResourceError(
            f"count level N a = {N * a:.3e} exceeds 2^53, the most that float64 can index"
        )
    regime = classify_regime(query)
    h = ScalingRegime(N, query.alpha, delta).delta_n
    table = cell_table((mu,), h, (t,), block_tol)
    counts = table.slots
    wk = table.weights[0][:, 0] / counts  # per-draw weight within each cell
    m = math.ceil(N * a - 1e-9)

    if regime == "fast":
        etas = np.zeros_like(wk)
    elif regime == "slow_unbounded":
        etas = theta_star * wk / (-math.expm1(-mu * h) / mu)
    elif regime == "intermediate":
        etas = N * wk * math.expm1(theta_star / delta)
    else:
        raise RegimeError(
            "no importance sampler for the bounded slow branch; "
            "rate_slow_bounded gives the closed-form rate"
        )
    log_norm = env.twisted_log_norm(etas, counts)

    _check_replications(replications)
    rows = block_rows(counts.size)
    # a constant rate layer is the same in every replication: draw one row per
    # block and repeat its weight (a constant rate never reaches slow_unbounded,
    # which needs kappa per row)
    rate_rows = 1 if env.variance == 0 else rows
    draws = counts.size * rate_rows * -(-replications // rows)
    if draws > _IS_DRAW_BUDGET:
        raise ResourceError(
            f"{draws:.3e} tilted cell draws ({counts.size} cells x drawn rows) at N = {N} "
            f"exceed the budget {_IS_DRAW_BUDGET:.3e}; shrink the replications, N or t"
        )
    _, streams = replication_blocks(seed, replications, counts.size)
    kappa, log_ratio = [], []
    for rng in streams:
        s = env.sample_block_sums_twisted(etas, rng, counts, rate_rows)
        kappa.append(s @ wk)
        log_ratio.append(log_norm - s @ etas)
    # one tail call for the whole run: its cost is mostly per call, not per row
    logw = np.concatenate(log_ratio) + _log_poisson_tail(m, N * np.concatenate(kappa))
    return np.repeat(logw, rows // rate_rows)[:replications]


def _log_poisson_tail(m: int, lam: np.ndarray) -> np.ndarray:
    """log P(Poisson(lam) >= m), elementwise; finite wherever lam > 0.

    The tail is the regularized gamma P(m, lam), ``scipy.special.pdtrc(m - 1,
    lam)``, whose log underflows to -inf below about -709.  There lam < m, and
    the tail is log pmf(m) + log sum_{j>=0} prod_{i<=j} lam/(m+i), a series
    whose term ratios lam/(m+j+1) < 1 fall with j; it stops once the geometric
    bound on its remainder is below e^-39 of the partial sum.  log pmf(m) is
    m log lam - log m! - lam, as ``xlogy`` and ``gammaln`` give it."""
    if m <= 0:  # a count is never below 0
        return np.zeros_like(lam)
    with np.errstate(divide="ignore"):  # a zero rate layer has tail 0
        out = np.log(scipy.special.pdtrc(m - 1, lam))
    deep = np.isneginf(out) & (lam > 0)
    if deep.any():
        lam = lam[deep]
        term = total = np.zeros_like(lam)  # log of the current term and of the partial sum
        j = 0
        while np.any(term + np.log(lam / (m + j + 1 - lam)) > total - 39.0):
            j += 1
            term = term + np.log(lam / (m + j))
            total = np.logaddexp(total, term)
        log_pmf = scipy.special.xlogy(m, lam) - scipy.special.gammaln(m + 1) - lam
        out[deep] = log_pmf + total
    return out


# ---------------------------------------------------------------------------
# Multivariate (coupled queues, rectangular sets).


def _mv_limit_log_mgf(query: RateQuery):
    """Limiting log-MGF Gamma(theta) and the per-theta domain guard."""
    env, t, delta = query.env, query.t, query.delta
    mu = np.asarray(query.mu, dtype=float)

    if query.alpha > 1:

        def gamma(theta):
            def integrand(s):
                decay = np.exp(-np.multiply.outer(s, mu))
                return np.prod(decay * np.expm1(theta) + 1.0, axis=-1)

            return env.mean * (_quad(integrand, 0.0, t)[0] - t)

        def in_domain(theta):
            return True

        return gamma, in_domain, "fast", SPEED_N

    if query.alpha == 1:

        def gamma(theta):
            scaled = np.expm1(theta / delta)

            def integrand(s):
                decay = np.exp(-np.multiply.outer(s, mu))
                return env.log_mgf(delta * (np.prod(decay * scaled + 1.0, axis=-1) - 1.0))

            return _quad(integrand, 0.0, t)[0]

        def in_domain(theta):
            worst = delta * (np.prod(np.expm1(theta / delta) + 1.0) - 1.0)
            return worst < env.theta_max - 1e-11

        return gamma, in_domain, "intermediate", SPEED_INTERMEDIATE

    def gamma(theta):
        def integrand(s):
            return env.log_mgf(np.exp(-np.multiply.outer(s, mu)) @ theta)

        return _quad(integrand, 0.0, t)[0]

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
    a = np.atleast_1d(np.asarray(query.a, dtype=float))
    gamma, in_domain, regime, speed = _mv_limit_log_mgf(query)
    d = a.size
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
    res = scipy.optimize.minimize(
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
