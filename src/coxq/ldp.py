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
rule (``special.quad``), and the dual-route gap is reported as a criterion.
The same substitution gives the derivative in closed form, for every family,
dI/dx = (log M(x) - log M(x e^(-mu t)))/(mu x), so the supremum (strict
concavity) is the root of theta -> a - x'(theta) dI/dx, found by bisection
inside a bracket with no quadrature per step; the stationarity residual is
reported.  Multivariate rectangle queries use the limiting log-MGFs of the
coupled model, integrated by the same rule, and a projected quasi-Newton
search.

The importance-sampling estimator ``estimate_log_tails`` targets
P(M^(N)(t) >= N a), m = ceil(N a), under the simulator's RNG contract
(``sim.replication_blocks``): block b draws its rows' rate layers on the
simulator's cell table, each cell's slot sum S_c tilted by its own eta_c, from
stream b alone.  Given the rate layer the count is Poisson(N kappa), with
kappa = sum_c w_c S_c/n_c (w_c the cell's survival weight, n_c its slot
count), so no count is drawn.  Every regime tilts by eta_c = c w_c/n_c, one
scalar c per run: fast c = 0, slow c = theta*/r (r = (1 - e^(-mu Delta_N))/mu)
and intermediate c = N (e^(theta*/Delta) - 1).  So sum_c eta_c S_c = c kappa,
and one log likelihood ratio serves every regime, depending on the rate layer
only through kappa: log_norm - c kappa + log P(Poisson(N kappa) >= m), with
log_norm = sum_c n_c log M(eta_c).  The run prepares its draw once
(``EnvSpec.block_sampler`` with the weights), and each block's draw returns
its rows' kappa directly, not the (rows, cells) slot sums.  The tail term is
exact (``special.log_poisson_tail``); the ``coxq.special`` docstring describes
it and the quadrature rule.

``estimate_log_tails`` runs an N grid through three stages per N: prepare
(every check and refusal, the cell table, the tilt, the streams and the
prepared draw), draw (the blocks, one ``sim.run_blocks`` call per N) and
weigh (the count's tail, the weights and their reduction).  The calling
thread prepares N_1; then N_k's ``run_blocks`` call runs, alongside its
draws, round 1's checks of every later N (``_tilt``, keeping nothing) or
round k's weighing of N_(k-1), and then the preparation of N_(k+1); N_K is
weighed last.  So a prepare-stage refusal at any N is raised before any N is
weighed, at most two N's prepared draws are alive at once, and each N's bits
are those of the grid at that one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .env import EnvSpec, ScalingRegime
from .errors import ConvergenceError, DomainError, RegimeError, ResourceError
from .sim import _MAX_EXACT_INT, cell_table, check_work, replication_blocks, run_blocks
from .special import log_poisson_tail, log_sum_exp, quad

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
    "estimate_log_tails",
    "rate_multivariate",
    "speed_value",
]

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


def integrated_log_mgf(
    env: EnvSpec, mu: float, t: float, theta: float, route: str = "time"
) -> float:
    """int_0^t log M(theta e^(-mu s)) ds by adaptive quadrature (``special.quad``).

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
        return quad(lambda s: env.log_mgf(theta * np.exp(-mu * s)), 0.0, t)
    if route == "substitution":
        val, err = quad(lambda u: env.log_mgf(u) / u, theta * math.exp(-mu * t), theta)
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

    Returns (theta_star, iterations, jump).  A non-positive derivative at 0+
    means the supremum sits at the boundary theta -> 0 (rate 0, jump 0).
    Inside the bracket, bisection runs until no float lies strictly between
    its ends (about 55 steps at microseconds each): near the MGF domain
    boundary the derivative is steep, and an absolute tolerance would leave a
    stationarity residual that grows as theta_max shrinks.  jump is the
    derivative's fall across that last bracket, one ulp of theta: the least
    residual that float resolution of theta allows."""
    lo = 1e-12
    d_lo = deriv(lo)
    if d_lo <= 0:
        return lo, 0, 0.0
    if math.isfinite(hi_domain):
        hi = None
        pad = 1e-6
        while pad >= 1e-11:
            cand = hi_domain * (1.0 - pad)
            d_hi = deriv(cand)
            if d_hi < 0:
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
            d_hi = deriv(hi)
            if d_hi < 0:
                break
            hi *= 2.0
        else:
            raise ConvergenceError("derivative never changes sign; supremum diverges")
    iterations = 0
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        d_mid = deriv(mid)
        if d_mid > 0:
            lo, d_lo = mid, d_mid
        else:
            hi, d_hi = mid, d_mid
        mid = 0.5 * (lo + hi)
        iterations += 1
    return mid, iterations, d_lo - d_hi


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

    theta, iters, jump = _bracketed_argmax(deriv, hi_domain)
    val, quad_err = _ilm_with_err(env, mu, t, legendre_argument(regime, query.delta, theta)[0])
    # theta is one end of the last bracket, so a finite derivative leaves a
    # residual within the jump across it; 1e-8 covers the boundary return
    residual = abs(deriv(theta))
    bound = max(1e-8, jump)
    if not residual <= bound:
        raise ConvergenceError(f"stationarity residual {residual:.2e} > {bound:.2e}")
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


def estimate_log_tails(
    query: RateQuery, points, replications: int, theta_star: float, block_tol: float
) -> list[tuple[float, float]]:
    """[(log P(M^(N)(t) >= N a) from an empty queue, its relative SE) for (N,
    seed) in points], by IS, with the N pipelined as the module docstring says.

    The rate layer lives on ``sim.cell_table`` with d = 1 and grid (t,);
    ``theta_star`` is the optimizer of the query's rate function.  Each
    replication's weight holds the exact conditional tail given its rate
    layer, so it is finite unless that layer is all zero (kappa = 0); an N's
    estimate is -inf only when every one of its replications' is.  A count
    level N a past 2^53, which float64 cannot index, raises ResourceError, as
    does an N whose predicted draw work passes ``sim.check_work``'s budget
    or whose count tail needs more than ``special._CF_STEPS`` continued-fraction
    steps (a rate near N a past about 3.7e11); the bounded slow branch, which
    has no sampler, raises RegimeError.  Every refusal but the continued
    fraction's is raised in its N's prepare stage, before any N is weighed;
    the continued-fraction refusal is raised when its N is weighed.  Of several
    errors the first in this serial order is raised: N_1's preparation, then
    per N_k its alongside work and its blocks in block order, then N_K's weighing.
    """
    points = list(points)
    out = []
    if not points:
        return out
    job = _prepare(query, *points[0], replications, theta_star, block_tol)
    weigh = kappas = after = None  # N_(k-1)'s weighing and draws; N_(k+1)'s _Prepared

    def alongside():  # on the calling thread, while N_k's blocks draw
        nonlocal after
        if k == 0:  # every later N's refusals, nothing kept
            for N, _ in points[1:]:
                _tilt(query, N, replications, theta_star, block_tol)
        else:
            out.append(_reduce(weigh(kappas), replications))
        if k + 1 < len(points):
            after = _prepare(query, *points[k + 1], replications, theta_star, block_tol)

    for k in range(len(points)):
        kappas_k = run_blocks(job.block, job.streams, job.entries, alongside)
        # keep N_k's weigh and kappas, not its _Prepared: two prepared draws at most
        weigh, kappas, job, after = job.weigh, kappas_k, after, None
    out.append(_reduce(weigh(kappas), replications))
    return out


def _reduce(logw: np.ndarray, replications: int) -> tuple[float, float]:
    """(log of the mean weight, its relative SE) of one N's R log weights, or of R copies of one."""
    finite = logw[np.isfinite(logw)]
    if finite.size == 0:
        return -math.inf, math.inf
    if logw.size == 1:  # log_sum_exp of R copies of x is (log1p(0) + log R) + x
        return float(np.log(np.int64(replications)) + finite[0]) - math.log(replications), 0.0
    log_mean = float(log_sum_exp(finite)) - math.log(replications)
    # Var(W)/P^2 = R sum w^2/(sum w)^2 - 1 with w = W/max W in (0, 1]: equal
    # weights give exactly 0
    w = np.exp(finite - finite.max())
    # np.square(w).sum(), not w @ w: BLAS splits a dot product across its threads,
    # so its bits would depend on the BLAS thread count
    rel_var = replications * float(np.square(w).sum()) / float(w.sum()) ** 2 - 1.0
    return log_mean, math.sqrt(max(rel_var, 0.0) / replications)


class _Prepared(NamedTuple):  # one N's prepare stage
    block: Callable  # block(b, rng) draws block b's rows' kappa, as run_blocks calls it
    streams: list  # one per block
    entries: int  # the cell draws of one block
    weigh: Callable  # weigh(every block's kappa): the (replications,) log weights, or one


def _tilt(query, N, replications, theta_star, block_tol):
    """One N's checks, where every refusal of its prepare stage is raised:
    (cells' slot counts, per-draw weights wk, tilt scale c, log_norm), the tilt
    being eta = c wk (see the module docstring).  The work budget
    (``sim.check_work``) counts the one row ``_prepare`` draws for a constant layer."""
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

    # every regime tilts by eta = c wk, so eta . S = c kappa
    if regime == "fast":
        c = 0.0
    elif regime == "slow_unbounded":
        c = theta_star / (-math.expm1(-mu * h) / mu)
    elif regime == "intermediate":
        c = N * math.expm1(theta_star / delta)
    else:
        raise RegimeError(
            "no importance sampler for the bounded slow branch; "
            "rate_slow_bounded gives the closed-form rate"
        )
    log_norm = env.twisted_log_norm(c * wk, counts)  # raises the tilt's domain and table refusals

    check_work(table, env, replications, N, one_row=env.variance == 0)
    return counts, wk, c, log_norm


def _prepare(query, N, seed, replications, theta_star, block_tol) -> _Prepared:
    """The prepare stage of one N: ``_tilt``, then the streams and the prepared draw.

    A constant rate layer (variance 0) is the same in every replication, and
    the tail is elementwise in kappa: one row is drawn from block 0's stream
    (``replication_blocks`` for one replication), and its one weight stands
    for all R (``_reduce``).  A constant rate never reaches slow_unbounded,
    which needs kappa per row."""
    counts, wk, c, log_norm = _tilt(query, N, replications, theta_star, block_tol)
    env, a = query.env, query._scalar_a
    m = math.ceil(N * a - 1e-9)
    constant = env.variance == 0
    # every replication of a constant layer has the same row: block 0's stream draws it
    rows, streams = replication_blocks(seed, 1 if constant else replications, counts.size)
    size = 1 if constant else rows
    draw = env.block_sampler(counts, c * wk, wk)  # prepared once: each block only draws

    def weigh(kappas):
        kappa = np.concatenate(kappas)
        # one tail call for the whole run: its cost is mostly per call, not per row
        try:
            tail = log_poisson_tail(m, N * kappa)
        except ResourceError as exc:
            raise ResourceError(f"count level N a = {N * a:.10g}: {exc}") from None
        logw = (log_norm - c * kappa) + tail
        return logw[:replications]

    return _Prepared(lambda b, rng: draw(rng, size), streams, size * counts.size, weigh)


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

            return env.mean * (quad(integrand, 0.0, t)[0] - t)

        def in_domain(theta):
            return True

        return gamma, in_domain, "fast", SPEED_N

    if query.alpha == 1:

        def gamma(theta):
            scaled = np.expm1(theta / delta)

            def integrand(s):
                decay = np.exp(-np.multiply.outer(s, mu))
                return env.log_mgf(delta * (np.prod(decay * scaled + 1.0, axis=-1) - 1.0))

            return quad(integrand, 0.0, t)[0]

        def in_domain(theta):
            worst = delta * (np.prod(np.expm1(theta / delta) + 1.0) - 1.0)
            return worst < env.theta_max - 1e-11

        return gamma, in_domain, "intermediate", SPEED_INTERMEDIATE

    def gamma(theta):
        def integrand(s):
            return env.log_mgf(np.exp(-np.multiply.outer(s, mu)) @ theta)

        return quad(integrand, 0.0, t)[0]

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
    import scipy.optimize  # loaded only here: no command reaches this optimizer

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
