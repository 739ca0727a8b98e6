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
reported.  A rectangle over several queues takes a projected Newton search over
the same quadrature rule (``rate_multivariate``).

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

import contextlib
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .env import Deterministic, EnvSpec, ScalingRegime
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


class _Limit(NamedTuple):  # Gamma(theta) = int_0^t K(x(theta, s)) ds, as rate_multivariate's
    K: EnvSpec
    mu: np.ndarray
    t: float
    w: float  # 1/Delta, and 0 in the slow regime

    def terms(self, theta, s):
        """x(theta, s), P and g with dx/dtheta_i = P g_i, and theta_max - x, at the points s.

        theta_max - x is x(0)'s gap plus x(0) - x(s), a sum of positive terms, so it keeps its
        relative precision where x(s) nears the boundary: x(0) - x(s) is sum_i theta_i f_i in
        the slow regime, f_i = 1 - e^(-mu_i s), and otherwise telescopes to sum_i prod_(j < i)
        q_j(s) expm1(theta_i w) f_i prod_(j > i) q_j(0) / w, q_j = 1 + e^(-mu_j s) expm1(theta_j w)."""
        decay = -np.multiply.outer(s, self.mu)
        e, f = np.exp(decay), -np.expm1(decay)
        if not self.w:
            return e @ theta, np.ones(len(s)), e, (self.K.theta_max - theta.sum()) + f @ theta
        c = np.expm1(theta * self.w)
        q = 1.0 + e * c
        P = q.prod(axis=-1)
        before = np.cumprod(np.concatenate([np.ones((len(s), 1)), q[:, :-1]], axis=1), axis=1)
        after = np.append(np.cumprod(1.0 + c[:0:-1])[::-1], 1.0)
        fall = (before * c * f * after).sum(axis=-1) / self.w
        gap = (self.K.theta_max - (np.prod(1.0 + c) - 1.0) / self.w) + fall
        return (P - 1.0) / self.w, P, e * np.exp(theta * self.w) / q, gap

    def objective(self, theta, a) -> float:
        """theta . a - Gamma(theta); DomainError where x(theta, 0), its peak, leaves the domain."""
        self.K.log_mgf(self.terms(theta, np.zeros(1))[0])
        return float(theta @ a) - quad(lambda s: self.K.log_mgf(self.terms(theta, s)[0]), 0, self.t)[0]

    def derivatives(self, theta, a):
        """a - grad Gamma, and Gamma's Hessian: x_ij = w P (g_i g_j + [i = j] g_i (1 - g_i)).

        K' and K'' take ``terms``' precise gap to a bounded domain: in x, its rounding costs
        1e-16/gap relative, which no quadrature near the boundary resolves."""

        def term(i, j, s):  # the gradient's integrand when j is None, else the Hessian's
            x, P, g, gap = self.terms(theta, s)
            k1, k2 = self.K.log_mgf_derivatives(x, gap)
            if j is None:
                return k1 * P * g[:, i]
            w = self.w * k1
            return P * g[:, i] * ((k2 * P + w) * g[:, j] + (i == j) * w * (1.0 - g[:, i]))

        d = range(len(a))
        grad = a - [quad(lambda s: term(i, None, s), 0, self.t)[0] for i in d]
        return grad, np.array([[quad(lambda s: term(i, j, s), 0, self.t)[0] for j in d] for i in d])

    def newton(self, a):
        """(theta*, objective, steps, projected gradient norm) of projected Newton from 0: least-
        squares steps on the free coordinates (theta_i > 0 or a positive gradient), projected onto
        theta >= 0 and halved until it moves theta and the objective is defined and no lower, to
        rounding.  Equal mu_i make the Hessian singular: once its step predicts no gain, the
        objective is linear along the gradient's part that the Hessian does not see, which the step
        then walks onto the first face.  It stops when the predicted gain is below rounding and the
        gradient below 1e-9 max(a), or when the full step no longer moves theta and the gradient is
        below 1e-6 (near the boundary the Hessian, about 1/gap, makes theta's own rounding the limit)."""
        theta, value = np.zeros(len(a)), 0.0
        for steps in range(100):
            grad, hess = self.derivatives(theta, a)
            free = (theta > 0) | (grad > 0)
            step = np.zeros(len(a))
            step[free] = np.linalg.lstsq(hess[np.ix_(free, free)], grad[free], rcond=None)[0]
            norm, ulp = float(np.abs(grad[free]).max(initial=0.0)), 1e-15 * max(1.0, abs(value))
            if grad @ step <= ulp and norm <= 1e-9 * a.max():
                return theta, value, steps, norm
            unseen = np.where(free, grad - hess @ step, 0.0)  # where the Hessian is blind
            if grad @ step <= ulp and np.abs(unseen).max() > 1e-9 * a.max():
                reach = theta[unseen < 0] / -unseen[unseen < 0] * (1.0 + 1e-12)  # past its rounding
                step = unseen * (reach.min() if reach.size else 1.0)
            if np.all(theta + step == theta) and norm <= 1e-6:
                return theta, value, steps, norm
            for _ in range(60):
                trial = np.maximum(theta + step, 0.0)
                with contextlib.suppress(DomainError):
                    if np.any(trial != theta) and (trial_value := self.objective(trial, a)) >= value - ulp:
                        break
                step /= 2
            else:
                raise ConvergenceError(f"gradient {norm:.2e}, but no step from theta {theta} raises the rate")
            theta, value = trial, trial_value
        raise ConvergenceError(f"no Newton convergence in 100 steps: gradient {norm:.2e} at theta {theta}")


def rate_multivariate(query: RateQuery) -> RateResult:
    """Decay rate of the rectangle prod_i [a_i, inf) for the coupled model: -sup_{theta >= 0}
    (theta . a - Gamma(theta)) at its corner a, Gamma(theta) = int_0^t K(x(theta, s)) ds:

    * slow: K = log M, x = sum_i theta_i e_i, e_i = e^(-mu_i s);
    * intermediate: K = log M, x = Delta (prod_i (1 + e_i expm1(theta_i/Delta)) - 1);
    * fast: K(x) = E[L] x, and x as intermediate at Delta = 1.

    A slow corner past a queue's rate ceiling u_i(t) raises RegimeError; ``_Limit.newton``
    searches for the rest.
    """
    env, mu, a = query.env, np.atleast_1d(query.mu).astype(float), np.atleast_1d(query.a).astype(float)
    queues = [RateQuery(env, mu_i, query.delta, query.alpha, query.t, a_i) for mu_i, a_i in zip(mu, a)]
    for i, queue in enumerate(queues):
        if classify_regime(queue) == "slow_bounded":
            raise RegimeError(f"queue {i}: u(t) = {queue.u_t} < a = {queue.a}: the rate cannot reach it")
    regime = classify_regime(queues[0])
    speed = {"fast": SPEED_N, "intermediate": SPEED_INTERMEDIATE}.get(regime, SPEED_SLOW)
    w = {"fast": 1.0, "intermediate": 1 / query.delta}.get(regime, 0.0)
    limit = _Limit(Deterministic(env.mean) if regime == "fast" else env, mu, query.t, w)
    theta, value, steps, norm = limit.newton(a)
    diagnostics = {"iterations": steps, "projected_grad_norm": norm, "corner": a.tolist()}
    return RateResult(min(0.0, -value), theta, regime, speed, diagnostics)
