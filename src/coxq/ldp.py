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
in its argument map, x(theta) = theta or Delta (e^(theta/Delta) - 1); the fast
and bounded-slow rates are one Poisson (Cramer) rate.  One projected Newton
search finds the transform at every d (``rate_multivariate``; ``rate_slow`` and
``rate_intermediate`` are its d = 1 calls), each trial point's objective,
gradient and Hessian from one vector quadrature (``special.quad``), and reports
its projected gradient norm.  The integrated log-MGF I(x) = int_0^t log M(x
e^(-mu s)) ds at the optimum's largest argument (``peak_argument``) is
evaluated two ways, direct in s and via u = x e^(-mu s), and the dual-route
gap is reported as a criterion.  The rate's independent check is
``exact.saddle_log_tail``, whose slope against the speed tends to the rate.

The importance-sampling estimator ``estimate_log_tails`` targets
P(M^(N)(t) >= N a), m = ceil(N a), under the simulator's RNG contract
(``sim.replication_blocks``): block b draws its rows' rate layers on the cell
table from stream b alone, each cell's slot sum S_c tilted by eta_c = c wk_c,
c = N expm1(s) at the count's finite-N saddle point (``exact.ReadLaw.saddle``),
one scalar per N in every regime.  The count, Poisson(N kappa) given the layer
(``coxq.exact``), is not drawn: sum_c eta_c S_c = c kappa, so the log likelihood
ratio depends on the layer only through kappa, K_N(s) - c kappa +
log P(Poisson(N kappa) >= m).  The run prepares its draw once
(``EnvSpec.block_sampler`` with the weights), and each block's draw returns its
rows' kappa directly, not the (rows, cells) slot sums.  The tail term is exact
(``special.log_poisson_tail``); the ``coxq.special`` docstring describes it and
the quadrature rule.

``estimate_log_tails`` runs an N grid through three stages per N: prepare
(every check and refusal, the cell table, the tilt, the saddlepoint log P,
the streams and the prepared draw), draw (the blocks, one ``sim.run_blocks``
call per N) and weigh (the count's tail, the weights and their reduction).  The calling
thread prepares N_1; then N_k's ``run_blocks`` call runs, alongside its
draws, round 1's checks of every later N (``_tilt``, keeping only its c) or
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
from .exact import ReadLaw
from .sim import check_work, replication_blocks, run_blocks
from .special import log_poisson_tail, log_sum_exp, quad

__all__ = [
    "RateQuery",
    "RateResult",
    "integrated_log_mgf",
    "rate_fast",
    "rate_slow",
    "rate_slow_bounded",
    "rate_intermediate",
    "classify_regime",
    "estimate_log_tails",
    "rate_multivariate",
    "peak_argument",
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
    def u_t(self) -> float | np.ndarray:
        """Reachable rate ceiling y (1 - e^(-mu t))/mu, +inf for unbounded env; per queue for a tuple mu."""
        y = self.env.essential_sup()
        u = [y * (-math.expm1(-mu * self.t)) / mu for mu in np.atleast_1d(self.mu).tolist()]
        return np.array(u) if np.ndim(self.mu) else u[0]

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


def integrated_log_mgf(env: EnvSpec, mu: float, t: float, theta: float, route: str = "time") -> float:
    """int_0^t log M(theta e^(-mu s)) ds by adaptive quadrature (``special.quad``).

    route="time" integrates in s directly; route="substitution" uses
    u = theta e^(-mu s), giving (1/mu) int_{theta e^(-mu t)}^{theta} log M(u)/u du.
    """
    if theta == 0.0:
        return 0.0
    if theta > 0:
        env.log_mgf(theta)  # probe: raises DomainError outside the domain
    if route == "time":
        return quad(lambda s: env.log_mgf(theta * np.exp(-mu * s)), 0.0, t)
    if route == "substitution":
        return quad(lambda u: env.log_mgf(u) / u, theta * math.exp(-mu * t), theta) / mu
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


def rate_slow(query: RateQuery) -> RateResult:
    """Slow regime (alpha < 1), rate-reachable branch: speed N^alpha/Delta.

    rate = -sup_{theta>0} (theta a - int_0^t log M(theta e^(-mu s)) ds), by
    ``rate_multivariate``'s search at d = 1 (RegimeError past u(t): ``rate_slow_bounded``).
    """
    return _search(query, "slow_unbounded")


def rate_slow_bounded(query: RateQuery) -> RateResult:
    """Slow regime with u(t) < a: Poisson tail at mean u(t), speed N.  An
    unbounded family has u(t) = inf, so its queries belong to ``rate_slow``."""
    u, a = query.u_t, query._scalar_a
    if u >= a:
        raise RegimeError(f"u(t) = {u} >= a = {a}: use rate_slow")
    return _cramer(u, a, "slow_bounded", u_t=u)


def rate_intermediate(query: RateQuery) -> RateResult:
    """Intermediate regime (alpha = 1): speed N/Delta.

    rate = -sup_{theta>0}(theta a - int_0^t log M(Delta (e^(theta/Delta)-1) e^(-mu s)) ds), by
    ``rate_multivariate``'s search at d = 1.
    """
    return _search(query, "intermediate")


def _alpha_regime(alpha: float) -> str:
    """fast / intermediate / slow_unbounded by alpha alone; the slow branch is split by u(t)."""
    return "fast" if alpha > 1 else "intermediate" if alpha == 1 else "slow_unbounded"


def classify_regime(query: RateQuery) -> str:
    """fast / intermediate / slow_unbounded / slow_bounded per (alpha, u(t), a)."""
    regime = _alpha_regime(query.alpha)
    return "slow_bounded" if regime == "slow_unbounded" and query.u_t < query._scalar_a else regime


# ---------------------------------------------------------------------------
# Importance sampling.


def estimate_log_tails(query: RateQuery, points, replications: int,
                       block_tol: float) -> list[tuple[float, float, float]]:
    """[(log P(M^(N)(t) >= N a) from an empty queue by IS, its relative SE, and
    ``exact.saddle_log_tail``'s value) for (N, seed) in points], the N pipelined as the
    module docstring says.

    Each replication's weight holds the exact conditional tail given its rate layer
    (``exact.ReadLaw``'s), so it is finite unless that layer is all zero (kappa = 0);
    an N's estimate is -inf only when every one of its replications' is.
    ``ReadLaw.of``'s refusals raise ResourceError, as does an N whose predicted draw
    work passes ``sim.check_work``'s budget or whose count tail needs more than
    ``special._CF_STEPS`` continued-fraction steps (a rate near N a past about 3.7e11).
    Every refusal but the continued fraction's is raised in its N's prepare stage,
    before any N is weighed; the continued-fraction refusal is raised when its N is
    weighed.  Of several errors the first in this serial order is raised: N_1's preparation,
    then per N_k its alongside work and its blocks in block order, then N_K's weighing.
    """
    points = list(points)
    out = []
    if not points:
        return out
    job = _prepare(query, *points[0], replications, block_tol)
    weigh = saddle = kappas = after = None  # N_(k-1)'s weighing, saddle and draws; N_(k+1)'s _Prepared
    tilts = []  # round 1's c of every later N, so each N's saddle is solved once

    def alongside():  # on the calling thread, while N_k's blocks draw
        nonlocal after
        if k == 0:  # every later N's refusals, only its c kept
            tilts.extend(_tilt(query, N, replications, block_tol).c for N, _ in points[1:])
        else:
            out.append((*_reduce(weigh(kappas), replications), saddle))
        if k + 1 < len(points):
            after = _prepare(query, *points[k + 1], replications, block_tol, tilts[k])

    for k in range(len(points)):
        kappas_k = run_blocks(job.block, job.streams, job.entries, alongside)
        # keep N_k's weigh and kappas, not its _Prepared: two prepared draws at most
        weigh, saddle, kappas, job, after = job.weigh, job.saddle, kappas_k, after, None
    out.append((*_reduce(weigh(kappas), replications), saddle))
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
    saddle: float  # the saddlepoint log P (``ReadLaw.log_tail``) at the tilt's saddle


class _Tilt(NamedTuple):  # one N's checked tilt
    law: ReadLaw
    c: float  # the tilt eta = c law.wk, c = N expm1(s) at ``ReadLaw.saddle``
    log_norm: float  # K_N(s) there


def _tilt(query, N, replications, block_tol, c=None) -> _Tilt:
    """One N's checks, where its prepare stage raises every refusal; a given c skips its solve."""
    law = ReadLaw.of(query, N, block_tol)
    c = law.saddle(math.ceil(N * query._scalar_a - 1e-9) - 0.5) if c is None else c
    log_norm = query.env.twisted_log_norm(c * law.wk, law.counts)  # the tilt's domain and table refusals
    check_work(law.table, query.env, replications, N, one_row=query.env.variance == 0)
    return _Tilt(law, c, log_norm)


def _prepare(query, N, seed, replications, block_tol, c=None) -> _Prepared:
    """The prepare stage of one N: ``_tilt``, then the streams and the prepared draw.

    A constant rate layer (variance 0) is the same in every replication, and
    the tail is elementwise in kappa: one row is drawn from block 0's stream
    (``replication_blocks`` for one replication), and its one weight stands
    for all R (``_reduce``)."""
    law, c, log_norm = _tilt(query, N, replications, block_tol, c)
    env, a, counts, wk = query.env, query._scalar_a, law.counts, law.wk
    m = math.ceil(N * a - 1e-9)
    # every replication of a constant layer has the same row: block 0's stream draws it
    rows, streams = replication_blocks(seed, replications if env.variance else 1, counts.size)
    size = rows if env.variance else 1
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

    return _Prepared(lambda b, rng: draw(rng, size), streams, size * counts.size, weigh,
                     law.log_tail(c, log_norm, m))


# ---------------------------------------------------------------------------
# Multivariate (coupled queues, rectangular sets).


class _Limit(NamedTuple):  # Gamma(theta) = int_0^t K(x(theta, s)) ds, as rate_multivariate's
    K: EnvSpec
    mu: np.ndarray
    t: float
    w: float  # 1/Delta, and 0 in the slow regime

    def peak(self, theta) -> float:
        """x(theta, 0), the largest x on the path."""
        return ((1.0 + np.expm1(theta * self.w)).prod() - 1.0) / self.w if self.w else theta.sum()

    def terms(self, theta, s):
        """x(theta, s), P and g with dx/dtheta_i = P g_i, and theta_max - x, at the points s.

        theta_max - x is x(0)'s gap plus x(0) - x(s), a sum of positive terms, so it keeps its
        relative precision where x(s) nears the boundary: x(0) - x(s) is sum_i theta_i f_i in
        the slow regime, f_i = 1 - e^(-mu_i s), and otherwise telescopes to sum_i prod_(j < i)
        q_j(s) expm1(theta_i w) f_i prod_(j > i) q_j(0) / w, q_j = 1 + e^(-mu_j s) expm1(theta_j w)."""
        decay = -np.multiply.outer(s, self.mu)
        e, f = np.exp(decay), -np.expm1(decay)
        gap = self.K.theta_max - self.peak(theta)
        if not self.w:
            return e @ theta, np.ones(len(s)), e, gap + f @ theta
        c = np.expm1(theta * self.w)
        q, q0 = 1.0 + e * c, 1.0 + c
        upto = np.cumprod(q, axis=1)  # prod_(j <= i) q_j(s); P is its last column
        after = np.cumprod(q0[::-1])[::-1] / q0
        fall = (upto / q * c * after * f).sum(axis=-1) / self.w
        return (upto[:, -1] - 1.0) / self.w, upto[:, -1], e * q0 / q, gap + fall

    def evaluate(self, theta, a):
        """(theta . a - Gamma(theta), a - grad Gamma, Gamma's Hessian) from one quadrature of their
        integrands, x_ij = w P (g_i g_j + [i = j] g_i (1 - g_i)); DomainError where x(theta, 0),
        the peak, leaves the domain.  K' and K'' take ``terms``' precise gap to a bounded domain: in
        x, its rounding costs 1e-16/gap relative, which no quadrature near the boundary resolves."""
        self.K.log_mgf(self.peak(theta))
        d = len(a)

        def integrands(s):  # (1 + d + d^2, points): log M(x), the gradient's and the Hessian's
            x, P, g, gap = self.terms(theta, s)
            k1, k2 = self.K.log_mgf_derivatives(x, gap)
            g = g.T
            dx, w = P * g, self.w * k1  # dx/dtheta_i, and w K'
            hess = ((k2 + w / P) * dx[:, None] * dx).reshape(d * d, -1)
            hess[:: d + 1] += w * dx * (1.0 - g)  # the diagonal
            return np.concatenate([self.K.log_mgf(x)[None], k1 * dx, hess])

        total = quad(integrands, 0, self.t)
        return float(theta @ a) - total[0], a - total[1 : d + 1], total[d + 1 :].reshape(d, d)

    def newton(self, a):
        """(theta*, objective, steps, projected gradient norm) of projected Newton from 0: least-
        squares steps on the free coordinates (theta_i > 0 or a positive gradient), projected onto
        theta >= 0 and halved until it moves theta and the objective is defined and no lower, to
        rounding.  Equal mu_i make the Hessian singular: once its step predicts no gain, the
        objective is linear along the gradient's part that the Hessian does not see, which the step
        then walks onto the first face.  It stops when the predicted gain is below rounding and the
        gradient below 1e-9 max(a), or when the full step no longer moves theta and the gradient is
        below 1e-6 or its change across an ulp of theta (near the boundary theta's own rounding)."""
        theta = np.zeros(len(a))
        value, grad, hess = self.evaluate(theta, a)
        for steps in range(100):
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
            jump = float((np.abs(hess) @ np.spacing(theta))[free].max(initial=0.0))  # across an ulp
            if np.all(theta + step == theta) and norm <= max(1e-6, jump):
                return theta, value, steps, norm
            for _ in range(60):
                trial = np.maximum(theta + step, 0.0)
                with contextlib.suppress(DomainError):
                    if np.any(trial != theta) and (point := self.evaluate(trial, a))[0] >= value - ulp:
                        break
                step /= 2
            else:
                raise ConvergenceError(
                    f"no interior stationary point resolvable: gradient {norm:.2e} at theta {theta}, "
                    "and no step raises the rate (the tail level is too deep for this family)"
                )
            theta, (value, grad, hess) = trial, point
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
    return _search(query, _alpha_regime(query.alpha))


def _limit(query: RateQuery, regime: str) -> _Limit:
    """The query's Gamma in the given regime (``rate_multivariate`` lists the three)."""
    w = {"fast": 1.0, "intermediate": 1 / query.delta}.get(regime, 0.0)
    env = Deterministic(query.env.mean) if regime == "fast" else query.env
    return _Limit(env, np.atleast_1d(query.mu).astype(float), query.t, w)


def peak_argument(query: RateQuery, result: RateResult) -> float:
    """x(theta*, 0), the largest log-MGF argument that the result's rate integrated."""
    return float(_limit(query, result.regime).peak(np.atleast_1d(result.theta_star)))


def _search(query: RateQuery, regime: str) -> RateResult:
    """``_Limit.newton``'s rate of the rectangle at its corner in the given regime; a scalar
    query's theta* is a float."""
    a, ceiling = np.atleast_1d(query.a).astype(float), np.atleast_1d(query.u_t)
    if regime == "slow_unbounded" and np.any(past := ceiling < a):
        i = int(np.argmax(past))
        raise RegimeError(f"queue {i}: u(t) = {ceiling[i]} < a = {a[i]}: the rate cannot reach it")
    speed = {"fast": SPEED_N, "intermediate": SPEED_INTERMEDIATE}.get(regime, SPEED_SLOW)
    theta, value, steps, norm = _limit(query, regime).newton(a)
    diagnostics = {"iterations": steps, "projected_grad_norm": norm, "corner": a.tolist()}
    theta = theta if np.ndim(query.mu) else float(theta[0])
    return RateResult(min(0.0, -float(value)), theta, regime, speed, diagnostics)
