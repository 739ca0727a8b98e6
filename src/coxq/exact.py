"""The count's finite-N law on the simulator's cell table, at a d = 1 read from an empty queue.

Given the rate layer the count M^(N)(t) is Poisson(N kappa), kappa = sum_c wk_c S_c, S_c the sum of
cell c's n_c slot rates and wk_c = w_c/n_c its per-slot survival weight: on ``sim.cell_table`` its CGF
is K_N(s) = sum_c n_c log M(N expm1(s) wk_c) at any N, a ``ReadLaw``.  Its ``saddle`` solves K_N'(s) =
m - 1/2 for the importance sampler's tilt eta = c wk, c = N expm1(s); ``saddle_log_tail`` is the
saddlepoint log P(M^(N)(t) >= m) there with no draw, the rate's independent check in ldp-check.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .env import EnvSpec, ScalingRegime
from .errors import ConvergenceError, ResourceError
from .sim import _MAX_EXACT_INT, CellTable, cell_table
from .special import normal_log_cdf_sf

__all__ = ["ReadLaw", "saddle_log_tail"]


class ReadLaw(NamedTuple):
    """The count's law at N for a d = 1 read at t: its cell table, slot counts and weights wk."""

    env: EnvSpec
    N: int
    table: CellTable
    counts: np.ndarray
    wk: np.ndarray  # per-slot weight within each cell

    @classmethod
    def of(cls, query, N: int, block_tol: float) -> ReadLaw:
        """The law of ``query`` (an ``ldp.RateQuery``) at N; ResourceError if its level N a passes 2^53."""
        if not N * query._scalar_a <= _MAX_EXACT_INT:  # also refuses inf
            raise ResourceError(f"count level N a = {N * query._scalar_a:.3e} exceeds 2^53, "
                                "the most that float64 can index")
        h = ScalingRegime(N, query.alpha, query.delta).delta_n
        table = cell_table((query._scalar_mu,), h, (query.t,), block_tol)
        return cls(query.env, N, table, table.slots, table.weights[0][:, 0] / table.slots)

    def kappa_moments(self, c: float) -> tuple[float, float]:
        """kappa's mean and variance under the tilt eta = c wk, sum n wk log M'(eta) and sum n wk^2
        log M''(eta), as elementwise sums (a BLAS dot's bits vary): K_N'(s) = (N + c) mean and
        K_N''(s) = K_N'(s) + (N + c)^2 variance, s = log1p(c/N)."""
        nw = self.counts * self.wk
        k1, k2 = self.env.log_mgf_derivatives(c * self.wk)
        return float((nw * k1).sum()), float((nw * self.wk * k2).sum())

    def saddle(self, target: float) -> float:
        """c = N expm1(s) at the root of K_N'(s) = target, 0 for a constant layer: Newton on g =
        log(K_N'/target) from s = 0 inside the bracket between 0 and the Poisson tilt s0 = log(target/
        K_N'(0)), which holds the root as log M' rises from E[L], to |g| <= 1e-12 or two ulps of s in
        g.  A step past the top toward a bounded domain's edge is retaken in log(theta_max - eta) of
        the largest tilt, whose pole log K_N' follows there; one still outside bisects the bracket."""
        env, N, top = self.env, self.N, float(self.wk.max())
        if not env.variance:
            return 0.0
        s0 = math.log(target / (N * env.mean * float((self.counts * self.wk).sum())))
        lo, hi = sorted((0.0, min(s0, math.log1p(env.theta_max / (N * top)))))
        s = 0.0
        for _ in range(100):
            c = N * math.expm1(s)
            first, second = self.kappa_moments(c)
            g = math.log((N + c) * first / target)
            lo, hi = (lo, s) if g > 0 else (s, hi)
            after = s - g / (slope := 1.0 + (N + c) * second / first)  # slope = dg/ds
            if after >= hi and env.theta_max < math.inf:  # d log(gap)/ds = -(N + c) top/gap
                gap = env.theta_max - c * top
                gap *= math.exp((s - after) * (N + c) * top / gap)
                after = math.log1p((env.theta_max - gap) / (N * top))
            after = after if lo < after < hi else 0.5 * (lo + hi)
            if abs(g) <= max(1e-12, 2.0 * slope * math.ulp(s)) or after == s:  # to s's resolution
                return c
            s = after
        raise ConvergenceError(f"no saddle point of the count's CGF in 100 steps at N = {N}")

    def log_tail(self, c: float, log_norm: float, m: int) -> float:
        """log P(count >= m) by the saddlepoint approximation at c = N expm1(s), K_N'(s) = m - 1/2,
        K_N(s) = log_norm (a constant layer's Poisson count in closed form): log Phi(-r*), r* = w +
        log(u/w)/w, w = sign(s) sqrt(2 (s (m - 1/2) - K_N(s))), u = 2 sinh(s/2) sqrt(K_N''(s))
        (Barndorff-Nielsen's r*, Daniels' continuity correction: Butler, Saddlepoint
        Approximations, 2007).  Where w^2/2 is below 5e-4 s (m - 1/2), whose difference a discrete
        log M's 1e-16 error spoils, w^2 = s (K_N'(s) - K_N'(0)) + s^2 (K_N''(s) - K_N''(0))/6,
        K_N'' quadratic on [0, s] (within 5e-8 in log P of the formula at 50 digits); at s = 0
        exactly, short of K_N's third derivative, r* = 0."""
        env, N, nw, x = self.env, self.N, self.counts * self.wk, m - 0.5
        slope0 = N * env.mean * float(nw.sum())  # K_N'(0), the untilted count's mean
        if env.variance:
            s = math.log1p(c / N)
            first, second = self.kappa_moments(c)
            slope = (N + c) * first  # K_N'(s)
            curv = slope + (N + c) ** 2 * second  # K_N''(s)
        else:  # a Poisson count of mean K_N'(0), drawn untilted (c = 0): its saddle in closed form
            if not slope0:  # the count is 0
                return -math.inf
            s, slope, curv, log_norm = math.log(x / slope0), x, x, x - slope0
        lift, half_w2 = s * x, s * x - log_norm  # s (m - 1/2), w^2/2
        if s == 0:
            r = 0.0
        elif half_w2 < 5e-4 * abs(lift):
            curv0 = slope0 + N * N * env.variance * float((nw * self.wk).sum())
            # K_N'' quadratic through K_N''(0), K_N''(s) and its integral K_N'(s) - K_N'(0)
            mean_curv = (slope - slope0) / s + (curv - curv0) / 6.0  # w^2/s^2
            w = s * math.sqrt(mean_curv)
            r = w + (math.log(2.0 * math.sinh(s / 2) / s) + 0.5 * math.log(curv / mean_curv)) / w
        else:
            w = math.copysign(math.sqrt(2.0 * half_w2), s)
            r = w + math.log(2.0 * math.sinh(s / 2) * math.sqrt(curv) / w) / w
        return float(normal_log_cdf_sf(np.array([r]))[1][0])


def saddle_log_tail(query, N: int, block_tol: float = 0.01) -> float:
    """log P(M^(N)(t) >= N a) from an empty queue by ``ReadLaw.log_tail``, in every regime, at
    any N < 2^53/a; it draws nothing, so no draw budget applies."""
    law, m = ReadLaw.of(query, N, block_tol), math.ceil(N * query._scalar_a - 1e-9)
    c = law.saddle(m - 0.5)
    return law.log_tail(c, law.env.twisted_log_norm(c * law.wk, law.counts), m)
