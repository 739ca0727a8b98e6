"""Experiment runner: convergence studies with machine-readable reports.

Each runner builds its Monte Carlo instances from one ExperimentConfig,
records every estimate with an uncertainty, and derives pass/fail criteria
only from the recorded numbers, with thresholds from the config's tolerances
(defaults merged).  One table, ``_SCHEMA``, names the optional fields each
kind reads, those it needs, and its tolerances with their defaults;
``from_json`` refuses any other key and ``_validate`` any other set field.
Every runner has the signature ``run_*(config, out_dir)`` and returns
(results, criteria); ``run`` times it and builds the Report.  Reports
serialize to a versioned JSON schema; the wall clock is kept out of the file
so reruns with one seed are byte-stable.

Checks:

* clt-check     stationary endpoint variance against the limit variance,
                plus an Anderson-Darling normality test (counts uniformly
                dithered by half a job to suppress lattice artifacts);
* fclt-check    empirical covariance of the centered, N^(beta/2)-scaled
                transient vector against the limit covariance matrix;
* corr-check    stationary cross-queue correlation against the limiting
                constant;
* ldp-check     tail probabilities per N via exponential-twisting importance
                sampling, weighted-least-squares slope of log P against the
                regime speed, compared to the computed decay rate;
* analytic      closed-form quantities and the variance trichotomy ratios;
* simulate      trajectory CSV and moment JSON dumps.
"""

from __future__ import annotations

import math
import operator
import sys
import time
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np
import scipy

from . import __version__
from .analytic import (
    QueueParams,
    clt_sigma2,
    fclt_covariance,
    fluid_limit,
    scaled_variance,
    stationary_correlation,
    stationary_mean,
    stationary_pgf,
    stationary_variance,
)
from .env import Deterministic, EnvSpec, ScalingRegime, env_from_json
from .errors import ConfigError, DomainError
from .ldp import (
    RateQuery,
    classify_regime,
    estimate_log_tail,
    integrated_log_mgf,
    legendre_argument,
    rate_fast,
    rate_intermediate,
    rate_slow,
    speed_value,
)
from .sim import SimConfig, estimate_moments, normalized_endpoint, sample_stationary, simulate

__all__ = [
    "ExperimentConfig",
    "Criterion",
    "Report",
    "run",
    "run_analytic",
    "run_simulate",
    "run_clt_check",
    "run_fclt_check",
    "run_corr_check",
    "run_ldp_check",
    "anderson_darling_normal",
]


class _Schema(NamedTuple):
    reads: tuple  # the optional fields the kind reads
    needs: tuple  # those of them it cannot run without
    tolerances: dict  # its criteria's thresholds, with their defaults


# What each kind reads beyond the _COMMON fields, which every kind reads; a
# config with any other key exits 2
_SCHEMA = {
    "analytic": _Schema(("t",), (), {"pgf_abs_tol": 1e-10, "trichotomy_rel_tol": 0.02}),
    "simulate": _Schema(("horizon", "grid", "initial_counts", "block_tol"), ("grid",), {}),
    "clt-check": _Schema(("block_tol",), (), {"variance_rel_tol": 0.10, "ad_pvalue_min": 0.01}),
    "fclt-check": _Schema(("t", "block_tol"), ("t",), {"cov_rel_tol": 0.10}),
    "ldp-check": _Schema(
        ("t", "a", "block_tol"),
        ("t", "a"),
        {"slope_rel_tol": 0.10, "rel_err_warn": 0.30, "stationarity_residual_max": 1e-6,
         "quad_route_tol": 1e-9},
    ),
    "corr-check": _Schema(("block_tol",), (), {"corr_rel_tol": 0.10}),
}
KINDS = tuple(_SCHEMA)
_COMMON = ("kind", "env", "queues", "delta", "alpha", "N_grid", "replications", "seed", "tolerances")

_PGF_Z_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def _check_reads(kind: str, names, tolerances=False) -> None:
    """ConfigError for the first of names that the kind does not read, naming the kinds that do."""
    def reads(k):
        return tuple(_SCHEMA[k].tolerances) if tolerances else _COMMON + _SCHEMA[k].reads

    for name in (n for n in names if n not in reads(kind)):
        readers = ", ".join(k for k in KINDS if name in reads(k))
        name = f"tolerances.{name}" if tolerances else name
        read = f"only by {readers}; {kind} would ignore it" if readers else "by no kind"
        raise ConfigError(f"{name} is read {read}")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    env: EnvSpec
    queues: QueueParams
    delta: float
    alpha: float
    N_grid: tuple[int, ...]
    replications: int
    seed: int
    t: float | None = None
    a: float | None = None
    horizon: float | None = None
    grid: tuple[float, ...] | None = None
    initial_counts: tuple[int, ...] | None = None
    block_tol: float = 0.01
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        # operator.index takes integers only: 5.7 raises instead of running N=5
        object.__setattr__(self, "N_grid", tuple(operator.index(n) for n in self.N_grid))
        if self.grid is not None:
            object.__setattr__(self, "grid", tuple(float(x) for x in self.grid))
        if self.initial_counts is not None:
            object.__setattr__(
                self, "initial_counts", tuple(operator.index(c) for c in self.initial_counts)
            )

    def tol(self, name: str) -> float:
        return self.tolerances.get(name, _SCHEMA[self.kind].tolerances[name])

    def to_json(self) -> dict:
        """The fields the kind reads, so ``from_json`` takes the echo back."""
        doc = {name: getattr(self, name) for name in _COMMON + _SCHEMA[self.kind].reads}
        doc.update(env=self.env.to_json(), queues={"mu": list(self.queues.mu)})
        doc["tolerances"] = dict(self.tolerances)
        return {k: list(v) if isinstance(v, tuple) else v for k, v in doc.items() if v is not None}

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        """Parse a JSON config; ConfigError names the field that is missing, mistyped or unread."""
        def typed(value, types, name, what):  # never a bool where a number belongs
            if isinstance(value, bool) or not isinstance(value, types):
                raise TypeError(f"{name} must be {what}, got {value!r}")
            return value

        def number(value, name):  # a finite JSON number, never a string, NaN or 1e400
            if not abs(typed(value, (int, float), name, "a number")) <= sys.float_info.max:
                raise ValueError(f"{name} must be finite, got {value!r}")
            return float(value)

        def integer(value, name):  # a JSON integer, never a float or a string
            return typed(value, int, name, "an integer")

        def obj(value, name):
            return typed(value, dict, name, "a JSON object")

        def array(item):  # a JSON array of items, never a string
            return lambda value, name: tuple(item(x, name) for x in typed(value, list, name, "an array"))

        def env(value, name):  # every parameter a JSON number or an array of them
            for key, x in obj(value, name).items():
                if key != "family":
                    (array(number) if isinstance(x, list) else number)(x, key)
            return env_from_json(value)

        def queues(value, name):  # {"mu": [...]} and no other key
            for key in obj(value, name):
                if key != "mu":
                    raise ValueError(f"queues.{key} is read by no kind")
            return QueueParams(array(number)(value["mu"], "mu"))

        def block_tol(value, name):  # its distortion bound block_tol^2/12 is relative
            if not 0 <= number(value, name) <= 1:
                raise ValueError(f"block_tol must lie in [0, 1], got {value!r}")
            return float(value)

        parsers = dict(
            env=env, queues=queues, block_tol=block_tol, replications=integer, seed=integer,
            N_grid=array(integer), initial_counts=array(integer), grid=array(number),
            tolerances=lambda value, name: {k: number(x, k) for k, x in obj(value, name).items()},
            **dict.fromkeys(("delta", "alpha", "t", "a", "horizon"), number),
        )
        try:
            kind = obj(doc, "config").get("kind")
            if kind not in KINDS:
                raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
            _check_reads(kind, doc)
            _check_reads(kind, obj(doc.get("tolerances", {}), "tolerances"), tolerances=True)
            return cls(kind=kind, **{k: parsers[k](v, k) for k, v in doc.items() if k != "kind"})
        except (ConfigError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid experiment config: {exc}") from exc


@dataclass
class Criterion:
    name: str
    passed: bool
    observed: float
    target: float
    tolerance: float

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "observed": self.observed,
            "target": self.target,
            "tolerance": self.tolerance,
        }


@dataclass
class Report:
    kind: str
    config: dict
    seed: int
    results: list
    criteria: list
    wall_clock_s: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria)

    def to_json(self) -> dict:
        """The report document; a non-finite number (an IS row with no hit) is written as null."""
        return _finite_or_null({
            "schema": "coxq-report/1",
            "version": __version__,
            "kind": self.kind,
            "seed": self.seed,
            "config": self.config,
            "results": self.results,
            "criteria": [c.to_json() for c in self.criteria],
            "passed": self.passed,
        })


def _finite_or_null(value):
    """value with each non-finite float, at any depth, replaced by None: strict JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _validate(config: ExperimentConfig) -> None:
    if config.kind not in KINDS:
        raise ConfigError(f"unknown kind {config.kind!r}; expected one of {KINDS}")
    # a default-valued field may be one the kind does not read; from_json refuses its key
    _check_reads(config.kind, [f.name for f in fields(config) if getattr(config, f.name) != f.default])
    _check_reads(config.kind, config.tolerances, tolerances=True)
    for name in _SCHEMA[config.kind].needs:
        if getattr(config, name) is None:
            raise ConfigError(f"{config.kind} needs {name}")
    if not config.N_grid:
        raise ConfigError("N_grid must be non-empty")
    if any(b <= a for a, b in zip(config.N_grid, config.N_grid[1:])):
        raise ConfigError("N_grid must be strictly increasing")
    if config.replications < 2 and config.kind != "analytic":
        raise ConfigError("replications must be at least 2")
    d = config.queues.d
    if config.kind == "clt-check" and d != 1:
        raise ConfigError("clt-check runs on a single queue (d = 1)")
    if config.kind in ("fclt-check", "corr-check") and d < 2:
        raise ConfigError(f"{config.kind} needs at least two coupled queues")
    if config.kind == "corr-check" and d > 2:
        raise ConfigError("corr-check compares exactly two coupled queues (d = 2)")
    if config.kind == "ldp-check" and d != 1:
        raise ConfigError("ldp-check runs on a single queue (d = 1)")
    if config.kind == "simulate":
        if len(config.N_grid) != 1:
            raise ConfigError("simulate runs one system size: N_grid must have exactly one entry")
        # without a horizon the run ends at the last grid time
        horizon, span = (
            (math.inf, "[0, inf)") if config.horizon is None else (config.horizon, "[0, horizon]")
        )
        if config.grid and (min(config.grid) < 0 or max(config.grid) > horizon):
            raise ConfigError(f"grid times must lie in {span}")
    if config.kind == "ldp-check":
        if len(config.N_grid) < 2:  # else the slope and its criterion would read NaN
            raise ConfigError("ldp-check fits a slope over N_grid: it needs at least two entries")
        if classify_regime(_ldp_query(config)) == "slow_bounded":  # the query refuses a <= rho(t)
            raise ConfigError(
                "slope verification for the bounded slow branch is not supported; "
                "rate_slow_bounded gives the closed-form rate directly"
            )


def _ldp_query(config: ExperimentConfig) -> RateQuery:
    return RateQuery(
        env=config.env,
        mu=config.queues.mu[0],
        delta=config.delta,
        alpha=config.alpha,
        t=float(config.t),
        a=float(config.a),
    )


def _per_n(config: ExperimentConfig):
    """Yield (N, scaling, seed, spare_seed) for every point of N_grid.

    The two 64-bit seeds of point k are words 2k and 2k + 1 of one
    SeedSequence(config.seed) state, whose prefix does not depend on its
    length: a run on a prefix of N_grid repeats that prefix's numbers.
    """
    words = np.random.SeedSequence(config.seed).generate_state(
        2 * len(config.N_grid), dtype=np.uint64
    )
    for k, N in enumerate(config.N_grid):
        scaling = ScalingRegime(N, config.alpha, config.delta)
        yield N, scaling, int(words[2 * k]), int(words[2 * k + 1])


def _sim_config(
    config: ExperimentConfig, scaling: ScalingRegime, seed: int, grid=(0.0,), initial_counts=None
) -> SimConfig:
    """The simulator input for one N_grid point; no initial counts means an empty start."""
    return SimConfig(
        env=config.env,
        queues=config.queues,
        scaling=scaling,
        grid=grid,
        initial_counts=(0,) * config.queues.d if initial_counts is None else initial_counts,
        replications=config.replications,
        seed=seed,
        block_tol=config.block_tol,
    )


# ---------------------------------------------------------------------------
# Anderson-Darling normality test (parameters estimated from the sample).


def anderson_darling_normal(x: np.ndarray) -> tuple[float, float]:
    """A^2* statistic and approximate p-value (D'Agostino & Stephens 1986).

    The standard normal log cdf and log sf of each standardized point are
    ``scipy.special.log_ndtr(z)`` and ``log_ndtr(-z)``, accurate in both tails."""
    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    z = (x - x.mean()) / x.std(ddof=1)
    log_cdf = scipy.special.log_ndtr(z)
    log_sf = scipy.special.log_ndtr(-z)
    i = np.arange(1, n + 1)
    a2 = -n - np.sum((2 * i - 1) * (log_cdf + log_sf[::-1])) / n
    a2_star = a2 * (1 + 0.75 / n + 2.25 / n**2)
    if a2_star <= 0.2:
        p = 1 - math.exp(-13.436 + 101.14 * a2_star - 223.73 * a2_star**2)
    elif a2_star <= 0.34:
        p = 1 - math.exp(-8.318 + 42.796 * a2_star - 59.938 * a2_star**2)
    elif a2_star <= 0.6:
        p = math.exp(0.9177 - 4.279 * a2_star - 1.38 * a2_star**2)
    elif a2_star <= 13.0:
        p = math.exp(1.2937 - 5.709 * a2_star + 0.0186 * a2_star**2)
    else:
        p = 0.0
    return float(a2_star), float(min(max(p, 0.0), 1.0))


def _wls_slope(x, y, se) -> tuple[float, float]:
    """Weighted least squares slope of y on x (intercept fitted), with its SE; se > 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = 1.0 / np.asarray(se, dtype=float) ** 2
    xb = np.sum(w * x) / np.sum(w)
    yb = np.sum(w * y) / np.sum(w)
    sxx = np.sum(w * (x - xb) ** 2)
    slope = np.sum(w * (x - xb) * (y - yb)) / sxx
    return float(slope), float(math.sqrt(1.0 / sxx))


# ---------------------------------------------------------------------------
# analytic


def run_analytic(config: ExperimentConfig, out_dir=None) -> tuple[list, list]:
    env, delta, alpha = config.env, config.delta, config.alpha
    mu = config.queues.mu[0]
    results: list = []
    criteria: list[Criterion] = []

    pgf_vals = {z: stationary_pgf(env, mu, delta, z) for z in _PGF_Z_GRID}
    summary = {
        "stationary_mean": stationary_mean(env, mu),
        "stationary_variance": stationary_variance(env, mu, delta),
        "clt_sigma2": clt_sigma2(env, mu, delta, alpha),
        "pgf": {str(z): v for z, v in pgf_vals.items()},
    }
    if config.queues.d >= 2:
        corr, c_const = stationary_correlation(env, config.queues.mu[0], config.queues.mu[1], delta, alpha)
        summary["stationary_correlation"] = corr
        summary["correlation_constant"] = c_const
    if config.t is not None:
        rho0 = [stationary_mean(env, m) for m in config.queues.mu]
        lc = fclt_covariance(env, config.queues, delta, alpha, rho0, config.t)
        summary["fclt_covariance"] = lc.matrix.tolist()
        summary["fclt_regime"] = lc.regime
    results.append({"summary": summary})

    if isinstance(env, Deterministic):
        tol = config.tol("pgf_abs_tol")
        lam = env.value
        worst = max(abs(pgf_vals[z] - math.exp(lam / mu * (z - 1.0))) for z in _PGF_Z_GRID)
        criteria.append(
            Criterion("pgf_poisson_degeneration", worst <= tol, worst, 0.0, tol)
        )

    ratios = []
    for N in config.N_grid:
        exact, asym = scaled_variance(env, mu, ScalingRegime(N, alpha, delta))
        row = {"N": N, "variance_exact": exact, "variance_asymptotic": asym}
        if asym > 0:
            row["ratio"] = exact / asym
            ratios.append(exact / asym)
        results.append(row)
    if len(ratios) == len(config.N_grid) and len(ratios) >= 2:
        gaps = [abs(r - 1.0) for r in ratios]
        tol = config.tol("trichotomy_rel_tol")
        monotone = all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
        criteria.append(
            Criterion("trichotomy_ratio_converges", monotone and gaps[-1] <= tol, gaps[-1], 0.0, tol)
        )

    return results, criteria


# ---------------------------------------------------------------------------
# simulate


def run_simulate(config: ExperimentConfig, out_dir=None) -> tuple[list, list]:
    import os

    from .sim import trajectory_to_csv

    _, scaling, seed, _ = next(_per_n(config))
    traj = simulate(_sim_config(config, scaling, seed, config.grid, config.initial_counts))
    moments = estimate_moments(traj)
    results = [moments.to_json()]
    files = {}
    if out_dir is not None:
        import json

        os.makedirs(out_dir, exist_ok=True)
        trajectory_to_csv(traj, os.path.join(out_dir, "trajectories.csv"))
        with open(os.path.join(out_dir, "moments.json"), "w") as f:
            doc = _finite_or_null(moments.to_json())
            json.dump(doc, f, indent=1, sort_keys=True, allow_nan=False)
        files = {"trajectories": "trajectories.csv", "moments": "moments.json"}
    results.append({"files": files})
    return results, []


# ---------------------------------------------------------------------------
# clt-check


def run_clt_check(config: ExperimentConfig, out_dir=None) -> tuple[list, list]:
    env, delta, alpha = config.env, config.delta, config.alpha
    mu = config.queues.mu[0]
    sigma2 = clt_sigma2(env, mu, delta, alpha)
    center = stationary_mean(env, mu)
    results = []
    for N, scaling, seed, dither_seed in _per_n(config):
        traj = sample_stationary(_sim_config(config, scaling, seed))
        u = normalized_endpoint(traj, scaling, [center], traj.times[0])[:, 0]
        var = float(u.var(ddof=1))
        R = u.size
        m4 = float(((u - u.mean()) ** 4).mean())
        se_var = math.sqrt(max(m4 - (R - 3) / (R - 1) * var**2, 0.0) / R)
        # uniform half-job dither removes the integer lattice before the
        # continuity-based normality test; the variance uses raw counts
        drng = np.random.Generator(np.random.PCG64(dither_seed))
        dither = drng.uniform(-0.5, 0.5, size=traj.counts.shape[0])
        u_d = u + N ** (scaling.beta / 2.0) * dither / N
        a2, pval = anderson_darling_normal(u_d)
        results.append(
            {
                "N": N,
                "variance": var,
                "sigma2": sigma2,
                "ratio": var / sigma2,
                "ratio_se": se_var / sigma2,
                "ad_stat": a2,
                "ad_pvalue": pval,
            }
        )
    last = results[-1]
    vtol = config.tol("variance_rel_tol")
    pmin = config.tol("ad_pvalue_min")
    criteria = [
        Criterion("clt_variance_ratio", abs(last["ratio"] - 1.0) <= vtol, last["ratio"], 1.0, vtol),
        Criterion("clt_normality_pvalue", last["ad_pvalue"] > pmin, last["ad_pvalue"], pmin, pmin),
    ]
    return results, criteria


# ---------------------------------------------------------------------------
# fclt-check


def run_fclt_check(config: ExperimentConfig, out_dir=None) -> tuple[list, list]:
    env, delta, alpha, t = config.env, config.delta, config.alpha, float(config.t)
    queues = config.queues
    results = []
    for N, scaling, seed, _ in _per_n(config):
        init = tuple(int(round(N * stationary_mean(env, m))) for m in queues.mu)
        rho0 = np.array(init, dtype=float) / N
        traj = simulate(_sim_config(config, scaling, seed, (t,), init))
        center = [fluid_limit(rho0[i], env, queues.mu[i], t) for i in range(queues.d)]
        u = normalized_endpoint(traj, scaling, center, t)
        emp = np.cov(u.T, ddof=1)
        target = fclt_covariance(env, queues, delta, alpha, rho0, t).matrix
        denom = np.where(np.abs(target) > 1e-12, np.abs(target), 1.0)
        rel = np.abs(emp - target) / denom
        # Gaussian-approximation SEs of the covariance entries
        se = np.sqrt((np.outer(np.diag(emp), np.diag(emp)) + emp**2) / config.replications)
        results.append(
            {
                "N": N,
                "empirical": emp.tolist(),
                "target": target.tolist(),
                "entry_se": se.tolist(),
                "max_rel_error": float(rel.max()),
            }
        )
    tol = config.tol("cov_rel_tol")
    last = results[-1]
    criteria = [
        Criterion("fclt_covariance_entries", last["max_rel_error"] <= tol, last["max_rel_error"], 0.0, tol)
    ]
    return results, criteria


# ---------------------------------------------------------------------------
# corr-check


def run_corr_check(config: ExperimentConfig, out_dir=None) -> tuple[list, list]:
    env, delta, alpha = config.env, config.delta, config.alpha
    mu_i, mu_k = config.queues.mu[0], config.queues.mu[1]
    target, c_const = stationary_correlation(env, mu_i, mu_k, delta, alpha)
    results = []
    for N, scaling, seed, _ in _per_n(config):
        mom = estimate_moments(sample_stationary(_sim_config(config, scaling, seed)))
        corr = float(
            mom.covariance[0, 0, 1] / math.sqrt(mom.variance[0, 0] * mom.variance[0, 1])
        )
        corr_se = (1.0 - corr**2) / math.sqrt(config.replications)
        results.append(
            {
                "N": N,
                "correlation": corr,
                "corr_se": corr_se,
                "target": target,
                "c_constant": c_const,
            }
        )
    tol = config.tol("corr_rel_tol")
    last = results[-1]
    criteria = [
        Criterion(
            "stationary_correlation",
            abs(last["correlation"] - target) <= tol * abs(target),
            last["correlation"],
            target,
            tol,
        )
    ]
    return results, criteria


# ---------------------------------------------------------------------------
# ldp-check


def run_ldp_check(config: ExperimentConfig, out_dir=None) -> tuple[list, list]:
    query = _ldp_query(config)
    regime = classify_regime(query)
    if regime == "fast":
        rate_res = rate_fast(query.rho_t, float(config.a))
    elif regime == "intermediate":
        rate_res = rate_intermediate(query)
    else:
        rate_res = rate_slow(query)

    results = [{"rate": rate_res.to_json()}]
    criteria: list[Criterion] = []
    if regime in ("slow_unbounded", "intermediate"):
        res_tol = config.tol("stationarity_residual_max")
        residual = rate_res.diagnostics["stationarity_residual"]
        criteria.append(
            Criterion("theta_star_stationarity", residual < res_tol, residual, 0.0, res_tol)
        )
        qtol = config.tol("quad_route_tol")
        # both routes at the log-MGF argument the rate integrated
        x, _ = legendre_argument(regime, query.delta, rate_res.theta_star)
        mu = config.queues.mu[0]
        gap = abs(
            integrated_log_mgf(config.env, mu, query.t, x, route="time")
            - integrated_log_mgf(config.env, mu, query.t, x, route="substitution")
        )
        criteria.append(Criterion("quadrature_dual_route", gap <= qtol, gap, 0.0, qtol))

    xs, ys, ses = [], [], []
    warn = config.tol("rel_err_warn")
    for N, scaling, seed, _ in _per_n(config):
        log_p, rel_err = estimate_log_tail(
            query, N, config.replications, seed, rate_res.theta_star, config.block_tol
        )
        x = speed_value(rate_res.speed, scaling)
        row = {
            "N": N,
            "log_prob": log_p,
            "prob": math.exp(log_p) if log_p > -700 else 0.0,
            "rel_err": rel_err,
            "speed_value": x,
            "rel_err_warning": bool(rel_err > warn),
        }
        results.append(row)
        if math.isfinite(log_p):
            xs.append(x)
            ys.append(log_p)
            ses.append(max(rel_err, 1e-6))
    if len(xs) >= 2:
        # detrend the 1/2 log(speed) tail prefactor: log P = rate*x - log(x)/2 + O(1),
        # so the regression of log P + log(x)/2 on x isolates the decay rate
        ys_detrended = [y + 0.5 * math.log(x) for x, y in zip(xs, ys)]
        slope, slope_se = _wls_slope(xs, ys_detrended, ses)
        raw_slope, _ = _wls_slope(xs, ys, ses)
    else:
        slope = slope_se = raw_slope = math.nan
    results.append(
        {"slope": slope, "slope_se": slope_se, "raw_slope": raw_slope, "rate": rate_res.rate}
    )
    stol = config.tol("slope_rel_tol")
    ok = math.isfinite(slope) and abs(slope - rate_res.rate) <= stol * abs(rate_res.rate)
    criteria.append(Criterion("ldp_slope_matches_rate", ok, slope, rate_res.rate, stol))
    if out_dir is not None:
        import json
        import os

        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "rates.json"), "w") as f:
            doc = _finite_or_null(rate_res.to_json())
            json.dump(doc, f, indent=1, sort_keys=True, allow_nan=False)
            f.write("\n")
    return results, criteria


# ---------------------------------------------------------------------------


_RUNNERS = {
    "analytic": run_analytic,
    "simulate": run_simulate,
    "clt-check": run_clt_check,
    "fclt-check": run_fclt_check,
    "corr-check": run_corr_check,
    "ldp-check": run_ldp_check,
}


def run(config: ExperimentConfig, out_dir=None) -> Report:
    """Validate, dispatch and time one runner; DomainError, and an OverflowError
    from a value too large for float arithmetic, surface as ConfigError."""
    t0 = time.perf_counter()
    try:
        _validate(config)
        results, criteria = _RUNNERS[config.kind](config, out_dir)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    except OverflowError as exc:  # such as a rate or service rate of 1e308, squared
        raise ConfigError(f"a config value overflows float arithmetic: {exc}") from exc
    return Report(
        kind=config.kind,
        config=config.to_json(),
        seed=config.seed,
        results=results,
        criteria=criteria,
        wall_clock_s=time.perf_counter() - t0,
    )
