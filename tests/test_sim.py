"""Simulator law checks against analytic oracles and the event-level reference."""

import math

import numpy as np
import pytest
from scipy import stats

from coxq.analytic import (
    QueueParams,
    fluid_limit,
    scaled_variance,
    stationary_covariance,
    stationary_mean,
    transient_moments,
)
from coxq.env import Deterministic, Exponential, ScalingRegime
from coxq.errors import InsufficientData, RangeError, ResourceError
from coxq.reference import simulate_events
from coxq.sim import (
    SimConfig,
    cell_table,
    estimate_moments,
    normalized_endpoint,
    sample_stationary,
    simulate,
    trajectory_to_csv,
)


def make_config(**kw):
    base = dict(
        env=Exponential(1.0),
        queues=QueueParams((1.0,)),
        scaling=ScalingRegime(1, 0.0, 1.0),
        grid=(2.0,),
        initial_counts=(0,),
        replications=100,
        seed=7,
    )
    base.update(kw)
    return SimConfig(**base)


# -- configuration validation -------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(grid=())
    with pytest.raises(ValueError):
        make_config(grid=(2.0, 1.0))
    with pytest.raises(ValueError):
        make_config(grid=(-0.5, 2.0))
    with pytest.raises(ValueError):
        make_config(initial_counts=(1, 2))


def test_event_budget_guard():
    # N E[L] grid[-1] R = 1e9 * 1 * 2 * 10 expected arrivals is over the budget
    with pytest.raises(ResourceError, match="arrival events"):
        simulate(make_config(scaling=ScalingRegime(10**9, 0.0, 1.0), replications=10))


# -- basic laws ---------------------------------------------------------------


def test_no_arrivals_initial_decay():
    # Deterministic(0): only the initial jobs remain; survival prob e^{-mu t}.
    cfg = make_config(
        env=Deterministic(0.0),
        queues=QueueParams((0.7,)),
        grid=(1.5,),
        initial_counts=(50,),
        replications=4000,
    )
    traj = simulate(cfg)
    p = math.exp(-0.7 * 1.5)
    frac = traj.counts[:, 0, 0].mean() / 50
    se = math.sqrt(p * (1 - p) / 50 / 4000)
    assert abs(frac - p) < 4 * se
    assert traj.counts.max() <= 50


def test_initial_counts_at_time_zero():
    cfg = make_config(grid=(0.0, 2.0), initial_counts=(9,), replications=10)
    traj = simulate(cfg)
    assert np.all(traj.counts[:, 0, 0] == 9)


def test_mminf_warm_started_variance_mean_ratio():
    # Deterministic rate: stationary law is Poisson, variance/mean = 1.
    cfg = make_config(
        env=Deterministic(1.0),
        scaling=ScalingRegime(20, 1.0, 1.0),
        replications=10_000,
        seed=3,
    )
    mom = estimate_moments(sample_stationary(cfg))
    ratio = mom.variance[0, 0] / mom.mean[0, 0]
    se_ratio = mom.se_variance[0, 0] / mom.mean[0, 0]
    assert abs(ratio - 1.0) < 3 * se_ratio


def test_transient_moments_match_analytic():
    cfg = make_config(replications=20_000, seed=11)
    mom = estimate_moments(simulate(cfg))
    mean, var = transient_moments(Exponential(1.0), 1.0, 1.0, 2.0)
    assert abs(mom.mean[0, 0] - mean) < 3 * mom.se_mean[0, 0]
    assert abs(mom.variance[0, 0] - var) < 4 * mom.se_variance[0, 0]


def test_stationary_deterministic_is_poisson():
    # kappa is degenerate, so the samples are exactly Poisson(N lambda / mu).
    cfg = make_config(
        env=Deterministic(2.0),
        scaling=ScalingRegime(50, 0.0, 1.0),
        replications=20_000,
        seed=5,
    )
    x = sample_stationary(cfg).counts[:, 0, 0]
    lam = 100.0
    lo, hi = 60, 140
    edges = np.arange(lo, hi + 1)
    observed = np.array([(x == k).sum() for k in edges], dtype=float)
    observed = np.concatenate([[np.sum(x < lo)], observed, [np.sum(x > hi)]])
    pmf = stats.poisson.pmf(edges, lam)
    expected = np.concatenate([[stats.poisson.cdf(lo - 1, lam)], pmf, [stats.poisson.sf(hi, lam)]])
    expected *= x.size
    keep = expected > 5
    chi2 = ((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum()
    p = stats.chi2.sf(chi2, keep.sum() - 1)
    assert p > 1e-3


def test_stationary_mean_and_variance_match_analytic():
    env = Exponential(1.0)
    scaling = ScalingRegime(100, 1.0, 1.0)
    cfg = make_config(env=env, scaling=scaling, replications=30_000, seed=17)
    mom = estimate_moments(sample_stationary(cfg))
    target_mean = scaling.N * stationary_mean(env, 1.0)
    exact_var, _ = scaled_variance(env, 1.0, scaling)
    assert abs(mom.mean[0, 0] - target_mean) < 3 * mom.se_mean[0, 0]
    assert abs(mom.variance[0, 0] - exact_var) < 3 * mom.se_variance[0, 0]


# -- moment estimation ---------------------------------------------------------


def _traj_from_counts(counts):
    counts = np.asarray(counts, dtype=np.int64)
    from coxq.sim import Trajectory

    return Trajectory(times=np.zeros(counts.shape[1]), counts=counts)


def test_estimate_moments_identical_replications():
    mom = estimate_moments(_traj_from_counts(np.full((8, 1, 1), 4)))
    assert mom.variance[0, 0] == 0.0


def test_estimate_moments_two_replications():
    mom = estimate_moments(_traj_from_counts([[[0]], [[2]]]))
    assert mom.mean[0, 0] == pytest.approx(1.0)
    assert mom.variance[0, 0] == pytest.approx(2.0)  # n-1 denominator


def test_estimate_moments_insufficient():
    with pytest.raises(InsufficientData):
        estimate_moments(_traj_from_counts(np.zeros((1, 1, 1))))


def test_disjoint_streams_have_zero_covariance():
    # Fixture: two d=1 simulations with independent seeds stacked as d=2.
    a = simulate(make_config(replications=5000, seed=21)).counts
    b = simulate(make_config(replications=5000, seed=22)).counts
    stacked = np.concatenate([a, b], axis=2)
    mom = estimate_moments(_traj_from_counts(stacked))
    cov = mom.covariance[0, 0, 1]
    se = math.sqrt(mom.variance[0, 0] * mom.variance[0, 1] / 5000)
    assert abs(cov) < 3 * se


# -- normalized endpoints --------------------------------------------------------


def test_normalized_endpoint_centering_and_scale():
    cfg = make_config(
        scaling=ScalingRegime(100, 2.0, 1.0), replications=50, grid=(2.0,), seed=2
    )
    traj = simulate(cfg)
    center = [0.3]
    u = normalized_endpoint(traj, cfg.scaling, center, 2.0)
    # beta/2 form equals -gamma/2 form since beta + gamma = 2
    gamma = cfg.scaling.gamma
    alt = 100 ** (-gamma / 2.0) * (traj.counts[:, 0, :] - 100 * np.asarray(center))
    assert np.allclose(u, alt)
    traj.counts[:, 0, 0] = 100
    assert np.all(normalized_endpoint(traj, cfg.scaling, [1.0], 2.0) == 0.0)
    with pytest.raises(RangeError):
        normalized_endpoint(traj, cfg.scaling, [1.0], 1.0)


def test_normalized_stationary_variance_near_sigma2():
    from coxq.analytic import clt_sigma2

    env = Exponential(1.0)
    scaling = ScalingRegime(2000, 0.5, 2.0)
    cfg = make_config(env=env, scaling=scaling, replications=4000, seed=29)
    traj = sample_stationary(cfg)
    u = normalized_endpoint(traj, scaling, [stationary_mean(env, 1.0)], traj.times[0])
    sigma2 = clt_sigma2(env, 1.0, 2.0, 0.5)
    assert u.var(ddof=1) == pytest.approx(sigma2, rel=0.10)


# -- determinism ------------------------------------------------------------------


def test_bit_identical_reruns_and_schedule_independence():
    cfg = make_config(replications=5, seed=99, queues=QueueParams((1.0, 2.0)), initial_counts=(3, 1))
    t1 = simulate(cfg)
    t2 = simulate(cfg)
    assert np.array_equal(t1.counts, t2.counts)
    # replication r depends only on (seed, r): a shorter run is a prefix
    t3 = simulate(make_config(replications=3, seed=99, queues=QueueParams((1.0, 2.0)), initial_counts=(3, 1)))
    assert np.array_equal(t1.counts[:3], t3.counts)


def test_csv_export_deterministic(tmp_path):
    cfg = make_config(replications=3, grid=(1.0, 2.0), seed=1)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    trajectory_to_csv(simulate(cfg), p1)
    trajectory_to_csv(simulate(cfg), p2)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == "replication,time,queue,count"
    assert lines[1].startswith("0,1.0,0,")


# -- cell table: deterministic mean oracle ----------------------------------------


@pytest.mark.parametrize("mu", [(1.0,), (1.0, 2.0)])
@pytest.mark.parametrize(
    "h, block_tol, grid",
    [
        (0.1, 0.01, (0.0, 0.5, 1.0, 1.0, 2.0)),  # exact, on the slot lattice
        (0.1, 0.0, (0.1234567, 0.14, 0.1455, 1.05)),  # exact, three reads in one slot
        (1e-3, 0.01, (0.25, 0.5, 0.5, 1.0)),  # blocked, on the lattice
        (1e-3, 0.01, (1.4e-3, 0.1234567, 0.1236, 0.6)),  # blocked, off the lattice
        (2.5e-5, 0.01, (0.1234567, 0.3)),  # blocked, 400-slot blocks for d = 1
    ],
)
def test_cell_table_tiles_grid_and_reproduces_transient_mean(mu, h, block_tol, grid):
    table = cell_table(mu, h, grid, block_tol)
    blocked = block_tol > 0 and h < block_tol / sum(mu)
    assert table.blocked == blocked
    assert table.slots.min() >= 1
    assert table.slots.max() <= (max(1, int(block_tol / (sum(mu) * h))) if blocked else 1)
    edges = np.concatenate([[0], np.cumsum(table.slots)]) * h
    tiny = 1e-12
    prev = 0.0
    for cells, t in zip(table.cells, grid):
        if t == prev:
            assert cells.start == cells.stop
            continue
        lo, hi = edges[cells.start : cells.stop], edges[cells.start + 1 : cells.stop + 1]
        # consecutive cells, the first reaching past t_(g-1), the last past t_g
        assert lo[0] <= prev + tiny < hi[0]
        assert lo[-1] < t - tiny <= hi[-1]
        # a cell cut by a grid time is a single slot
        cut = (lo < prev - tiny) | (hi > t + tiny)
        assert np.all(table.slots[cells][cut] == 1)
        prev = t

    # N E[L] sum_g' sum_{S containing i} w e^(-mu_i (t_g - t_g')) is the exact mean
    env, N = Exponential(1.0), 200
    for i, m in enumerate(mu):
        cols = [s - 1 for s in range(1, 2 ** len(mu)) if s >> i & 1]
        for g, t in enumerate(grid):
            implied = N * env.mean * sum(
                table.weights[k][:, cols].sum() * math.exp(-m * (t - grid[k])) for k in range(g + 1)
            )
            assert implied == pytest.approx(N * transient_moments(env, m, h, t)[0], rel=1e-12)


def test_cell_table_exact_mode_slot_guard():
    with pytest.raises(ResourceError):
        cell_table((1.0,), 1e-7, (1.0,), 0.0)


# -- engine law vs independent routes ---------------------------------------------


def test_blocked_mode_matches_exact_mode_moments():
    kw = dict(
        scaling=ScalingRegime(400, 1.0, 1.0),  # slot length 2.5e-3
        grid=(2.0,),
        replications=6000,
    )
    exact = estimate_moments(simulate(make_config(block_tol=0.0, seed=31, **kw)))
    blocked = estimate_moments(simulate(make_config(block_tol=0.01, seed=32, **kw)))
    se_m = math.hypot(exact.se_mean[0, 0], blocked.se_mean[0, 0])
    se_v = math.hypot(exact.se_variance[0, 0], blocked.se_variance[0, 0])
    assert abs(exact.mean[0, 0] - blocked.mean[0, 0]) < 4 * se_m
    assert abs(exact.variance[0, 0] - blocked.variance[0, 0]) < 4 * se_v


def test_blocked_mode_matches_exact_mode_two_queues():
    kw = dict(
        queues=QueueParams((1.0, 2.0)),
        scaling=ScalingRegime(400, 1.0, 1.0),
        grid=(1.5,),
        initial_counts=(0, 0),
        replications=6000,
    )
    exact = estimate_moments(simulate(make_config(block_tol=0.0, seed=33, **kw)))
    blocked = estimate_moments(simulate(make_config(block_tol=0.03, seed=34, **kw)))
    for i in range(2):
        se = math.hypot(exact.se_mean[0, i], blocked.se_mean[0, i])
        assert abs(exact.mean[0, i] - blocked.mean[0, i]) < 4 * se
    c_e, c_b = exact.covariance[0, 0, 1], blocked.covariance[0, 0, 1]
    se_c = math.sqrt(
        sum(
            (m.variance[0, 0] * m.variance[0, 1] + c**2) / 6000
            for m, c in ((exact, c_e), (blocked, c_b))
        )
    )
    assert abs(c_e - c_b) < 4 * se_c


def test_engine_matches_reference_event_simulator():
    kw = dict(
        env=Exponential(1.0),
        queues=QueueParams((1.0, 2.0)),
        scaling=ScalingRegime(5, 0.0, 0.6),
        grid=(0.7, 2.0),
        initial_counts=(3, 1),
        replications=6000,
    )
    fast = estimate_moments(simulate(make_config(seed=41, **kw)))
    ref_traj, _ = simulate_events(make_config(seed=42, **kw))
    ref = estimate_moments(ref_traj)
    for g in range(2):
        for i in range(2):
            se = math.hypot(fast.se_mean[g, i], ref.se_mean[g, i])
            assert abs(fast.mean[g, i] - ref.mean[g, i]) < 4 * se
            se_v = math.hypot(fast.se_variance[g, i], ref.se_variance[g, i])
            assert abs(fast.variance[g, i] - ref.variance[g, i]) < 4 * se_v
        # shared arrivals couple the queues; covariances must agree too
        c_f = fast.covariance[g, 0, 1]
        c_r = ref.covariance[g, 0, 1]
        se_c = math.sqrt(
            (fast.variance[g, 0] * fast.variance[g, 1] + c_f**2) / 6000
            + (ref.variance[g, 0] * ref.variance[g, 1] + c_r**2) / 6000
        )
        assert abs(c_f - c_r) < 4 * se_c


def test_transient_moments_match_event_reference_off_boundary():
    # independent of the slot-weight algebra: explicit events at a read time
    # that falls inside a slot (full slot + partial slot both contribute)
    env, mu, delta, t = Exponential(1.0), 1.0, 1.0, 1.5
    cfg = make_config(env=env, grid=(t,), replications=40_000, seed=71)
    ref, _ = simulate_events(cfg)
    mom = estimate_moments(ref)
    mean, var = transient_moments(env, mu, delta, t)
    assert abs(mom.mean[0, 0] - mean) < 3.5 * mom.se_mean[0, 0]
    assert abs(mom.variance[0, 0] - var) < 4 * mom.se_variance[0, 0]


def test_birth_death_paths_in_reference_logs():
    cfg = make_config(
        queues=QueueParams((1.0, 0.5)),
        initial_counts=(4, 2),
        replications=3,
        grid=(2.0,),
        seed=13,
        scaling=ScalingRegime(3, 0.0, 0.5),
    )
    _, logs = simulate_events(cfg, keep_logs=True)
    for log in logs:
        for i in range(2):
            ups = log.epochs
            downs = np.concatenate([log.departures[:, i], log.initial_departures[i]])
            times = np.concatenate([ups, downs])
            steps = np.concatenate([np.ones(ups.size), -np.ones(downs.size)])
            order = np.argsort(times, kind="stable")
            # distinct event times (a.s.) and a path that never goes negative
            assert np.unique(times).size == times.size
            path = cfg.initial_counts[i] + np.cumsum(steps[order])
            alive_at_end = path[times[order] <= 2.0]
            assert np.all(cfg.initial_counts[i] + np.cumsum(steps[order]) >= 0)
            assert np.all(np.abs(np.diff(np.concatenate([[0.0], np.cumsum(steps[order])]))) == 1)


def test_two_queue_covariance_matches_exact_expression():
    # Monte Carlo stationary covariance against the exact finite-N value at N=500.
    env = Exponential(1.0)
    scaling = ScalingRegime(500, 1.0, 1.0)
    cfg = make_config(
        env=env,
        queues=QueueParams((1.0, 2.0)),
        scaling=scaling,
        initial_counts=(0, 0),
        replications=20_000,
        block_tol=0.1,
        seed=51,
    )
    mom = estimate_moments(sample_stationary(cfg))
    target = stationary_covariance(env, 1.0, 2.0, scaling)
    c = mom.covariance[0, 0, 1]
    se = math.sqrt((mom.variance[0, 0] * mom.variance[0, 1] + c**2) / cfg.replications)
    assert abs(c - target) < 4 * se


def test_fluid_limit_error_shrinks():
    env = Exponential(1.0)
    grid = tuple(np.linspace(0.0, 2.0, 9))
    sups = {}
    for N in (100, 10_000):
        scaling = ScalingRegime(N, 1.0, 1.0)
        cfg = make_config(
            env=env,
            scaling=scaling,
            grid=grid,
            replications=200,
            seed=61,
        )
        traj = simulate(cfg)
        rho = np.array([fluid_limit(0.0, env, 1.0, t) for t in grid])
        err = np.abs(traj.counts[:, :, 0] / N - rho).max(axis=1)
        sups[N] = float(np.median(err))
    assert sups[10_000] <= sups[100] / 2.0
