"""Simulator law checks against analytic oracles and the event-level reference."""

import collections
import itertools
import math
import os
import re
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from coxq import sim
from coxq.analytic import (
    QueueParams,
    fluid_limit,
    scaled_variance,
    stationary_covariance,
    stationary_mean,
    transient_moments,
)
from coxq.env import Deterministic, DiscreteFinite, Exponential, Gamma, ScalingRegime
from coxq.errors import InsufficientData, RangeError, ResourceError
from coxq.sim import (
    SimConfig,
    Trajectory,
    block_rows,
    cell_table,
    estimate_moments,
    normalized_endpoint,
    sample_stationary,
    simulate,
    trajectory_to_csv,
)

from reference import simulate_events


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


def test_initial_counts_bound():
    # counts up to 2^53 stay exact in the float64 moments and far from int64 overflow
    traj = simulate(make_config(initial_counts=(2**53,), grid=(0.0, 1.0), replications=2))
    assert traj.counts[:, 0, 0].tolist() == [2**53, 2**53]
    for count in (2**53 + 1, 2**63):
        with pytest.raises(ValueError, match="initial_counts must be at most 2\\^53"):
            make_config(initial_counts=(count,))


def test_event_budget_guard():
    # 2e9 expected arrivals per replication on a 2-cell table are little draw
    # work; past 2^53 per replication a count could lose exactness
    traj = simulate(make_config(scaling=ScalingRegime(10**9, 0.0, 1.0), replications=10))
    assert traj.counts.shape == (10, 1, 1) and traj.counts.min() > 0
    with pytest.raises(ResourceError, match=r"N E\[L\] grid\[-1\] = 1\.801e\+16 exceed 2\^53"):
        simulate(make_config(scaling=ScalingRegime(2**52, 0.0, 1.0), grid=(4.0,)))
    # (2^23 + 1) R x 2 G x 1 d counts are just over the output budget of 2^24
    with pytest.raises(ResourceError, match="output counts"):
        simulate(make_config(grid=(1.0, 2.0), replications=2**23 + 1))


def test_check_work_counts_draws_pattern_weights_and_passes():
    # h = 0.5 up to grid (1, 2, 2), one slot a cell: 2 + 2 + 0 cells, each with
    # 2^2 - 1 pattern weights at its grid time; 256 rows a block, so R = 300
    # takes 2 blocks, and a constant IS layer one row in one block
    table = cell_table((1.0, 2.0), 0.5, (1.0, 2.0, 2.0), 0.0)
    assert table.slots.size == 4 and sum(w.size for w in table.weights) == 12
    passes = 3 * sim._PASS_COST
    assert sim.check_work(table, Exponential(1.0), 300, 1) == 2 * (256 * (4 + 12) + passes)
    five_atoms = DiscreteFinite([0.0, 1.0, 2.0, 3.0, 4.0], [0.2] * 5)
    assert five_atoms.draw_cost == 5 and Gamma(2.0, 1.0).draw_cost == 1
    assert sim.check_work(table, five_atoms, 300, 1) == 2 * (256 * (5 * 4 + 12) + passes)
    assert sim.check_work(table, Deterministic(1.0), 300, 1, one_row=True) == 4 + 12 + passes


def test_check_work_refuses_past_its_budgets(monkeypatch):
    table = cell_table((1.0,), 0.5, (2.0,), 0.0)  # 4 cells and 4 weights: 2^11 per block and a pass
    monkeypatch.setattr(sim, "_WORK_BUDGET", 2 * (2**11 + sim._PASS_COST))
    assert sim.check_work(table, Exponential(1.0), 512, 7) == sim._WORK_BUDGET
    work = f"{3 * (2**11 + sim._PASS_COST):.3e}"
    with pytest.raises(ResourceError, match=re.escape(
        f"predicted draw work {work} at N = 7 (3 blocks of 256 rows x 4 cells; grid times: 1) "
        f"exceeds the budget {sim._WORK_BUDGET:.3e}; shrink the replications"
    )):
        sim.check_work(table, Exponential(1.0), 513, 7)
    with pytest.raises(ResourceError, match=r"^16777217 replications exceed the budget"):
        sim.check_work(table, Exponential(1.0), 2**24 + 1, 7, one_row=True)


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


def test_estimate_moments_match_whole_array_formulas_within_one_grid_time_of_memory():
    # reference: the same moments over the whole (R, G, d) float array at once
    counts = np.random.default_rng(5).poisson(50.0, size=(20_000, 8, 3))
    x = counts.astype(float)
    R = x.shape[0]
    dev = x - x.mean(axis=0)
    variance = (dev**2).sum(axis=0) / (R - 1)
    m4 = (dev**4).mean(axis=0)
    se_variance = np.sqrt((m4 - (R - 3) / (R - 1) * variance**2) / R)
    traj = _traj_from_counts(counts)
    tracemalloc.start()
    try:
        mom = estimate_moments(traj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(mom.mean, x.mean(axis=0))
    assert np.array_equal(mom.variance, variance)
    assert np.array_equal(mom.covariance, np.einsum("rgi,rgk->gik", dev, dev) / (R - 1))
    # m4 from (dev^2)^2 rather than pow(dev, 4) moves only the last digits
    np.testing.assert_allclose(mom.se_variance, se_variance, rtol=1e-12)
    assert peak <= counts.nbytes  # a few float copies of one grid time, not of the output


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    R=st.integers(2, 3000),
    d=st.integers(1, 4),
    level=st.floats(0.5, 1e6),
    N=st.integers(1, 10**6),
    beta=st.floats(0.0, 2.0),
    offset=st.floats(0.5, 1.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_estimate_moments_of_a_normalized_read_matches_the_reductions_it_replaced(
    R, d, level, N, beta, offset, seed
):
    # clt-check, fclt-check and corr-check reduce the read u = N^(beta/2) (counts/N -
    # center) with estimate_moments; before, clt-check took u.var(ddof=1) with a
    # pow-4 SE, fclt-check np.cov, and corr-check the correlation of the raw counts
    rng = np.random.default_rng(seed)
    shared = rng.poisson(level, size=(R, 1))  # a common part, so the queues correlate
    counts = shared + rng.poisson(level * rng.uniform(0.1, 2.0, size=d), size=(R, d))
    assume(np.all(counts.min(axis=0) < counts.max(axis=0)))  # every variance positive
    u = N ** (beta / 2) * (counts / N - offset * counts.mean(axis=0) / N)
    mom = estimate_moments(Trajectory(np.zeros(1), u[:, None]))
    cov, var = mom.covariance[0], mom.variance[0]
    scale = np.sqrt(np.outer(var, var))  # entry (i, k)'s size, also where it is near 0
    assert np.all(np.abs(cov - np.atleast_2d(np.cov(u.T, ddof=1))) <= 1e-12 * scale)
    raw = estimate_moments(_traj_from_counts(counts[:, None]))
    raw_corr = raw.covariance[0] / np.sqrt(np.outer(raw.variance[0], raw.variance[0]))
    assert np.all(np.abs(cov / scale - raw_corr) <= 1e-12)  # correlations: their scale is 1
    for i in range(d):
        x = u[:, i]
        v = x.var(ddof=1)
        m4 = ((x - x.mean()) ** 4).mean()
        se = math.sqrt(max(m4 - (R - 3) / (R - 1) * v**2, 0.0) / R)
        assert mom.se_variance[0, i] == pytest.approx(se, rel=1e-12)
    if d == 1:
        assert var[0] == u[:, 0].var(ddof=1)  # bit for bit: clt-check's variance bytes


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


def test_block_contract_any_replication_count_is_a_prefix():
    # 50,000 exact-mode cells give blocks of 5 rows, so the counts below end
    # before, after and in the middle of a block
    cfg = make_config(
        queues=QueueParams((1.0, 2.0)),
        scaling=ScalingRegime(25_000, 1.0, 1.0),
        grid=(0.5, 1.23456, 2.0),
        initial_counts=(4, 1),
        block_tol=0.0,
        seed=5,
    )
    B = block_rows(cell_table(cfg.queues.mu, cfg.scaling.delta_n, cfg.grid, 0.0).slots.size)
    assert 4 <= B <= 8
    full = simulate(replace(cfg, replications=3 * B)).counts
    for R in (B - 1, B + 1, 2 * B + 3):
        part = simulate(replace(cfg, replications=R)).counts
        assert part.shape == (R,) + full.shape[1:]
        assert np.array_equal(part, full[:R])
    # the last, partial block holds the rows of the full block
    assert np.array_equal(part[2 * B :], full[2 * B : 2 * B + 3])
    # blocks draw from distinct streams
    assert not np.array_equal(full[:B], full[B : 2 * B])


class _RecordingGenerator:
    """A numpy Generator that records, by method name, the arguments of every
    binomial(n, p) and poisson(lam) call and every standard exponential draw (the
    rate layer of an exponential law), and delegates everything else.  With
    per_queue it draws each binomial row by row instead, one call per queue as a
    loop over queues would."""

    def __init__(self, rng, calls, per_queue=False):
        self._rng, self._calls, self._per_queue = rng, calls, per_queue

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def binomial(self, n, p):
        self._calls["binomial"].append((np.array(n), np.array(p, dtype=float)))
        if self._per_queue:
            return np.stack([self._rng.binomial(n[i], p[i, 0]) for i in range(len(n))])
        return self._rng.binomial(n, p)

    def poisson(self, lam):
        self._calls["poisson"].append(np.array(lam))
        return self._rng.poisson(lam)

    def standard_exponential(self, size):
        out = self._rng.standard_exponential(size)
        self._calls["standard_exponential"].append(out.copy())  # its caller scales it in place
        return out


def _recorded_simulate(monkeypatch, config, per_queue=False):
    """simulate(config) on recording generators: (counts, {method: its recorded calls})."""
    calls, spawn = collections.defaultdict(list), sim.spawn_streams
    monkeypatch.setattr(sim, "spawn_streams", lambda seed, n: [
        _RecordingGenerator(rng, calls, per_queue) for rng in spawn(seed, n)])
    return simulate(config).counts, calls


def test_thinning_is_one_binomial_per_grid_time_with_the_per_queue_loops_draws(monkeypatch):
    # one exact-mode block of 256 rows at d = 3, grid times on (0.5, 1.0) and off
    # the slot lattice, a repeated time (no gap, no draw) and nonzero initial counts
    mu = (1.0, 2.0, 0.5)
    config = make_config(queues=QueueParams(mu), scaling=ScalingRegime(20, 1.0, 1.0),
                         grid=(0.5, 0.5, 0.73, 1.0, 1.2345), initial_counts=(40, 7, 120),
                         block_tol=0.0, replications=256, seed=3)
    assert block_rows(cell_table(mu, config.scaling.delta_n, config.grid, 0.0).slots.size) == 256
    counts, calls = _recorded_simulate(monkeypatch, config)
    prev, before = 0.0, np.tile(config.initial_counts, (256, 1))
    drawn = iter(calls["binomial"])
    for g, t in enumerate(config.grid):
        if t > prev:
            n, p = next(drawn)
            np.testing.assert_array_equal(n, before.T)  # queue i's counts in row i
            np.testing.assert_allclose(p[:, 0], np.exp(-np.array(mu) * (t - prev)), rtol=4e-15, atol=0)
        prev, before = t, counts[:, g]
    assert next(drawn, None) is None
    per_queue, _ = _recorded_simulate(monkeypatch, config, per_queue=True)
    np.testing.assert_array_equal(counts, per_queue)


def test_poisson_intensities_are_per_slot_integrals_of_rate_times_pattern_survival(monkeypatch):
    # exact mode at d = 3 with slots of h = 0.25 and grid times on (0.5, 1.0) and off
    # (0.6, 1.3) them: pattern S's intensity over [t_(g-1), t_g) must be N times the sum,
    # over the slots k meeting it, of slot k's rate times the integral over its piece of
    # prod_(i in S) e^(-mu_i (t_g - s)) prod_(i not in S) (1 - e^(-mu_i (t_g - s))),
    # here by 30-node Gauss-Legendre on each piece, with no cell table
    mu, N, grid = (1.0, 2.0, 0.5), 16, (0.5, 0.6, 1.0, 1.3)
    config = make_config(env=Exponential(2.0), queues=QueueParams(mu), scaling=ScalingRegime(N, 0.5, 1.0),
                         grid=grid, initial_counts=(5, 7, 2), block_tol=0.0, replications=5, seed=4)
    h = config.scaling.delta_n
    assert h == 0.25
    _, calls = _recorded_simulate(monkeypatch, config)
    (standard,) = calls["standard_exponential"]  # one block: one draw, a column per slot
    rates = standard / config.env.rate
    assert rates.shape[1] == math.ceil(grid[-1] / h)
    nodes, node_weights = np.polynomial.legendre.leggauss(30)
    alive = (np.arange(1, 2**3)[:, None] >> np.arange(3)) & 1  # (pattern, queue), pattern = mask - 1
    assert len(calls["poisson"]) == len(grid)
    for prev, t, lam in zip((0.0,) + grid, grid, calls["poisson"]):
        expected = np.zeros_like(lam)
        for k in range(math.floor(prev / h), math.ceil(t / h)):
            a, b = max(k * h, prev), min((k + 1) * h, t)
            survive = np.exp(-np.outer(t - ((a + b) / 2 + (b - a) / 2 * nodes), mu))  # (node, queue)
            pattern = np.where(alive[:, None, :] == 1, survive, 1.0 - survive).prod(axis=2)
            expected += N * rates[:, [k]] * ((b - a) / 2 * (pattern @ node_weights))
        # the table's Mobius sums of exponentials cancel on a short piece whose jobs must
        # have left some queue: 1.6e-12 relative on [1.25, 1.3), 2e-14 on whole slots
        np.testing.assert_allclose(lam, expected, rtol=1e-11, atol=0)


# -- the block scheduler: threads change no byte ----------------------------------


def _workers(config) -> int:
    """The threads simulate runs config's blocks on."""
    n_cells = cell_table(config.queues.mu, config.scaling.delta_n, config.grid, config.block_tol).slots.size
    rows = block_rows(n_cells)
    return sim.block_workers(-(-config.replications // rows), rows * n_cells)


@pytest.mark.parametrize(
    "config",
    [
        # d = 3 in exact per-slot mode on a 40-point grid: 57 cells, 6 blocks of 256 rows
        make_config(queues=QueueParams((1.0, 2.0, 0.5)), scaling=ScalingRegime(200, 0.5, 1.0),
                    grid=tuple(round(0.1 * k, 10) for k in range(1, 41)), initial_counts=(150, 60, 300),
                    replications=1500, seed=11),
        # d = 2 blocked over the stationary warm-up: 127 cells, 8 blocks of 256 rows
        make_config(queues=QueueParams((1.0, 2.0)), scaling=ScalingRegime(2000, 2.0, 1.0),
                    grid=(40.0,), initial_counts=(0, 0), block_tol=0.03, replications=2048, seed=12),
        # 100 one-slot cells, a grid time inside a slot; R ends 3 rows into the 5th block
        make_config(scaling=ScalingRegime(50, 1.0, 1.0), grid=(0.5, 1.23456, 2.0),
                    initial_counts=(4,), block_tol=0.0, replications=4 * 256 + 3, seed=13),
    ],
    ids=["transient-exact-d3", "stationary-blocked-d2", "mid-block"],
)
def test_simulate_bytes_do_not_depend_on_the_thread_count(monkeypatch, config):
    monkeypatch.setattr(sim, "_CPUS", 1)
    assert _workers(config) == 1
    serial = simulate(config).counts
    monkeypatch.setattr(sim, "_CPUS", 4)
    assert _workers(config) == 4
    np.testing.assert_array_equal(simulate(config).counts, serial)


def test_a_raising_block_raises_in_the_caller_after_every_thread_stops(monkeypatch):
    monkeypatch.setattr(sim, "_CPUS", 4)
    streams = sim.spawn_streams(1, 16)
    boom = ValueError("block 5")
    ran = []

    def fn(b, rng):
        ran.append(b)
        if b == 5:
            raise boom
        time.sleep(0.01)  # the other blocks are still running when block 5 raises
        return rng.random(8)

    before = threading.active_count()
    with pytest.raises(ValueError) as info:
        sim.run_blocks(fn, streams, 8)
    assert info.value is boom
    assert threading.active_count() == before
    assert 5 in ran and len(ran) < 16  # once a block raises, no thread takes another
    # and without a raise, the results come back in block order
    results = sim.run_blocks(lambda b, rng: (b, rng.random()), sim.spawn_streams(1, 16), 8)
    assert [b for b, _ in results] == list(range(16))
    assert [x for _, x in results] == [rng.random() for rng in sim.spawn_streams(1, 16)]
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_the_lowest_raising_block_wins_whatever_raises_first(monkeypatch, cpus):
    # blocks 2 and 5 raise; on threads, block 2 waits until block 5 has raised,
    # yet block 2's error is raised, as in the serial loop
    monkeypatch.setattr(sim, "_CPUS", cpus)
    five = threading.Event()

    def fn(b, rng):
        if b == 2:
            assert cpus == 1 or five.wait(10)
            raise ValueError("block 2")
        if b == 5:
            five.set()
            raise ValueError("block 5")
        return b

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        before = threading.active_count()
        with pytest.raises(ValueError, match="block 2"):
            sim.run_blocks(fn, [None] * 16, 1)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    assert five.is_set() == (cpus > 1)


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_alongside_error_wins_and_no_block_starts_after_it(monkeypatch, error):
    # 3 workers each hold a block until the caller joins them; alongside raises
    # once all 3 have started, and block 1 raises after that: alongside's error
    # is raised, every thread is joined, and blocks 3.. never start
    monkeypatch.setattr(sim, "_CPUS", 4)
    started, gate, barrier = [], threading.Event(), threading.Barrier(4, timeout=10)
    join = threading.Thread.join

    def joining(self, *args, **kwargs):
        gate.set()
        return join(self, *args, **kwargs)

    def fn(b, rng):
        started.append(b)
        barrier.wait()
        assert gate.wait(10)
        if b == 1:
            raise RuntimeError("block 1")
        return b

    def alongside():
        assert threading.current_thread() is threading.main_thread()
        barrier.wait()
        raise error("alongside")

    monkeypatch.setattr(threading.Thread, "join", joining)
    before = threading.active_count()
    with pytest.raises(error, match="alongside"):
        sim.run_blocks(fn, [None] * 32, 1, alongside)
    assert threading.active_count() == before
    assert sorted(started) == [0, 1, 2]


def test_every_block_runs_once_under_forced_thread_switches(monkeypatch):
    # 8 threads on fewer CPUs, switching every microsecond: a block taken twice
    # or never, or a result stored in the wrong slot, breaks the equalities
    monkeypatch.setattr(sim, "_CPUS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ran = []
        results = sim.run_blocks(lambda b, rng: ran.append(b) or b, [None] * 2000, 1)
    finally:
        sys.setswitchinterval(interval)
    assert results == list(range(2000))
    assert sorted(ran) == list(range(2000))


def test_blocks_run_on_the_caller_when_no_thread_can_start(monkeypatch):
    monkeypatch.setattr(sim, "_CPUS", 4)

    def refuse(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    results = sim.run_blocks(lambda b, rng: (threading.current_thread().name, rng.random()),
                             sim.spawn_streams(2, 6), 8)
    assert results == [(threading.current_thread().name, rng.random()) for rng in sim.spawn_streams(2, 6)]


def test_block_workers_respects_every_cap(monkeypatch):
    monkeypatch.setattr(sim, "_CPUS", 64)
    assert sim.block_workers(100, 1) == sim._MAX_WORKERS == 8  # the fixed cap
    assert sim.block_workers(3, 1) == 3  # one per block
    assert sim.block_workers(100, sim._BLOCK_DRAW // 5) == 5  # _BLOCK_DRAW entries in flight
    assert sim.block_workers(100, sim._BLOCK_DRAW) == 1
    assert sim.block_workers(1, 1) == 1
    monkeypatch.setattr(sim, "_CPUS", 2)
    assert sim.block_workers(100, 1) == 2  # one per CPU
    monkeypatch.setattr(sim, "_CPUS", 1)
    assert sim.block_workers(100, 1) == 1


@pytest.mark.parametrize(
    "env, factor",
    [
        pytest.param(Deterministic(1.0), 1.5, id="deterministic"),
        pytest.param(Exponential(1.0), 1.5, id="exponential"),
        pytest.param(Gamma(2.0, 0.5), 1.5, id="gamma"),
        pytest.param(DiscreteFinite(np.linspace(0.0, 2.0, 8), np.full(8, 1 / 8)), 2.3, id="discrete"),
    ],
)
def test_simulate_allocates_about_one_block_draw(env, factor):
    # the corr-check shape (d = 2) at a block_tol small enough for over 10,000
    # cells over the warm-up.  A block's draw made while the previous block's
    # is still held is about two blocks; a float copy of (rows, cells) counts
    # would be another, and a multinomial draw of the 8-atom law would form a
    # (rows, cells, atoms) array
    cfg = make_config(
        env=env,
        queues=QueueParams((1.0, 2.0)),
        scaling=ScalingRegime(2000, 2.0, 1.0),
        initial_counts=(0, 0),
        replications=100,
        block_tol=3.3e-4,
        seed=3,
    )
    h = cfg.scaling.delta_n
    warm = math.ceil(40.0 / h - 1e-9) * h
    n_cells = cell_table(cfg.queues.mu, h, (warm,), cfg.block_tol).slots.size
    assert n_cells >= 10_000
    B = block_rows(n_cells)
    assert B * n_cells * 8 <= 2**21  # one block's rate draw is at most 2 MB
    assert cfg.replications >= 4 * B
    tracemalloc.start()
    try:
        traj = sample_stationary(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= factor * B * n_cells * 8 + traj.counts.nbytes


def test_csv_export_exact_text(tmp_path):
    # header, repr of each grid time, 0-based queues, rows in (rep, time, queue) order
    traj = Trajectory(times=np.array([0.5, 1.0 / 3.0]), counts=np.arange(8).reshape(2, 2, 2))
    path = tmp_path / "t.csv"
    trajectory_to_csv(traj, path)
    assert path.read_text() == (
        "replication,time,queue,count\n"
        "0,0.5,0,0\n0,0.5,1,1\n0,0.3333333333333333,0,2\n0,0.3333333333333333,1,3\n"
        "1,0.5,0,4\n1,0.5,1,5\n1,0.3333333333333333,0,6\n1,0.3333333333333333,1,7\n"
    )


def _one_shot_csv(traj, path):
    """The export as one conversion of every count to a Python int: the reference bytes."""
    template = "".join(f"\0,{float(t)!r},{i},%d\n" for t in traj.times for i in range(traj.d))
    rows = traj.counts.reshape(traj.replications, -1).tolist()
    with open(path, "w") as f:
        f.write("replication,time,queue,count\n")
        for r, row in enumerate(rows):
            f.write((template % tuple(row)).replace("\0", str(r)))


@pytest.mark.parametrize("chunk", [sim._CSV_CHUNK, 4], ids=["module-chunk", "chunk-of-4"])
@pytest.mark.parametrize("d", [1, 3])
def test_csv_export_chunks_match_one_shot_bytes(tmp_path, monkeypatch, chunk, d):
    # replication counts around the chunk edges, in replications per chunk;
    # a chunk of 4 counts holds less than one replication at d = 3 (G d = 6),
    # so there each replication is its own chunk
    monkeypatch.setattr(sim, "_CSV_CHUNK", chunk)
    times = np.array([0.1, 1.0 / 3.0])
    c = max(1, chunk // (times.size * d))
    for R in sorted({1, c - 1, c, c + 1, 3 * c + 5} - {0}):
        counts = np.random.default_rng(R * d).integers(0, 2**40, size=(R, times.size, d))
        traj = Trajectory(times=times, counts=counts)
        trajectory_to_csv(traj, tmp_path / "chunked.csv")
        _one_shot_csv(traj, tmp_path / "one_shot.csv")
        assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "one_shot.csv").read_bytes(), R


def test_csv_export_memory_does_not_grow_with_replications():
    # R G d = 2^19 counts (4 MiB of int64): a one-shot conversion to Python
    # ints holds about 20 MiB more, ten times the bound; the chunked export
    # holds one chunk of them
    R, G, d = 2**12, 64, 2
    counts = np.random.default_rng(0).integers(0, 10**6, size=(R, G, d))
    traj = Trajectory(times=np.arange(1, G + 1) / 8.0, counts=counts)
    tracemalloc.start()
    try:
        trajectory_to_csv(traj, os.devnull)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


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


def _naive_csv(traj) -> bytes:
    """The export written row by row, the reference bytes."""
    lines = ["replication,time,queue,count\n"]
    for r in range(traj.replications):
        for g, t in enumerate(traj.times):
            for i in range(traj.d):
                lines.append(f"{r},{float(t)!r},{i},{traj.counts[r, g, i]}\n")
    return "".join(lines).encode()


@pytest.mark.parametrize(
    "R, G, d",
    [(390, 7, 3), (1024, 8, 1), (1025, 8, 1), (3, 4100, 2)],
    ids=["below-chunk", "at-chunk", "above-chunk", "replication-over-chunk"],
)
def test_csv_export_bytes_equal_a_naive_writer(tmp_path, R, G, d):
    # R G d = 8190, 8192, 8200 and 24600 counts against _CSV_CHUNK = 8192; the
    # last holds 8200 counts in each replication
    assert sim._CSV_CHUNK == 8192
    times = np.array([0.1, 1.0 / 3.0, 1e-7, 2.5, 1e22, 7.0])[np.arange(G) % 6] + np.arange(G)
    counts = np.random.default_rng(R + G + d).integers(0, 2**53, size=(R, G, d))
    traj = Trajectory(times=times, counts=counts)
    trajectory_to_csv(traj, tmp_path / "t.csv")
    written = (tmp_path / "t.csv").read_bytes()
    assert b"\r" not in written
    assert written == _naive_csv(traj)


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
    assert table.slots.min() >= 1
    if not blocked:
        assert table.slots.max() == 1
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


def test_cell_table_weight_budget_counts_cells_times_patterns_over_grid_times(monkeypatch):
    # two intervals of 50 one-slot cells at d = 3: 100 x 2^3 = 800 weights
    monkeypatch.setattr(sim, "_WEIGHT_BUDGET", 800)
    cell_table((1.0, 2.0, 0.5), 0.01, (0.5, 1.0), 0.0)
    monkeypatch.setattr(sim, "_WEIGHT_BUDGET", 799)
    with pytest.raises(ResourceError, match="mu or raise block_tol"):
        cell_table((1.0, 2.0, 0.5), 0.01, (0.5, 1.0), 0.0)


def _inclusion_exclusion_weights(a, b, t_end, mu):
    """The alive-pattern weights by inclusion-exclusion over supersets, 4^d
    steps on the same 2^d subset integrals: the reference for the Moebius pass
    of sim._category_weights."""
    d = len(mu)
    sub = np.empty((a.size, 2**d))
    for t_mask in range(2**d):
        mu_t = sum(mu[i] for i in range(d) if t_mask >> i & 1)
        if mu_t == 0.0:
            sub[:, t_mask] = b - a
        else:
            sub[:, t_mask] = (np.exp(-mu_t * (t_end - b)) - np.exp(-mu_t * (t_end - a))) / mu_t
    w = np.zeros((a.size, 2**d - 1))
    for s_mask in range(1, 2**d):
        acc = np.zeros(a.size)
        for t_mask in range(2**d):
            if t_mask & s_mask == s_mask:
                sign = -1.0 if (bin(t_mask ^ s_mask).count("1") % 2) else 1.0
                acc += sign * sub[:, t_mask]
        w[:, s_mask - 1] = np.maximum(acc, 0.0)
    return w


@pytest.mark.parametrize("d", range(1, 9))
def test_category_weights_match_inclusion_exclusion(d):
    # random cells tiling [t_start, t_end), read at t_end, service rates
    # log-uniform in [0.05, 20]; the pass sums each weight's 2^(d - |S|) signed
    # terms in another order, so it keeps every bit only at d <= 2 (one
    # subtraction) and elsewhere stays within float64 rounding of the widths
    rng = np.random.default_rng(d)
    for _ in range(10):
        t_end = rng.uniform(0.1, 10.0)
        edges = np.append(np.sort(rng.uniform(0.0, t_end, 40)), t_end)
        a, b = edges[:-1], edges[1:]
        mu = tuple(np.exp(rng.uniform(math.log(0.05), math.log(20.0), d)))
        w = sim._category_weights(a, b, t_end, mu)
        ref = _inclusion_exclusion_weights(a, b, t_end, mu)
        assert w.shape == ref.shape and w.flags.c_contiguous
        if d <= 2:
            assert np.array_equal(w, ref)
        else:
            assert np.all(np.abs(w - ref) <= 1e-15 * (b - a)[:, None])


def _per_interval_weights(a, b, t_end, mu):
    """One grid time's alive-pattern weights, one call per grid time: the
    reference for cell_table's one pass over every grid time."""
    d = len(mu)
    sub = np.empty((a.size, 2**d))
    for t_mask in range(2**d):
        mu_t = sum(mu[i] for i in range(d) if t_mask >> i & 1)
        if mu_t == 0.0:
            sub[:, t_mask] = b - a
        else:
            sub[:, t_mask] = (np.exp(-mu_t * (t_end - b)) - np.exp(-mu_t * (t_end - a))) / mu_t
    for i in range(d):
        pair = sub.reshape(a.size, 2 ** (d - 1 - i), 2, 2**i)
        pair[:, :, 0] -= pair[:, :, 1]
    return np.maximum(sub[:, 1:], 0.0)


@st.composite
def _weight_pass_cases(draw):
    d = draw(st.integers(1, 4))
    mu = tuple(draw(st.sampled_from([0.3, 0.5, 1.0, 2.0, 3.7])) for _ in range(d))
    h = draw(st.sampled_from([1e-3, 0.01, 0.037, 0.1]))
    block_tol = draw(st.sampled_from([0.0, 0.01, 0.05, 0.3]))  # blocked where h < block_tol/sum(mu)
    times = [k * h for k in draw(st.lists(st.integers(1, 300), max_size=12))]  # on the lattice
    times += draw(st.lists(st.floats(1e-3, 3.0), min_size=1, max_size=12))  # off it, mostly
    if draw(st.booleans()):
        times.append(0.0)
    if draw(st.booleans()):
        times.append(times[0])  # a repeated grid time
    # 0 gives each grid time with cells a pass of its own; 16 and 256 cut passes mid-grid
    limit = draw(st.sampled_from([0, 16, 256, sim._WEIGHT_PASS]))
    return mu, h, tuple(sorted(times)), block_tol, limit


def _assert_one_pass_weights_equal_per_interval_calls(mu, h, grid, block_tol, limit):
    with mock.patch.object(sim, "_WEIGHT_PASS", limit):
        table = cell_table(mu, h, grid, block_tol)
    with mock.patch.object(sim, "_WEIGHT_PASS", 0):
        alone = cell_table(mu, h, grid, block_tol)
    assert np.array_equal(table.slots, alone.slots) and table.slots.dtype == alone.slots.dtype
    assert table.cells == alone.cells
    edges = np.array([0, *np.cumsum(table.slots)], dtype=float) * h
    prev = 0.0
    assert len(table.weights) == len(grid)
    for cells, w, t_end in zip(table.cells, table.weights, grid):
        bounds = edges[cells.start : cells.stop + 1]
        ref = _per_interval_weights(np.maximum(bounds[:-1], prev), np.minimum(bounds[1:], t_end), t_end, mu)
        assert w.shape == ref.shape == (cells.stop - cells.start, 2 ** len(mu) - 1)
        assert np.array_equal(w, ref)
        prev = t_end


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_weight_pass_cases())
def test_one_pass_weights_equal_per_interval_calls(case):
    # d 1-4, exact and blocked, grid times on and off the slot lattice, at 0 and
    # repeated, cut into passes at several limits: bit for bit the weights of
    # one call per grid time
    _assert_one_pass_weights_equal_per_interval_calls(*case)


def test_one_pass_weights_cross_the_pass_limit_bit_for_bit():
    # 4e5 weights (cells x 2^d) at d = 1, one per slot of 1e-5: the first pass
    # holds the grid times up to the repeated 1.0 (2e5), the second the rest
    grid = (0.5, 1.0, 1.0, 1.5, 1.7, 2.0)
    table = cell_table((1.0,), 1e-5, grid, 0.0)
    assert 2 * table.slots.size > sim._WEIGHT_PASS
    first, second = table.weights[0].base, table.weights[3].base
    assert first is not second
    assert all(w.base is first for w in table.weights[:3]) and all(w.base is second for w in table.weights[3:])
    _assert_one_pass_weights_equal_per_interval_calls((1.0,), 1e-5, grid, 0.0, sim._WEIGHT_PASS)


# -- cell table: deterministic covariance oracle ----------------------------------
#
# Given the rates, the arrivals alive in queue i at t_G are Poisson with mean
# N sum_c ravg_c A[c, i], where A[c, i] is queue i's survival weight of cell c
# summed over the intervals that hold it, and ravg_c averages slots[c] i.i.d.
# slot rates.  So the rate layer adds N^2 Var[L] sum_c A[c, i] A[c, k] / slots[c]
# to Cov(Q_i(t_G), Q_k(t_G)): the family enters only through Var[L], and the
# initial counts not at all (their thinning is independent of the rates).  The
# oracles below compare that sum, per unit N^2 Var[L], for the table the engine
# builds with the exact per-slot value, against the documented bound
# block_tol^2/12 sqrt(C_ii C_kk).


def _rate_layer_covariance(table, mu, grid) -> np.ndarray:
    """(G, d, d) rate-layer covariance of the table per unit N^2 Var[L], at every grid time."""
    d = len(mu)
    cols = [[s - 1 for s in range(1, 2**d) if s >> i & 1] for i in range(d)]
    cov = np.empty((len(grid), d, d))
    for G, t in enumerate(grid):
        A = np.zeros((table.slots.size, d))
        for g in range(G + 1):
            w = table.weights[g]
            for i, m in enumerate(mu):
                A[table.cells[g], i] += w[:, cols[i]].sum(axis=1) * math.exp(-m * (t - grid[g]))
        cov[G] = A.T @ (A / table.slots[:, None])
    return cov


def _budget_share(blocked, exact, block_tol) -> float:
    """Largest |blocked - exact| over (block_tol^2/12 + 1e-12) sqrt(C_ii C_kk), 1e-12 for rounding."""
    sd = np.sqrt(np.einsum("gii->gi", exact))
    scale = (block_tol**2 / 12.0 + 1e-12) * sd[:, :, None] * sd[:, None, :]
    gap = np.abs(blocked - exact)
    return float(np.max(np.where(gap > 0, gap / np.where(scale > 0, scale, 1.0), 0.0)))


def _lattice_rate_covariance(mu, h, n) -> np.ndarray:
    """Exact per-slot rate-layer covariance n whole slots after an empty start, per unit N^2 Var[L].

    sum_(j<n) r_i r_k (p_i p_k)^j with p = e^(-mu h), r = (1 - p)/mu: the
    finite-n form of the slot sum in ``analytic.stationary_covariance``.
    """
    r = np.array([-math.expm1(-m * h) / m for m in mu])
    both = np.add.outer(mu, mu)
    return np.outer(r, r) * np.expm1(-both * n * h) / np.expm1(-both * h)


def _one_read_after_empty_start(mu, scaling, t, block_tol=0.01):
    """(n, table, exact, budget share) for one read n whole slots after an empty start.

    The read is at t, or for t = None at the warm-up read of ``sample_stationary``.
    """
    h = scaling.delta_n
    n = round((t if t is not None else math.ceil(40.0 / min(mu) / h - 1e-9) * h) / h)
    table = cell_table(mu, h, (n * h,), block_tol)
    engine = _rate_layer_covariance(table, mu, (n * h,))
    exact = _lattice_rate_covariance(mu, h, n)
    return n, table, exact, _budget_share(engine[None], exact[None], block_tol)


@pytest.mark.parametrize(
    "mu, scaling, t, max_cells",
    [
        pytest.param((1.0,), ScalingRegime(500, 1.0, 2.0), None, 400, id="clt-N500"),
        pytest.param((1.0,), ScalingRegime(2000, 1.0, 2.0), None, 300, id="clt-N2000"),
        pytest.param((1.0, 2.0), ScalingRegime(2000, 2.0, 1.0), None, 400, id="corr-N2000"),
        pytest.param((1.0, 2.0), ScalingRegime(2000, 2.0, 1.0), 1.0, 200, id="fclt-N2000"),
    ],
)
def test_engine_rate_covariance_within_budget_on_check_shapes(mu, scaling, t, max_cells):
    # the tables of clt-check, corr-check (stationary: the warm-up read) and
    # fclt-check (a read at t from the start) at the default block_tol, against
    # the closed-form per-slot covariance; the widths must also spend at least
    # half the budget, so the tables stay small
    n, table, exact, share = _one_read_after_empty_start(mu, scaling, t)
    if t is None:  # the warm-up leaves e^-80 of the stationary value out
        env, N = Exponential(1.0), scaling.N  # Var[L] = 1
        for i, mi in enumerate(mu):
            for k, mk in enumerate(mu):
                if i == k:
                    rate_part = scaled_variance(env, mi, scaling)[0] - N * env.mean / mi
                else:
                    rate_part = stationary_covariance(env, mi, mk, scaling) - N * env.mean / (mi + mk)
                assert exact[i, k] == pytest.approx(rate_part / N**2, rel=1e-9)
    assert table.slots.size < min(n / 10, max_cells)
    assert 0.5 <= share <= 1.0


@pytest.mark.parametrize("alpha", [1.0, 2.0])
@pytest.mark.parametrize("t", [None, 1.0], ids=["stationary", "transient"])
@pytest.mark.parametrize(
    "mu",
    [(0.2, 3.0), (1.0, 10.0), (0.5, 1.0, 2.0), (0.3, 0.3, 3.0, 3.0)],
    ids=lambda mu: "mu=" + ",".join(f"{m:g}" for m in mu),
)
def test_engine_rate_covariance_within_budget_for_spread_rates(mu, t, alpha):
    # d = 2..4 with service rates up to 15x apart, at a warm-up read (as
    # sample_stationary makes) and at a read t from the start
    _, table, _, share = _one_read_after_empty_start(mu, ScalingRegime(2000, alpha, 1.0), t)
    assert table.slots.max() > 1  # blocked
    assert share <= 1.0


@st.composite
def _tables(draw, dims=st.integers(1, 4)):
    d = draw(dims)
    mu = tuple(draw(st.floats(0.2, 3.0)) for _ in range(d))
    # block_tol in [1e-3, 0.1]: further down, the bound block_tol^2/12 nears the
    # float rounding of the slots' own survival weights (about 1e-16/(mu h)
    # relative, from the difference of exponentials in _category_weights)
    block_tol = 10.0 ** draw(st.floats(-3.0, -1.0))
    # below block_tol/sum(mu) the table is blocked; above it, exact
    h = block_tol / sum(mu) * draw(st.floats(0.05, 1.5))
    times = []
    for _ in range(draw(st.integers(1, 4))):
        slot = draw(st.integers(0, 20_000))
        off_lattice = draw(st.booleans())
        times.append((slot + (draw(st.floats(0.001, 0.999)) if off_lattice else 0.0)) * h)
        if draw(st.booleans()):
            times.append(times[-1])  # a repeated grid time
    return mu, h, tuple(sorted(times)), block_tol


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_tables())
def test_engine_rate_covariance_within_budget_of_per_slot_table(case):
    # any d <= 4, grid on and off the slot lattice, with repeated times: the
    # table's rate-layer covariance at every grid time is within the budget of
    # the block_tol = 0 table's, up to 1e-12 relative rounding
    mu, h, grid, block_tol = case
    blocked = _rate_layer_covariance(cell_table(mu, h, grid, block_tol), mu, grid)
    exact = _rate_layer_covariance(cell_table(mu, h, grid, 0.0), mu, grid)
    assert _budget_share(blocked, exact, block_tol) <= 1.0


def _sum_mu_cell_starts(mu, h, lo, hi, t_start, t_end, block_tol):
    """The widths W0 = block_tol/(sum(mu) sqrt(rho(T))) of the (sum(mu) W)^2/12 bound."""
    k = 2.0 * min(mu) / 3.0
    T = t_end - t_start
    rho = 3.0 * math.expm1(-k * T) / math.expm1(-3.0 * k * T)
    w0 = block_tol / (sum(mu) * math.sqrt(rho) * h)
    starts = []
    right = hi
    while right > lo:
        grow = math.exp(min(k * max(t_end - right * h, 0.0), 700.0))
        right -= max(1, int(min(w0 * grow, right - lo)))
        starts.append(right)
    return starts[::-1]


def _assert_one_queue_table_unchanged(mu, h, grid, block_tol):
    table = cell_table(mu, h, grid, block_tol)
    with mock.patch.object(sim, "_aged_cell_starts", _sum_mu_cell_starts):
        reference = cell_table(mu, h, grid, block_tol)
    assert np.array_equal(table.slots, reference.slots)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_tables(dims=st.just(1)))
def test_one_queue_tables_match_the_sum_mu_widths(case):
    # for d = 1, c(T) = mu^2 rho(T): the worst-entry widths are the
    # sum(mu) widths, so every one-queue table (clt-check, ldp-check, the
    # importance sampler) keeps its cells
    _assert_one_queue_table_unchanged(*case)


@pytest.mark.parametrize(
    "scaling, grid",
    [
        pytest.param(ScalingRegime(500, 1.0, 2.0), (40.0,), id="clt-N500"),
        pytest.param(ScalingRegime(2000, 1.0, 2.0), (40.0,), id="clt-N2000"),
        *(pytest.param(ScalingRegime(N, 2.0, 1.0), (40.0,), id=f"ldp_fast-N{N}") for N in (50, 400)),
        # the intermediate regime's other N (50, 100) run in exact mode
        pytest.param(ScalingRegime(200, 1.0, 1.0), (5.0,), id="ldp_intermediate-N200"),
    ],
)
def test_one_queue_check_shape_tables_match_the_sum_mu_widths(scaling, grid):
    _assert_one_queue_table_unchanged((1.0,), scaling.delta_n, grid, 0.01)


def test_cell_table_width_exponent_never_overflows():
    # ages past 1,060/mu_min would overflow e^(2 mu_min a/3): the oldest cell
    # takes the rest of the interval instead
    table = cell_table((1.0,), 0.005, (2000.0,), 0.01)
    assert table.slots.sum() == 400_000
    assert table.slots.size < 1000  # 200,000 cells of 0.01 each would fill the horizon
    huge = cell_table((1.0,), 1e-3, (0.5, 40.0), 1e300)
    assert huge.slots.tolist() == [500, 39_500]


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


def _joint_covariance(traj):
    """Sample covariance of the flattened (time, queue) counts, with the SE of each entry.

    The SE is the sample sd of the centred products over sqrt(R), so it needs
    no normality assumption.
    """
    x = traj.counts.reshape(traj.replications, -1).astype(float)
    dev = x - x.mean(axis=0)
    prod = dev[:, :, None] * dev[:, None, :]
    return prod.sum(axis=0) / (len(x) - 1), prod.std(axis=0, ddof=1) / math.sqrt(len(x))


def _deterministic_joint_covariance(lam, N, mu, initial_counts, grid):
    """Exact Cov(Q_i(s), Q_k(t)) under a constant rate N lam, over the flattened (time, queue) axis.

    For s <= t: c_i e^(-mu_i t) (1 - e^(-mu_i s)) + N lam (e^(-mu_i (t-s)) - e^(-mu_i t))/mu_i
    within queue i, and N lam e^(-mu_i s - mu_k t) expm1((mu_i + mu_k) s)/(mu_i + mu_k)
    across queues i != k: an arrival at u <= s is alive in queue i at s and in
    queue k at t independently, and initial jobs belong to one queue each.
    """
    d = len(mu)
    cov = np.empty((len(grid) * d,) * 2)
    points = list(itertools.product(enumerate(grid), range(d)))
    for ((g, s), i), ((h, t), k) in itertools.product(points, points):
        if s > t:
            continue
        if i == k:
            c = initial_counts[i] * math.exp(-mu[i] * t) * -math.expm1(-mu[i] * s)
            c += N * lam * (math.exp(-mu[i] * (t - s)) - math.exp(-mu[i] * t)) / mu[i]
        else:
            m = mu[i] + mu[k]
            c = N * lam * math.exp(-mu[i] * s - mu[k] * t) * math.expm1(m * s) / m
        cov[g * d + i, h * d + k] = cov[h * d + k, g * d + i] = c
    return cov


def test_joint_law_across_times_matches_exact_deterministic_covariance():
    # the joint law over read times, not only each time's marginal: a job alive
    # in queue i at s survives to t in queue i alone, whatever other queues hold it
    mu, initial, grid, lam, N = (1.0, 2.0, 0.5), (30, 10, 20), (0.3, 0.7, 1.2, 2.0), 2.0, 20
    cfg = make_config(
        env=Deterministic(lam),
        queues=QueueParams(mu),
        scaling=ScalingRegime(N, 0.0, 0.5),
        grid=grid,
        initial_counts=initial,
        replications=20_000,
        seed=91,
    )
    cov, se = _joint_covariance(simulate(cfg))
    exact = _deterministic_joint_covariance(lam, N, mu, initial, grid)
    upper = np.triu_indices(len(exact))  # 78 entries: 12 variances and 66 covariances
    z = (cov - exact)[upper] / se[upper]
    assert np.abs(z).max() < 4.5


def test_engine_matches_reference_three_queues():
    # d = 3: seven alive patterns for the arrivals, each queue thinned on its own
    kw = dict(
        env=Exponential(1.0),
        queues=QueueParams((1.0, 2.0, 0.5)),
        scaling=ScalingRegime(5, 0.0, 0.6),
        grid=(0.3, 0.7, 1.2, 2.0),
        initial_counts=(3, 1, 2),
        replications=6000,
    )
    fast_traj = simulate(make_config(seed=43, **kw))
    ref_traj = simulate_events(make_config(seed=44, **kw))[0]
    fast, ref = estimate_moments(fast_traj), estimate_moments(ref_traj)
    R = kw["replications"]
    for g in range(len(kw["grid"])):
        for i in range(3):
            se = math.hypot(fast.se_mean[g, i], ref.se_mean[g, i])
            assert abs(fast.mean[g, i] - ref.mean[g, i]) < 4 * se
            se_v = math.hypot(fast.se_variance[g, i], ref.se_variance[g, i])
            assert abs(fast.variance[g, i] - ref.variance[g, i]) < 4 * se_v
        for i, k in ((0, 1), (0, 2), (1, 2)):
            c_f, c_r = fast.covariance[g, i, k], ref.covariance[g, i, k]
            se_c = math.sqrt(
                sum(
                    (m.variance[g, i] * m.variance[g, k] + c**2) / R
                    for m, c in ((fast, c_f), (ref, c_r))
                )
            )
            assert abs(c_f - c_r) < 4 * se_c
    # every pair across read times and queues, the law the per-gap thinning carries
    (c_f, se_f), (c_r, se_r) = _joint_covariance(fast_traj), _joint_covariance(ref_traj)
    pairs = np.triu_indices(len(c_f), k=1)  # 66 pairs
    z = (c_f - c_r)[pairs] / np.hypot(se_f, se_r)[pairs]
    assert np.abs(z).max() < 4.5


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
