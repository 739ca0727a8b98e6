"""Rate-distribution families, scaling regime, and (twisted) sampling."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import ks_2samp, multinomial

from coxq import ldp
from coxq.env import (
    Deterministic,
    DiscreteFinite,
    Exponential,
    Gamma,
    ScalingRegime,
    env_from_json,
    spawn_streams,
)
from coxq.errors import DomainError
from coxq.ldp import RateQuery

FAMILIES = [
    Deterministic(2.0),
    Exponential(1.0),
    Exponential(0.4),
    Gamma(2.0, 0.5),
    Gamma(0.7, 3.0),
    DiscreteFinite([1.0, 3.0], [0.5, 0.5]),
    DiscreteFinite([0.0, 2.0, 5.0], [0.2, 0.5, 0.3]),
]


# -- MGF and log-MGF ---------------------------------------------------------


def test_mgf_deterministic():
    assert math.exp(Deterministic(2.0).log_mgf(0.5)) == pytest.approx(math.e, rel=1e-12)


@pytest.mark.parametrize("env", FAMILIES)
def test_mgf_at_zero_is_one(env):
    assert math.exp(env.log_mgf(0.0)) == pytest.approx(1.0, abs=1e-14)
    assert env.log_mgf(0.0) == pytest.approx(0.0, abs=1e-14)


def test_mgf_exponential():
    assert math.exp(Exponential(1.0).log_mgf(0.5)) == pytest.approx(2.0, rel=1e-12)


def test_log_mgf_discrete_direct_summation_oracle():
    env = DiscreteFinite([1.0, 3.0], [0.5, 0.5])
    oracle = math.log(0.5 * math.exp(1.0) + 0.5 * math.exp(3.0))  # 2.4337876...
    assert env.log_mgf(1.0) == pytest.approx(oracle, rel=1e-12)


def test_log_mgf_discrete_no_overflow():
    env = DiscreteFinite([1.0, 3.0], [0.5, 0.5])
    # exp(3 * 500) overflows a double; log-space evaluation must not.
    assert env.log_mgf(500.0) == pytest.approx(3 * 500 + math.log(0.5), rel=1e-9)


def test_log_mgf_discrete_is_bitwise_scipy_logsumexp():
    # tied atoms, zero probabilities, scalars and arrays, thetas from 1e-15 to 1e3
    rng = np.random.default_rng(0)
    for trial in range(400):
        k = int(rng.integers(1, 7))
        values = rng.choice([0.0, 0.5, 2.0, 7.5], size=k) if trial % 2 else 5 * rng.random(k)
        probs = rng.random(k) * (rng.random(k) > 0.2)
        probs[0] += probs.sum() == 0
        env = DiscreteFinite(values, probs / probs.sum())
        scale = 10 ** rng.uniform(-15, 3, 21)
        for theta in (rng.normal() * scale[0], rng.normal(size=20) * scale[1:]):
            want = logsumexp(env._log_weights(theta), axis=-1)
            got = env.log_mgf(theta)
            assert np.shape(got) == np.shape(want) and np.array_equal(got, want), (values, probs, theta)


@pytest.mark.parametrize(
    "env,bad",
    [
        (Exponential(1.0), 1.0),
        (Exponential(1.0), 1.0 - 1e-13),
        (Exponential(1.0), 2.0),
        (Gamma(2.0, 0.5), 2.0),
    ],
)
def test_mgf_domain_boundary_raises(env, bad):
    with pytest.raises(DomainError):
        env.log_mgf(bad)
    with pytest.raises(DomainError):
        env.log_mgf_derivatives(bad)


@pytest.mark.parametrize("env", FAMILIES)
def test_log_mgf_derivatives_match_moments(env):
    # d/dtheta log M at 0 = mean, second derivative = variance.
    h = 1e-4
    d1 = (env.log_mgf(h) - env.log_mgf(-h)) / (2 * h)
    d2 = (env.log_mgf(h) - 2 * env.log_mgf(0.0) + env.log_mgf(-h)) / h**2
    assert d1 == pytest.approx(env.mean, rel=1e-6, abs=1e-10)
    assert d2 == pytest.approx(env.variance, rel=1e-6, abs=1e-8)


@pytest.mark.parametrize("env", FAMILIES)
def test_log_mgf_derivatives_in_a_given_gap(env):
    # a caller's gap theta_max - theta gives theta's derivatives (inf where unbounded)
    theta = np.array([0.0, min(0.3, 0.5 * env.theta_max)])
    given, own = env.log_mgf_derivatives(theta, env.theta_max - theta), env.log_mgf_derivatives(theta)
    np.testing.assert_allclose(given, own, rtol=1e-15)


@pytest.mark.parametrize("env", FAMILIES)
def test_log_mgf_prime_matches_finite_difference(env):
    # log_mgf_derivatives: (log M)' against log M's central difference, (log M)''
    # against (log M)''s; elementwise on an array, and the mean and variance at 0
    theta = min(0.3, 0.5 * env.theta_max)
    h = 1e-6
    first, second = env.log_mgf_derivatives(theta)
    fd = (env.log_mgf(theta + h) - env.log_mgf(theta - h)) / (2 * h)
    assert first == pytest.approx(fd, rel=1e-6)
    up, down = env.log_mgf_derivatives(theta + h)[0], env.log_mgf_derivatives(theta - h)[0]
    assert second == pytest.approx((up - down) / (2 * h), rel=1e-6, abs=1e-9)
    firsts, seconds = env.log_mgf_derivatives(np.array([0.0, theta]))
    assert firsts.shape == seconds.shape == (2,)
    assert firsts[1] == pytest.approx(first, rel=1e-14)
    assert seconds[1] == pytest.approx(second, rel=1e-12, abs=1e-15)
    assert firsts[0] == pytest.approx(env.mean, rel=1e-12)
    assert seconds[0] == pytest.approx(env.variance, rel=1e-12, abs=1e-15)


# -- essential supremum ------------------------------------------------------


def test_essential_sup():
    assert Deterministic(2.0).essential_sup() == 2.0
    assert DiscreteFinite([1.0, 3.0], [0.5, 0.5]).essential_sup() == 3.0
    assert Exponential(1.0).essential_sup() == math.inf
    assert Gamma(2.0, 0.5).essential_sup() == math.inf
    # zero-probability atoms do not count
    assert DiscreteFinite([1.0, 9.0], [1.0, 0.0]).essential_sup() == 1.0


# -- construction invariants -------------------------------------------------


def test_discrete_validation():
    with pytest.raises(ValueError):
        DiscreteFinite([1.0, 2.0], [0.5, 0.6])
    with pytest.raises(ValueError):
        DiscreteFinite([-1.0, 2.0], [0.5, 0.5])


@pytest.mark.parametrize(
    "family, params, name",
    [
        (Deterministic, {"value": math.inf}, "value"),
        (Exponential, {"rate": 1e-308}, "rate"),  # 1/rate^2 divides by an underflowed 0
        (Exponential, {"rate": 1e308}, "rate"),  # rate^2 overflows a Python float
        (Gamma, {"shape": 1.0, "scale": 1e300}, "scale"),
        (DiscreteFinite, {"values": [1e308, 0.0], "probs": [0.5, 0.5]}, "values"),  # numpy inf
    ],
)
def test_a_family_whose_moments_overflow_is_refused_naming_its_parameters(family, params, name):
    with pytest.raises(ValueError, match=rf"\b{name} = .*overflows float arithmetic"):
        family(**params)


def test_scaling_regime_exponents():
    for alpha, gamma in [(0.0, 2.0), (0.5, 1.5), (1.0, 1.0), (2.0, 1.0)]:
        s = ScalingRegime(N=100, alpha=alpha, delta=2.0)
        assert s.gamma == gamma
        assert s.beta + s.gamma == pytest.approx(2.0)
        assert s.delta_n == pytest.approx(2.0 * 100 ** (-alpha))
    with pytest.raises(ValueError):
        ScalingRegime(N=0, alpha=1.0, delta=1.0)
    with pytest.raises(ValueError):
        ScalingRegime(N=10, alpha=1.0, delta=0.0)


# -- twisted sampling --------------------------------------------------------


def twisted_draws(env, eta, rng, size):
    """``size`` single-slot draws from the law tilted by eta."""
    return env.sample_block_sums_twisted(np.array([eta]), rng, np.array([1]), size)[:, 0]


def test_twisted_deterministic_invariant():
    rng = spawn_streams(0, 1)[0]
    assert np.all(twisted_draws(Deterministic(1.5), 3.0, rng, 10) == 1.5)


def test_twisted_exponential_mean():
    rng = spawn_streams(3, 1)[0]
    x = twisted_draws(Exponential(1.0), 0.5, rng, 100_000)
    assert x.mean() == pytest.approx(2.0, abs=0.02)


def test_twisted_discrete_concentrates_on_max():
    rng = spawn_streams(4, 1)[0]
    x = twisted_draws(DiscreteFinite([1.0, 3.0], [0.5, 0.5]), 200.0, rng, 1000)
    assert np.all(x == 3.0)


@pytest.mark.parametrize("env", FAMILIES)
def test_twisted_mean_matches_log_mgf_prime(env):
    eta = min(0.4, 0.5 * env.theta_max)
    rng = spawn_streams(11, 1)[0]
    x = twisted_draws(env, eta, rng, 200_000)
    se = x.std(ddof=1) / math.sqrt(x.size)
    assert abs(x.mean() - env.log_mgf_derivatives(eta)[0]) < 4 * se + 1e-12


@pytest.mark.parametrize("env", FAMILIES)
def test_twisted_block_sums_mean_matches_log_mgf_prime(env):
    # a sum of n tilted draws has mean n (log M)'(eta), in every cell of a table
    etas = np.array([0.0, min(0.3, 0.5 * env.theta_max), min(0.4, 0.5 * env.theta_max)])
    counts = np.array([3, 7, 40])
    x = env.sample_block_sums_twisted(etas, spawn_streams(12, 1)[0], counts, 100_000)
    assert x.shape == (100_000, 3)
    for b in range(3):
        se = x[:, b].std(ddof=1) / math.sqrt(x.shape[0])
        assert abs(x[:, b].mean() - counts[b] * env.log_mgf_derivatives(etas[b])[0]) < 4 * se + 1e-12


@pytest.mark.parametrize("env", [Exponential(1.0), Gamma(2.0, 0.5), DiscreteFinite([1.0, 3.0], [0.5, 0.5])])
def test_twisted_eta_zero_matches_plain(env):
    r1, r2 = spawn_streams(5, 2)
    plain = env.sample(r1, 10_000)
    tilted = twisted_draws(env, 0.0, r2, 10_000)
    assert ks_2samp(plain, tilted).pvalue > 0.01


@pytest.mark.parametrize("counts", [(1, 1), (2, 3)])
def test_twisted_discrete_sums_have_exact_multinomial_law(counts):
    # every attainable block sum is drawn with its exact tilted multinomial
    # probability, for one-slot cells (uniform draw) and longer ones (binomial chain)
    env = DiscreteFinite([0.0, 2.0, 5.0], [0.2, 0.5, 0.3])
    etas = np.array([0.3, -0.4])
    size = 200_000
    x = env.sample_block_sums_twisted(etas, spawn_streams(13, 1)[0], np.array(counts), size)
    for b, (eta, n) in enumerate(zip(etas, counts)):
        w = env._tilted_probs(eta)
        pmf = {}
        for occ in itertools.product(range(n + 1), repeat=3):
            if sum(occ) == n:
                value = float(np.dot(occ, env.values))
                pmf[value] = pmf.get(value, 0.0) + multinomial.pmf(occ, n, w)
        assert set(np.unique(x[:, b])) <= set(pmf)
        for value, p in pmf.items():
            freq = np.mean(x[:, b] == value)
            assert abs(freq - p) < 4 * math.sqrt(p * (1 - p) / size) + 1e-12


def test_discrete_block_sums_of_a_counts_array_have_exact_multinomial_law():
    # one row of cell counts and a size, as the simulator passes for one block of rows
    env = DiscreteFinite([0.0, 2.0, 5.0], [0.2, 0.5, 0.3])
    size, n = 200_000, 3
    x = env.sample_block_sums(spawn_streams(14, 1)[0], np.full(2, n), size)
    pmf = {}
    for occ in itertools.product(range(n + 1), repeat=3):
        if sum(occ) == n:
            value = float(np.dot(occ, env.values))
            pmf[value] = pmf.get(value, 0.0) + multinomial.pmf(occ, n, env.probs)
    assert x.shape == (size, 2)
    assert set(np.unique(x)) <= set(pmf)
    for value, p in pmf.items():
        freq = np.mean(x == value, axis=0)
        assert np.all(np.abs(freq - p) < 4 * math.sqrt(p * (1 - p) / size) + 1e-12)


@pytest.mark.parametrize("counts", [1, 3])
@pytest.mark.parametrize("env", FAMILIES)
def test_twisted_sampler_allocates_about_its_result(env, counts):
    # the (size, cells) float64 result plus small temporaries, never a copy of it
    cells = 200
    etas = np.linspace(0.0, min(0.4, 0.5 * env.theta_max), cells)
    rng = spawn_streams(14, 1)[0]
    tracemalloc.start()
    try:
        x = env.sample_block_sums_twisted(etas, rng, np.full(cells, counts), 20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.shape == (20_000, cells)
    assert peak <= 1.3 * x.nbytes


@pytest.mark.parametrize("env", FAMILIES)
def test_twisted_log_norm_sums_log_mgf(env):
    etas = np.linspace(-0.2, min(0.4, 0.5 * env.theta_max), 5)
    counts = np.array([1, 3, 7, 1, 40])
    direct = sum(n * env.log_mgf(e) for e, n in zip(etas, counts))
    assert env.twisted_log_norm(etas, counts) == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_twisted_domain_error():
    with pytest.raises(DomainError):
        twisted_draws(Exponential(1.0), 1.0, spawn_streams(0, 1)[0], 10)


def test_block_sums_match_plain_sums():
    env = Gamma(2.0, 0.5)
    rng = spawn_streams(9, 1)[0]
    sums = env.sample_block_sums(rng, np.array([50_000]), 1)
    # One block of 50k draws: mean of the sum ~ N(n*mean, n*var).
    n = 50_000
    assert abs(sums[0, 0] - n * env.mean) < 4 * math.sqrt(n * env.variance)
    occ_env = DiscreteFinite([1.0, 3.0], [0.5, 0.5])
    s = occ_env.sample_block_sums(rng, np.array([10, 0, 3]), 1)
    assert s.shape == (1, 3)
    assert s[0, 1] == 0.0
    assert Deterministic(2.0).sample_block_sums(rng, np.array([4]), 1)[0, 0] == 8.0


@pytest.mark.parametrize(
    "env",
    [
        Deterministic(1.5),
        Exponential(2.0),
        Gamma(1.0, 0.5),
        Gamma(2.5, 0.5),
        DiscreteFinite([0.0, 2.0, 5.0], [0.2, 0.5, 0.3]),
    ],
)
def test_one_slot_block_sums_reproduce_sample_bit_for_bit(env):
    # the simulator draws exact-mode cells as one-slot block sums: from the same
    # stream they are the per-slot law's draws, bit for bit (the discrete draw
    # fills rows in several blocks here)
    rows, cells = 20_000, 7
    r1, r2 = (spawn_streams(15, 1)[0] for _ in range(2))
    plain = env.sample(r1, (rows, cells))
    sums = env.sample_block_sums(r2, np.ones(cells, dtype=np.int64), rows)
    assert sums.dtype == np.float64
    assert np.array_equal(sums, plain)
    assert r1.random() == r2.random()


@pytest.mark.parametrize(
    "counts", [np.ones(5, np.int64), np.array([1, 2, 5, 40, 3])], ids=["one-slot", "multi-slot"]
)
def test_discrete_draws_through_the_tilt_memo_match_a_fresh_instance(counts):
    # every family's prepared draw, plain and tilted, with and without weights,
    # is a fresh instance's and the one-call draw's, bit for bit (a discrete law
    # with values out of ascending order too): tilts that alternate A, B, A
    # with the plain law between share nothing, and a draw prepared before its
    # tilts and weights are mutated in place keeps the ones it was given
    a = np.array([0.1, -0.2, 0.0, 0.25, 0.3])
    b = np.array([0.3, 0.0, -0.1, 0.2, 0.05])

    def rng():
        return spawn_streams(22, 1)[0]

    for env in FAMILIES + [DiscreteFinite([1.0, 0.0, 3.0], [0.3, 0.5, 0.2])]:
        scale = min(1.0, env.theta_max)  # inside every family's MGF domain
        for etas in (scale * a, scale * b, None, scale * a, None, scale * b):
            for wk in (None, np.linspace(0.1, 0.9, 5)):
                got = env.block_sampler(counts, etas, wk)(rng(), 300)
                fresh = env_from_json(env.to_json()).block_sampler(counts, etas, wk)
                assert np.array_equal(got, fresh(rng(), 300)), (env, etas, wk)
                if etas is not None:
                    one_call = env.sample_block_sums_twisted(etas, rng(), counts, 300, wk)
                    assert np.array_equal(got, one_call)
                elif wk is None:
                    assert np.array_equal(got, env.sample_block_sums(rng(), counts, 300))
        etas, wk = scale * a, np.linspace(0.1, 0.9, 5)
        draw = env.block_sampler(counts, etas, wk)
        want = env_from_json(env.to_json()).block_sampler(counts, etas.copy(), wk.copy())
        etas[1], wk[1] = 0.4 * scale, 2.0
        assert np.array_equal(draw(rng(), 300), want(rng(), 300)), env
        fresh = env_from_json(env.to_json()).block_sampler(counts, etas, wk)
        assert np.array_equal(env.block_sampler(counts, etas, wk)(rng(), 300), fresh(rng(), 300)), env


def test_discrete_tilt_is_built_once_per_run(monkeypatch):
    # every block of an IS run draws with the same etas, from one prepared draw:
    # one tilt for all
    env = DiscreteFinite([0.5, 2.0], [0.5, 0.5])
    built = []
    tilt = env._tilted_probs
    monkeypatch.setattr(env, "_tilted_probs", lambda etas: built.append(1) or tilt(etas))
    for one_slot in (True, False):
        counts = np.ones(7, np.int64) if one_slot else np.arange(1, 8)
        draw = env.block_sampler(counts, np.linspace(0.0, 0.3, 7), np.linspace(0.1, 0.7, 7))
        for rng in spawn_streams(3, 4):
            draw(rng, 50)
    assert len(built) == 2


def test_gamma_block_sums_reproduce_numpy_gamma_bit_for_bit():
    # gamma block sums are standard-gamma draws scaled in place: the same bits
    # as rng.gamma from the same stream, for one scale and for per-cell
    # (twisted) scales alike
    env, rows = Gamma(0.7, 3.0), 500
    counts = np.array([1, 2, 5, 40, 3])
    etas = np.array([0.1, -0.2, 0.0, 0.25, 0.3])
    shapes = env.shape * counts.astype(float)
    for scale, draw in (
        (env.scale, lambda rng: env.sample_block_sums(rng, counts, rows)),
        (
            env.scale / (1.0 - env.scale * etas),
            lambda rng: env.sample_block_sums_twisted(etas, rng, counts, rows),
        ),
    ):
        r1, r2 = (spawn_streams(21, 1)[0] for _ in range(2))
        expected = r1.gamma(shape=shapes, scale=scale, size=(rows, counts.size))
        assert np.array_equal(draw(r2), expected)
        assert r1.random() == r2.random()


# Rate families for the etas of each importance-sampling regime: the last two
# discrete laws list their values out of ascending order, and two have an atom at 0
KAPPA_FAMILIES = [
    Deterministic(1.0),
    Exponential(1.0),
    Gamma(2.0, 0.5),
    Gamma(0.7, 1.5),
    DiscreteFinite([0.5, 2.0], [0.5, 0.5]),
    DiscreteFinite([0.0, 1.0, 3.0], [0.5, 0.3, 0.2]),
    DiscreteFinite([2.0, 0.5], [0.5, 0.5]),
    DiscreteFinite([1.0, 0.0, 3.0], [0.3, 0.5, 0.2]),
]


def ldp_tilts(env, one_slot):
    """(alpha, counts, wk, etas) of ldp-check's tilt eta = c wk (``ldp._tilt``) on
    its cell table at N = 10, mu = 1, t = 5, a = 1.5, in the fast, slow and
    intermediate regimes.  one_slot turns blocking off (16 to 500 cells); at
    block_tol 0.5 the 7 or 8 cells hold 1 to 165 slots each."""
    for alpha in (2.0, 0.5, 1.0):
        query = RateQuery(env=env, mu=1.0, delta=1.0, alpha=alpha, t=5.0, a=1.5)
        counts, wk, c, _ = ldp._tilt(query, 10, 1, 1e-9 if one_slot else 0.5)
        yield alpha, counts, wk, c * wk


@pytest.mark.parametrize("one_slot", [True, False], ids=["one-slot", "multi-slot"])
@pytest.mark.parametrize("env", KAPPA_FAMILIES, ids=repr)
def test_weighted_twisted_draw_is_the_draws_weighted_row_sum(env, one_slot):
    # given weights the twisted draw returns S @ weights, computed without
    # forming S where the family can, from the same variates: the next draw
    # from the stream is bit-identical, so the law is the unweighted draw's.
    # 1000 rows of 500 one-slot cells span 8 of the discrete draw's row blocks
    rows = 1000
    for regime, counts, wk, etas in ldp_tilts(env, one_slot):
        assert np.any(etas > 0) == (env.variance > 0), regime  # a random layer is tilted
        assert np.all(counts == 1) == one_slot
        r1, r2 = (spawn_streams(31, 1)[0] for _ in range(2))
        want = env.sample_block_sums_twisted(etas, r1, counts, rows) @ wk
        got = env.sample_block_sums_twisted(etas, r2, counts, rows, weights=wk)
        assert got.shape == (rows,)
        np.testing.assert_allclose(got, want, rtol=8 * np.finfo(float).eps, atol=0, err_msg=regime)
        assert np.all(got >= 0), regime  # kappa >= 0: the count's tail takes its log
        assert r1.random() == r2.random(), regime


def test_weighted_discrete_draw_is_exactly_0_where_every_cell_drew_0():
    # a row whose every cell drew the atom at 0 sums to 0, not to a rounding
    # residue, with the values in either order: its IS weight is then -inf,
    # never the log of a tiny or a negative rate
    wk, counts, etas = np.linspace(0.1, 0.9, 6), np.ones(6, np.int64), np.full(6, 0.1)
    for values, probs in (([0.0, 3.0], [0.8, 0.2]), ([3.0, 0.0], [0.2, 0.8])):
        env = DiscreteFinite(values, probs)
        s = env.sample_block_sums_twisted(etas, spawn_streams(3, 1)[0], counts, 400)
        got = env.sample_block_sums_twisted(etas, spawn_streams(3, 1)[0], counts, 400, weights=wk)
        zero = np.all(s == 0.0, axis=1)
        assert zero.sum() > 20, values
        assert np.all(got[zero] == 0.0) and np.all(got[~zero] > 0.0), values


# -- serialization -----------------------------------------------------------


@pytest.mark.parametrize("env", FAMILIES)
def test_json_round_trip(env):
    assert env_from_json(env.to_json()) == env


def test_json_unknown_family():
    with pytest.raises(ValueError):
        env_from_json({"family": "zeta"})
    # a parameter the family does not take, or one it lacks, is named
    with pytest.raises(TypeError, match="'scale'"):
        env_from_json({"family": "exponential", "rate": 1.0, "scale": 2.0})
    with pytest.raises(TypeError, match="'probs'"):
        env_from_json({"family": "discrete", "values": [1.0]})


def test_spawn_streams_independent_of_count():
    # Stream i depends only on (seed, i): schedule independence.
    a = spawn_streams(123, 3)
    b = spawn_streams(123, 5)
    for ga, gb in zip(a, b):
        assert np.array_equal(ga.standard_normal(8), gb.standard_normal(8))
