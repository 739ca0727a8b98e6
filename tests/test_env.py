"""Rate-distribution families, scaling regime, and (twisted) sampling."""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

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
        env.log_mgf_prime(bad)


@pytest.mark.parametrize("env", FAMILIES)
def test_log_mgf_derivatives_match_moments(env):
    # d/dtheta log M at 0 = mean, second derivative = variance.
    h = 1e-4
    d1 = (env.log_mgf(h) - env.log_mgf(-h)) / (2 * h)
    d2 = (env.log_mgf(h) - 2 * env.log_mgf(0.0) + env.log_mgf(-h)) / h**2
    assert d1 == pytest.approx(env.mean, rel=1e-6, abs=1e-10)
    assert d2 == pytest.approx(env.variance, rel=1e-6, abs=1e-8)


@pytest.mark.parametrize("env", FAMILIES)
def test_log_mgf_prime_matches_finite_difference(env):
    theta = min(0.3, 0.5 * env.theta_max)
    h = 1e-6
    fd = (env.log_mgf(theta + h) - env.log_mgf(theta - h)) / (2 * h)
    assert env.log_mgf_prime(theta) == pytest.approx(fd, rel=1e-6)


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
    assert abs(x.mean() - env.log_mgf_prime(eta)) < 4 * se + 1e-12


@pytest.mark.parametrize("env", FAMILIES)
def test_twisted_block_sums_mean_matches_log_mgf_prime(env):
    # a sum of n tilted draws has mean n (log M)'(eta), in every cell of a table
    etas = np.array([0.0, min(0.3, 0.5 * env.theta_max), min(0.4, 0.5 * env.theta_max)])
    counts = np.array([3, 7, 40])
    x = env.sample_block_sums_twisted(etas, spawn_streams(12, 1)[0], counts, 100_000)
    assert x.shape == (100_000, 3)
    for b in range(3):
        se = x[:, b].std(ddof=1) / math.sqrt(x.shape[0])
        assert abs(x[:, b].mean() - counts[b] * env.log_mgf_prime(etas[b])) < 4 * se + 1e-12


@pytest.mark.parametrize("env", [Exponential(1.0), Gamma(2.0, 0.5), DiscreteFinite([1.0, 3.0], [0.5, 0.5])])
def test_twisted_eta_zero_matches_plain(env):
    r1, r2 = spawn_streams(5, 2)
    plain = env.sample(r1, 10_000)
    tilted = twisted_draws(env, 0.0, r2, 10_000)
    assert ks_2samp(plain, tilted).pvalue > 0.01


def test_twisted_domain_error():
    with pytest.raises(DomainError):
        twisted_draws(Exponential(1.0), 1.0, spawn_streams(0, 1)[0], 10)


def test_block_sums_match_plain_sums():
    env = Gamma(2.0, 0.5)
    rng = spawn_streams(9, 1)[0]
    sums = env.sample_block_sums(rng, np.array([50_000]))
    # One block of 50k draws: mean of the sum ~ N(n*mean, n*var).
    n = 50_000
    assert abs(sums[0] - n * env.mean) < 4 * math.sqrt(n * env.variance)
    occ_env = DiscreteFinite([1.0, 3.0], [0.5, 0.5])
    s = occ_env.sample_block_sums(rng, np.array([10, 0, 3]))
    assert s.shape == (3,)
    assert s[1] == 0.0
    assert Deterministic(2.0).sample_block_sums(rng, np.array([4]))[0] == 8.0


# -- serialization -----------------------------------------------------------


@pytest.mark.parametrize("env", FAMILIES)
def test_json_round_trip(env):
    assert env_from_json(env.to_json()) == env


def test_json_unknown_family():
    with pytest.raises(ValueError):
        env_from_json({"family": "zeta"})


def test_spawn_streams_independent_of_count():
    # Stream i depends only on (seed, i): schedule independence.
    a = spawn_streams(123, 3)
    b = spawn_streams(123, 5)
    for ga, gb in zip(a, b):
        assert np.array_equal(ga.standard_normal(8), gb.standard_normal(8))
