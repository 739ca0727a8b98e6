"""Closed-form moments, PGF, scaling trichotomy, and FCLT covariances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxq.analytic import (
    QueueParams,
    SurvivalConstants,
    clt_sigma2,
    fclt_covariance,
    fluid_limit,
    scaled_variance,
    stationary_correlation,
    stationary_covariance,
    stationary_mean,
    stationary_pgf,
    stationary_variance,
    transient_moments,
)
from coxq.env import Deterministic, DiscreteFinite, Exponential, Gamma, ScalingRegime, spawn_streams
from coxq.errors import DomainError

ENVS = [
    Deterministic(1.0),
    Exponential(1.0),
    Gamma(2.0, 0.5),
    DiscreteFinite([1.0, 3.0], [0.5, 0.5]),
]


def test_survival_constants_identities():
    sc = SurvivalConstants(mu=0.7, t=1.3)
    assert sc.p == pytest.approx(math.exp(-0.91))
    assert sc.r == pytest.approx((1 - sc.p) / 0.7)
    assert sc.c_ratio == pytest.approx((1 - sc.p) / (1 + sc.p))


# -- stationary moments -------------------------------------------------------


def test_stationary_mean_examples():
    assert stationary_mean(Exponential(0.5), 0.5) == pytest.approx(4.0)  # mean 2
    assert stationary_mean(Deterministic(1.0), 1.0) == pytest.approx(1.0)
    assert stationary_mean(Gamma(2.0, 1.0), 2.0) == pytest.approx(1.0)


def test_stationary_variance_examples():
    # deterministic rate: Poisson variance
    assert stationary_variance(Deterministic(3.0), 1.5, 1.0) == pytest.approx(2.0)
    # Delta -> infinity: classical mixed Poisson E/mu + Var/mu^2
    v = stationary_variance(Exponential(1.0), 1.0, 800.0)
    assert v == pytest.approx(2.0, rel=1e-12)
    # C = (1-e^-1)/(1+e^-1)
    v = stationary_variance(Exponential(1.0), 1.0, 1.0)
    assert v == pytest.approx(1.4621171572, abs=1e-9)


@pytest.mark.parametrize("env", ENVS)
@pytest.mark.parametrize("mu,delta", [(0.5, 0.3), (1.0, 1.0), (2.0, 4.0)])
def test_overdispersion(env, mu, delta):
    m = stationary_mean(env, mu)
    v = stationary_variance(env, mu, delta)
    if env.variance == 0:
        assert v == pytest.approx(m, rel=1e-12)
    else:
        assert v > m


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.05, 10.0),
    st.floats(0.05, 10.0),
    st.floats(0.05, 20.0),
    st.floats(0.05, 5.0),
)
def test_overdispersion_property(shape, scale, mu, delta):
    env = Gamma(shape, scale)
    assert stationary_variance(env, mu, delta) > stationary_mean(env, mu)


def test_variance_monotone_in_delta():
    deltas = [0.1, 0.5, 1.0, 2.0, 5.0]
    vals = [stationary_variance(Exponential(1.0), 1.0, d) for d in deltas]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


# -- transient moments --------------------------------------------------------


def test_transient_empty_start():
    assert transient_moments(Exponential(1.0), 1.0, 1.0, 0.0) == (0.0, 0.0)


def test_transient_deterministic_is_poisson():
    for t in [0.3, 1.0, 2.7]:
        mean, var = transient_moments(Deterministic(2.0), 0.8, 1.0, t)
        assert mean == pytest.approx(2.0 * (1 - math.exp(-0.8 * t)) / 0.8)
        assert var == pytest.approx(mean, rel=1e-12)


@pytest.mark.parametrize("t", [2.0, 1.5])
def test_transient_slot_sum_monte_carlo_oracle(t):
    # kappa_t = sum over full slots of L_j r e^{-mu (t-(j+1) delta)}
    #           + L_partial (1 - e^{-mu tau})/mu;  Var M = E kappa + Var kappa.
    env, mu, delta = Exponential(1.0), 1.0, 1.0
    n = int(t // delta)
    tau = t - n * delta
    r = (1 - math.exp(-mu * delta)) / mu
    w = [r * math.exp(-mu * (t - (j + 1) * delta)) for j in range(n)]
    if tau > 0:
        w.append((1 - math.exp(-mu * tau)) / mu)
    w = np.array(w)
    rng = spawn_streams(314, 1)[0]
    lam = rng.exponential(1.0, size=(1_000_000, w.size))
    kappa = lam @ w
    mean_hat = kappa.mean()
    var_hat = mean_hat + kappa.var(ddof=1)
    mean, var = transient_moments(env, mu, delta, t)
    assert mean == pytest.approx(mean_hat, rel=5e-3)
    assert var == pytest.approx(var_hat, rel=5e-3)


def test_transient_converges_to_stationary():
    env, mu, delta = Exponential(1.0), 1.0, 1.0
    mean, var = transient_moments(env, mu, delta, 40.0 / mu)
    assert mean == pytest.approx(stationary_mean(env, mu), rel=1e-8)
    assert var == pytest.approx(stationary_variance(env, mu, delta), rel=1e-8)


# -- stationary PGF -----------------------------------------------------------


def test_pgf_normalization():
    assert stationary_pgf(Exponential(1.0), 1.0, 1.0, 1.0) == 1.0


@pytest.mark.parametrize("z", [0.0, 0.25, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("mu,delta", [(1.0, 1.0), (0.5, 2.0)])
def test_pgf_poisson_degeneration(z, mu, delta):
    lam = 1.3
    got = stationary_pgf(Deterministic(lam), mu, delta, z)
    assert got == pytest.approx(math.exp(lam / mu * (z - 1.0)), abs=1e-10)


@pytest.mark.parametrize("env", ENVS)
def test_pgf_finite_difference_mean(env):
    h = 1e-6
    slope = (1.0 - stationary_pgf(env, 1.0, 1.0, 1.0 - h)) / h
    assert slope == pytest.approx(stationary_mean(env, 1.0), abs=1e-4)


def test_pgf_monotone_in_z():
    zs = np.linspace(0, 1, 11)
    vals = [stationary_pgf(Exponential(1.0), 1.0, 1.0, z) for z in zs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_pgf_truncation_guard():
    from coxq.errors import ConvergenceError

    # slot decay p = e^-0.001: far more than 3 factors are needed
    with pytest.raises(ConvergenceError):
        stationary_pgf(Exponential(1.0), 1.0, 0.001, 0.5, k_max=3)


# -- scaled variance and trichotomy -------------------------------------------


def test_scaled_variance_deterministic():
    env = Deterministic(2.0)
    exact, asym = scaled_variance(env, 1.0, ScalingRegime(100, 2.0, 1.0))
    assert exact == pytest.approx(200.0)
    assert asym == pytest.approx(200.0)
    exact, asym = scaled_variance(env, 1.0, ScalingRegime(100, 0.5, 1.0))
    assert exact == pytest.approx(200.0)
    assert asym == 0.0


def test_scaled_variance_alpha_one_ratio():
    exact, asym = scaled_variance(Exponential(1.0), 1.0, ScalingRegime(1000, 1.0, 1.0))
    assert exact / asym == pytest.approx(1.0, abs=1e-3)


def test_scaled_variance_alpha_zero_uses_base_delta():
    env = Exponential(1.0)
    exact, _ = scaled_variance(env, 1.0, ScalingRegime(7, 0.0, 1.0))
    sc = SurvivalConstants(1.0, 1.0)
    assert exact == pytest.approx(7 * 1.0 + 49 * sc.c_ratio * 1.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_trichotomy_ratio_monotone_toward_one(alpha):
    env, mu, delta = Exponential(1.0), 1.0, 2.0
    ratios = []
    for N in [100, 1000, 10_000]:
        exact, asym = scaled_variance(env, mu, ScalingRegime(N, alpha, delta))
        ratios.append(exact / asym)
    gaps = [abs(r - 1.0) for r in ratios]
    assert gaps[0] >= gaps[1] >= gaps[2]
    assert gaps[2] < 0.02


# -- CLT variance -------------------------------------------------------------


def test_clt_sigma2_indicators():
    assert clt_sigma2(Deterministic(1.0), 1.0, 1.0, 2.0) == pytest.approx(1.0)
    assert clt_sigma2(Exponential(1.0), 1.0, 2.0, 0.5) == pytest.approx(1.0)
    assert clt_sigma2(Exponential(1.0), 1.0, 2.0, 1.0) == pytest.approx(2.0)


# -- fluid limit ---------------------------------------------------------------


def test_fluid_limit():
    env, mu = Exponential(1.0), 2.0
    fp = env.mean / mu
    for t in [0.0, 0.5, 3.0]:
        assert fluid_limit(fp, env, mu, t) == pytest.approx(fp)
    assert fluid_limit(4.0, env, mu, 0.0) == pytest.approx(4.0)
    assert fluid_limit(4.0, env, mu, 60.0) == pytest.approx(fp)


# -- FCLT covariance ------------------------------------------------------------


def test_fclt_zero_at_time_zero():
    lc = fclt_covariance(Exponential(1.0), QueueParams((1.0, 2.0)), 1.0, 0.5, [1.0, 0.5], 0.0)
    assert np.all(lc.matrix == 0.0)
    assert lc.regime == "slow"


def test_fclt_offdiagonal_stationary_limit_fast():
    env = Exponential(1.0)
    lc = fclt_covariance(env, QueueParams((1.0, 2.0)), 1.0, 2.0, [0.3, 0.9], 60.0)
    assert lc.matrix[0, 1] == pytest.approx(env.mean / 3.0, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_fclt_diagonal_matches_clt_sigma2(alpha):
    env, mu, delta = Exponential(1.0), 1.3, 0.7
    lc = fclt_covariance(env, QueueParams((mu,)), delta, alpha, [5.0], 80.0)
    assert lc.matrix[0, 0] == pytest.approx(clt_sigma2(env, mu, delta, alpha), rel=1e-10)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("t", [0.2, 1.0, 5.0])
def test_fclt_symmetric_psd(alpha, t):
    lc = fclt_covariance(
        Gamma(2.0, 0.5), QueueParams((0.5, 1.0, 2.0)), 1.5, alpha, [1.0, 0.7, 0.2], t
    )
    m = lc.matrix
    assert np.array_equal(m, m.T)
    assert np.linalg.eigvalsh(m).min() >= -1e-10


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_fclt_limit_matches_correlation_constant(alpha):
    env, delta = Exponential(1.0), 1.0
    mu = (1.0, 2.0)
    lc = fclt_covariance(env, QueueParams(mu), delta, alpha, [0.0, 0.0], 80.0)
    m = lc.matrix
    corr = m[0, 1] / math.sqrt(m[0, 0] * m[1, 1])
    expected, _ = stationary_correlation(env, mu[0], mu[1], delta, alpha)
    assert corr == pytest.approx(expected, rel=1e-10)


# -- limiting correlation --------------------------------------------------------


def test_correlation_constants():
    env = Exponential(1.0)
    corr, c = stationary_correlation(env, 1.0, 2.0, 1.0, 2.0)
    assert c == pytest.approx(1.0)
    assert corr == pytest.approx(math.sqrt(2.0) / 3.0)
    corr, c = stationary_correlation(env, 1.0, 2.0, 1.0, 0.5)
    assert c == pytest.approx(2.0)
    assert corr == pytest.approx(2.0 * math.sqrt(2.0) / 3.0)
    # alpha = 1 with E[L] = delta Var[L]: c = 2E/(1.5E) = 4/3
    corr, c = stationary_correlation(env, 1.0, 2.0, 1.0, 1.0)
    assert c == pytest.approx(4.0 / 3.0)


def test_correlation_degenerate_raises():
    with pytest.raises(DomainError):
        stationary_correlation(Deterministic(1.0), 1.0, 2.0, 1.0, 0.5)


# -- exact stationary covariance of coupled queues ---------------------------------


@pytest.mark.parametrize("N, alpha", [(1, 0.0), (50, 1.0), (100_000, 2.0)])
def test_stationary_covariance_deterministic_is_shared_poisson(N, alpha):
    # no rate variance: only arrivals alive in both queues, N E[L]/(mu_i + mu_k)
    env = Deterministic(1.5)
    got = stationary_covariance(env, 1.0, 2.0, ScalingRegime(N, alpha, 1.0))
    assert got == pytest.approx(N * 1.5 / 3.0, rel=1e-12)


def test_stationary_covariance_single_slot_value():
    # N = 1, Exp(1), delta = 1, mu = (1, 2): 1/3 + (1 - e^-1)(1 - e^-2)/2 / (1 - e^-3);
    # Monte Carlo gives 0.6178 +- 0.0026
    env = Exponential(1.0)
    got = stationary_covariance(env, 1.0, 2.0, ScalingRegime(1, 0.0, 1.0))
    expected = 1 / 3 + (1 - math.exp(-1)) * (1 - math.exp(-2)) / 2 / (1 - math.exp(-3))
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(0.6209385, abs=1e-7)


def test_stationary_covariance_tends_to_fclt_off_diagonal():
    # alpha = 1: N^-gamma Cov -> (E[L] + delta Var[L])/(mu_i + mu_k), the t -> inf limit
    env, delta, mu = Exponential(1.0), 1.0, (1.0, 2.0)
    limit = fclt_covariance(env, QueueParams(mu), delta, 1.0, [0.0, 0.0], 80.0).matrix[0, 1]
    assert limit == pytest.approx(2.0 / 3.0, rel=1e-12)
    gaps = []
    for N in (10**2, 10**4, 10**6):
        scaling = ScalingRegime(N, 1.0, delta)
        scaled = N ** (-scaling.gamma) * stationary_covariance(env, *mu, scaling)
        gaps.append(abs(scaled - limit))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-5 * limit
