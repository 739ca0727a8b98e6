"""Rate functions: closed forms, Legendre transforms, and the IS estimator."""

import itertools
import json
import math
import re
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar
from scipy.special import spence
from scipy.stats import poisson

import coxq.sim
from coxq import ldp
from coxq.env import (
    Deterministic,
    DiscreteFinite,
    EnvSpec,
    Exponential,
    Gamma,
    ScalingRegime,
    spawn_streams,
)
from coxq.errors import ConvergenceError, DomainError, RegimeError, ResourceError
from coxq.harness import ExperimentConfig, run
from coxq.ldp import (
    RateQuery,
    _ilm_prime,
    classify_regime,
    estimate_log_tails,
    integrated_log_mgf,
    rate_fast,
    rate_intermediate,
    rate_multivariate,
    rate_slow,
    rate_slow_bounded,
)
from coxq.sim import block_rows, cell_table
from coxq.special import log_poisson_tail


def q(env=None, mu=1.0, delta=1.0, alpha=0.5, t=40.0, a=2.0):
    return RateQuery(env=env or Exponential(1.0), mu=mu, delta=delta, alpha=alpha, t=t, a=a)


def li2(x):
    # dilogarithm sum_{k>=1} x^k/k^2 = spence(1 - x)
    return spence(1.0 - x)


# -- integrated log-MGF --------------------------------------------------------


def test_ilm_deterministic_closed_form():
    lam, mu, t, theta = 1.7, 0.8, 3.0, 0.4
    want = theta * lam * (1 - math.exp(-mu * t)) / mu
    assert integrated_log_mgf(Deterministic(lam), mu, t, theta) == pytest.approx(want, rel=1e-10)


def test_ilm_zero_theta():
    assert integrated_log_mgf(Exponential(1.0), 1.0, 5.0, 0.0) == 0.0


@pytest.mark.parametrize("env", [Exponential(1.0), Gamma(2.0, 0.4), DiscreteFinite([1.0, 3.0], [0.5, 0.5])])
@pytest.mark.parametrize("theta", [0.1, 0.5, 0.9])
def test_ilm_dual_route_agreement(env, theta):
    if theta >= env.theta_max:
        pytest.skip("outside domain")
    a = integrated_log_mgf(env, 1.0, 10.0, theta, route="time")
    b = integrated_log_mgf(env, 1.0, 10.0, theta, route="substitution")
    assert a == pytest.approx(b, abs=1e-9)


def test_ilm_domain_error():
    with pytest.raises(DomainError):
        integrated_log_mgf(Exponential(1.0), 1.0, 5.0, 1.5)


@pytest.mark.parametrize("route", ["time", "substitution"])
@pytest.mark.parametrize("env, shape, scale", [(Exponential(2.0), 1.0, 0.5), (Gamma(2.5, 0.4), 2.5, 0.4)])
def test_ilm_matches_the_dilogarithm_up_to_the_domain_boundary(env, shape, scale, route):
    # log M(u) = -k log(1 - s u), so the integral is (k/mu) (Li2(s x) - Li2(s x e^(-mu t)));
    # at x = theta_max (1 - 1e-11) the integrand's log singularity is 1e-11 away
    mu = 0.5
    for mu_t in (0.01, 1.0, 5.0, 40.0):
        for frac in (0.1, 0.5, 0.9, 1 - 1e-6, 1 - 1e-11):
            x = frac * env.theta_max
            want = shape * (li2(scale * x) - li2(scale * x * math.exp(-mu_t))) / mu
            got = integrated_log_mgf(env, mu, mu_t / mu, x, route=route)
            assert got == pytest.approx(want, rel=1e-12), (mu_t, frac)


@pytest.mark.parametrize("route", ["time", "substitution"])
def test_ilm_discrete_matches_quadpack(route):
    env, mu = DiscreteFinite([0.5, 2.0, 3.0], [0.3, 0.5, 0.2]), 0.5
    for mu_t in (0.01, 1.0, 5.0, 40.0):
        for theta in (0.1, 1.0, 5.0, 50.0, 500.0):
            want, _ = quad(
                lambda s: float(env.log_mgf(theta * math.exp(-mu * s))),
                0.0, mu_t / mu, epsabs=1e-13, epsrel=1e-13, limit=1000,
            )
            got = integrated_log_mgf(env, mu, mu_t / mu, theta, route=route)
            assert got == pytest.approx(want, rel=1e-12), (mu_t, theta)


@pytest.mark.parametrize(
    "env, x",
    [(Deterministic(1.7), 0.8), (Exponential(1.0), 0.3), (Exponential(1.0), 0.99),
     (Gamma(2.0, 0.4), 1.5), (Gamma(2.0, 0.4), -2.0), (DiscreteFinite([1.0, 3.0], [0.5, 0.5]), 4.0)],
)
def test_ilm_closed_form_derivative_matches_a_central_difference(env, x):
    mu, t, h = 0.7, 6.0, 1e-6 * abs(x)
    fd = (integrated_log_mgf(env, mu, t, x + h) - integrated_log_mgf(env, mu, t, x - h)) / (2 * h)
    assert _ilm_prime(env, mu, t, x) == pytest.approx(fd, rel=1e-7)


# -- fast regime -----------------------------------------------------------------


def test_rate_fast_boundary():
    assert rate_fast(1.0, 1.0 + 1e-9).rate == pytest.approx(0.0, abs=1e-6)


def test_rate_fast_at_e():
    assert rate_fast(1.0, math.e).rate == pytest.approx(-1.0, rel=1e-12)


def test_rate_fast_numeric_sup_oracle():
    rho, a = 1.0, 2.0
    res = minimize_scalar(lambda th: -(th * a - rho * math.expm1(th)), bounds=(0, 5), method="bounded")
    assert rate_fast(rho, a).rate == pytest.approx(-(-res.fun), rel=1e-6)
    assert rate_fast(rho, a).rate == pytest.approx(1 - 2 * math.log(2.0), rel=1e-9)
    assert rate_fast(rho, a).theta_star == pytest.approx(math.log(2.0), rel=1e-9)


def test_rate_fast_domain_error():
    with pytest.raises(DomainError):
        rate_fast(1.0, 0.9)


# -- slow regime, unbounded branch --------------------------------------------------


def test_rate_slow_deterministic_routed_to_bounded():
    with pytest.raises(RegimeError):
        rate_slow(q(env=Deterministic(1.0), a=2.0))


def test_rate_slow_dilog_oracle():
    # Exp(1), mu=1, t=40 ~ inf, a=2: theta* solves 1 - theta = e^(-2 theta);
    # rate = -(2 theta* - Li2(theta*)).
    theta_hat = brentq(lambda th: (1 - th) - math.exp(-2 * th), 0.1, 0.999, xtol=1e-14)
    want = -(2 * theta_hat - li2(theta_hat))
    res = rate_slow(q(a=2.0))
    assert res.theta_star == pytest.approx(theta_hat, abs=1e-6)
    assert res.rate == pytest.approx(want, abs=1e-3)
    assert res.regime == "slow_unbounded"
    assert res.speed == "N^alpha/Delta"
    assert res.diagnostics["stationarity_residual"] < 1e-8


def test_rate_slow_resolves_theta_star_within_an_ulp_of_theta_max():
    # Exp(1), mu=1, t=5, a=20: theta* = 1 - 2.05e-9, where one ulp of theta
    # moves the derivative by 5e-8, more than the residual 1e-8 once allowed.
    # Closed form: I(theta) = Li2(theta) - Li2(theta e^(-5)), and theta*
    # solves -log(u) + log(1 - (1 - u) e^(-5)) = 20 (1 - u) for u = 1 - theta
    # (a contraction: iterate to the fixed point).
    a, c = 20.0, math.exp(-5.0)
    u = 0.0
    for _ in range(10):
        u = math.exp(-a * (1 - u) + math.log1p(-(1 - u) * c))
    theta = 1 - u
    want = -(theta * a - (spence(u) - li2(theta * c)))
    res = rate_slow(q(t=5.0, a=a))
    assert res.rate == pytest.approx(want, rel=1e-10)
    assert res.theta_star == pytest.approx(theta, rel=1e-15)
    assert res.diagnostics["stationarity_residual"] > 1e-8


@pytest.mark.parametrize("a", [5.0, 20.0, 25.0])
@pytest.mark.parametrize("r", [1e-3, 1.0, 1e3])
def test_rate_slow_is_invariant_under_the_exponential_rate_scale(r, a):
    # Exponential(r) is Exponential(1)/r, so the rate at level a/r is the rate
    # at a; at a >= 20, theta* lies within 1e-8 of theta_max, where a domain
    # guard absolute in theta refused r = 1e-3 (theta = 0.000999999999)
    want = rate_slow(q(t=5.0, a=a)).rate
    assert rate_slow(q(env=Exponential(r), t=5.0, a=a / r)).rate == pytest.approx(want, rel=1e-10)


def test_rate_slow_refuses_theta_star_beyond_float_resolution():
    # at a = 100, 1 - theta* = e^(-100) is below one ulp of 1
    with pytest.raises(ConvergenceError, match="no interior stationary point resolvable"):
        rate_slow(q(t=5.0, a=100.0))


def test_rate_slow_boundary_continuity():
    query = q(t=5.0)
    rho = query.rho_t
    res = rate_slow(q(t=5.0, a=rho * (1 + 1e-9)))
    assert abs(res.rate) < 1e-6
    # at the fluid value itself the event is not rare: the query is never built
    with pytest.raises(DomainError, match=r"a = .* must exceed the fluid value rho\(t\)"):
        q(t=5.0, a=rho)


def test_rate_slow_domain_error():
    with pytest.raises(DomainError):
        rate_slow(q(a=0.5))


def test_legendre_duality_residual():
    res = rate_slow(q(a=1.5, t=5.0))
    env, mu, t = Exponential(1.0), 1.0, 5.0
    h = 1e-5
    d = (
        integrated_log_mgf(env, mu, t, res.theta_star + h)
        - integrated_log_mgf(env, mu, t, res.theta_star - h)
    ) / (2 * h)
    assert abs(1.5 - d) < 1e-6


def test_objective_concavity():
    env, mu, t, a = Gamma(2.0, 0.4), 1.0, 8.0, 2.5
    thetas = np.linspace(0.05, 2.0, 15)
    g = np.array([th * a - integrated_log_mgf(env, mu, t, th) for th in thetas])
    second = np.diff(g, 2)
    assert np.all(second < 1e-10)


# -- slow regime, bounded branch ------------------------------------------------------


def test_rate_slow_bounded_values():
    env = DiscreteFinite([1.0, 3.0], [0.5, 0.5])
    res = rate_slow_bounded(q(env=env, a=4.0))
    # u(40) = 3 up to e^-40; closed form 4 log(3/4) + 4 - 3
    assert res.rate == pytest.approx(4 * math.log(0.75) + 1.0, abs=1e-9)
    assert res.regime == "slow_bounded"
    assert res.speed == "N"
    # Cramer oracle: numeric sup of theta a - u (e^theta - 1)
    u = res.diagnostics["u_t"]
    opt = minimize_scalar(lambda th: -(th * 4.0 - u * math.expm1(th)), bounds=(0, 5), method="bounded")
    assert res.rate == pytest.approx(opt.fun, rel=1e-6)


def test_rate_slow_bounded_boundary():
    env = DiscreteFinite([1.0, 3.0], [0.5, 0.5])
    res = rate_slow_bounded(q(env=env, a=3.0 + 1e-9))
    assert abs(res.rate) < 1e-6


@pytest.mark.parametrize("a", [1.5, 2.0, 3.7])
def test_rate_slow_bounded_deterministic_equals_fast(a):
    env = Deterministic(1.0)
    query = q(env=env, a=a, t=12.0)
    bounded = rate_slow_bounded(query)
    fast = rate_fast(query.rho_t, a)
    assert bounded.rate == fast.rate
    assert bounded.theta_star == pytest.approx(fast.theta_star, rel=1e-12)


@pytest.mark.parametrize("a", [3.2, 3.5, 4.0, 5.0])
def test_rate_slow_bounded_is_the_cramer_rate_at_u(a):
    # the bounded slow branch is the fast regime's Poisson rate at mean
    # u(t) instead of rho(t): the same formula, rounded the same way
    query = q(env=DiscreteFinite([1.0, 3.0], [0.5, 0.5]), t=5.0, a=a)
    assert query.u_t != query.rho_t
    bounded, fast = rate_slow_bounded(query), rate_fast(query.u_t, a)
    assert bounded.rate == fast.rate
    assert bounded.theta_star == fast.theta_star


def test_rate_slow_bounded_guards():
    with pytest.raises(RegimeError):
        rate_slow_bounded(q(a=5.0))  # exponential: u(t) = inf >= a
    env = DiscreteFinite([1.0, 3.0], [0.5, 0.5])
    with pytest.raises(RegimeError):
        rate_slow_bounded(q(env=env, a=2.5))  # rho(t) = 2 < a < u(t) = 3
    with pytest.raises(DomainError):
        rate_slow_bounded(q(env=env, a=0.2))


# -- intermediate regime -----------------------------------------------------------


def test_rate_intermediate_deterministic_matches_fast():
    env = Deterministic(1.0)
    delta = 0.7
    query = q(env=env, delta=delta, alpha=1.0, a=2.0)
    res = rate_intermediate(query)
    fast = rate_fast(query.rho_t, 2.0)
    # speed N/Delta vs N: the normalized limits agree when rate_int = Delta * rate_fast
    assert res.rate / delta == pytest.approx(fast.rate, abs=1e-8)
    assert res.theta_star == pytest.approx(delta * math.log(2.0 / query.rho_t), abs=1e-8)
    assert res.speed == "N/Delta"


def test_rate_intermediate_small_delta_oracle():
    query = q(delta=0.01, alpha=1.0, a=2.0)
    res = rate_intermediate(query)
    fast_value = rate_fast(query.rho_t, 2.0).rate
    assert res.rate / 0.01 == pytest.approx(fast_value, rel=0.02)


def test_rate_intermediate_large_delta_approaches_slow():
    slow_val = rate_slow(q(a=2.0)).rate
    near = rate_intermediate(q(delta=200.0, alpha=1.0, a=2.0)).rate
    far = rate_intermediate(q(delta=1.0, alpha=1.0, a=2.0)).rate
    assert abs(near - slow_val) < abs(far - slow_val)
    assert near == pytest.approx(slow_val, rel=0.02)


def test_rate_intermediate_nonpositive():
    for a in (1.1, 2.0, 5.0):
        assert rate_intermediate(q(alpha=1.0, a=a, t=5.0)).rate <= 0.0


# -- regime classification ------------------------------------------------------------


def test_classify_regime():
    assert classify_regime(q(alpha=2.0)) == "fast"
    assert classify_regime(q(alpha=1.0)) == "intermediate"
    assert classify_regime(q(alpha=0.5)) == "slow_unbounded"
    env = DiscreteFinite([1.0, 3.0], [0.5, 0.5])
    assert classify_regime(q(env=env, alpha=0.5, a=4.0)) == "slow_bounded"
    assert classify_regime(q(env=env, alpha=0.5, a=2.5)) == "slow_unbounded"
    with pytest.raises(DomainError):
        classify_regime(q(a=0.5))


# -- monotonicity in the tail level ----------------------------------------------------


def test_rates_decrease_in_a():
    for maker in (
        lambda a: rate_fast(1.0, a).rate,
        lambda a: rate_slow(q(a=a, t=5.0)).rate,
        lambda a: rate_intermediate(q(alpha=1.0, a=a, t=5.0)).rate,
        lambda a: rate_slow_bounded(q(env=DiscreteFinite([1.0, 3.0], [0.5, 0.5]), a=a)).rate,
    ):
        vals = [maker(a) for a in (3.2, 4.0, 5.0)]
        assert vals[0] > vals[1] > vals[2]


# -- multivariate ------------------------------------------------------------------------


def test_multivariate_reduces_to_univariate_slow():
    uni = rate_slow(q(a=1.5, t=5.0))
    mv = rate_multivariate(q(mu=(1.0,), a=(1.5,), t=5.0, alpha=0.5))
    assert mv.rate == pytest.approx(uni.rate, abs=1e-8)


def test_multivariate_reduces_to_univariate_fast():
    query = q(alpha=2.0, a=2.0, t=5.0)
    uni = rate_fast(query.rho_t, 2.0)
    mv = rate_multivariate(q(mu=(1.0,), a=(2.0,), t=5.0, alpha=2.0))
    assert mv.rate == pytest.approx(uni.rate, abs=1e-8)
    assert mv.speed == "N"


def test_multivariate_reduces_to_univariate_intermediate():
    uni = rate_intermediate(q(alpha=1.0, a=2.0, t=5.0))
    mv = rate_multivariate(q(mu=(1.0,), a=(2.0,), t=5.0, alpha=1.0))
    assert mv.rate == pytest.approx(uni.rate, abs=1e-8)


def test_multivariate_symmetry_reduction_oracle():
    # mu = (1,1), a = (a0, a0), alpha < 1: objective depends on theta1 + theta2
    # only, so the rate equals the univariate slow rate at level a0.
    a0 = 1.4
    mv = rate_multivariate(q(mu=(1.0, 1.0), a=(a0, a0), t=5.0, alpha=0.5))
    uni = rate_slow(q(a=a0, t=5.0))
    assert mv.rate == pytest.approx(uni.rate, abs=1e-7)


def test_multivariate_fast_grid_search_oracle():
    # brute-force sup over a theta grid of the 2-d fast-regime objective
    from scipy.integrate import quad as _quad

    env, mu, t = Exponential(1.0), np.array([1.0, 2.0]), 5.0
    a = np.array([1.5, 0.8])

    def objective(th):
        integrand = lambda s: np.prod(np.exp(-mu * s) * np.expm1(th) + 1.0)
        val, _ = _quad(integrand, 0.0, t, limit=200)
        return float(th @ a) - env.mean * (val - t)

    grid = np.arange(0.0, 2.0, 0.04)
    best = max(objective(np.array([x, y])) for x in grid for y in grid)
    mv = rate_multivariate(q(mu=(1.0, 2.0), a=(1.5, 0.8), t=5.0, alpha=2.0))
    assert -mv.rate >= best - 1e-9  # optimizer at least as good as the grid
    assert mv.rate == pytest.approx(-best, abs=2e-3)  # and close to it


def test_multivariate_two_queue_fast_rate_below_univariate():
    # joint rectangle is rarer than each marginal: rate more negative
    mv = rate_multivariate(q(mu=(1.0, 2.0), a=(1.5, 0.8), t=5.0, alpha=2.0))
    q1 = q(mu=1.0, a=1.5, t=5.0, alpha=2.0)
    uni = rate_fast(q1.rho_t, 1.5)
    assert mv.rate < uni.rate + 1e-12


def test_multivariate_domain_error():
    with pytest.raises(DomainError):
        rate_multivariate(q(mu=(1.0, 2.0), a=(0.5, 2.0), t=5.0, alpha=0.5))
    # each coordinate against its own fluid value: queue 2's is rho(t) at mu = 2
    fluid_2 = q(mu=2.0, t=5.0).rho_t
    with pytest.raises(DomainError):
        q(mu=(1.0, 2.0), a=(1.5, fluid_2), t=5.0)
    assert q(mu=(1.0, 2.0), a=(1.5, fluid_2 * (1 + 1e-9)), t=5.0).a[1] > fluid_2
    for mu, a in (((1.0, 2.0), (1.5,)), ((1.0, 2.0), 1.5), (1.0, (1.5, 1.5))):
        with pytest.raises(ValueError, match="matching length"):
            q(mu=mu, a=a, t=5.0)


# Rectangle rates at Exp(1), delta 1, t 5.  The slow corners on a face are the
# univariate rate of the queue at mu = 2 (a face optimum), and at mu = (1, 1) the
# objective depends on theta_1 + theta_2 alone, so the rate is rate_slow at a_0.
MULTIVARIATE_CASES = [
    ((1.0, 1.0), (1.4, 1.4), 0.5, -0.12129938154128),
    ((1.0, 1.0), (3.0, 3.0), 0.5, -1.41642190646818),
    ((1.0, 1.0), (8.0, 8.0), 0.5, -6.36214894007122),
    # equal mu: the objective is linear along theta_1 = -theta_2, and the larger a_i's face wins
    ((1.0, 1.0), (1.4, 2.0), 0.5, -0.5306064499506558),
    ((1.0, 1.0), (2.0, 1.4), 0.5, -0.5306064499506558),
    ((1.0, 1.0, 1.0), (1.4, 2.0, 3.0), 0.5, -1.41642190646818),
    ((1.0, 2.0), (1.4, 1.4), 0.5, -0.6117521774301337),
    ((1.0, 2.0), (8.0, 8.0), 0.5, -7.177555723063502),  # theta* 1.1e-7 below theta_max
    ((1.0, 2.0), (1.4, 1.4), 1.0, -0.29861943625238646),
    ((1.0, 2.0), (1.5, 0.8), 1.0, -0.07221577531124),  # an interior optimum
    # optima 3e-4 below the boundary down to theta's own rounding (d = 1: rate_slow's)
    ((1.0,), (8.0,), 0.5, -6.36214894007122),
    ((2.0,), (4.0,), 0.5, -3.177723630272948),
    ((1.0, 2.0), (12.0, 12.0), 0.5, -11.177555666817291),
    ((1.0, 2.0), (20.0, 20.0), 1.0, -13.040499279027852),
]


@pytest.mark.parametrize("mu, a, alpha, expected", MULTIVARIATE_CASES)
def test_multivariate_rate_table(mu, a, alpha, expected):
    mv = rate_multivariate(q(mu=mu, a=a, t=5.0, alpha=alpha))
    assert mv.rate == pytest.approx(expected, abs=1e-12)
    assert set(mv.diagnostics) == {"iterations", "projected_grad_norm", "corner"}
    assert mv.diagnostics["corner"] == list(a)
    assert mv.diagnostics["projected_grad_norm"] < 1e-6
    assert np.all(mv.theta_star >= 0)
    if alpha < 1 and len(set(mu)) == 1:
        assert mv.rate == pytest.approx(rate_slow(q(mu=mu[0], a=max(a), t=5.0)).rate, abs=1e-12)
    elif mv.theta_star[0] == 0:  # on the face theta_1 = 0: queue 2's own rate
        uni = (rate_slow if alpha < 1 else rate_intermediate)(q(mu=2.0, a=a[1], t=5.0, alpha=alpha))
        assert mv.rate == pytest.approx(uni.rate, abs=1e-12)


def test_multivariate_slow_rate_with_a_numerically_singular_hessian():
    # mu equal past the least-squares cutoff: near the largest a_i's own rate, as at equal mu
    mv = rate_multivariate(q(mu=(1.0, 1.0 + 1e-9, 1.0 - 1e-9), a=(1.4, 2.0, 3.0), t=5.0))
    assert mv.rate == pytest.approx(rate_slow(q(a=3.0, t=5.0)).rate, abs=1e-8)
    assert mv.diagnostics["projected_grad_norm"] < 1e-6
    assert mv.theta_star[:2].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("r", [1e-3, 1.0, 1e3])
def test_multivariate_slow_rate_is_scale_invariant(r):
    # L -> L/r, a -> a/r and theta -> r theta leave the slow rate as it is
    mv = rate_multivariate(q(env=Exponential(r), mu=(1.0, 1.0), a=(1.4 / r, 1.4 / r), t=5.0))
    assert mv.rate == pytest.approx(-0.12129938154128, abs=1e-12)


@pytest.mark.parametrize("w", [0.0, 1.0, 2.0])
@pytest.mark.parametrize(
    "env", [Exponential(1.0), Gamma(2.0, 0.5), DiscreteFinite([0.5, 2.0], [0.5, 0.5]), Deterministic(1.3)])
def test_multivariate_derivatives_match_finite_differences(env, w):
    # the Newton search's gradient and Hessian (w = 1/Delta, 0 in the slow regime)
    # against central differences of its objective and gradient
    limit, a, h = ldp._Limit(env, np.array([1.0, 2.0, 0.7]), 5.0, w), np.ones(3), 1e-6
    theta = np.array([0.2, 0.15, 0.1])
    grad, hess = limit.derivatives(theta, a)
    for k, unit in enumerate(np.eye(3) * h):
        fd = (limit.objective(theta + unit, a) - limit.objective(theta - unit, a)) / (2 * h)
        assert grad[k] == pytest.approx(fd, abs=1e-8)
        fd = (limit.derivatives(theta - unit, a)[0] - limit.derivatives(theta + unit, a)[0]) / (2 * h)
        np.testing.assert_allclose(hess[k], fd, atol=1e-8)


@pytest.mark.parametrize("w", [0.0, 1.0, 2.0])
def test_multivariate_gap_to_the_domain_boundary_keeps_its_precision(w):
    # theta_max - x(theta, s) at x(theta, 0) = theta_max - 1e-10, against 40 digits: its
    # fall x(0) - x(s) to 1e-13 relative down to s = 1e-12, and the gap at 0 to rounding
    limit = ldp._Limit(Exponential(1.0), np.array([1.0, 2.0, 0.7]), 5.0, w)
    edge = math.log1p(w) / w if w else 1.0  # sum_i theta_i where x(theta, 0) = theta_max
    theta = np.array([0.3, 0.2, edge - 0.5 - 1e-10])
    s = np.array([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1.0, 5.0])
    gap = limit.terms(theta, s)[3]
    with mpmath.workdps(40):

        def x(s):
            e = [mpmath.exp(-mpmath.mpf(m) * mpmath.mpf(s)) for m in limit.mu]
            if not w:
                return mpmath.fsum(mpmath.mpf(th) * e_i for th, e_i in zip(theta, e))
            c = [mpmath.expm1(mpmath.mpf(th) * w) for th in theta]
            return (mpmath.fprod(1 + e_i * c_i for e_i, c_i in zip(e, c)) - 1) / w

        assert gap[0] == pytest.approx(float(1 - x(0)), rel=0, abs=4e-16)
        for s_k, gap_k in zip(s[1:], gap[1:]):
            assert gap_k - gap[0] == pytest.approx(float(x(0) - x(s_k)), rel=1e-13)


def test_multivariate_interior_optimum_near_the_domain_boundary():
    # theta* = (0.397, 0.603), 4e-5 below theta_max: no probe of the objective beats it
    mv = rate_multivariate(q(mu=(1.0, 3.0), a=(5.0, 4.0), t=5.0))
    limit = ldp._Limit(Exponential(1.0), np.array([1.0, 3.0]), 5.0, 0.0)
    assert np.all(mv.theta_star > 0) and 0 < 1 - mv.theta_star.sum() < 1e-4
    for unit in np.eye(2) * 1e-6:
        for probe in (mv.theta_star + unit, mv.theta_star - unit):
            assert limit.objective(probe, np.array([5.0, 4.0])) <= -mv.rate + 1e-12


def test_multivariate_refuses_a_corner_past_a_queue_ceiling():
    # a two-atom env caps queue i's rate at u_i(t) = 2 (1 - e^(-mu_i t))/mu_i
    env = DiscreteFinite([0.5, 2.0], [0.5, 0.5])
    with pytest.raises(RegimeError, match=r"queue 0: u\(t\) = 1\.9865"):
        rate_multivariate(q(env=env, mu=(1.0,), a=(1.995,), t=5.0))
    with pytest.raises(RegimeError, match=r"queue 1: u\(t\) = 0\.9999"):
        rate_multivariate(q(env=env, mu=(1.0, 2.0), a=(1.4, 1.0), t=5.0))
    below = rate_multivariate(q(env=env, mu=(1.0, 2.0), a=(1.4, 0.99), t=5.0))
    assert below.rate < 0
    # an unbounded family has u(t) = inf: the same corner is a slow rate
    assert rate_multivariate(q(mu=(1.0, 2.0), a=(1.4, 1.0), t=5.0)).rate < 0


# -- importance sampling --------------------------------------------------------------


def test_is_q_mean_property():
    # under Q the drift of k_t targets a: E_Q k_t -> a as N grows
    query = q(t=5.0, a=1.5)
    theta = rate_slow(query).theta_star
    env = Exponential(1.0)
    def tilted_mean(N):
        h = ScalingRegime(N, 0.5, 1.0).delta_n
        decay = np.exp(-np.arange(int(5.0 / h)) * h)
        return h * float(env.log_mgf_derivatives(theta * decay)[0] @ decay)

    gaps = [abs(tilted_mean(N) - 1.5) for N in (100, 1000, 10_000, 100_000)]
    assert gaps[-1] < 0.02 * 1.5
    assert gaps[0] >= gaps[-1]
    # sampled mean agrees with the finite-N construction
    scaling = ScalingRegime(400, 0.5, 1.0)
    rng = spawn_streams(5, 1)[0]
    h = scaling.delta_n
    J = int(5.0 / h)
    decay = np.exp(-np.arange(J) * h)
    lam = env.sample_block_sums_twisted(theta * decay, rng, np.ones(J, dtype=np.int64), 20_000)
    k = h * (lam @ decay)
    se = k.std(ddof=1) / math.sqrt(k.size)
    assert abs(k.mean() - tilted_mean(400)) < 4 * se


def test_is_discrete_matches_exact_tail():
    # N=4, alpha=0.5, delta=1, t=2: four one-slot cells, so 2^4 rate patterns;
    # given the pattern v, M(t) is Poisson with mean N sum_c v_c w_c exactly,
    # w_c the survival integral of cell c
    env = DiscreteFinite([0.5, 2.0], [0.5, 0.5])
    query = q(env=env, t=2.0, a=1.5)
    assert classify_regime(query) == "slow_unbounded"
    N, h = 4, 0.5
    w = np.array([math.exp(-(2.0 - (c + 1) * h)) - math.exp(-(2.0 - c * h)) for c in range(4)])
    m = math.ceil(N * 1.5)
    exact = sum(
        np.prod(env.probs[list(pat)]) * poisson.sf(m - 1, N * float(env.values[list(pat)] @ w))
        for pat in itertools.product(range(2), repeat=4)
    )
    log_p, rel_se = estimate_log_tails(query, [(N, 8)], 200_000, rate_slow(query).theta_star, 0.01)[0]
    assert abs(math.exp(log_p - math.log(exact)) - 1.0) < 4 * rel_se


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: near the rate ceiling the slow-regime likelihood ratios are "
    "heavy-tailed, so the estimate runs low and its rel_err understates the error",
)
def test_is_discrete_near_rate_ceiling_matches_exact_tail():
    # the case above at a = 1.7, where exact P = 0.19012; one-slot cells, so
    # the block_tol argument does not enter.  Fails on its z bound: z = -4.11
    # at seed 7; RMS(P_hat/P - 1) = 0.121 passes its own bound 2 x 0.120
    env = DiscreteFinite([0.5, 2.0], [0.5, 0.5])
    query = q(env=env, t=2.0, a=1.7)
    N, h = 4, 0.5
    w = np.array([math.exp(-(2.0 - (c + 1) * h)) - math.exp(-(2.0 - c * h)) for c in range(4)])
    m = math.ceil(N * 1.7)
    exact = sum(
        np.prod(env.probs[list(pat)]) * poisson.sf(m - 1, N * float(env.values[list(pat)] @ w))
        for pat in itertools.product(range(2), repeat=4)
    )
    assert exact == pytest.approx(0.19012, abs=1e-5)
    theta = rate_slow(query).theta_star
    runs = estimate_log_tails(query, [(N, seed) for seed in range(1, 11)], 200_000, theta, 0.01)
    err = np.array([math.exp(log_p - math.log(exact)) - 1.0 for log_p, _ in runs])
    rel_se = np.array([rel for _, rel in runs])
    assert np.all(np.abs(err) <= 4 * rel_se)
    assert math.sqrt(np.mean(err**2)) <= 2 * np.median(rel_se)


def test_is_degenerate_query():
    with pytest.raises(DomainError):
        estimate_log_tails(q(t=5.0, a=0.5), [(100, 0)], 10, 1.0, 0.01)


def test_is_rejects_bounded_slow_branch():
    with pytest.raises(RegimeError):
        estimate_log_tails(q(env=Deterministic(1.0), t=5.0, a=1.5), [(100, 0)], 10, 1.0, 0.01)


def test_the_draw_budget_counts_the_one_row_of_a_constant_rate_layer():
    # N = 50, t = 40 in exact mode (block_tol 0): 100,000 one-slot cells, two
    # rows per block.  A constant layer draws one row in all (1e5 cell draws and
    # 1e5 weights, not one row per block), a random one R rows in 10^4 blocks
    # (4e9, past the work budget); neither check draws
    R = 20_000
    counts, *_ = ldp._tilt(q(env=Deterministic(1.0), alpha=2.0, t=40.0, a=2.0), 50, R, 0.0, 0.0)
    assert counts.size == 100_000 and block_rows(counts.size) == 2
    work = 10_000 * (2 * 200_000 + coxq.sim._PASS_COST)
    with pytest.raises(ResourceError, match=re.escape(f"predicted draw work {work:.3e} at N = 50 (")):
        ldp._tilt(q(alpha=2.0, t=40.0, a=2.0), 50, R, 0.0, 0.0)


def _is_shape(alpha, N):
    """A slow (alpha < 1) or intermediate (alpha = 1) IS query, its theta*, and its block rows."""
    query = q(alpha=alpha, t=5.0, a=1.5)
    theta = (rate_slow if alpha < 1 else rate_intermediate)(query).theta_star
    h = ScalingRegime(N, alpha, 1.0).delta_n
    return query, theta, block_rows(cell_table((1.0,), h, (5.0,), 0.01).slots.size)


def _replication_log_weights(query, N, R, seed, theta):
    """(R,) log IS weights at one N (one for a constant rate layer), prepared,
    drawn and weighed in a row: what ``estimate_log_tails`` reduces at (N, seed)."""
    job = ldp._prepare(query, N, seed, R, theta, 0.01)
    return job.weigh(coxq.sim.run_blocks(job.block, job.streams, job.entries))


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_is_replications_are_a_prefix_of_longer_runs(alpha):
    # replication r depends only on (seed, r): block b draws from stream b alone
    N = 100
    query, theta, B = _is_shape(alpha, N)
    full = _replication_log_weights(query, N, 2 * B + 3, 7, theta)
    assert np.isfinite(full).sum() > 10
    for R in (B - 1, B + 1):
        np.testing.assert_array_equal(_replication_log_weights(query, N, R, 7, theta), full[:R])


def test_is_memory_stays_at_one_block():
    # the ldp_slow N=1600 shape at R = 40,000 holds one block's rate draws
    # and a few floats per replication, never an (R, cells) array
    N = 1600
    query, theta, _ = _is_shape(0.5, N)
    tracemalloc.start()
    try:
        log_p, _ = estimate_log_tails(query, [(N, 3)], 40_000, theta, 0.01)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(log_p)
    assert peak <= 8 * 2**20


def _constant_log_weights_block_by_block(query, N, R, seed, theta, block_tol):
    """The constant-rate weights drawn as a random layer's are: each block's
    stream draws one row, whose weight is repeated over the block's rows."""
    env, mu, delta = query.env, query.mu, query.delta
    table = cell_table((mu,), ScalingRegime(N, query.alpha, delta).delta_n, (query.t,), block_tol)
    counts = table.slots
    wk = table.weights[0][:, 0] / counts
    c = N * math.expm1(theta / delta) if query.alpha == 1 else 0.0
    etas = c * wk
    m = math.ceil(N * query.a - 1e-9)
    B = block_rows(counts.size)
    blocks = []
    for rng in spawn_streams(seed, -(-R // B)):
        kappa = env.sample_block_sums_twisted(etas, rng, counts, 1, weights=wk)
        logw = (env.twisted_log_norm(etas, counts) - c * kappa) + log_poisson_tail(m, N * kappa)
        blocks.append(np.repeat(logw, B))
    return np.concatenate(blocks)[:R]


@pytest.mark.parametrize("alpha", [2.0, 1.0], ids=["fast", "intermediate"])
@pytest.mark.parametrize(
    "env", [Deterministic(1.0), DiscreteFinite([2.0], [1.0])], ids=["deterministic", "one-atom"]
)
def test_is_constant_rate_draws_one_row_from_one_stream(monkeypatch, env, alpha):
    # a constant rate layer is drawn once, from block 0's stream, and its one
    # weight stands for all R: it is every block's weight when each block draws,
    # at an R that is no multiple of B, and it reduces as those R weights do
    query = q(env=env, alpha=alpha, t=5.0, a=3.0)
    theta = (rate_fast(query.rho_t, 3.0) if alpha == 2 else rate_intermediate(query)).theta_star
    N = 100
    B = block_rows(cell_table((1.0,), ScalingRegime(N, alpha, 1.0).delta_n, (5.0,), 0.01).slots.size)
    R = 2 * B + 3
    want = _constant_log_weights_block_by_block(query, N, R, 7, theta, 0.01)
    calls = []
    spawn = coxq.sim.spawn_streams
    monkeypatch.setattr(coxq.sim, "spawn_streams", lambda s, n: calls.append(n) or spawn(s, n))
    got = _replication_log_weights(query, N, R, 7, theta)
    assert calls == [1]
    assert np.isfinite(want).all()
    assert got.shape == (1,)
    np.testing.assert_array_equal(want, np.full(R, got[0]))
    assert ldp._reduce(got, R) == ldp._reduce(want, R)


def test_is_spawns_one_stream_per_block(monkeypatch):
    calls = []
    spawn = coxq.sim.spawn_streams

    def spy(seed, n):
        calls.append(n)
        return spawn(seed, n)

    monkeypatch.setattr(coxq.sim, "spawn_streams", spy)
    N, R = 100, 600
    query, theta, B = _is_shape(1.0, N)
    estimate_log_tails(query, [(N, 7)], R, theta, 0.01)
    assert calls == [-(-R // B)]


@pytest.mark.parametrize(
    "env, alpha",
    [(Exponential(1.0), 0.5), (DiscreteFinite([0.5, 2.0], [0.5, 0.5]), 0.5), (Deterministic(1.0), 2.0)],
    ids=["exponential", "discrete", "deterministic"],
)
def test_is_prepares_its_draw_once_per_N_and_draws_once_per_drawn_block(monkeypatch, env, alpha):
    # the ldp_slow, ldp_slow_discrete and ldp_fast shapes at two N: each run
    # prepares one draw, which a random rate layer calls once per block and a
    # constant one once
    prepared, drawn = [], []
    prepare = EnvSpec.block_sampler

    def spy(self, *args):
        draw = prepare(self, *args)
        prepared.append(1)
        return lambda rng, size: drawn.append(size) or draw(rng, size)

    monkeypatch.setattr(EnvSpec, "block_sampler", spy)
    R, a = 600, 1.5 if alpha < 1 else 2.0
    query = q(env=env, alpha=alpha, t=5.0, a=a)
    theta = (rate_slow(query) if alpha < 1 else rate_fast(query.rho_t, a)).theta_star
    blocks = 0
    for N in (200, 400):
        B = block_rows(cell_table((1.0,), ScalingRegime(N, alpha, 1.0).delta_n, (5.0,), 0.01).slots.size)
        blocks += 1 if env.variance == 0 else -(-R // B)
        assert math.isfinite(estimate_log_tails(query, [(N, 7)], R, theta, 0.01)[0][0])
    assert len(prepared) == 2
    assert len(drawn) == blocks and blocks > (2 if env.variance else 1)


@pytest.mark.parametrize(
    "env, alpha",
    [(Exponential(1.0), 0.5), (DiscreteFinite([0.5, 2.0], [0.5, 0.5]), 0.5), (Deterministic(1.0), 2.0)],
    ids=["exponential", "discrete", "deterministic"],
)
def test_is_weights_do_not_depend_on_the_thread_count(monkeypatch, env, alpha):
    # the ldp_slow, ldp_slow_discrete and ldp_fast shapes at N = 1600, with an R
    # that ends inside the 5th block; a constant layer draws one block either way
    a = 1.5 if alpha < 1 else 2.0
    query = q(env=env, alpha=alpha, t=5.0, a=a)
    theta = (rate_slow(query) if alpha < 1 else rate_fast(query.rho_t, a)).theta_star
    N = 1600
    cells = cell_table((1.0,), ScalingRegime(N, alpha, 1.0).delta_n, (5.0,), 0.01).slots.size
    B = block_rows(cells)
    R = 4 * B + 7
    monkeypatch.setattr(coxq.sim, "_CPUS", 1)
    serial = _replication_log_weights(query, N, R, 7, theta)
    monkeypatch.setattr(coxq.sim, "_CPUS", 4)
    assert coxq.sim.block_workers(5, B * cells) == 4
    np.testing.assert_array_equal(_replication_log_weights(query, N, R, 7, theta), serial)
    assert np.isfinite(serial).any()


# -- the N grid's pipeline ---------------------------------------------------------

# the tail calls' shapes at small R: (env, alpha, a, N grid)
GRID_SHAPES = {
    "fast-deterministic": (Deterministic(1.0), 2.0, 2.0, [50, 100, 200]),
    "slow-exponential": (Exponential(1.0), 0.5, 1.5, [200, 400, 800]),
    "intermediate-exponential": (Exponential(1.0), 1.0, 1.5, [50, 100, 200]),
    "slow-discrete": (DiscreteFinite([0.5, 2.0], [0.5, 0.5]), 0.5, 1.5, [200, 400, 800]),
}


def _grid_query(shape):
    env, alpha, a, grid = GRID_SHAPES[shape]
    query = q(env=env, alpha=alpha, t=5.0, a=a)
    rate = {2.0: lambda: rate_fast(query.rho_t, a), 1.0: lambda: rate_intermediate(query)}
    theta = rate.get(alpha, lambda: rate_slow(query))().theta_star
    return query, theta, [(N, 11 + N) for N in grid]


def _serial_log_tails(query, points, R, theta):
    """The unpipelined loop: each N prepared, drawn and weighed before the next."""
    return [ldp._reduce(_replication_log_weights(query, N, R, seed, theta), R) for N, seed in points]


@pytest.mark.parametrize("cpus", [1, 2, 8])
@pytest.mark.parametrize("shape", GRID_SHAPES)
def test_pipelined_grid_is_the_serial_loop_bit_for_bit(monkeypatch, shape, cpus):
    # R = 1500 ends inside a block at every N; 8 CPUs take up to 8 threads
    query, theta, points = _grid_query(shape)
    R = 1500
    monkeypatch.setattr(coxq.sim, "_CPUS", cpus)
    baseline = threading.active_count()
    got = estimate_log_tails(query, iter(points), R, theta, 0.01)
    assert threading.active_count() == baseline
    per_n = [estimate_log_tails(query, [point], R, theta, 0.01)[0] for point in points]
    want = _serial_log_tails(query, points, R, theta)
    assert all(math.isfinite(log_p) for log_p, _ in got)
    assert repr(got) == repr(per_n) == repr(want)


@pytest.mark.parametrize("refused", [1, 2], ids=["second", "last"])
def test_a_refusal_at_a_later_N_is_raised_before_any_N_is_weighed(monkeypatch, refused):
    # the work budget admits the draws of every N before the refused one and
    # refuses its own; every N is prepared before any is weighed, so no count
    # tail is computed, and the first N's blocks are cancelled and joined
    query, theta, points = _grid_query("slow-exponential")
    R = 2000
    monkeypatch.setattr(coxq.sim, "_CPUS", 2)
    works = [coxq.sim.check_work(cell_table((1.0,), ScalingRegime(N, 0.5, 1.0).delta_n, (5.0,), 0.01),
                                 query.env, R, N) for N, _ in points]
    assert works == sorted(set(works))
    monkeypatch.setattr(coxq.sim, "_WORK_BUDGET", works[refused - 1])
    tails = []
    monkeypatch.setattr(ldp, "log_poisson_tail", lambda m, lam: tails.append(lam.size))
    baseline = threading.active_count()
    with pytest.raises(ResourceError, match=re.escape(f"at N = {points[refused][0]} (")):
        estimate_log_tails(query, points, R, theta, 0.01)
    assert threading.active_count() == baseline
    assert tails == []


def test_an_error_in_the_first_weighing_cancels_the_second_N_and_wins(monkeypatch):
    # N = 400's blocks are held until N = 200's weighing raises, so they are
    # drawing then; the error is raised once their threads are joined, and no
    # thread takes another block of N = 400
    query, theta, points = _grid_query("slow-exponential")
    monkeypatch.setattr(coxq.sim, "_CPUS", 2)
    prepare = ldp._prepare
    gate, drawn = threading.Event(), []

    def spy(query, N, *args):
        job = prepare(query, N, *args)
        if N != 400:
            return job
        return job._replace(block=lambda b, rng: gate.wait(10) and drawn.append(b) or job.block(b, rng))

    def injected(m, lam):
        alive.extend(t.name for t in threading.enumerate())
        gate.set()
        raise RuntimeError("injected into the weighing")

    alive = []
    monkeypatch.setattr(ldp, "_prepare", spy)
    monkeypatch.setattr(ldp, "log_poisson_tail", injected)
    baseline = threading.active_count()
    with pytest.raises(RuntimeError, match="injected"):
        estimate_log_tails(query, points, 2000, theta, 0.01)
    assert "coxq-block" in alive  # N = 400's worker was drawing
    assert threading.active_count() == baseline
    assert len(drawn) <= 1  # at most the block the worker held at the gate


def test_a_refusal_at_the_second_N_wins_over_a_draw_error_at_the_first(monkeypatch):
    # N = 200's block 3 raises while N = 400's checks run; the refusal is raised
    # and N = 200's blocks are cancelled, so their error is never raised
    query, theta, points = _grid_query("slow-exponential")
    monkeypatch.setattr(coxq.sim, "_CPUS", 2)
    prepare, tilt = ldp._prepare, ldp._tilt
    failed = threading.Event()

    def refusing(query, N, *args):
        if N == 400:
            failed.wait(10)
            raise ResourceError("refused at the second N")
        return tilt(query, N, *args)

    def spy(query, N, *args):
        job = prepare(query, N, *args)

        def failing(b, rng):
            if b == 3:
                failed.set()
                raise FloatingPointError("block 3")
            return job.block(b, rng)

        return job._replace(block=failing)

    monkeypatch.setattr(ldp, "_tilt", refusing)
    monkeypatch.setattr(ldp, "_prepare", spy)
    baseline = threading.active_count()
    with pytest.raises(ResourceError, match="refused at the second N"):
        estimate_log_tails(query, points, 2000, theta, 0.01)
    assert failed.is_set()
    assert threading.active_count() == baseline


@pytest.mark.parametrize("cpus", [1, 2])
def test_at_most_two_prepared_draws_are_alive_at_once(monkeypatch, cpus):
    # each N's prepared draw (its cell tables, up to 2^24 entries) is let go once
    # the N is weighed, so a long grid holds no more of them than a short one
    query, theta, _ = _grid_query("slow-discrete")
    points = [(N, 11 + N) for N in (200, 300, 400, 600, 800)]
    monkeypatch.setattr(coxq.sim, "_CPUS", cpus)
    prepare, alive, most = ldp._prepare, [], []

    def spy(*args):
        job = prepare(*args)
        alive.append(weakref.ref(job.block))
        most.append(sum(ref() is not None for ref in alive))
        return job

    monkeypatch.setattr(ldp, "_prepare", spy)
    got = estimate_log_tails(query, points, 1500, theta, 0.01)
    assert len(most) == len(points) and max(most) == 2
    assert repr(got) == repr(_serial_log_tails(query, points, 1500, theta))


@pytest.mark.parametrize("shape", ["slow-exponential", "slow-discrete"])
def test_at_most_block_workers_draws_are_in_flight(monkeypatch, shape):
    # a spy around every block's draw counts the draws in flight, across N:
    # the next N's blocks start only once the last N's threads are joined
    query, theta, points = _grid_query(shape)
    R = 3000
    monkeypatch.setattr(coxq.sim, "_CPUS", 8)
    prepare = ldp._prepare
    lock, state, workers = threading.Lock(), {"now": 0, "most": 0}, []

    def spy(query, N, *args):
        job = prepare(query, N, *args)
        workers.append(coxq.sim.block_workers(len(job.streams), job.entries))

        def counted(b, rng):
            with lock:
                state["now"] += 1
                state["most"] = max(state["most"], state["now"])
            try:
                time.sleep(0.002)  # holds the draw open, so overlaps show
                return job.block(b, rng)
            finally:
                with lock:
                    state["now"] -= 1

        return job._replace(block=counted)

    monkeypatch.setattr(ldp, "_prepare", spy)
    estimate_log_tails(query, points, R, theta, 0.01)
    assert min(workers) >= 2
    assert 2 <= state["most"] <= max(workers)


def test_ldp_check_calls_no_hooked_name_off_the_calling_thread(monkeypatch):
    # a tracer of the hooked names keeps one span stack per process, so every
    # stage the pipeline runs alongside the draws stays on the calling thread;
    # configs/ldp_slow.json at R = 3000 is 12 blocks per N on two threads
    monkeypatch.setattr(coxq.sim, "_CPUS", 2)
    calls = []
    for module, name in ((coxq.sim, "spawn_streams"), (ldp, "cell_table"), (ldp, "log_poisson_tail")):
        def spy(*args, _real=getattr(module, name), _name=name):
            calls.append((_name, threading.current_thread()))
            return _real(*args)

        monkeypatch.setattr(module, name, spy)
    doc = json.loads((Path(__file__).resolve().parent.parent / "configs" / "ldp_slow.json").read_text())
    assert run(ExperimentConfig.from_json({**doc, "replications": 3000})).passed
    assert {name for name, _ in calls} == {"spawn_streams", "cell_table", "log_poisson_tail"}
    assert all(thread is threading.main_thread() for _, thread in calls)


# -- the count's conditional tail -------------------------------------------------


@pytest.mark.parametrize("N", [50, 400, 1900, 4000])
def test_is_fast_constant_rate_is_the_exact_poisson_tail(N):
    # a constant rate leaves only the count random, and the IS integrates it
    # out: log P is log P(Poisson(N rho(t)) >= m) with no Monte Carlo error,
    # also where scipy's logsf underflows (N = 4000: -1549.9)
    query = q(env=Deterministic(1.0), alpha=2.0, t=40.0, a=2.0)
    theta = rate_fast(query.rho_t, 2.0).theta_star
    log_p, rel_err = estimate_log_tails(query, [(N, 7)], 2000, theta, 0.01)[0]
    h = ScalingRegime(N, 2.0, 1.0).delta_n
    kappa = cell_table((1.0,), h, (40.0,), 0.01).weights[0][:, 0].sum()
    want = log_poisson_tail(math.ceil(N * 2.0 - 1e-9), np.array([N * kappa]))[0]
    assert math.isfinite(log_p)
    assert log_p == pytest.approx(want, rel=1e-12)
    assert rel_err == 0.0


@pytest.mark.parametrize(
    "alpha, n_grid, R",
    [(1.0, (50, 100, 200), 8000), (2.0, (50, 100, 200, 400), 20_000)],
    ids=["intermediate", "fast-random-rate"],
)
def test_is_count_integrated_out_keeps_rel_err_small(alpha, n_grid, R):
    # Exp(1) rates at t = 5, a = 1.5, the bench's intermediate shape: with the
    # count drawn and masked instead, rel_err read 0.020-0.029 (intermediate)
    # and 0.015-0.026 (fast)
    query = q(alpha=alpha, t=5.0, a=1.5)
    theta = (rate_intermediate(query) if alpha == 1 else rate_fast(query.rho_t, 1.5)).theta_star
    points = [(N, 7) for N in n_grid]
    for N, (log_p, rel_err) in zip(n_grid, estimate_log_tails(query, points, R, theta, 0.01)):
        assert math.isfinite(log_p)
        assert rel_err < 0.01, (N, rel_err)


def test_rate_result_json():
    res = rate_slow(q(a=1.5, t=5.0))
    doc = res.to_json()
    assert doc["schema"] == "coxq-rate/1"
    assert doc["regime"] == "slow_unbounded"
    assert isinstance(doc["theta_star"], float)
    mv = rate_multivariate(q(mu=(1.0, 1.0), a=(1.4, 1.4), t=5.0, alpha=0.5))
    assert isinstance(mv.to_json()["theta_star"], list)
