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
from coxq import exact, ldp
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
    # the rate search's dI/dx: its gradient integrand K'(x e^(-mu s)) e^(-mu s), at d = 1
    # in the slow regime, where x = theta, integrated by the search's own quadrature
    mu, t, h = 0.7, 6.0, 1e-6 * abs(x)
    fd = (integrated_log_mgf(env, mu, t, x + h) - integrated_log_mgf(env, mu, t, x - h)) / (2 * h)
    _, minus_grad, _ = ldp._Limit(env, np.array([mu]), t, 0.0).evaluate(np.array([x]), np.zeros(1))
    assert -minus_grad[0] == pytest.approx(fd, rel=1e-7)


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
    assert res.diagnostics["projected_grad_norm"] < 1e-8


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
    assert res.diagnostics["projected_grad_norm"] > 1e-8


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
    _, grad, hess = limit.evaluate(theta, a)
    for k, unit in enumerate(np.eye(3) * h):
        up, down = limit.evaluate(theta + unit, a), limit.evaluate(theta - unit, a)
        assert grad[k] == pytest.approx((up[0] - down[0]) / (2 * h), abs=1e-8)
        np.testing.assert_allclose(hess[k], (down[1] - up[1]) / (2 * h), atol=1e-8)


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
            assert limit.evaluate(probe, np.array([5.0, 4.0]))[0] <= -mv.rate + 1e-12


def test_multivariate_refuses_a_corner_past_a_queue_ceiling():
    # a two-atom env caps queue i's rate at u_i(t) = 2 (1 - e^(-mu_i t))/mu_i
    env = DiscreteFinite([0.5, 2.0], [0.5, 0.5])
    with pytest.raises(RegimeError, match=r"queue 0: u\(t\) = 1\.9865"):
        rate_multivariate(q(env=env, mu=(1.0,), a=(1.995,), t=5.0))
    with pytest.raises(RegimeError, match=r"queue 1: u\(t\) = 0\.9999"):
        rate_multivariate(q(env=env, mu=(1.0, 2.0), a=(1.4, 1.0), t=5.0))
    # a rectangle's ceilings are its queues' own, bit for bit
    ceilings = q(env=env, mu=(1.0, 2.0), a=(1.4, 1.0), t=5.0).u_t
    assert ceilings.tolist() == [q(env=env, mu=m, a=x, t=5.0).u_t for m, x in ((1.0, 1.4), (2.0, 1.0))]
    below = rate_multivariate(q(env=env, mu=(1.0, 2.0), a=(1.4, 0.99), t=5.0))
    assert below.rate < 0
    # an unbounded family has u(t) = inf: the same corner is a slow rate
    assert rate_multivariate(q(mu=(1.0, 2.0), a=(1.4, 1.0), t=5.0)).rate < 0


RATES_D1 = json.loads((Path(__file__).parent / "rates_d1.json").read_text())


@pytest.mark.parametrize("group", ["sweep", "near_boundary"])
def test_one_search_matches_the_recorded_bisection_rates_at_d_1(group):
    # rate_slow and rate_intermediate are the rectangle search at d = 1; at alpha 2 the
    # search's fast rate is checked against rate_fast's closed form.  Every query converges
    for case in RATES_D1[group]:
        env = coxq.env.env_from_json(case["env"])
        query = RateQuery(env, case["mu"], case["delta"], case["alpha"], case["t"], case["a"])
        if case["alpha"] > 1:
            rectangle = RateQuery(query.env, (query.mu,), query.delta, query.alpha, query.t, (query.a,))
            got = rate_multivariate(rectangle)
        else:
            got = (rate_intermediate if case["alpha"] == 1 else rate_slow)(query)
        assert got.rate == pytest.approx(case["rate"], rel=1e-12, abs=0), case
    assert len(RATES_D1["sweep"]) >= 281


# -- the saddlepoint tail on the cell table ------------------------------------------


# (level a over the fluid value, count level m, log P error measured against the exact tail)
POISSON_SADDLE_ERRORS = [(2.0, 20, 7.8e-4), (2.0, 200, 7.2e-5), (2.0, 2000, 7.1e-6),
                         (1.2, 12_000, 3.1e-7), (1.05, 1_050_000, 9.4e-10)]


def _constant_rate_tail(ratio, m):
    """(query, N, exact log P) at a Deterministic(1) rate, alpha 2, t 40: the count is
    Poisson with the cell table's mean, so ``log_poisson_tail`` is its exact tail."""
    rho = q(env=Deterministic(1.0), alpha=2.0, t=40.0, a=2.0).rho_t
    query = q(env=Deterministic(1.0), alpha=2.0, t=40.0, a=ratio * rho)
    N = round(m / query.a)
    law = exact.ReadLaw.of(query, N, 0.01)
    tail = log_poisson_tail(math.ceil(N * query.a - 1e-9), np.array([N * float((law.counts * law.wk).sum())]))
    return query, N, float(tail[0])


@pytest.mark.parametrize("ratio, m, measured", POISSON_SADDLE_ERRORS)
def test_saddle_log_tail_of_a_constant_rate_is_the_poisson_tail_within_its_measured_error(ratio, m, measured):
    query, N, want = _constant_rate_tail(ratio, m)
    assert 0 < exact.saddle_log_tail(query, N) - want <= 1.05 * measured


def test_saddle_log_tail_error_falls_as_one_over_the_count_level():
    for m in (10, 30, 100, 1000, 10**4, 10**5, 10**6):
        query, N, want = _constant_rate_tail(2.0, m)
        assert 0 < (exact.saddle_log_tail(query, N) - want) * m <= 0.018, m


def _mp_saddle_log_tail(law, m):
    """``ReadLaw.log_tail``'s formula at 50 digits for a discrete law, with its own saddle."""
    env, N = law.env, law.N
    with mpmath.workdps(50):
        vals, probs = [mpmath.mpf(v) for v in env.values], [mpmath.mpf(p) for p in env.probs]
        cells = [(int(n), mpmath.mpf(w)) for n, w in zip(law.counts, law.wk)]

        def cgf(s):  # K_N, K_N', K_N''
            K = K1 = K2 = mpmath.mpf(0)
            for n, w in cells:
                eta, d = N * mpmath.expm1(s) * w, N * mpmath.exp(s) * w
                terms = [p * mpmath.exp(eta * v) for v, p in zip(vals, probs)]
                M = mpmath.fsum(terms)
                k1 = mpmath.fsum(t * v for t, v in zip(terms, vals)) / M
                k2 = mpmath.fsum(t * v * v for t, v in zip(terms, vals)) / M - k1**2
                K, K1, K2 = K + n * mpmath.log(M), K1 + n * k1 * d, K2 + n * (k1 * d + k2 * d * d)
            return K, K1, K2

        x, s, step = mpmath.mpf(m) - mpmath.mpf(1) / 2, mpmath.mpf(0), mpmath.mpf(1)
        while abs(step) > mpmath.mpf(10) ** -40:
            K, K1, K2 = cgf(s)
            step = (K1 - x) / K2
            s -= step
        K, _, K2 = cgf(s)
        w = mpmath.sign(s) * mpmath.sqrt(2 * (s * x - K))
        r = w + mpmath.log(2 * mpmath.sinh(s / 2) * mpmath.sqrt(K2) / w) / w
        return float(mpmath.log(mpmath.ncdf(-r))), float(s)


def test_saddle_log_tail_near_the_mean_is_its_formula_at_50_digits():
    # from just below the mean, where s (m - 1/2) - K_N(s) cancels and the series stands
    # for w, to a level where the difference is exact: within 5e-8, 5e-9 from s = 5e-5 on
    env = DiscreteFinite([0.5, 2.0], [0.5, 0.5])
    for N in (200, 1600):
        law = exact.ReadLaw.of(q(env=env, t=5.0, a=1.5), N, 0.01)
        mean = N * env.mean * float((law.counts * law.wk).sum())
        for m in sorted({math.ceil(mean), math.ceil(mean) + 1, math.ceil(1.001 * mean),
                         math.ceil(1.05 * mean)}):
            c = law.saddle(m - 0.5)
            want, s = _mp_saddle_log_tail(law, m)
            got = law.log_tail(c, env.twisted_log_norm(c * law.wk, law.counts), m)
            assert got == pytest.approx(want, abs=5e-9 if s >= 5e-5 else 5e-8), (N, m, s)


@pytest.mark.parametrize("env", [Exponential(1.0), Gamma(2.0, 0.5)])
def test_saddle_near_a_bounded_domain_edge_takes_few_newton_steps(monkeypatch, env):
    # at N = 1e5, t = 5 the largest tilt ends 5e-4 or less from theta_max: bisecting toward
    # the edge took up to 17 steps; the retaken step in the log of the gap takes at most 10.
    # At N = 5000, alpha 1, t 2, block_tol 0 and a = 50-200 rho(t) one ulp of s moves K_N'
    # by 3e-12 to 1.2e-10 relative: stopping only below 1e-12 took up to 42 steps, 12 at most now
    calls = []
    derivatives = type(env).log_mgf_derivatives

    def counted(self, theta, gap=None):  # one call per Newton step
        calls.append(1)
        return derivatives(self, theta, gap)

    monkeypatch.setattr(type(env), "log_mgf_derivatives", counted)
    rho = env.mean * -math.expm1(-2.0)
    shapes = [(10**5, q(env=env, t=5.0, a=a), 0.01, 10, 1e-12) for a in (5.0, 8.0, 12.0, 20.0)]
    shapes += [(5000, q(env=env, alpha=1.0, t=2.0, a=k * rho), 0.0, 12, 1e-10) for k in (50, 100, 200)]
    for N, query, block_tol, most, rel in shapes:
        law = exact.ReadLaw.of(query, N, block_tol)
        target = math.ceil(N * query.a - 1e-9) - 0.5
        calls.clear()
        c = law.saddle(target)
        assert len(calls) <= most, (N, query.a, len(calls))
        first = derivatives(env, c * law.wk)[0]
        assert (N + c) * float((law.counts * law.wk * first).sum()) == pytest.approx(target, rel=rel)


# -- importance sampling --------------------------------------------------------------


def test_is_q_mean_property():
    # under Q, the rate layer tilted by eta = c wk and the count by s = log1p(c/N),
    # the count's mean N e^s E_Q[kappa] is m - 1/2: 20,000 draws at the ldp_slow shape
    N, query = 400, q(t=5.0, a=1.5)
    tilt = ldp._tilt(query, N, 1, 0.01)
    c, law = tilt.c, tilt.law
    kappa = query.env.sample_block_sums_twisted(c * law.wk, spawn_streams(5, 1)[0], law.counts, 20_000,
                                                weights=law.wk)
    mean = (N + c) * kappa
    assert abs(mean.mean() - (math.ceil(N * 1.5) - 0.5)) < 4 * mean.std(ddof=1) / math.sqrt(mean.size)


@pytest.mark.parametrize("a, recorded", [(1.5, 0.29436), (1.7, 0.19012)])
def test_is_discrete_near_rate_ceiling_matches_exact_tail(a, recorded):
    # N=4, alpha=0.5, delta=1, t=2: four one-slot cells, so 2^4 rate patterns;
    # given the pattern v, M(t) is Poisson with mean N sum_c v_c w_c exactly,
    # w_c the survival integral of cell c.  u(t) = 1.73, so a = 1.7 sits just under
    # the rate ceiling, where the weights are heavy-tailed unless c is the finite-N saddle's
    env = DiscreteFinite([0.5, 2.0], [0.5, 0.5])
    query = q(env=env, t=2.0, a=a)
    N, h = 4, 0.5
    w = np.array([math.exp(-(2.0 - (c + 1) * h)) - math.exp(-(2.0 - c * h)) for c in range(4)])
    m = math.ceil(N * a)
    want = sum(
        np.prod(env.probs[list(pat)]) * poisson.sf(m - 1, N * float(env.values[list(pat)] @ w))
        for pat in itertools.product(range(2), repeat=4)
    )
    assert want == pytest.approx(recorded, abs=1e-5)
    runs = estimate_log_tails(query, [(N, seed) for seed in range(1, 11)], 200_000, 0.01)
    err = np.array([math.exp(log_p - math.log(want)) - 1.0 for log_p, *_ in runs])
    rel_se = np.array([rel for _, rel, _ in runs])
    assert np.all(np.abs(err) <= 4 * rel_se)
    assert math.sqrt(np.mean(err**2)) <= 2 * np.median(rel_se)


def test_is_degenerate_query():
    with pytest.raises(DomainError):
        estimate_log_tails(q(t=5.0, a=0.5), [(100, 0)], 10, 0.01)


def test_is_bounded_slow_branch_is_the_exact_poisson_tail():
    # a constant rate past its ceiling u(t) = 0.993 (the bounded slow branch):
    # nothing to tilt, and the count's tail is exact
    query = q(env=Deterministic(1.0), t=5.0, a=1.5)
    assert classify_regime(query) == "slow_bounded"
    log_p, rel_err, _ = estimate_log_tails(query, [(100, 0)], 10, 0.01)[0]
    weights = cell_table((1.0,), ScalingRegime(100, 0.5, 1.0).delta_n, (5.0,), 0.01).weights[0][:, 0]
    assert log_p == pytest.approx(log_poisson_tail(150, np.array([100 * 1.0 * weights.sum()]))[0], rel=1e-12)
    assert rel_err == 0.0


def test_the_draw_budget_counts_the_one_row_of_a_constant_rate_layer():
    # N = 50, t = 40 in exact mode (block_tol 0): 100,000 one-slot cells, two
    # rows per block.  A constant layer draws one row in all (1e5 cell draws and
    # 1e5 weights, not one row per block), a random one R rows in 10^4 blocks
    # (4e9, past the work budget); neither check draws
    R = 20_000
    counts = ldp._tilt(q(env=Deterministic(1.0), alpha=2.0, t=40.0, a=2.0), 50, R, 0.0).law.counts
    assert counts.size == 100_000 and block_rows(counts.size) == 2
    work = 10_000 * (2 * 200_000 + coxq.sim._PASS_COST)
    with pytest.raises(ResourceError, match=re.escape(f"predicted draw work {work:.3e} at N = 50 (")):
        ldp._tilt(q(alpha=2.0, t=40.0, a=2.0), 50, R, 0.0)


class _RecordingGenerator:
    """A numpy Generator that records (method, copied arguments, copied result) of every
    call, before its caller overwrites or scales the result in place."""

    def __init__(self, rng):
        self._rng, self.calls = rng, []

    def __getattr__(self, name):
        def record(*args, **kwargs):
            out = getattr(self._rng, name)(*args, **kwargs)
            self.calls.append((name, [np.copy(x) for x in args], np.copy(out)))
            return out

        return record


def _kappa_from_variates(env, calls, counts, wk, etas):
    """Each row's kappa from a tilted draw's recorded variates, with the tilted law formed
    here from etas: rate - eta, s/(1 - s eta), or the atoms' p_j e^(eta v_j)/M(eta)."""
    (name, args, out), *rest = calls
    if isinstance(env, Exponential):  # one standard exponential per one-slot cell
        assert name == "standard_exponential" and not rest
        return out @ (wk / (env.rate - etas))
    if isinstance(env, Gamma):  # one standard gamma of shape k n_c per cell
        assert name == "standard_gamma" and not rest
        np.testing.assert_array_equal(args[0], env.shape * counts)
        return out @ (wk * env.scale / (1.0 - env.scale * etas))
    tilted = env.probs * np.exp(np.multiply.outer(etas, env.values))
    tilted /= tilted.sum(axis=1, keepdims=True)
    if name == "random":  # one uniform per one-slot cell against the tilted cumulative probabilities
        assert not rest
        cdf = np.cumsum(tilted, axis=1)
        return env.values[(out[..., None] >= (cdf / cdf[:, -1:])[:, :-1]).sum(axis=-1)] @ wk
    # a binomial chain per cell: atom j given none of atoms 0..j-1
    left, S = np.broadcast_to(counts, out.shape), 0.0
    for j, (name, (n, p), n_j) in enumerate(calls):
        assert name == "binomial"
        np.testing.assert_array_equal(n, left)
        np.testing.assert_allclose(p, tilted[:, j] / tilted[:, j:].sum(axis=1), rtol=1e-12)
        S, left = S + env.values[j] * n_j, left - n_j
    return (S + env.values[-1] * left) @ wk


THREE_ATOMS = DiscreteFinite([0.5, 2.0, 3.0], [0.5, 0.3, 0.2])


@pytest.mark.parametrize(
    "env, block_tol", [(Exponential(2.0), 0), (Gamma(0.7, 1.5), 0.5), (THREE_ATOMS, 0), (THREE_ATOMS, 0.5)],
    ids=["exponential", "gamma", "discrete-one-slot", "discrete-multi-slot"],
)
def test_is_draw_and_weights_follow_the_saddle_tilt(env, block_tol):
    # one block of one N, drawn from a recording generator: c = N expm1(s) solves
    # K_N'(s) = m - 1/2, K_N(s) = twisted_log_norm(N expm1(s) wk) by a central
    # difference; each row's kappa follows from its variates under eta = c wk, and
    # its log weight is log_norm - c kappa + log P(Poisson(N kappa) >= m)
    N, R, a = 100, 6, 2.0 * env.mean * -math.expm1(-2.0)
    query = q(env=env, t=2.0, a=a)
    tilt = ldp._tilt(query, N, R, block_tol)
    counts, wk, c, log_norm = tilt.law.counts, tilt.law.wk, tilt.c, tilt.log_norm
    assert np.all(counts == 1) == (block_tol == 0)
    m, s, d = math.ceil(N * a - 1e-9), math.log1p(c / N), 1e-6
    K = [env.twisted_log_norm(N * math.expm1(s + x) * wk, counts) for x in (0.0, d, -d)]
    assert c > 0 and (K[1] - K[2]) / (2 * d) == pytest.approx(m - 0.5, rel=1e-7)
    assert log_norm == pytest.approx(K[0], rel=1e-12)
    job = ldp._prepare(query, N, 5, R, block_tol)
    assert len(job.streams) == 1
    rng = _RecordingGenerator(job.streams[0])
    kappa = job.block(0, rng)[:R]
    recomputed = _kappa_from_variates(env, rng.calls, counts, wk, c * wk)[:R]
    np.testing.assert_allclose(recomputed, kappa, rtol=1e-13)
    want = log_norm - c * kappa + log_poisson_tail(m, N * kappa)
    np.testing.assert_allclose(job.weigh([kappa]), want, rtol=1e-14)


def _is_shape(alpha, N):
    """An IS query at t = 5, a = 1.5, and its block rows at N."""
    h = ScalingRegime(N, alpha, 1.0).delta_n
    return q(alpha=alpha, t=5.0, a=1.5), block_rows(cell_table((1.0,), h, (5.0,), 0.01).slots.size)


def _replication_log_weights(query, N, R, seed):
    """(R,) log IS weights at one N (one for a constant rate layer), prepared,
    drawn and weighed in a row: what ``estimate_log_tails`` reduces at (N, seed)."""
    job = ldp._prepare(query, N, seed, R, 0.01)
    return job.weigh(coxq.sim.run_blocks(job.block, job.streams, job.entries))


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_is_replications_are_a_prefix_of_longer_runs(alpha):
    # replication r depends only on (seed, r): block b draws from stream b alone
    N = 100
    query, B = _is_shape(alpha, N)
    full = _replication_log_weights(query, N, 2 * B + 3, 7)
    assert np.isfinite(full).sum() > 10
    for R in (B - 1, B + 1):
        np.testing.assert_array_equal(_replication_log_weights(query, N, R, 7), full[:R])


def test_is_memory_stays_at_one_block():
    # the ldp_slow N=1600 shape at R = 40,000 holds one block's rate draws
    # and a few floats per replication, never an (R, cells) array
    N = 1600
    query, _ = _is_shape(0.5, N)
    tracemalloc.start()
    try:
        log_p, *_ = estimate_log_tails(query, [(N, 3)], 40_000, 0.01)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(log_p)
    assert peak <= 8 * 2**20


def _constant_log_weights_block_by_block(query, N, R, seed, block_tol):
    """The constant-rate weights drawn as a random layer's are, untilted (c = 0, log_norm 0):
    each block's stream draws one row, whose weight is repeated over the block's rows."""
    table = cell_table((query.mu,), ScalingRegime(N, query.alpha, query.delta).delta_n, (query.t,), block_tol)
    counts, m = table.slots, math.ceil(N * query.a - 1e-9)
    etas, wk, B = np.zeros(counts.size), table.weights[0][:, 0] / counts, block_rows(counts.size)
    logw = [log_poisson_tail(m, N * query.env.sample_block_sums_twisted(etas, rng, counts, 1, weights=wk))
            for rng in spawn_streams(seed, -(-R // B))]
    return np.repeat(np.concatenate(logw), B)[:R]


@pytest.mark.parametrize("alpha", [2.0, 1.0], ids=["fast", "intermediate"])
@pytest.mark.parametrize("env", [Deterministic(1.0), DiscreteFinite([2.0], [1.0])], ids=["deterministic", "one-atom"])
def test_is_constant_rate_draws_one_row_from_one_stream(monkeypatch, env, alpha):
    # a constant rate layer is drawn once, from block 0's stream, and its one
    # weight stands for all R: it is every block's weight when each block draws,
    # at an R that is no multiple of B, and it reduces as those R weights do
    query = q(env=env, alpha=alpha, t=5.0, a=3.0)
    N = 100
    B = block_rows(cell_table((1.0,), ScalingRegime(N, alpha, 1.0).delta_n, (5.0,), 0.01).slots.size)
    R = 2 * B + 3
    want = _constant_log_weights_block_by_block(query, N, R, 7, 0.01)
    calls = []
    spawn = coxq.sim.spawn_streams
    monkeypatch.setattr(coxq.sim, "spawn_streams", lambda s, n: calls.append(n) or spawn(s, n))
    got = _replication_log_weights(query, N, R, 7)
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
    query, B = _is_shape(1.0, N)
    estimate_log_tails(query, [(N, 7)], R, 0.01)
    assert calls == [-(-R // B)]


@pytest.mark.parametrize(
    "env, alpha",
    [(Exponential(1.0), 0.5), (DiscreteFinite([0.5, 2.0], [0.5, 0.5]), 0.5), (Deterministic(1.0), 2.0)],
    ids=["exponential", "discrete", "deterministic"],
)
def test_is_prepares_its_draw_once_per_N_and_draws_once_per_drawn_block(monkeypatch, env, alpha):
    # the ldp_slow, ldp_slow_discrete and ldp_fast shapes at two N: each run
    # prepares one draw and spawns one stream per drawn block; a random rate
    # layer draws once per block and a constant one once
    prepared, drawn, spawned = [], [], []
    prepare, spawn = EnvSpec.block_sampler, coxq.sim.spawn_streams

    def spy(self, *args):
        draw = prepare(self, *args)
        prepared.append(1)
        return lambda rng, size: drawn.append(size) or draw(rng, size)

    monkeypatch.setattr(EnvSpec, "block_sampler", spy)
    monkeypatch.setattr(coxq.sim, "spawn_streams", lambda seed, n: spawned.append(n) or spawn(seed, n))
    R, a = 600, 1.5 if alpha < 1 else 2.0
    query = q(env=env, alpha=alpha, t=5.0, a=a)
    blocks = []
    for N in (200, 400):
        B = block_rows(cell_table((1.0,), ScalingRegime(N, alpha, 1.0).delta_n, (5.0,), 0.01).slots.size)
        blocks.append(1 if env.variance == 0 else -(-R // B))
        assert math.isfinite(estimate_log_tails(query, [(N, 7)], R, 0.01)[0][0])
    assert len(prepared) == 2 and spawned == blocks
    assert len(drawn) == sum(blocks) > (2 if env.variance else 1)


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
    N = 1600
    cells = cell_table((1.0,), ScalingRegime(N, alpha, 1.0).delta_n, (5.0,), 0.01).slots.size
    B = block_rows(cells)
    R = 4 * B + 7
    monkeypatch.setattr(coxq.sim, "_CPUS", 1)
    serial = _replication_log_weights(query, N, R, 7)
    monkeypatch.setattr(coxq.sim, "_CPUS", 4)
    assert coxq.sim.block_workers(5, B * cells) == 4
    np.testing.assert_array_equal(_replication_log_weights(query, N, R, 7), serial)
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
    return q(env=env, alpha=alpha, t=5.0, a=a), [(N, 11 + N) for N in grid]


def _serial_log_tails(query, points, R):
    """The unpipelined loop: each N prepared, drawn and weighed before the next."""
    return [(*ldp._reduce(_replication_log_weights(query, N, R, seed), R), exact.saddle_log_tail(query, N))
            for N, seed in points]


@pytest.mark.parametrize("cpus", [1, 2, 8])
@pytest.mark.parametrize("shape", GRID_SHAPES)
def test_pipelined_grid_is_the_serial_loop_bit_for_bit(monkeypatch, shape, cpus):
    # R = 1500 ends inside a block at every N; 8 CPUs take up to 8 threads
    query, points = _grid_query(shape)
    R = 1500
    monkeypatch.setattr(coxq.sim, "_CPUS", cpus)
    baseline = threading.active_count()
    got = estimate_log_tails(query, iter(points), R, 0.01)
    assert threading.active_count() == baseline
    per_n = [estimate_log_tails(query, [point], R, 0.01)[0] for point in points]
    want = _serial_log_tails(query, points, R)
    assert all(math.isfinite(log_p) for log_p, *_ in got)
    assert repr(got) == repr(per_n) == repr(want)


@pytest.mark.parametrize("refused", [1, 2], ids=["second", "last"])
def test_a_refusal_at_a_later_N_is_raised_before_any_N_is_weighed(monkeypatch, refused):
    # the work budget admits the draws of every N before the refused one and
    # refuses its own; every N is prepared before any is weighed, so no count
    # tail is computed, and the first N's blocks are cancelled and joined
    query, points = _grid_query("slow-exponential")
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
        estimate_log_tails(query, points, R, 0.01)
    assert threading.active_count() == baseline
    assert tails == []


def test_an_error_in_the_first_weighing_cancels_the_second_N_and_wins(monkeypatch):
    # N = 400's blocks are held until N = 200's weighing raises, so they are
    # drawing then; the error is raised once their threads are joined, and no
    # thread takes another block of N = 400
    query, points = _grid_query("slow-exponential")
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
        estimate_log_tails(query, points, 2000, 0.01)
    assert "coxq-block" in alive  # N = 400's worker was drawing
    assert threading.active_count() == baseline
    assert len(drawn) <= 1  # at most the block the worker held at the gate


def test_a_refusal_at_the_second_N_wins_over_a_draw_error_at_the_first(monkeypatch):
    # N = 200's block 3 raises while N = 400's checks run; the refusal is raised
    # and N = 200's blocks are cancelled, so their error is never raised
    query, points = _grid_query("slow-exponential")
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
        estimate_log_tails(query, points, 2000, 0.01)
    assert failed.is_set()
    assert threading.active_count() == baseline


@pytest.mark.parametrize("cpus", [1, 2])
def test_at_most_two_prepared_draws_are_alive_at_once(monkeypatch, cpus):
    # each N's prepared draw (its cell tables, up to 2^24 entries) is let go once
    # the N is weighed, so a long grid holds no more of them than a short one
    query, _ = _grid_query("slow-discrete")
    points = [(N, 11 + N) for N in (200, 300, 400, 600, 800)]
    monkeypatch.setattr(coxq.sim, "_CPUS", cpus)
    prepare, alive, most = ldp._prepare, [], []

    def spy(*args):
        job = prepare(*args)
        alive.append(weakref.ref(job.block))
        most.append(sum(ref() is not None for ref in alive))
        return job

    monkeypatch.setattr(ldp, "_prepare", spy)
    got = estimate_log_tails(query, points, 1500, 0.01)
    assert len(most) == len(points) and max(most) == 2
    assert repr(got) == repr(_serial_log_tails(query, points, 1500))


@pytest.mark.parametrize("shape", ["slow-exponential", "slow-discrete"])
def test_at_most_block_workers_draws_are_in_flight(monkeypatch, shape):
    # a spy around every block's draw counts the draws in flight, across N:
    # the next N's blocks start only once the last N's threads are joined
    query, points = _grid_query(shape)
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
    estimate_log_tails(query, points, R, 0.01)
    assert min(workers) >= 2
    assert 2 <= state["most"] <= max(workers)


def test_ldp_check_calls_no_hooked_name_off_the_calling_thread(monkeypatch):
    # a tracer of the hooked names keeps one span stack per process, so every
    # stage the pipeline runs alongside the draws stays on the calling thread;
    # configs/ldp_slow.json at R = 3000 is 12 blocks per N on two threads
    monkeypatch.setattr(coxq.sim, "_CPUS", 2)
    calls = []
    for module, name in ((coxq.sim, "spawn_streams"), (exact, "cell_table"), (ldp, "log_poisson_tail")):
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
    log_p, rel_err, _ = estimate_log_tails(query, [(N, 7)], 2000, 0.01)[0]
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
    points = [(N, 7) for N in n_grid]
    for N, (log_p, rel_err, _) in zip(n_grid, estimate_log_tails(query, points, R, 0.01)):
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
