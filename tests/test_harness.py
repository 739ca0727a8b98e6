"""Experiment runners, report schema, criteria wiring, and the CLI."""

import ast
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import coxq.harness as harness_module
import coxq.sim
from coxq import Deterministic, Exponential, QueueParams, exact, ldp
from coxq.cli import main as cli_main
from coxq.errors import ConfigError
from coxq.harness import (
    ExperimentConfig,
    _wls_slope,
    anderson_darling_normal,
    run,
)


def make_config(**kw):
    base = dict(
        kind="analytic",
        env=Exponential(1.0),
        queues=QueueParams((1.0,)),
        delta=1.0,
        alpha=0.5,
        N_grid=(100, 1000),
        replications=1000,
        seed=3,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# -- validation -----------------------------------------------------------------


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        run(make_config(kind="mystery"))


def test_n_grid_must_increase():
    with pytest.raises(ConfigError):
        run(make_config(N_grid=(100, 100)))


def test_clt_check_needs_single_queue():
    with pytest.raises(ConfigError):
        run(make_config(kind="clt-check", queues=QueueParams((1.0, 2.0))))


def test_fclt_check_needs_two_queues():
    with pytest.raises(ConfigError):
        run(make_config(kind="fclt-check", t=1.0))


def test_ldp_check_rejects_non_rare_level():
    # a below the fluid value is immediately rejected
    with pytest.raises(ConfigError):
        run(make_config(kind="ldp-check", t=5.0, a=0.5))


def test_ldp_check_needs_two_sizes():
    # one N would leave the slope, and the criterion on it, NaN in report.json
    with pytest.raises(ConfigError, match="at least two entries"):
        run(make_config(kind="ldp-check", t=5.0, a=1.5, N_grid=(100,)))


def test_ldp_check_rejects_bounded_slow_branch():
    from coxq import DiscreteFinite

    with pytest.raises(ConfigError):
        run(
            make_config(
                kind="ldp-check",
                env=DiscreteFinite([1.0, 3.0], [0.5, 0.5]),
                t=40.0,
                a=4.0,
            )
        )


# -- config serialization -----------------------------------------------------------


def test_config_json_round_trip():
    cfg = make_config(kind="ldp-check", t=5.0, a=1.5, tolerances={"slope_rel_tol": 0.2})
    doc = cfg.to_json()
    back = ExperimentConfig.from_json(json.loads(json.dumps(doc)))
    assert back == cfg


def test_config_from_json_actionable_error():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json({"kind": "analytic"})


# -- statistics helpers ----------------------------------------------------------


def test_anderson_darling_matches_scipy_statistic():
    rng = np.random.default_rng(0)
    x = rng.normal(size=5000)
    a2, p = anderson_darling_normal(x)
    ref = stats.anderson(x, dist="norm", method="interpolate").statistic * (
        1 + 0.75 / 5000 + 2.25 / 5000**2
    )
    assert a2 == pytest.approx(ref, rel=1e-6)
    assert 0.01 < p <= 1.0
    y = rng.exponential(size=5000)
    a2y, py = anderson_darling_normal(y)
    assert py < 1e-6


def _anderson_darling_by_norm(x):
    """anderson_darling_normal's A^2*, from scipy.stats.norm's log cdf and log sf
    (the p-value is a function of A^2* alone)."""
    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    z = (x - x.mean()) / x.std(ddof=1)
    log_cdf, log_sf = stats.norm.logcdf(z), stats.norm.logsf(z)
    i = np.arange(1, n + 1)
    a2 = -n - np.sum((2 * i - 1) * (log_cdf + log_sf[::-1])) / n
    return a2 * (1 + 0.75 / n + 2.25 / n**2)


@pytest.mark.parametrize(
    "sample",
    [
        lambda rng: rng.normal(size=5000),
        lambda rng: rng.exponential(size=5000),
        lambda rng: rng.standard_t(1.5, size=2000),  # far tails: z beyond +-20
        lambda rng: np.round(rng.normal(size=300), 1),  # ties
        lambda rng: rng.normal(size=8),
    ],
    ids=["normal", "exponential", "student-t", "ties", "n8"],
)
def test_anderson_darling_matches_the_norm_logcdf_form(sample):
    # the erfc-based log cdf and log sf and scipy's differ by at most 1e-14
    # relative for |z| <= 8 (past that the central side is below 1e-15 and
    # adds nothing to the sum), which keeps A^2* within 1e-12 relative here
    x = sample(np.random.default_rng(11))
    a2, _ = anderson_darling_normal(x)
    assert a2 == pytest.approx(_anderson_darling_by_norm(x), rel=1e-12, abs=0)


def test_wls_slope_recovers_known_line():
    x = np.array([10.0, 20.0, 40.0, 80.0])
    y = -0.37 * x + 2.0
    slope, se = _wls_slope(x, y, np.full(4, 0.01))
    assert slope == pytest.approx(-0.37, rel=1e-10)


# -- analytic runner -----------------------------------------------------------------


def test_run_analytic_deterministic_summary():
    cfg = make_config(env=Deterministic(1.0), alpha=2.0, N_grid=(100,))
    report = run(cfg)
    summary = report.results[0]["summary"]
    assert summary["stationary_mean"] == pytest.approx(1.0)
    assert summary["stationary_variance"] == pytest.approx(1.0)
    assert summary["clt_sigma2"] == pytest.approx(1.0)
    names = [c.name for c in report.criteria]
    assert "pgf_poisson_degeneration" in names
    assert report.passed


def test_run_analytic_trichotomy_criterion():
    cfg = make_config(delta=2.0, N_grid=(100, 1000, 10000))
    report = run(cfg)
    crit = {c.name: c for c in report.criteria}["trichotomy_ratio_converges"]
    assert crit.passed
    assert crit.observed < 0.02


def test_report_json_reproducible():
    cfg = make_config(delta=2.0, N_grid=(100, 1000))
    doc1 = run(cfg).to_json()
    doc2 = run(cfg).to_json()
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)
    assert doc1["schema"] == "coxq-report/1"
    assert "wall_clock_s" not in doc1


# -- monte carlo runners (small instances) ----------------------------------------------


def test_run_clt_check_deterministic_fast_regime():
    cfg = make_config(
        kind="clt-check",
        env=Deterministic(1.0),
        alpha=2.0,
        N_grid=(800,),
        replications=3000,
        seed=14,
    )
    report = run(cfg)
    row = report.results[-1]
    assert abs(row["ratio"] - 1.0) < 0.1
    assert row["ad_pvalue"] > 0.01
    assert report.passed


def test_run_fclt_check_zero_time():
    # at t = 0 the covariance and its target are both 0, a pass that checks nothing
    cfg = make_config(
        kind="fclt-check",
        queues=QueueParams((1.0, 2.0)),
        alpha=2.0,
        t=0.0,
        N_grid=(200,),
        replications=100,
        seed=15,
    )
    with pytest.raises(ConfigError, match=r"^t must be positive, got 0\.0$"):
        run(cfg)


def test_run_fclt_check_small():
    cfg = make_config(
        kind="fclt-check",
        queues=QueueParams((1.0, 2.0)),
        alpha=2.0,
        t=1.0,
        N_grid=(1000,),
        replications=4000,
        seed=16,
    )
    report = run(cfg)
    assert report.passed, report.results[-1]


def test_run_fclt_check_intermediate_regime():
    # alpha = 1 activates both covariance terms at once
    cfg = make_config(
        kind="fclt-check",
        queues=QueueParams((1.0, 2.0)),
        alpha=1.0,
        t=1.0,
        N_grid=(1000,),
        replications=6000,
        seed=26,
    )
    report = run(cfg)
    assert report.passed, report.results[-1]


def test_run_corr_check_small():
    cfg = make_config(
        kind="corr-check",
        queues=QueueParams((1.0, 2.0)),
        alpha=2.0,
        N_grid=(500,),
        replications=3000,
        seed=17,
    )
    report = run(cfg)
    assert report.passed
    assert report.results[-1]["c_constant"] == pytest.approx(1.0)


def test_run_ldp_check_small_fast():
    cfg = make_config(
        kind="ldp-check",
        env=Deterministic(1.0),
        alpha=2.0,
        t=40.0,
        a=2.0,
        N_grid=(25, 50, 100),
        replications=5000,
        seed=18,
    )
    report = run(cfg)
    assert report.passed
    slope_row = report.results[-1]
    assert slope_row["slope"] == pytest.approx(1 - 2 * math.log(2.0), rel=0.1)


def test_run_ldp_check_small_intermediate():
    cfg = make_config(
        kind="ldp-check",
        alpha=1.0,
        t=5.0,
        a=1.5,
        N_grid=(50, 100, 200),
        replications=8000,
        seed=19,
    )
    report = run(cfg)
    assert report.passed, report.results[-1]
    names = [c.name for c in report.criteria]
    assert "theta_star_stationarity" in names
    assert "quadrature_dual_route" in names


def test_ldp_check_rows_report_the_saddlepoint_tail_and_the_is_z_score():
    # each row's saddle_log_prob is saddle_log_tail at its N, from the tilt's own saddle,
    # and z = (P_IS/P_saddle - 1)/rel_err; an exact constant-layer row (rel_err 0) has no z
    cfg = make_config(kind="ldp-check", t=5.0, a=1.5, N_grid=(200, 400), replications=4000, seed=19)
    query = ldp.RateQuery(cfg.env, 1.0, cfg.delta, cfg.alpha, cfg.t, cfg.a)
    for row in run(cfg).results[1:-1]:
        assert row["saddle_log_prob"] == exact.saddle_log_tail(query, row["N"], cfg.block_tol)
        assert row["z"] == math.expm1(row["log_prob"] - row["saddle_log_prob"]) / row["rel_err"]
        assert abs(row["z"]) < 4
    fast = make_config(kind="ldp-check", env=Deterministic(1.0), alpha=2.0, t=40.0, a=2.0,
                       N_grid=(25, 50), replications=10)
    for row in run(fast).results[1:-1]:
        assert row["rel_err"] == 0 and math.isnan(row["z"])
        assert 0 < row["saddle_log_prob"] - row["log_prob"] < 2e-3


@pytest.mark.parametrize(
    "alpha, argument",
    [(0.5, lambda theta: theta), (1.0, lambda theta: 0.5 * math.expm1(theta / 0.5))],
    ids=["slow", "intermediate"],
)
def test_ldp_check_dual_route_checks_the_integral_the_rate_used(monkeypatch, alpha, argument):
    # the slow rate integrates log M(theta* e^(-mu s)), the intermediate one
    # log M(Delta (e^(theta*/Delta) - 1) e^(-mu s)): both quadrature routes
    # must be evaluated at that argument
    seen = []
    real = harness_module.integrated_log_mgf

    def spy(env, mu, t, theta, route="time"):
        seen.append(theta)
        return real(env, mu, t, theta, route)

    monkeypatch.setattr(harness_module, "integrated_log_mgf", spy)
    cfg = make_config(
        kind="ldp-check", alpha=alpha, delta=0.5, t=5.0, a=1.5,
        N_grid=(50, 100), replications=200, seed=19,
    )
    report = run(cfg)
    theta = report.results[0]["rate"]["theta_star"]
    assert seen == [argument(theta)] * 2
    gap = next(c for c in report.criteria if c.name == "quadrature_dual_route")
    assert gap.passed


def test_tail_estimators_unbiased_vs_plain_simulation():
    # all three IS routes against a plain count of P(M >= N a) from the
    # exact-law simulator, at a non-rare instance where plain MC is feasible
    from coxq import Exponential, RateQuery, ScalingRegime, SimConfig, estimate_log_tails, simulate

    env, t, a, N = Exponential(1.0), 2.0, 1.2, 30
    m = math.ceil(N * a - 1e-9)
    for alpha, regime in ((2.0, "fast"), (1.0, "intermediate"), (0.5, "slow_unbounded")):
        query = RateQuery(env=env, mu=1.0, delta=1.0, alpha=alpha, t=t, a=a)
        log_p, rel, _ = estimate_log_tails(query, [(N, 101)], 40_000, 0.01)[0]
        p_is = math.exp(log_p)

        sim_cfg = SimConfig(
            env=env,
            queues=QueueParams((1.0,)),
            scaling=ScalingRegime(N, alpha, 1.0),
            grid=(t,),
            initial_counts=(0,),
            replications=200_000,
            seed=102,
        )
        counts = simulate(sim_cfg).counts[:, 0, 0]
        p_plain = float((counts >= m).mean())
        se_plain = math.sqrt(p_plain * (1 - p_plain) / counts.size)
        combined = math.sqrt(se_plain**2 + (p_is * rel) ** 2)
        assert abs(p_is - p_plain) < 3.5 * combined, (regime, p_is, p_plain, combined)


# -- architecture: harness consumes only public module surfaces -------------------------


def test_harness_uses_only_public_interfaces():
    src = Path(harness_module.__file__).read_text()
    # no attribute access to any private name: the harness consumes only
    # public operation outputs of the computational modules
    assert not re.search(r"\.\s*_[A-Za-z]", src)
    modules = {"env", "analytic", "sim", "ldp", "special"}
    imported = [(node.module, alias.name) for node in ast.walk(ast.parse(src))
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in modules
                for alias in node.names]
    assert {module for module, _ in imported} == modules  # every import seen, parenthesized too
    for module, name in imported:
        assert not name.startswith("_"), (module, name)


# -- CLI ----------------------------------------------------------------------------


def write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def analytic_doc(**kw):
    doc = {
        "kind": "analytic",
        "env": {"family": "exponential", "rate": 1.0},
        "queues": {"mu": [1.0]},
        "delta": 2.0,
        "alpha": 0.5,
        "N_grid": [100, 1000, 10000],
        "replications": 100,
        "seed": 1,
    }
    doc.update(kw)
    return doc


def test_cli_analytic_pass_and_report(tmp_path, capsys):
    cfg = write_config(tmp_path, analytic_doc())
    code = cli_main(["analytic", "--config", cfg, "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS trichotomy_ratio_converges" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is True


def test_cli_exit_code_on_criterion_failure(tmp_path):
    doc = analytic_doc(tolerances={"trichotomy_rel_tol": 1e-9})
    cfg = write_config(tmp_path, doc)
    assert cli_main(["analytic", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_cli_exit_code_on_bad_config(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kind": "analytic"})
    assert cli_main(["analytic", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    cfg2 = write_config(
        tmp_path,
        analytic_doc(kind="ldp-check", t=5.0, a=0.1),
        name="bad_ldp.json",
    )
    assert cli_main(["ldp-check", "--config", cfg2, "--out", str(tmp_path / "o2")]) == 2
    err = capsys.readouterr().err
    assert "a = 0.1 must exceed the fluid value rho(t)" in err
    # a config that is not a JSON object, or whose tolerances are not one
    for doc, name in (([], "config"), (None, "config"), (analytic_doc(tolerances=[1]), "tolerances")):
        cfg3 = write_config(tmp_path, doc, name="not_object.json")
        assert cli_main(["analytic", "--config", cfg3, "--out", str(tmp_path / "o3")]) == 2
        assert f"{name} must be a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "o3").exists()


@pytest.mark.parametrize(
    "kind, config, out, why",
    [("analytic", "analytic", "file", "is not a directory"),
     ("simulate", "simulate", "file/sub", "is not a directory"),
     ("ldp-check", "ldp_fast", "file", "is not a directory"),
     ("analytic", "analytic", "", "is empty")],
)
def test_cli_out_under_a_file_exits_2_before_any_draw(tmp_path, capsys, monkeypatch, kind, config, out, why):
    # an --out that is a file, lies under one or is empty is refused before the
    # run starts, naming --out, and nothing is written
    (tmp_path / "file").write_text("kept\n")
    monkeypatch.setattr("coxq.cli.run", lambda *a, **k: pytest.fail("the run started"))
    path = Path(__file__).resolve().parent.parent / "configs" / f"{config}.json"
    code = cli_main([kind, "--config", str(path), "--out", str(tmp_path / out) if out else out])
    err = capsys.readouterr().err
    assert code == 2
    assert "--out" in err and why in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert (tmp_path / "file").read_text() == "kept\n"


def test_cli_kind_mismatch(tmp_path):
    cfg = write_config(tmp_path, analytic_doc())
    assert cli_main(["clt-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_cli_missing_config_file(tmp_path):
    assert cli_main(["analytic", "--config", str(tmp_path / "nope.json")]) == 2


def simulate_doc(**kw):
    doc = {
        "kind": "simulate",
        "env": {"family": "exponential", "rate": 1.0},
        "queues": {"mu": [1.0, 2.0]},
        "delta": 1.0,
        "alpha": 0.0,
        "N_grid": [5],
        "replications": 50,
        "seed": 9,
        "horizon": 2.0,
        "grid": [1.0, 2.0],
        "initial_counts": [2, 0],
    }
    doc.update(kw)
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        analytic_doc(kind="ldp-check", t=5.0, a="1.5"),
        analytic_doc(kind="fclt-check", queues={"mu": [1.0, 2.0]}, t=[1.0]),
        simulate_doc(horizon=[1.0]),
        simulate_doc(queues={"mu": "12"}),
        simulate_doc(N_grid="5"),
        simulate_doc(grid="12"),
        simulate_doc(initial_counts="20"),
        simulate_doc(N_grid=[5.7]),
        simulate_doc(N_grid=[True]),
        simulate_doc(initial_counts=[1.9, 0]),
        simulate_doc(replications="50"),
        simulate_doc(replications=50.0),
        simulate_doc(seed="9"),
        simulate_doc(delta="2"),
        simulate_doc(alpha="0"),
        simulate_doc(grid=["1.0", 2.0]),
        simulate_doc(block_tol="0.01"),
        simulate_doc(queues={"mu": ["1", 2.0]}),
        analytic_doc(tolerances={"trichotomy_rel_tol": "0.02"}),
        analytic_doc(tolerances={"trichotomy_tol": 0.02}),
        analytic_doc(delta=math.nan),
        analytic_doc(env={"family": "exponential", "rate": math.nan}),
        analytic_doc(queues={"mu": [math.inf]}),
        analytic_doc(env={"family": "exponential", "rate": True}),
        analytic_doc(env={"family": "discrete", "values": ["0.5", "2.0"], "probs": [0.5, 0.5]}),
        analytic_doc(block_tol=-1.0),
        analytic_doc(kind="ldp-check", t=5.0, a=1.5, block_tol=-1.0),
        analytic_doc(tolerances={"trichotomy_rel_tol": math.nan}),
        analytic_doc(delta=10**400),
        analytic_doc(env="exponential"),
        simulate_doc(grid=[math.nan, 2.0]),
        analytic_doc(kind="clt-check", N_grid=[500], block_tol=1e300),
        analytic_doc(queues=[1.0]),
        analytic_doc(queues=None),
        analytic_doc(tolerances=[1]),
        analytic_doc(tolerances=None),
        analytic_doc(env={"family": "exponential", "rate": 1.0, "scale": 2.0}),
        analytic_doc(env={"family": "exponential"}),
    ],
)
def test_cli_rejects_mistyped_fields(tmp_path, capsys, doc):
    # strings where numbers or arrays belong, non-integers where integers
    # belong, non-finite numbers (JSON's NaN and Infinity), env parameters that
    # are not numbers, missing or unknown, non-objects where objects belong, a
    # block_tol outside [0, 1] and unknown tolerance names exit 2,
    # never a traceback, a truncation or a silent run
    cfg = write_config(tmp_path, doc)
    assert cli_main([doc["kind"], "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: invalid experiment config")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("grid", [[1.0, 2.5], [-0.5, 1.0]])
def test_cli_simulate_grid_outside_horizon(tmp_path, capsys, grid):
    cfg = write_config(tmp_path, simulate_doc(grid=grid))
    assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "grid times must lie in [0, horizon]" in capsys.readouterr().err


@pytest.mark.parametrize("t", [-1.0, 0.0])
def test_cli_fclt_check_refuses_a_read_time_that_is_not_positive(tmp_path, capsys, t):
    # t = -1 was refused as a grid time, a field fclt-check does not have, and
    # t = 0 passed against the covariance target 0
    doc = {**json.loads((Path(__file__).parent.parent / "configs" / "fclt.json").read_text()), "t": t}
    cfg = write_config(tmp_path, doc)
    assert cli_main(["fclt-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: t must be positive, got {t}")
    assert not (tmp_path / "o").exists()


def test_cli_simulate_without_horizon_runs_to_last_grid_time(tmp_path, capsys):
    with_h = write_config(tmp_path, simulate_doc(), name="with.json")
    doc = simulate_doc()
    del doc["horizon"]
    without = write_config(tmp_path, doc, name="without.json")
    for cfg, out in ((with_h, "o1"), (without, "o2")):
        assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / out)]) == 0
    # the horizon only bounds the grid: the trajectories are the same
    csv = [(tmp_path / out / "trajectories.csv").read_bytes() for out in ("o1", "o2")]
    assert csv[0] == csv[1]
    report = json.loads((tmp_path / "o2" / "report.json").read_text())
    assert "horizon" not in report["config"]
    doc["grid"] = [-0.5, 1.0]
    bad = write_config(tmp_path, doc, name="negative.json")
    assert cli_main(["simulate", "--config", bad, "--out", str(tmp_path / "o3")]) == 2
    assert "grid times must lie in [0, inf)" in capsys.readouterr().err


def test_cli_blocked_simulate_over_a_long_horizon(tmp_path):
    # blocked cells (slot 0.005 < block_tol/mu) over an interval of 1,500 mean
    # service times: the oldest cells' width e^(2 mu a/3) would overflow a
    # float unless capped
    doc = simulate_doc(
        queues={"mu": [1.0]}, alpha=1.0, N_grid=[200], replications=50,
        horizon=2000.0, grid=[500.0, 2000.0], initial_counts=[0],
    )
    out = tmp_path / "o"
    assert cli_main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    mom = json.loads((out / "moments.json").read_text())
    for mean, se in zip(mom["mean"], mom["se_mean"]):
        assert abs(mean[0] - 200.0) < 6 * se[0]  # N E[L]/mu, exact in blocked mode


@pytest.mark.parametrize("count", [2**63, 2**53 + 1])
def test_cli_simulate_refuses_an_initial_count_beyond_2_53(tmp_path, capsys, count):
    # 2^63 overflows the int64 counts; entries just below it could wrap once
    # arrivals are added
    cfg = write_config(tmp_path, simulate_doc(initial_counts=[count, 0]))
    assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: initial_counts must be at most 2^53")
    assert not (tmp_path / "o").exists()


def test_cli_simulate_refuses_an_output_beyond_its_budget(tmp_path, capsys):
    # 10^12 replications of a nearly idle queue fit the event budget, but their
    # (R, G, d) counts would take 32 TB: refused before anything is allocated
    doc = simulate_doc(
        env={"family": "deterministic", "value": 1e-9}, queues={"mu": [1.0]}, N_grid=[1],
        replications=10**12, grid=[0.5, 1.0, 1.5, 2.0], initial_counts=[0],
    )
    cfg = write_config(tmp_path, doc)
    assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "4.000e+12 output counts" in err
    assert not (tmp_path / "o").exists()


def test_cli_ldp_check_refuses_replications_beyond_the_budget(tmp_path, capsys, monkeypatch):
    # 2^24 + 1 replications: refused before a stream is spawned or a weight stored
    def spawn(seed, n):
        raise AssertionError("spawned streams for a refused run")

    monkeypatch.setattr(coxq.sim, "spawn_streams", spawn)
    doc = analytic_doc(kind="ldp-check", t=5.0, a=1.5, replications=2**24 + 1)
    cfg = write_config(tmp_path, doc)
    assert cli_main(["ldp-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 16777217 replications exceed the budget")
    assert not (tmp_path / "o").exists()


# (config, the start of its error): each holds a field its kind does not read
UNREAD_FIELDS = [
    (analytic_doc(kind="ldp-check", t=5.0, a=1.5, initial_counts=[1000000]),
     "initial_counts is read only by simulate"),
    (analytic_doc(grid=[1.0, 2.0]), "grid is read only by simulate"),
    (analytic_doc(kind="clt-check", N_grid=[500], horizon=2.0), "horizon is read only by simulate"),
    (analytic_doc(kind="fclt-check", queues={"mu": [1.0, 2.0]}, t=1.0, grid=[1.0]),
     "grid is read only by simulate"),
    (analytic_doc(kind="corr-check", queues={"mu": [1.0, 2.0]}, initial_counts=[0, 0]),
     "initial_counts is read only by simulate"),
    (analytic_doc(kind="clt-check", N_grid=[500], a=1.5), "a is read only by ldp-check"),
    (analytic_doc(kind="clt-check", N_grid=[500], t=1.0),
     "t is read only by analytic, fclt-check, ldp-check"),
    (analytic_doc(a=1.5), "a is read only by ldp-check"),
    (analytic_doc(block_tol=0.05),
     "block_tol is read only by simulate, clt-check, fclt-check, ldp-check, corr-check"),
    (analytic_doc(blocktol=0.05), "blocktol is read by no kind"),
    (analytic_doc(tolerances={"slope_rel_tol": 0.5}),
     "tolerances.slope_rel_tol is read only by ldp-check"),
    (simulate_doc(tolerances={"cov_rel_tol": 0.5}), "tolerances.cov_rel_tol is read only by fclt-check"),
    (analytic_doc(queues={"mu": [1.0], "lambda": 3.0}), "queues.lambda is read by no kind"),
]


@pytest.mark.parametrize(
    "doc, message", UNREAD_FIELDS, ids=[f"doc{i}" for i in range(len(UNREAD_FIELDS))]
)
def test_cli_rejects_fields_only_simulate_reads(tmp_path, capsys, doc, message):
    # these fields would be echoed in report.json yet change nothing
    cfg = write_config(tmp_path, doc)
    assert cli_main([doc["kind"], "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: invalid experiment config: {message}")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "doc, message",
    [
        # ldp-check estimates the tail of one queue: mu[1] would be ignored
        (
            analytic_doc(kind="ldp-check", queues={"mu": [1.0, 5.0]}, t=5.0, a=1.5),
            "mu lists 2 queues; ldp-check runs on exactly 1",
        ),
        # corr-check compares two queues: mu[2] would be ignored
        (
            analytic_doc(kind="corr-check", queues={"mu": [1.0, 2.0, 3.0]}),
            "mu lists 3 queues; corr-check runs on exactly 2",
        ),
    ],
    ids=["ldp-check-2-queues", "corr-check-3-queues"],
)
def test_cli_rejects_queues_a_check_would_ignore(tmp_path, capsys, doc, message):
    cfg = write_config(tmp_path, doc)
    assert cli_main([doc["kind"], "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_simulate_rejects_several_sizes(tmp_path, capsys):
    # simulate runs one N; a longer N_grid would silently drop its tail
    cfg = write_config(tmp_path, simulate_doc(N_grid=[5, 10]))
    assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "N_grid must have exactly one entry" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_simulate_writes_deterministic_outputs(tmp_path):
    cfg = write_config(tmp_path, simulate_doc())
    outs = []
    for d in ("o1", "o2"):
        code = cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / d)])
        assert code == 0
        outs.append(
            tuple(
                (tmp_path / d / f).read_bytes()
                for f in ("report.json", "trajectories.csv", "moments.json")
            )
        )
    assert outs[0] == outs[1]
    header = outs[0][1].decode().splitlines()[0]
    assert header == "replication,time,queue,count"


def test_cli_ldp_check_writes_rates_json(tmp_path, capsys):
    doc = analytic_doc(
        kind="ldp-check",
        env={"family": "deterministic", "value": 1.0},
        alpha=2.0,
        N_grid=[25, 50],
        replications=2000,
        t=40.0,
        a=2.0,
        tolerances={"slope_rel_tol": 0.5, "rel_err_warn": 1e-6},
    )
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert cli_main(["ldp-check", "--config", cfg, "--out", str(out)]) == 0
    # a constant rate makes the fast-regime tail exact (rel_err 0), so it never warns
    assert "WARN" not in capsys.readouterr().out
    rates = json.loads((out / "rates.json").read_text())
    assert rates["schema"] == "coxq-rate/1"
    assert rates["regime"] == "fast"
    assert rates["rate"] == pytest.approx(1 - 2 * math.log(2.0), rel=1e-9)

    doc.update(env={"family": "exponential", "rate": 1.0}, alpha=1.0, t=5.0, a=1.5)
    cfg = write_config(tmp_path, doc, "intermediate.json")
    assert cli_main(["ldp-check", "--config", cfg, "--out", str(tmp_path / "i")]) == 0
    # the WARN line quotes the threshold the run used
    warn = r"^WARN N=25: tail-estimate rel_err=\d\.\d{3} > 1e-06$"
    assert re.search(warn, capsys.readouterr().out, re.M)


def strict_json(path: Path):
    """The JSON document at path, refusing the tokens NaN and Infinity, which strict JSON lacks."""
    return json.loads(path.read_text(), parse_constant=lambda token: pytest.fail(f"non-finite token {token}"))


def test_cli_ldp_check_report_is_strict_json_with_few_replications(tmp_path):
    # every replication's weight holds the exact conditional tail, so two
    # replications still give finite estimates and a finite slope
    doc = json.loads((Path(__file__).parent.parent / "configs" / "ldp_fast.json").read_text())
    doc.update(N_grid=[50, 100], replications=2)
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert cli_main(["ldp-check", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
    report = strict_json(out / "report.json")
    assert all(math.isfinite(row["log_prob"]) for row in report["results"][1:-1])


def test_cli_ldp_check_report_is_strict_json_when_every_rate_layer_is_zero(tmp_path, monkeypatch, capsys):
    # an N whose every replication drew a zero rate layer (kappa = 0) has only
    # -inf log weights, which reduce to log P = -inf and rel_err inf; with one
    # other N the slope is NaN.  Each is written as null, and the run fails its
    # slope criterion
    assert ldp._reduce(np.full(2, -np.inf), 2) == (-math.inf, math.inf)
    monkeypatch.setattr(harness_module, "estimate_log_tails", lambda query, points, R, tol: [
        (*ldp._reduce(np.full(R, -np.inf), R), -40.0), (*ldp._reduce(np.full(R, -3.0), R), -3.0)])
    doc = json.loads((Path(__file__).parent.parent / "configs" / "ldp_fast.json").read_text())
    doc.update(N_grid=[50, 100], replications=2)
    out = tmp_path / "o"
    assert cli_main(["ldp-check", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
    assert "FAIL ldp_slope_matches_rate: observed=nan" in capsys.readouterr().out
    report = strict_json(out / "report.json")
    row, fit = report["results"][1], report["results"][-1]
    assert row["N"] == 50 and row["log_prob"] is None and row["rel_err"] is None
    assert fit["slope"] is fit["slope_se"] is fit["raw_slope"] is None
    assert report["criteria"][0]["observed"] is None


def test_cli_ldp_check_rates_json_is_strict_json_when_theta_star_overflows(tmp_path):
    # at mu = 1e308 the fluid value is 1e-308, so theta* = log(a/rho(t)) = inf,
    # which rates.json writes as null
    doc = json.loads((Path(__file__).parent.parent / "configs" / "ldp_fast.json").read_text())
    doc.update(queues={"mu": [1e308]}, t=1.0, N_grid=[50, 100], replications=200)
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no numpy overflow warning either
        code = cli_main(["ldp-check", "--config", write_config(tmp_path, doc), "--out", str(out)])
    assert code == 0
    rates = strict_json(out / "rates.json")
    assert rates["theta_star"] is None and math.isfinite(rates["rate"])


def test_cli_seed_and_replication_overrides(tmp_path):
    doc = analytic_doc(
        kind="clt-check",
        env={"family": "deterministic", "value": 1.0},
        alpha=2.0,
        N_grid=[300],
        replications=500,
    )
    cfg = write_config(tmp_path, doc)
    code = cli_main(
        [
            "clt-check",
            "--config",
            cfg,
            "--seed",
            "123",
            "--replications",
            "800",
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["seed"] == 123
    assert report["config"]["replications"] == 800
