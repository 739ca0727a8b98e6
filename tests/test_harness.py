"""Experiment runners, report schema, criteria wiring, and the CLI."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import coxq.harness as harness_module
from coxq import Deterministic, Exponential, QueueParams
from coxq.cli import main as cli_main
from coxq.errors import ConfigError
from coxq.harness import (
    ExperimentConfig,
    anderson_darling_normal,
    _wls_slope,
    run,
    run_analytic,
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
    ref = stats.anderson(x, dist="norm").statistic * (1 + 0.75 / 5000 + 2.25 / 5000**2)
    assert a2 == pytest.approx(ref, rel=1e-6)
    assert 0.01 < p <= 1.0
    y = rng.exponential(size=5000)
    a2y, py = anderson_darling_normal(y)
    assert py < 1e-6


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
    cfg = make_config(
        kind="fclt-check",
        queues=QueueParams((1.0, 2.0)),
        alpha=2.0,
        t=0.0,
        N_grid=(200,),
        replications=100,
        seed=15,
    )
    report = run(cfg)
    assert report.results[-1]["max_rel_error"] == 0.0
    assert report.passed


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


def test_tail_estimators_unbiased_vs_plain_simulation():
    # all three IS routes against a plain count of P(M >= N a) from the
    # exact-law simulator, at a non-rare instance where plain MC is feasible
    from coxq import Exponential, RateQuery, ScalingRegime, SimConfig, simulate
    from coxq import estimate_log_tail, rate_fast, rate_intermediate, rate_slow

    env, t, a, N = Exponential(1.0), 2.0, 1.2, 30
    m = math.ceil(N * a - 1e-9)
    for alpha, regime in ((2.0, "fast"), (1.0, "intermediate"), (0.5, "slow_unbounded")):
        query = RateQuery(env=env, mu=1.0, delta=1.0, alpha=alpha, t=t, a=a)
        if regime == "fast":
            theta = rate_fast(query.rho_t, a).theta_star
        elif regime == "intermediate":
            theta = rate_intermediate(query).theta_star
        else:
            theta = rate_slow(query).theta_star
        log_p, rel = estimate_log_tail(query, N, 40_000, 101, theta, 0.01)
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
    private_imports = re.findall(r"from \.(?:env|analytic|sim|ldp|reference) import ([^\n]+)", src)
    for imports in private_imports:
        for name in imports.split(","):
            assert not name.strip().startswith("_"), name


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
    assert "rho" in err


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
    ],
)
def test_cli_rejects_mistyped_fields(tmp_path, capsys, doc):
    # strings where numbers or arrays belong exit 2, never a traceback or a silent run
    cfg = write_config(tmp_path, doc)
    assert cli_main([doc["kind"], "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: invalid experiment config")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("grid", [[1.0, 2.5], [-0.5, 1.0]])
def test_cli_simulate_grid_outside_horizon(tmp_path, capsys, grid):
    cfg = write_config(tmp_path, simulate_doc(grid=grid))
    assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "grid times must lie in [0, horizon]" in capsys.readouterr().err


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


def test_cli_ldp_check_writes_rates_json(tmp_path):
    doc = analytic_doc(
        kind="ldp-check",
        env={"family": "deterministic", "value": 1.0},
        alpha=2.0,
        N_grid=[25, 50],
        replications=2000,
        t=40.0,
        a=2.0,
        tolerances={"slope_rel_tol": 0.5},
    )
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert cli_main(["ldp-check", "--config", cfg, "--out", str(out)]) == 0
    rates = json.loads((out / "rates.json").read_text())
    assert rates["schema"] == "coxq-rate/1"
    assert rates["regime"] == "fast"
    assert rates["rate"] == pytest.approx(1 - 2 * math.log(2.0), rel=1e-9)


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
