"""The benchmark's ``--trace 1`` hooks still find every name they wrap, and
their counters still read what the package returns.

``perfbench/run.py`` wraps coxq functions and family methods by name and
counts each call from its arguments and result; a rename in ``src/``, or a
change to what a wrapped function takes or returns, would otherwise surface
only when a traced benchmark run turns a CLI call into a failure.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

import coxq.cli

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def bench_run(monkeypatch):
    """perfbench/run.py loaded as a module, with everything it and its hooks change restored after."""
    monkeypatch.syspath_prepend(str(BENCH))
    env = coxq.env
    families = (env.Deterministic, env.Exponential, env.Gamma, env.DiscreteFinite)
    own = {family: set(vars(family)) for family in families}
    saved_environ = dict(os.environ)  # run.py pins the BLAS thread count on import
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
        spec.loader.exec_module(run)
        yield run
    finally:
        os.environ.clear()
        os.environ.update(saved_environ)
        # unpatch leaves inherited methods set on the subclasses; drop those copies
        for family in families:
            for attr in set(vars(family)) - own[family]:
                delattr(family, attr)


def test_instrument_patches_every_hooked_name(bench_run):
    # instrument() raises AttributeError for a hooked name that is gone
    tracer = bench_run.Tracer()
    try:
        bench_run.instrument(tracer, coxq)
        assert (coxq.env.Gamma, "sample_block_sums") in {(o, a) for o, a, _ in tracer._patches}
    finally:
        tracer.unpatch()


def test_traced_calls_exit_0_with_every_counter_filled(bench_run, tmp_path, capsys):
    # a small simulate (R = 20, 3 grid times) and a small ldp-check through the
    # CLI under the hooks: a counter that raises would make the call escape
    # with an exception, which the benchmark scores as a failed call
    simulate = {**json.loads((CONFIGS / "simulate.json").read_text()),
                "replications": 20, "grid": [1.0, 2.0, 3.0]}
    ldp = {**json.loads((CONFIGS / "ldp_fast.json").read_text()),
           "N_grid": [50, 100], "replications": 200}
    tracer = bench_run.Tracer()
    codes = {}
    bench_run.instrument(tracer, coxq)
    try:
        for kind, doc in (("simulate", simulate), ("ldp-check", ldp)):
            cfg = tmp_path / f"{kind}.json"
            cfg.write_text(json.dumps(doc))
            codes[kind] = coxq.cli.main([kind, "--config", str(cfg), "--out", str(tmp_path / kind)])
        # both engines draw through a prepared sampler, which no hook wraps, so
        # the block-sum counters are reached by direct calls
        rng = coxq.env.spawn_streams(1, 1)[0]
        coxq.env.Exponential(1.0).sample_block_sums(rng, [1, 3], 4)
        coxq.env.Exponential(1.0).sample_block_sums_twisted([0.0, 0.5], rng, [1, 3], 4, weights=[1.0, 1.0])
    finally:
        tracer.unpatch()
    capsys.readouterr()
    assert codes == {"simulate": 0, "ldp-check": 0}
    spans = {}
    for span in tracer.spans:
        spans.setdefault(span.name, []).append(span.counts)
    assert spans["sim.simulate"] == [{"reps": 20}]
    csv = tmp_path / "simulate" / "trajectories.csv"
    assert spans["sim.trajectory_to_csv"] == [{"bytes": csv.stat().st_size}]
    assert all("iterations" in c for c in spans["ldp.optimizer"])
    # the env layers the benchmark counts (env.sample is drawn by no CLI kind)
    for name, key in (("env.spawn_streams", "streams"), ("env.sample_block_sums", "cells"),
                      ("env.sample_block_sums_twisted", "draws")):
        assert spans[name] and all(c[key] > 0 for c in spans[name]), name


def test_traced_multi_block_clt_check_on_two_threads_exits_0(bench_run, tmp_path, monkeypatch, capsys):
    # the tracer keeps one stack of open spans for the whole process, so a hooked
    # name called from a block's worker thread would close a span out of order
    monkeypatch.setattr(coxq.sim, "_CPUS", 2)
    doc = {**json.loads((CONFIGS / "clt.json").read_text()), "replications": 2000}
    for N in doc["N_grid"]:
        h = coxq.env.ScalingRegime(N, doc["alpha"], doc["delta"]).delta_n
        cells = coxq.sim.cell_table((1.0,), h, (40.0,), 0.01).slots.size
        rows = coxq.sim.block_rows(cells)
        assert coxq.sim.block_workers(-(-doc["replications"] // rows), rows * cells) == 2
    cfg = tmp_path / "clt.json"
    cfg.write_text(json.dumps(doc))
    tracer = bench_run.Tracer()
    bench_run.instrument(tracer, coxq)
    try:
        idx = tracer.open("cli.main")
        try:
            code = coxq.cli.main(["clt-check", "--config", str(cfg), "--out", str(tmp_path / "out")])
        finally:
            tracer.close(idx)
    finally:
        tracer.unpatch()
    capsys.readouterr()
    assert code == 0
    assert [span.counts for span in tracer.spans if span.name == "sim.simulate"] == [{"reps": 2000}] * 2


def test_harness_binds_the_ldp_functions_the_benchmark_wraps():
    # instrument() wraps the ldp functions found in coxq.harness's namespace and
    # counts rate_fast/rate_slow/rate_intermediate as ldp.optimizer: a name the
    # harness stops importing would read 0 ms there instead of failing
    import coxq.harness
    import coxq.ldp

    for name in ("rate_fast", "rate_slow", "rate_intermediate", "integrated_log_mgf"):
        assert getattr(coxq.harness, name) is getattr(coxq.ldp, name), name
