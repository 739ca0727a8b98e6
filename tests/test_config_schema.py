"""Property test over the config schema: every config one mutation away from a
valid one exits 0, 1 or 2 cleanly, and every mutation but a drop exits 2.

The valid documents and the foreign keys come from ``harness._SCHEMA``, the
table that ``from_json`` and ``_validate`` read.  Each example applies one
mutation: a dropped key, a key that only another kind or env family reads, a
wrong type, a non-finite number or a non-object where an object belongs.  The run is
derandomized; the simulator budgets are patched small so that any accepted
config stays tiny.  Every numeric leaf of every shipped config at 0 and at -0.0
is checked the same way.  A report's config echo, for every kind and every shipped
config, parses back to the same config.

Boundary values, which can make an accepted config huge, run one case at a
time in a child process under an address-space limit and a timeout, so that a
missing guard fails the test rather than the machine.
"""

import copy
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import coxq
import coxq.sim
from coxq import harness
from coxq.cli import main as cli_main
from coxq.harness import _COMMON, _SCHEMA, KINDS, ExperimentConfig

COMMON = {
    "env": {"family": "exponential", "rate": 1.0},
    "queues": {"mu": [1.0]},
    "delta": 1.0,
    "alpha": 2.0,
    "N_grid": [20, 40],
    "replications": 20,
    "seed": 1,
}
# a value for every optional field, and the common fields each kind's shape overrides
FIELDS = {"t": 1.0, "a": 2.0, "horizon": 2.0, "grid": [1.0, 2.0], "initial_counts": [1, 0],
          "block_tol": 0.01}
SHAPES = {
    "analytic": {"env": {"family": "gamma", "shape": 2.0, "scale": 0.5}},
    "simulate": {"queues": {"mu": [1.0, 2.0]}, "N_grid": [20]},
    "clt-check": {},
    "fclt-check": {"queues": {"mu": [1.0, 2.0]}},
    "ldp-check": {"env": {"family": "deterministic", "value": 1.0}, "t": 40.0},
    "corr-check": {
        "env": {"family": "discrete", "values": [0.5, 2.0], "probs": [0.5, 0.5]},
        "queues": {"mu": [1.0, 2.0]},
    },
}
ENV_PARAMETERS = ("value", "rate", "shape", "scale", "values", "probs")
WRONG_TYPES = ["1", True, None, {"x": 1}, [["1"]]]
NON_FINITE = [math.nan, math.inf, -math.inf]
NON_OBJECTS = [[], None, 1, "x"]
DROP = object()


def base_doc(kind):
    """A valid document with every field and tolerance the kind reads."""
    schema = _SCHEMA[kind]
    doc = {**COMMON, **{name: FIELDS[name] for name in schema.reads}, **SHAPES[kind]}
    doc.update(kind=kind, tolerances=dict(schema.tolerances))
    assert set(doc) == set(_COMMON + schema.reads)
    return copy.deepcopy(doc)


def paths(doc, prefix=()):
    """(path, value) for every object key and array entry under doc."""
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield prefix + (key,), value
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


def mutate(doc, path, value):
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def mutated_configs(draw):
    """(subcommand, document, the field the mutation hit, whether only a drop could be valid)."""
    kind = draw(st.sampled_from(KINDS))
    doc = base_doc(kind)
    leaves = list(paths(doc))
    mutation = draw(st.sampled_from(["drop", "foreign", "type", "non-finite", "non-object"]))
    if mutation == "drop":
        path, value = draw(st.sampled_from([p for p, _ in leaves if isinstance(p[-1], str)])), DROP
    elif mutation == "foreign":
        # another kind's field or tolerance, another family's parameter, or a
        # field inside queues
        fields = [(n,) for k in KINDS for n in _SCHEMA[k].reads if n not in doc]
        tols = [("tolerances", n) for k in KINDS for n in _SCHEMA[k].tolerances]
        tols = [p for p in tols if p[-1] not in doc["tolerances"]]
        params = [("env", n) for n in ENV_PARAMETERS if n not in doc["env"]]
        path = draw(st.sampled_from(fields + tols + params + [("queues", "t")]))
        value = FIELDS.get(path[-1], 0.5)
    elif mutation == "type":
        path, value = draw(st.sampled_from([p for p, _ in leaves])), draw(st.sampled_from(WRONG_TYPES))
    elif mutation == "non-finite":
        numbers = [p for p, v in leaves if isinstance(v, (int, float)) and not isinstance(v, bool)]
        path, value = draw(st.sampled_from(numbers)), draw(st.sampled_from(NON_FINITE))
    else:
        objects = [()] + [p for p, v in leaves if isinstance(v, dict)]
        path, value = draw(st.sampled_from(objects)), draw(st.sampled_from(NON_OBJECTS))
    name = next((key for key in reversed(path) if isinstance(key, str)), "config")
    return kind, mutate(doc, path, value), name, mutation == "drop"


@settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=mutated_configs())
def test_one_mutation_exits_0_1_or_2_cleanly(tmp_path, capsys, monkeypatch, case):
    kind, doc, name, may_pass = case
    shrink_budgets(monkeypatch)
    code = exits_cleanly(kind, doc, name, tmp_path, capsys)
    assert code == 2 or may_pass, (code, doc)


@pytest.mark.parametrize("kind", KINDS)
def test_the_shrunk_budgets_admit_every_base_doc(tmp_path, capsys, monkeypatch, kind):
    shrink_budgets(monkeypatch)
    assert exits_cleanly(kind, base_doc(kind), "config", tmp_path, capsys) in (0, 1)


def shrink_budgets(monkeypatch):
    """Simulator budgets small enough that any accepted config stays tiny."""
    monkeypatch.setattr(coxq.sim, "_WORK_BUDGET", 10**6)
    monkeypatch.setattr(coxq.sim, "_OUTPUT_BUDGET", 2**14)


def exits_cleanly(kind, doc, name, tmp_path, capsys):
    """``coxq <kind>`` on doc in-process: its exit code, after checking that it
    is 0, 1 or 2 with no traceback, that an exit 2 names the field ``name`` and
    writes nothing, and that any other exit writes strict JSON."""
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    cfg, out = work / "cfg.json", work / "out"
    cfg.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli_main([kind, "--config", str(cfg), "--out", str(out)])  # raises on a traceback
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (code, doc)
    assert "Traceback" not in err
    if code == 2:
        assert re.search(rf"\b{re.escape(name)}\b", err), (name, err)
        assert not out.exists()
        return code
    for path in out.glob("*.json"):  # every JSON output is strict
        text = path.read_text()
        assert not re.search(r"\bNaN\b|Infinity", text), (path.name, text)
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is (code == 0)
    assert (code == 1) == any(not c["passed"] for c in report["criteria"])
    return code


CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_each_numeric_field_at_zero_exits_0_1_or_2_naming_it(tmp_path, capsys, monkeypatch, path):
    # every numeric leaf of a shipped config set to 0 and to -0.0, one at a
    # time, at the fewest replications a check accepts so that each call stays
    # small; a refusal names the field set, not the arguments of the formula
    # that first divides by it
    shrink_budgets(monkeypatch)
    base = {**json.loads(path.read_text()), "replications": 2}
    leaves = [p for p, v in paths(base) if isinstance(v, (int, float)) and not isinstance(v, bool)]
    assert len(leaves) >= 7
    for leaf in leaves:
        name = next(key for key in reversed(leaf) if isinstance(key, str))
        for zero in (0, -0.0):
            exits_cleanly(base["kind"], mutate(copy.deepcopy(base), leaf, zero), name, tmp_path, capsys)


@pytest.mark.parametrize(
    "doc",
    [base_doc(kind) for kind in KINDS] + [json.loads(p.read_text()) for p in CONFIGS],
    ids=[f"schema-{kind}" for kind in KINDS] + [p.stem for p in CONFIGS],
)
def test_report_config_echo_reads_back(monkeypatch, doc):
    # a report's config is itself a valid config that parses to the same run;
    # the runner is stubbed, since only the echo is under test
    monkeypatch.setitem(harness._RUNNERS, doc["kind"], lambda config, out_dir: ([], []))
    config = ExperimentConfig.from_json(doc)
    echo = json.loads(json.dumps(harness.run(config).to_json()["config"]))
    again = ExperimentConfig.from_json(echo)
    assert again.to_json() == echo
    assert set(echo) <= set(_COMMON + _SCHEMA[doc["kind"]].reads)



@pytest.mark.parametrize("stem", ["simulate", "clt", "ldp_fast"])
def test_grid_and_N_grid_take_up_to_their_bounds(monkeypatch, stem):
    # validation admits _MAX_GRID grid times and _MAX_N_GRID system sizes and
    # refuses one more, naming the field; the runner is stubbed
    doc = json.loads(next(p for p in CONFIGS if p.stem == stem).read_text())
    monkeypatch.setitem(harness._RUNNERS, doc["kind"], lambda config, out_dir: ([], []))
    if stem == "simulate":
        bound, field = harness._MAX_GRID, "grid"
        lists = {n: {"grid": [3.0 * (k + 1) / n for k in range(n)]} for n in (bound, bound + 1)}
    else:
        bound, field = harness._MAX_N_GRID, "N_grid"
        lists = {n: {"N_grid": [doc["N_grid"][0] + k for k in range(n)]} for n in (bound, bound + 1)}
    harness.run(ExperimentConfig.from_json({**doc, **lists[bound]}))
    with pytest.raises(coxq.ConfigError, match=f"^{field} lists {bound + 1} "):
        harness.run(ExperimentConfig.from_json({**doc, **lists[bound + 1]}))


@pytest.mark.parametrize("stem", ["simulate", "fclt"])
def test_simulate_and_fclt_check_take_up_to_the_queue_bound(monkeypatch, stem):
    # validation admits MAX_QUEUES queues and refuses one more, naming mu;
    # the runner is stubbed, since a run at the bound takes seconds
    doc = json.loads(next(p for p in CONFIGS if p.stem == stem).read_text())
    monkeypatch.setitem(harness._RUNNERS, doc["kind"], lambda config, out_dir: ([], []))
    for d in (coxq.sim.MAX_QUEUES, coxq.sim.MAX_QUEUES + 1):
        change = {"queues": {"mu": [1.0] * d}}
        if "initial_counts" in doc:
            change["initial_counts"] = [0] * d
        config = ExperimentConfig.from_json({**doc, **change})
        if d <= coxq.sim.MAX_QUEUES:
            harness.run(config)
        else:
            with pytest.raises(coxq.ConfigError, match=f"mu lists {d} queues"):
                harness.run(config)


CHILD_ADDRESS_SPACE = 3 * 2**30
CHILD_TIMEOUT_S = 60


def start_child(kind, doc, work, cpus=None):
    """``coxq <kind>`` on doc in a child process under CHILD_ADDRESS_SPACE bytes
    of address space, writing into work/out; with cpus, the block scheduler
    takes that many CPUs as given."""
    cfg = work / "cfg.json"
    cfg.write_text(json.dumps(doc))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))

    src = str(Path(coxq.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    cli = ["-m", "coxq.cli"]
    if cpus is not None:
        cli = ["-c", f"import sys, coxq.sim; coxq.sim._CPUS = {cpus}; "
                     "from coxq.cli import main; sys.exit(main(sys.argv[1:]))"]
    return subprocess.Popen(
        [sys.executable, *cli, kind, "--config", str(cfg), "--out", str(work / "out")],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, preexec_fn=limit, env=env,
    )


def stop_children(procs):
    """Kill each child process, reap it and close its stderr pipe, which a
    test that never read it leaves open."""
    for proc in procs:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_ldp_slow_on_eight_threads_runs_within_the_address_space(tmp_path):
    # at N = 200 and 400 the importance sampler's 157 blocks take
    # block_workers' cap of 8 threads when 8 CPUs are given; their stacks and
    # allocator arenas fit under CHILD_ADDRESS_SPACE, and the bytes are those
    # of one thread
    doc = json.loads(next(p for p in CONFIGS if p.stem == "ldp_slow").read_text())
    runs = {}
    for cpus in (8, 1):
        work = tmp_path / f"cpus-{cpus}"
        work.mkdir()
        runs[cpus] = start_child(doc["kind"], doc, work, cpus), work
    written = {}
    try:
        for cpus, (proc, work) in runs.items():
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            assert proc.returncode == 0, err
            written[cpus] = {p.name: p.read_bytes() for p in sorted((work / "out").iterdir())}
    finally:
        stop_children(proc for proc, _ in runs.values())
    assert "report.json" in written[8] and written[8] == written[1]


@pytest.fixture(scope="module")
def underflow_runs(tmp_path_factory):
    """Each kind at alpha = 1e308, where delta N^(-alpha) underflows to 0 at
    every N > 1: one child process per kind, all started at once."""
    runs = {}
    for kind in KINDS:
        work = tmp_path_factory.mktemp(kind)
        runs[kind] = start_child(kind, {**base_doc(kind), "alpha": 1e308}, work), work
    yield runs
    stop_children(proc for proc, _ in runs.values())


@pytest.mark.parametrize("kind", KINDS)
def test_a_slot_length_that_underflows_exits_2(underflow_runs, kind):
    proc, work = underflow_runs[kind]
    _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    assert proc.returncode == 2, err
    assert "Traceback" not in err and "alpha" in err, err
    assert not (work / "out" / "report.json").exists()


# Slot horizons and count levels past 2^53, which float64 cannot index: the
# ldp_fast shape with one value replaced, and the simulate config at a slot
# length of 1e-300 N^(-alpha).
PAST_2_53 = {
    "N_grid-2^53+1": ("ldp_fast", {"N_grid": [50, 2**53 + 1]}),
    "N_grid-2^30": ("ldp_fast", {"N_grid": [50, 2**30]}),
    "t-1e308": ("ldp_fast", {"t": 1e308}),
    "t-2^63": ("ldp_fast", {"t": 2.0**63}),
    "a-1e308": ("ldp_fast", {"a": 1e308}),
    "simulate-delta-1e-300": ("simulate", {"delta": 1e-300}),
}


def child_runs(cases, tmp_path_factory):
    """One child process per case (stem, change, ...), the shipped config stem
    with change applied, all started at once; yields {case: (process, work)}
    and kills them after."""
    runs = {}
    for case, (stem, change, *_) in cases.items():
        doc = {**json.loads(next(p for p in CONFIGS if p.stem == stem).read_text()), **change}
        work = tmp_path_factory.mktemp(case)
        runs[case] = start_child(doc["kind"], doc, work), work
    yield runs
    stop_children(proc for proc, _ in runs.values())


@pytest.fixture(scope="module")
def past_2_53_runs(tmp_path_factory):
    yield from child_runs(PAST_2_53, tmp_path_factory)


@pytest.mark.parametrize("case", PAST_2_53)
def test_a_slot_horizon_or_count_level_past_2_53_exits_2(past_2_53_runs, case):
    proc, work = past_2_53_runs[case]
    _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    assert proc.returncode == 2, err
    assert "Traceback" not in err and "2^53" in err, err
    assert not (work / "out" / "report.json").exists()


# Boundary values that ran for minutes, ended in a traceback or gave a nan
# slope: the shipped config with one value replaced, and a word its error
# message must hold.  At mu = 1e308 blocking is off, so the ldp_fast shape has
# 10^5 one-slot cells at N = 50 and its importance sampler would copy 10^9
# cell rates; a rate or service rate of 1e308 overflows when squared; at delta
# 1e308 a slot is longer than the read time t, or than the stationary warm-up
# 40/min(mu), which then rounds to no slot and reads an empty system.  At
# N = 10^12 with a 1e-9 above rho(t), the count's Poisson tail is evaluated
# within 10^3 of its level, where its continued fraction needs more than 10^5
# steps.  A rate family whose mean or variance overflows a float is refused
# where it is built, and a gamma shape of 1e308 overflows N^2 Var[L].
REFUSED = {
    "ldp_fast-mu-1e308": ("ldp_fast", {"queues": {"mu": [1e308]}}, "budget"),
    "analytic-mu-1e308": ("analytic", {"queues": {"mu": [1e308]}}, "overflows"),
    "fclt-rate-1e308": ("fclt", {"env": {"family": "exponential", "rate": 1e308}}, "overflows"),
    "ldp_slow-delta-1e308": ("ldp_slow", {"delta": 1e308}, "delta"),
    "ldp_fast-delta-1e308": ("ldp_fast", {"delta": 1e308}, "delta"),
    "ldp_fast-N-1e12": (
        "ldp_fast", {"alpha": 1.1, "a": 1.000000001, "N_grid": [50, 10**12]}, "continued-fraction"
    ),
    "corr-delta-1e308": ("corr", {"delta": 1e308}, "delta"),
    "clt-delta-1e308": ("clt", {"delta": 1e308}, "delta"),
    "analytic-gamma-shape-1e308": (
        "analytic", {"env": {"family": "gamma", "shape": 1e308, "scale": 1}}, "env"
    ),
    "analytic-rate-1e-308": ("analytic", {"env": {"family": "exponential", "rate": 1e-308}}, "rate"),
    "analytic-values-1e308": (
        "analytic", {"env": {"family": "discrete", "values": [1e308, 0.0], "probs": [0.5, 0.5]}},
        "values",
    ),
    # a discrete law's draws and tilt tables grow with its atoms (10^4 atoms
    # ran an ldp-check of 2000 replications in 5.6 s at 67 MB)
    "ldp_slow-values-1025-atoms": (
        "ldp_slow",
        {"env": {"family": "discrete", "values": [0.5 + k / 512 for k in range(1025)],
                 "probs": [1 / 1025] * 1025}},
        "values",
    ),
    # block_tol 0 leaves 500,000 one-slot cells at N = 10^10, and tilting a
    # 1024-atom law on each would take a (500000, 1024) table, 3.8 GiB; the
    # table budget refuses it before the table is allocated
    "ldp_slow-1024-atoms-5e5-cells": (
        "ldp_slow",
        {"env": {"family": "discrete", "values": [0.5 + 2.5 * k / 1024 for k in range(1024)],
                 "probs": [1 / 1024] * 1024},
         "a": 2.0, "block_tol": 0, "N_grid": [10**10, 4 * 10**10], "replications": 400},
        "values",
    ),
    # block_tol/sum(mu) falls below the slot length, so blocking turns off and
    # the warm-up 40/min(mu) = 20 needs 8e7 exact slots at N = 2000
    "corr-mu-2^53+1": ("corr", {"queues": {"mu": [2**53 + 1, 2.0]}}, "mu"),
    # the 12-queue bound: a cell table weighs 2^d alive patterns per cell, and
    # d = 13 runs configs/simulate.json in 1.2 s at R = 2; at d = 40 numpy
    # could not allocate the (cells, 2^40) array
    "simulate-13-queues": (
        "simulate", {"queues": {"mu": [1.0] * 13}, "initial_counts": [0] * 13}, "mu"
    ),
    "simulate-40-queues": (
        "simulate", {"queues": {"mu": [1.0] * 40}, "initial_counts": [0] * 40}, "mu"
    ),
    "fclt-13-queues": ("fclt", {"queues": {"mu": [1.0] * 13}}, "mu"),
    # long lists: each grid time costs a pass in Python per block (a 10^5-point
    # grid ran configs/simulate.json at R = 2 for 25 s), and each N_grid entry
    # is a whole Monte Carlo run
    "simulate-grid-10^5": (
        "simulate", {"grid": [3.0 * (k + 1) / 10**5 for k in range(10**5)]}, "grid lists 100000"
    ),
    "clt-N_grid-10^4": ("clt", {"N_grid": list(range(500, 10_500))}, "N_grid lists 10000"),
    "ldp_fast-N_grid-10^4": ("ldp_fast", {"N_grid": list(range(50, 10_050))}, "N_grid lists 10000"),
    # draw work past the work budget, refused before any stream is spawned: 1e10
    # cell draws of 5e6 one-slot cells at N = 500 (blocking off, one row per
    # block), which ran without end; 2^24 blocks of one row, whose 2^24 streams
    # ran out of address space while they were spawned; and 1677 blocks of one
    # row with a Python pass at each of 10^4 grid times, about 450 s
    "clt-exact-mode-1e10-draws": (
        "clt", {"block_tol": 0, "alpha": 2.0, "N_grid": [250, 500], "replications": 2000}, "block_tol"
    ),
    "simulate-2^24-streams": (
        "simulate",
        {"env": {"family": "exponential", "rate": 1000.0}, "queues": {"mu": [1.0]}, "alpha": 2.0,
         "delta": 1.0, "N_grid": [100], "block_tol": 0, "grid": [400.0], "horizon": 400.0,
         "initial_counts": [0], "replications": 2**24},
        "replications",
    ),
    "simulate-10^4-passes": (
        "simulate",
        {"queues": {"mu": [1.0]}, "alpha": 2.0, "delta": 1.0, "N_grid": [100], "block_tol": 0,
         "grid": [30.0 * (k + 1) / 10**4 for k in range(10**4)], "horizon": 30.0,
         "initial_counts": [0], "replications": 1677},
        "grid",
    ),
    # 4*10^6 one-slot cells of 8 queues: 1.0e9 alive-pattern weights (7.6 GiB),
    # far past the weight budget, which refuses them before allocating any
    "simulate-8-queues-4e6-cells": (
        "simulate",
        {"queues": {"mu": [1.0] * 8}, "initial_counts": [0] * 8, "block_tol": 0, "alpha": 1,
         "delta": 1, "N_grid": [1000000], "grid": [4.0], "horizon": 4.0},
        "block_tol",
    ),
}


@pytest.fixture(scope="module")
def refused_runs(tmp_path_factory):
    yield from child_runs(REFUSED, tmp_path_factory)


@pytest.mark.parametrize("case", REFUSED)
def test_a_boundary_value_past_a_budget_or_float_range_exits_2(refused_runs, case):
    proc, work = refused_runs[case]
    _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    assert proc.returncode == 2, err
    assert "Traceback" not in err and REFUSED[case][2] in err, err
    assert not (work / "out" / "report.json").exists()


def test_a_clt_check_of_little_draw_work_at_a_large_N_runs(tmp_path):
    # 2e9 expected arrival events at N = 5000, but 269 cells: 2.75e6 cell draws
    # in 0.1 s, far inside the work budget
    doc = {**json.loads(next(p for p in CONFIGS if p.stem == "clt").read_text()), "N_grid": [500, 5000]}
    proc = start_child(doc["kind"], doc, tmp_path)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        stop_children([proc])
    assert proc.returncode in (0, 1), err
    assert (tmp_path / "out" / "report.json").exists()
