"""Property test over the config schema: every config one mutation away from a
valid one exits 0, 1 or 2 cleanly, and every mutation but a drop exits 2.

The valid documents and the foreign keys come from ``harness._SCHEMA``, the
table that ``from_json`` and ``_validate`` read.  Each example applies one
mutation: a dropped key, a key that only another kind or env family reads, a
wrong type, a non-finite number or a non-object where an object belongs.  The run is
derandomized; the simulator budgets are patched small so that any accepted
config stays tiny.  A report's config echo, for every kind and every shipped
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
    monkeypatch.setattr(coxq.sim, "_EVENT_BUDGET", 1e6)
    monkeypatch.setattr(coxq.sim, "_OUTPUT_BUDGET", 2**14)
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    cfg, out = work / "cfg.json", work / "out"
    cfg.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli_main([kind, "--config", str(cfg), "--out", str(out)])  # raises on a traceback
    err = capsys.readouterr().err
    assert code in (0, 1, 2) and (code == 2 or may_pass), (code, doc)
    assert "Traceback" not in err
    if code == 2:
        assert re.search(rf"\b{re.escape(name)}\b", err), (name, err)
        assert not out.exists()
        return
    for path in out.glob("*.json"):  # every JSON output is strict
        text = path.read_text()
        assert not re.search(r"\bNaN\b|Infinity", text), (path.name, text)
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is (code == 0)
    assert (code == 1) == any(not c["passed"] for c in report["criteria"])


CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))


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



CHILD_ADDRESS_SPACE = 3 * 2**30
CHILD_TIMEOUT_S = 60


def start_child(kind, doc, work):
    """``coxq <kind>`` on doc in a child process under CHILD_ADDRESS_SPACE bytes
    of address space, writing into work/out."""
    cfg = work / "cfg.json"
    cfg.write_text(json.dumps(doc))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))

    src = str(Path(coxq.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.Popen(
        [sys.executable, "-m", "coxq.cli", kind, "--config", str(cfg), "--out", str(work / "out")],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, preexec_fn=limit, env=env,
    )


@pytest.fixture(scope="module")
def underflow_runs(tmp_path_factory):
    """Each kind at alpha = 1e308, where delta N^(-alpha) underflows to 0 at
    every N > 1: one child process per kind, all started at once."""
    runs = {}
    for kind in KINDS:
        work = tmp_path_factory.mktemp(kind)
        runs[kind] = start_child(kind, {**base_doc(kind), "alpha": 1e308}, work), work
    yield runs
    for proc, _ in runs.values():
        proc.kill()
        proc.wait()


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
    for proc, _ in runs.values():
        proc.kill()
        proc.wait()


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


# Boundary values that ran for minutes or ended in a traceback: the shipped
# config with one value replaced, and a word its error message must hold.  At
# mu = 1e308 blocking is off, so the ldp_fast shape has 10^5 one-slot cells
# at N = 50 and its importance sampler would copy 10^9 cell rates; a rate or
# service rate of 1e308 overflows when squared.
REFUSED = {
    "ldp_fast-mu-1e308": ("ldp_fast", {"queues": {"mu": [1e308]}}, "budget"),
    "analytic-mu-1e308": ("analytic", {"queues": {"mu": [1e308]}}, "overflows"),
    "fclt-rate-1e308": ("fclt", {"env": {"family": "exponential", "rate": 1e308}}, "overflows"),
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
