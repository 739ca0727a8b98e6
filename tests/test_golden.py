"""Exit codes and output bytes of the shipped configs and bench calls, pinned in golden.json.

Each config in ``configs/``, and each benchmark call that
``perfbench/workloads.make_calls`` builds at workload seeds 1 and 2, runs
through the CLI in-process; its exit code and the SHA-256 of each file it
writes must match ``golden.json``.  The bytes depend on the numpy build (and
on the CPU's vector extensions that numpy dispatches to, and on the C
library's erfc and lgamma, which clt-check and ldp-check read through
``math``), so the file also records the Python, numpy and scipy versions it
was made with; under other versions the check is skipped with both sets
named in the reason, never passed.

The bytes must not depend on the BLAS thread count either: the last test runs
two configs in child processes at one and at two BLAS threads.

After a change that alters output bytes on purpose, rewrite the file with

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md which bytes changed and why.
"""

import hashlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

import coxq
from coxq.cli import main as cli_main

GOLDEN = Path(__file__).with_name("golden.json")
ROOT = Path(__file__).parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
BENCH_SEEDS = (1, 2)


def bench_docs() -> dict:
    """The benchmark's config documents at BENCH_SEEDS, by "<workload>-<seed>-<call>"."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass looks its module up there
    spec.loader.exec_module(workloads)
    return {
        f"{workload}-{seed}-{call.name}": call.doc
        for workload in workloads.WORKLOADS
        for seed in BENCH_SEEDS
        for call in workloads.make_calls(workload, seed)
    }


BENCH = bench_docs()


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def outputs(config: Path, out: Path) -> dict:
    """The exit code of ``coxq <kind> --config config --out out`` and the
    SHA-256 of each file it wrote."""
    kind = json.loads(config.read_text())["kind"]
    code = cli_main([kind, "--config", str(config), "--out", str(out)])
    files = sorted(out.iterdir()) if out.exists() else []
    return {"exit": code, "sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}}


def bench_outputs(name: str, work: Path) -> dict:
    """``outputs`` of the benchmark call name, its config written under work."""
    config = work / f"{name}.json"
    config.write_text(json.dumps(BENCH[name]))
    return outputs(config, work / name)


def golden_for_these_versions() -> dict:
    golden = json.loads(GOLDEN.read_text())
    if golden["versions"] != versions():
        pytest.skip(f"golden.json was recorded under {golden['versions']}, not {versions()}")
    return golden


def test_golden_file_covers_every_shipped_config():
    assert set(json.loads(GOLDEN.read_text())["configs"]) == {p.stem for p in CONFIGS}


def test_golden_file_covers_every_benchmark_call():
    assert set(json.loads(GOLDEN.read_text())["bench"]) == set(BENCH)


@pytest.mark.parametrize("config", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_shipped_config_exit_code_and_output_bytes(config, tmp_path):
    assert outputs(config, tmp_path / "out") == golden_for_these_versions()["configs"][config.stem]


@pytest.mark.parametrize("name", sorted(BENCH))
def test_benchmark_call_exit_code_and_output_bytes(name, tmp_path):
    assert bench_outputs(name, tmp_path) == golden_for_these_versions()["bench"][name]


def test_output_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS splits a long dot product across its threads, which changes its
    # bits; the importance sampler's weights (ldp_slow) and the simulator's
    # rate-by-weight products (fclt) must not go through such a reduction
    src = str(Path(coxq.__file__).parents[1])
    runs = {}
    for stem in ("ldp_slow", "fclt"):
        config = ROOT / "configs" / f"{stem}.json"
        kind = json.loads(config.read_text())["kind"]
        for threads in ("1", "2"):
            out = tmp_path / f"{stem}-{threads}"
            env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                   "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            runs[stem, threads] = out, subprocess.Popen(
                [sys.executable, "-m", "coxq.cli", kind, "--config", str(config), "--out", str(out)],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env,
            )
    hashes = {}
    try:
        for key, (out, proc) in runs.items():
            _, err = proc.communicate(timeout=120)
            assert proc.returncode in (0, 1), err
            hashes[key] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    finally:
        for _, proc in runs.values():
            proc.kill()
            proc.wait()
    for stem in ("ldp_slow", "fclt"):
        assert hashes[stem, "1"] == hashes[stem, "2"], stem
        assert "report.json" in hashes[stem, "1"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        configs = {p.stem: outputs(p, Path(work) / p.stem) for p in CONFIGS}
        bench = {name: bench_outputs(name, Path(work)) for name in sorted(BENCH)}
    doc = {"versions": versions(), "configs": configs, "bench": bench}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
