"""Tests of the benchmark itself, at smoke size.

Run from the repository root: python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = ("autodiff.nodes", "codebook.distances.cells",
                "initialization.lloyd_step.calls", "vqlayer.lru_replace.codes_replaced")


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.fixture(scope="module")
def smoke():
    """(workload, trace, attempt) -> (result line, spans fired), run once each."""
    cache = {}

    def get(workload: str, trace: int, attempt: int = 0):
        key = (workload, trace, attempt)
        if key not in cache:
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            spans = [json.loads(line[len("spans "):]) for line in lines
                     if line.startswith("spans ")]
            cache[key] = (json.loads(lines[-1]), spans[0] if spans else None)
        return cache[key]

    return get


def test_benchmark_json_names_every_workload():
    assert WORKLOADS == list(bench.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(smoke, workload, trace, section):
    result, _ = smoke(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and m["value"] == m["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_never_zero(smoke, workload):
    result, _ = smoke(workload, 0)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrappers_fire_on_the_workloads_predicted_to_call_them(smoke, workload):
    _, spans = smoke(workload, 1)
    wl = bench.WORKLOADS[workload]
    assert [name for name in wl.fires if not spans.get(name)] == []
    assert [name for name in wl.silent if spans.get(name)] == []


def test_every_wrapper_outside_the_tape_is_predicted_to_fire_somewhere():
    # Tape primitives no current code path uses (sub, mul, ...) stay wrapped
    # so that new callers are counted, but no workload can be required to fire them.
    wrapped = {name for _, _, name in child.SPANS if not name.startswith("autodiff.fwd.")}
    predicted = set().union(*(wl.fires for wl in bench.WORKLOADS.values()))
    assert wrapped - predicted == set()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_count_metrics_repeat_exactly(smoke, workload):
    first, _ = smoke(workload, 1, 0)
    second, _ = smoke(workload, 1, 1)
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    predicted_nonzero = {"train-joint-gap": ("autodiff.nodes", "codebook.distances.cells"),
                         "train-alt-codebook": EXACT_COUNTS,
                         "init-kmeans": ("codebook.distances.cells",
                                         "initialization.lloyd_step.calls")}[workload]
    for name in predicted_nonzero:
        assert first["metrics"][name]["value"] > 0, name


def test_import_breakdown_measures_vqkit():
    imports = bench.import_breakdown()
    assert 0.0 <= imports["scipy_s"] < imports["vqkit_s"]


def test_drift_is_the_largest_absolute_difference():
    ref = {"a": 1.0, "b": 100.0}
    assert bench.drift_from_reference(ref, {"a": 1.0, "b": 100.0}) == (0.0, True)
    drift, within = bench.drift_from_reference(ref, {"a": 1.0, "b": 100.0 + 1e-8})
    assert drift == pytest.approx(1e-8) and within
    assert bench.drift_from_reference(ref, {"a": 1.001, "b": 100.0})[1] is False
    with pytest.raises(bench.OutputError):
        bench.drift_from_reference(ref, {"a": 1.0})


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
