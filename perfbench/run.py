"""vqkit benchmark: time `vqkit train` and `vqkit init-study` end to end, check
their outputs, and (with --trace 1) break the time down by library layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload train-joint-gap --seed 3 --seconds 35 --trace 0

Each repeat runs the workload in a fresh child process (perfbench/child.py),
so set-up includes interpreter start and `import vqkit`. Repeats continue
until --seconds have passed (at least MIN_REPEATS of them). setup_s is the
median repeat's; the other end-to-end times are the slowest repeat's. The
first repeat uses REFERENCE_SEED and is compared with the outputs stored
under perfbench/reference/; the others use --seed and must be byte-identical
to each other. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Other modes:
    --smoke              tiny sizes, for the benchmark's own tests
    --record-reference   rewrite perfbench/reference/ from the current code

See perfbench/README.md for why each workload and metric was chosen.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
OUT_DIR = HERE / "out"

REFERENCE_SEED = 0
# A perturbation of 1e-15 in the codebook at step 0 moved no metrics.csv value
# by more than 4e-15 (relative) after 1500 joint or 200 alternating steps, so
# reordered float sums stay far below this while a changed result does not.
DRIFT_TOLERANCE = 1e-9
REFERENCE_ROW_STRIDE = 25
MIN_REPEATS = 3            # the reference repeat plus two at --seed
MIN_REPEATS_TRACED = 4     # ... of which two are traced, to compare their counts
# A repeat takes under 10 s. With these two limits a run ends within 180 s
# even if its last repeat hangs.
RUN_LIMIT_S = 100.0        # start no repeat after this, whatever --seconds says
CHILD_TIMEOUT_S = 60.0
BLAS_THREADS = 1           # at most nproc; one thread keeps repeats steady


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# workloads

def _mixture(dim: int, n: int) -> dict:
    """The four-component mixture vqkit uses by default, at n rows."""
    half = dim // 2
    base = [0.8] * dim
    split = [0.8] * half + [-0.8] * (dim - half)
    return {"dim": dim, "n": n,
            "means": [base, [-v for v in base], split, [-v for v in split]],
            "cov_scales": [0.1] * 4, "weights": [0.25] * 4}


def _joint_config(seed: int, smoke: bool) -> dict:
    # The default `vqkit train` config (joint, m=32, batch 64, gap on), longer.
    return {"scenario": "train", "seed": seed, "steps": 30 if smoke else 1500}


def _alt_config(seed: int, smoke: bool) -> dict:
    return {"scenario": "train", "seed": seed, "train_mode": "alternating",
            "steps": 12 if smoke else 160, "batch_size": 128 if smoke else 1024,
            "inner_k": 3, "outer_k": 1, "track_grad_gap": False,
            "vq": {"n_group": 2, "sampling": "stochastic", "affine_mode": "ema",
                   "replacement": "lru", "lifespan": 2 if smoke else 10,
                   "reset_every": 5 if smoke else 50,
                   # sharper sampling leaves codes unused, so the tiny run replaces some
                   "tau0": 0.01 if smoke else 1.0},
            # capped Lloyd iterations keep set-up work the same at every seed
            "codebook": {"m": 64 if smoke else 256, "init": "kmeans", "iters": 20},
            "data": _mixture(16, 512 if smoke else 4096)}


def _init_config(seed: int, smoke: bool) -> dict:
    return {"scenario": "init-study", "seed": seed,
            "init_study": {"n": 512 if smoke else 16384, "d": 8 if smoke else 16,
                           "m": 32 if smoke else 256, "n_seeds": 1,
                           "methods": ["kmeans", "data_subset", "normal_kaiming"]}}


_TRAINING_SPANS = ("autodiff.fwd.leaf", "autodiff.fwd.matmul", "autodiff.backward",
                   "codebook.distances", "codebook.save", "vqlayer.quantize",
                   "metrics.divergence", "metrics.write_metrics_csv", "training.sgd_step",
                   "training.loop", "experiments.load_config", "experiments.resolve_config",
                   "experiments.gen_mixture", "experiments.build_codebook",
                   "experiments.run_training", "initialization.init_codebook")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str           # vqkit subcommand
    make_config: Callable[[int, bool], dict]   # (seed, smoke) -> raw config
    setup_stamp: str       # child stamp that ends set-up
    step_stamps: str       # child stamp list whose intervals are the steps
    fires: tuple           # span names this workload must produce
    silent: tuple          # span names this workload must not produce

    def samples(self, cfg: dict) -> int:
        """Input rows consumed: training examples, or sample rows that each
        init method is built from and scored against."""
        if self.command == "train":
            return cfg["steps"] * cfg.get("batch_size", 64)
        study = cfg["init_study"]
        return study["n"] * study["n_seeds"] * len(study["methods"])

    def resets_scheduled(self, cfg: dict) -> int:
        every = cfg.get("vq", {}).get("reset_every", 0)
        return cfg["steps"] // every if self.command == "train" and every else 0


WORKLOADS = {w.name: w for w in (
    Workload("train-joint-gap", "train", _joint_config, "train_entry", "record_stamps",
             fires=_TRAINING_SPANS + ("metrics.gradient_gap", "autodiff.fwd.straight_through",
                                      "autodiff.fwd.gather_rows"),
             silent=("codebook.sample", "vqlayer.kmeans_reset", "initialization.lloyd_step",
                     "vqlayer.commitment_codebook_grads")),
    Workload("train-alt-codebook", "train", _alt_config, "train_entry", "record_stamps",
             fires=_TRAINING_SPANS + ("codebook.sample", "vqlayer.commitment_codebook_grads",
                                      "vqlayer.lru_replace", "vqlayer.affine_update_ema",
                                      "vqlayer.kmeans_reset", "initialization.kmeans",
                                      "initialization.kmeans_pp_seed",
                                      "initialization.lloyd_step"),
             silent=("metrics.gradient_gap",)),
    Workload("init-kmeans", "init-study", _init_config, "init_entry", "lloyd_stamps",
             fires=("initialization.init_codebook", "initialization.kmeans",
                    "initialization.kmeans_pp_seed", "initialization.lloyd_step",
                    "metrics.divergence", "codebook.distances", "experiments.load_config",
                    "experiments.resolve_config", "experiments.run_init_study"),
             silent=("autodiff.backward", "vqlayer.quantize", "metrics.gradient_gap",
                     "training.sgd_step", "training.loop")),
)}


# ---------------------------------------------------------------------------
# output checks

class OutputError(Exception):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise OutputError(msg)


def _finite(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise OutputError(f"{where}: not a number: {text!r}") from None
    _require(math.isfinite(value), f"{where}: non-finite value {text!r}")
    return value


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    _require(path.is_file(), f"missing {path.name}")
    lines = path.read_text().splitlines()
    _require(len(lines) >= 2, f"{path.name} has no data rows")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_outputs(wl: Workload, cfg: dict, out: Path) -> dict[str, float]:
    """Check invariants that hold at every seed and return the values the
    reference comparison uses, keyed file:row:column."""
    values = {}
    summary_path = out / "summary.json"
    _require(summary_path.is_file(), "missing summary.json")
    summary = json.loads(summary_path.read_text())
    if wl.command == "train":
        steps, m = cfg["steps"], cfg.get("codebook", {}).get("m", 32)
        header, rows = _read_csv(out / "metrics.csv")
        _require(header == ["step", "task_loss", "commit_loss", "perplexity", "active_ratio",
                            "quant_error", "grad_gap", "divergence_cq"],
                 f"metrics.csv header {header}")
        _require(len(rows) == steps, f"metrics.csv has {len(rows)} rows, expected {steps}")
        for i, row in enumerate(rows):
            _require(len(row) == len(header) and row[0] == str(i), f"metrics.csv row {i}")
            vals = dict(zip(header[1:], (_finite(v, f"metrics.csv:{i}") for v in row[1:])))
            _require(min(vals[k] for k in ("task_loss", "commit_loss", "quant_error",
                                           "grad_gap", "divergence_cq")) >= 0.0,
                     f"metrics.csv row {i}: negative loss or distance")
            _require(1.0 - 1e-9 <= vals["perplexity"] <= m + 1e-9,
                     f"metrics.csv row {i}: perplexity outside [1, m]")
            _require(0.0 <= vals["active_ratio"] <= 1.0, f"metrics.csv row {i}: active_ratio")
            if i % REFERENCE_ROW_STRIDE == 0 or i == steps - 1:
                values.update({f"metrics.csv:{i}:{k}": v for k, v in vals.items()})
        _require(summary.get("steps") == steps, "summary.json step count")
        cb = (out / "codebook.bin").read_bytes()
        d = cfg.get("model", {}).get("d_code", 8) // cfg.get("vq", {}).get("n_group", 1)
        _require(len(cb) == 24 + 8 * (m * d + 2 * d), "codebook.bin size")
        for line in (out / "replacements.jsonl").read_text().splitlines():
            json.loads(line)
    else:
        study = cfg["init_study"]
        header, rows = _read_csv(out / "init_study.csv")
        _require(header == ["seed"] + study["methods"], f"init_study.csv header {header}")
        _require(len(rows) == study["n_seeds"], "init_study.csv row count")
        for row in rows:
            div = {k: _finite(v, "init_study.csv") for k, v in zip(header[1:], row[1:])}
            # acceptance criterion 14
            _require(0.0 < div["kmeans"] <= div["data_subset"] < div["normal_kaiming"],
                     f"init_study.csv: divergence ordering broken in {row}")
            values.update({f"init_study.csv:{row[0]}:{k}": v for k, v in div.items()})
    for key, value in sorted(summary.items()):
        if isinstance(value, (int, float)):
            values[f"summary.json:{key}"] = _finite(str(value), "summary.json")
        elif isinstance(value, dict):
            for sub, v in value.items():
                values[f"summary.json:{key}.{sub}"] = _finite(str(v), "summary.json")
    return values


def digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def reference_path(wl: Workload, smoke: bool) -> Path:
    return REFERENCE_DIR / ("smoke" if smoke else "full") / f"{wl.name}.json"


def drift_from_reference(ref: dict, values: dict[str, float]) -> tuple[float, bool]:
    """Largest absolute difference from the stored values, and whether every
    difference is within DRIFT_TOLERANCE relative to max(1, |reference|)."""
    if set(ref) != set(values):
        raise OutputError("output values do not match the reference's keys")
    drift, within = 0.0, True
    for key, want in ref.items():
        diff = abs(values[key] - want)
        drift = max(drift, diff)
        within = within and diff <= DRIFT_TOLERANCE * max(1.0, abs(want))
    return drift, within


# ---------------------------------------------------------------------------
# child processes

def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(wl: Workload, cfg: dict, traced: bool, workdir: Path) -> dict:
    """Run one repeat; return its timings, counters and output check."""
    workdir.mkdir(parents=True)
    (workdir / "input.json").write_text(json.dumps(cfg))
    out = workdir / "out"
    spec = {"src": str(SRC), "trace": traced, "report": str(workdir / "report.json"),
            "argv": [wl.command, "--config", str(workdir / "input.json"), "--out", str(out)]}
    (workdir / "spec.json").write_text(json.dumps(spec))
    result = {"seed": cfg["seed"], "traced": traced, "ok": False}
    t_spawn = clock()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(workdir / "spec.json")],
                              env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        result["error"] = f"timed out after {CHILD_TIMEOUT_S} s"
        return result
    t_exit = clock()
    if proc.returncode != 0:
        result["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        return result
    try:
        report = json.loads((workdir / "report.json").read_text())
        stamps = report["stamps"]
        setup_end = stamps[wl.setup_stamp]
        step_stamps = report[wl.step_stamps]
        result.update({
            "setup_s": setup_end - t_spawn,
            "run_s": stamps["run_end"] - setup_end,
            "wall_s": t_exit - t_spawn,
            "import_s": stamps["import_end"] - stamps["import_start"],
            "samples": wl.samples(cfg),
            "step_ms": [1e3 * (b - a) for a, b in zip(step_stamps, step_stamps[1:])],
            "peak_rss_mb": report["maxrss_kb"] / 1024.0,
            "cpu_s": report["utime_s"] + report["stime_s"],
            "blas_threads": report["blas_threads"],
            "counters": report["counters"],
            "digests": digests(out),
        })
        if traced:
            result["layers"] = aggregate_spans(report["spans"])
        result["values"] = check_outputs(wl, cfg, out)
    except (OutputError, OSError, ValueError, KeyError) as exc:
        result["error"] = f"output check: {exc!r}"
        return result
    result["ok"] = True
    return result


def aggregate_spans(spans: dict) -> dict[str, dict]:
    """Per span name: call count, total time and self time (total minus the
    time covered by child spans)."""
    n = len(spans["name"])
    dur = [spans["end"][i] - spans["start"][i] for i in range(n)]
    child_time = [0.0] * n
    for i, parent in enumerate(spans["parent"]):
        if parent >= 0:
            child_time[parent] += dur[i]
    layers = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in spans["names"]}
    for i in range(n):
        entry = layers[spans["names"][spans["name"][i]]]
        entry["calls"] += 1
        entry["total_s"] += dur[i]
        entry["self_s"] += dur[i] - child_time[i]
    return layers


def import_breakdown() -> dict[str, float]:
    """`python -X importtime -c "import vqkit"` in a fresh child: cumulative
    seconds of vqkit, and of the outermost scipy modules it pulls in."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import vqkit"
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    entries = []   # (depth, name, cumulative_s), in completion order
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)$", line)
        if m:
            entries.append((len(m.group(2)) // 2, m.group(3), int(m.group(1)) * 1e-6))
    vqkit_s = scipy_s = 0.0
    ancestors: list[str] = []  # names on the path to the current entry
    for depth, name, cum in reversed(entries):  # parents come before children
        del ancestors[depth:]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a == "scipy" or a.startswith("scipy.") for a in ancestors):
            scipy_s += cum
        if name == "vqkit" and depth == 0:
            vqkit_s = cum
        ancestors.append(name)
    return {"vqkit_s": vqkit_s, "scipy_s": scipy_s}


# ---------------------------------------------------------------------------
# metrics

def _median(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def end_to_end(results: list[dict]) -> dict[str, tuple[float, str]]:
    """setup_s is the median repeat; the other times are the slowest repeat's.

    On a shared host each repeat runs partly in a fast and partly in a slow
    speed mode, and the fast share of a run varies from run to run. The
    slowest repeat sits at the slow-mode ceiling, so it repeats between runs
    where the median does not (see README.md, "Noise on this machine")."""
    steps = [ms for r in results for ms in r["step_ms"]]
    return {
        "setup_s": (_median(results, "setup_s"), "s"),
        "run_s": (max(r["run_s"] for r in results), "s"),
        "wall_s": (max(r["wall_s"] for r in results), "s"),
        "samples_per_s": (min(r["samples"] / r["run_s"] for r in results), "1/s"),
        "step_ms_p50": (max(statistics.median(r["step_ms"]) for r in results), "ms"),
        "step_ms_p90": (statistics.quantiles(steps, n=10)[-1], "ms"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MB"),
    }


COUNT_METRICS = ("autodiff.nodes", "codebook.distances.calls", "codebook.distances.cells",
                 "codebook.distances.bytes", "initialization.lloyd_step.calls",
                 "vqlayer.quantize.calls", "vqlayer.lru_replace.codes_replaced",
                 "metrics.gradient_gap.calls", "training.sgd_step.calls")


def layer_metrics(wl: Workload, cfg: dict, traced: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced repeat."""
    layers, counters = traced["layers"], traced["counters"]

    def one(name, field="self_s"):
        return layers.get(name, {}).get(field, 0)

    fwd = [v for k, v in layers.items() if k.startswith("autodiff.fwd.")]
    fwd_self = sum(v["self_s"] for v in fwd)
    fwd_nodes = sum(v["calls"] for v in fwd)
    nodes = counters["autodiff.nodes"]
    bwd_self = one("autodiff.backward")
    per_node = (fwd_self / fwd_nodes if fwd_nodes else 0.0) + (bwd_self / nodes if nodes else 0.0)
    scheduled = wl.resets_scheduled(cfg)
    return {
        "autodiff.forward.self_s": (fwd_self, "s"),
        "autodiff.backward.self_s": (bwd_self, "s"),
        "autodiff.nodes": (nodes, "count"),
        "autodiff.us_per_node": (1e6 * per_node, "us"),
        "codebook.distances.calls": (one("codebook.distances", "calls"), "count"),
        "codebook.distances.self_s": (one("codebook.distances"), "s"),
        "codebook.distances.cells": (counters["codebook.distances.cells"], "count"),
        "codebook.distances.bytes": (counters["codebook.distances.bytes"], "B_computed"),
        "codebook.sample.self_s": (one("codebook.sample"), "s"),
        "codebook.save.self_s": (one("codebook.save"), "s"),
        "initialization.lloyd_step.calls": (one("initialization.lloyd_step", "calls"), "count"),
        "initialization.lloyd_step.self_s": (one("initialization.lloyd_step"), "s"),
        "initialization.kmeans_pp_seed.self_s": (one("initialization.kmeans_pp_seed"), "s"),
        "vqlayer.quantize.calls": (one("vqlayer.quantize", "calls"), "count"),
        "vqlayer.quantize.self_s": (one("vqlayer.quantize"), "s"),
        "vqlayer.quantize.total_s": (one("vqlayer.quantize", "total_s"), "s"),
        "vqlayer.commitment_codebook_grads.self_s": (one("vqlayer.commitment_codebook_grads"), "s"),
        "vqlayer.hooks.self_s": (one("vqlayer.lru_replace") + one("vqlayer.affine_update_ema")
                                 + one("vqlayer.kmeans_reset"), "s"),
        "vqlayer.lru_replace.codes_replaced": (counters["vqlayer.lru_replace.codes_replaced"],
                                               "count"),
        "vqlayer.kmeans_reset.done_ratio": (
            one("vqlayer.kmeans_reset", "calls") / scheduled if scheduled else 1.0, "ratio"),
        "metrics.gradient_gap.calls": (one("metrics.gradient_gap", "calls"), "count"),
        "metrics.gradient_gap.self_s": (one("metrics.gradient_gap"), "s"),
        "metrics.gradient_gap.total_s": (one("metrics.gradient_gap", "total_s"), "s"),
        "metrics.divergence.self_s": (one("metrics.divergence"), "s"),
        "metrics.write_metrics_csv.self_s": (one("metrics.write_metrics_csv"), "s"),
        "training.sgd_step.calls": (one("training.sgd_step", "calls"), "count"),
        "training.sgd_step.self_s": (one("training.sgd_step"), "s"),
        "training.loop.self_s": (one("training.loop"), "s"),
        "experiments.resolve_config.self_s": (one("experiments.resolve_config"), "s"),
        "experiments.gen_mixture.self_s": (one("experiments.gen_mixture"), "s"),
        "experiments.build_codebook.total_s": (one("experiments.build_codebook", "total_s"), "s"),
    }


# ---------------------------------------------------------------------------
# running a workload

def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "not installed"

    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "blas_threads_set": BLAS_THREADS, "loadavg_start": os.getloadavg()[0]}


def run_repeats(wl: Workload, seed: int, seconds: float, trace: bool, smoke: bool,
                workdir: Path) -> list[dict]:
    """Repeat the workload in fresh children until `seconds` have passed.
    Repeat 0 runs at REFERENCE_SEED; with tracing, odd repeats are traced."""
    start, results = clock(), []
    min_repeats = MIN_REPEATS_TRACED if trace else MIN_REPEATS
    while True:
        elapsed = clock() - start
        i = len(results)
        # Stop at the repeat boundary nearest to `seconds`.
        typical = statistics.median(r.get("wall_s", 0.0) for r in results) if results else 0.0
        if i >= min_repeats and elapsed + typical / 2 >= seconds:
            break
        if results and elapsed + max(r.get("wall_s", 0.0) for r in results) > RUN_LIMIT_S:
            break
        cfg = wl.make_config(REFERENCE_SEED if i == 0 else seed, smoke)
        results.append(run_child(wl, cfg, trace and i % 2 == 1, workdir / f"r{i}"))
        shutil.rmtree(workdir / f"r{i}", ignore_errors=True)
    return results


def check_repeats(wl: Workload, results: list[dict], smoke: bool) -> dict:
    """Mark repeats failed when they differ from another repeat at the same
    seed or from the reference; return the reference comparison."""
    def fail(r, msg):
        if r["ok"]:
            r["ok"], r["error"] = False, msg

    by_seed: dict[int, list[dict]] = {}
    for r in results:
        if r["ok"]:
            by_seed.setdefault(r["seed"], []).append(r)
    for group in by_seed.values():
        if len({json.dumps(r["digests"], sort_keys=True) for r in group}) > 1:
            for r in group:
                fail(r, "outputs are not byte-identical across repeats at one seed")
    traced = [r for r in results if r["ok"] and r["traced"]]
    if len({tuple(r["counts"][k] for k in COUNT_METRICS) for r in traced}) > 1:
        for r in traced:
            fail(r, "count metrics differ between traced repeats at one seed")

    check = {"output_drift": None, "bit_identical_to_reference": False}
    ref_run = results[0]
    path = reference_path(wl, smoke)
    if not path.is_file():
        fail(ref_run, f"no reference outputs at {path.relative_to(ROOT)}")
    elif ref_run["ok"]:
        ref = json.loads(path.read_text())
        try:
            drift, within = drift_from_reference(ref["values"], ref_run["values"])
        except OutputError as exc:
            fail(ref_run, str(exc))
        else:
            check["output_drift"] = drift
            check["bit_identical_to_reference"] = ref_run["digests"] == ref["digests"]
            if not within:
                fail(ref_run, f"outputs drift {drift:.3g} from the reference, beyond "
                              f"{DRIFT_TOLERANCE:g} relative")
    return check


def measure(args) -> int:
    wl = WORKLOADS[args.workload]
    env = environment()
    # Compile vqkit's bytecode first: users pay that once, not on every run.
    compileall.compile_dir(str(SRC / "vqkit"), quiet=1)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        results = run_repeats(wl, args.seed, args.seconds, bool(args.trace), args.smoke, workdir)
        for r in results:
            if r["ok"] and r["traced"]:
                cfg = wl.make_config(r["seed"], args.smoke)
                r["layer_metrics"] = layer_metrics(wl, cfg, r)
                r["counts"] = {k: r["layer_metrics"][k][0] for k in COUNT_METRICS}
        imports = import_breakdown() if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check = check_repeats(wl, results, args.smoke)

    ok = [r for r in results if r["ok"]]
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    env["loadavg_end"] = os.getloadavg()[0]
    env["overloaded"] = max(env["loadavg_start"], env["loadavg_end"]) > (os.cpu_count() or 1)
    env["blas_threads_seen"] = sorted({n for r in ok for n in r["blas_threads"].values()})
    env["cpu_over_wall"] = (sum(r["cpu_s"] for r in ok) / sum(r["wall_s"] for r in ok)
                            if ok else None)
    for r in results:
        if not r["ok"]:
            print(f"repeat at seed {r['seed']} failed: {r['error']}", file=sys.stderr)
    if env["overloaded"]:
        print(f"warning: load average above nproc={os.cpu_count()}; timings are suspect",
              file=sys.stderr)
    if not untraced or (args.trace and not traced):
        print("no repeat succeeded; no metrics to report", file=sys.stderr)
        return 1

    failed = len(results) - len(ok)
    if args.trace:
        # counts agree across traced repeats (checked above); times take the median
        metrics = {name: (value if name in COUNT_METRICS else
                          statistics.median(r["layer_metrics"][name][0] for r in traced), unit)
                   for name, (value, unit) in traced[0]["layer_metrics"].items()}
        same_seed = [r for r in untraced if r["seed"] == args.seed] or untraced
        metrics.update({
            "import.vqkit_s": (_median(ok, "import_s"), "s"),
            "import.scipy_s": (imports["scipy_s"], "s"),
            "trace.overhead_ratio": (_median(traced, "run_s") / _median(same_seed, "run_s"),
                                     "ratio"),
            "failed_ratio": (failed / len(results), "ratio"),
            # -1 when the reference repeat failed; `correct` is then false
            "output_drift": (check["output_drift"] if check["output_drift"] is not None
                             else -1.0, "abs_diff"),
        })
    else:
        metrics = end_to_end(untraced)

    steps = sum(len(r["step_ms"]) for r in untraced)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {wl.name}: seed {args.seed}, {len(results)} repeats "
          f"({len(traced)} traced), {steps} step intervals untraced")
    print(f"check: failed {failed}/{len(results)}, output_drift {check['output_drift']}, "
          f"bit-identical to reference: {check['bit_identical_to_reference']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    if args.trace:
        fired = {}
        for r in traced:
            for name, layer in r["layers"].items():
                fired[name] = max(fired.get(name, 0), layer["calls"])
        print("spans " + json.dumps(fired, sort_keys=True))

    correct = failed == 0 and check["output_drift"] is not None
    line = {"correct": correct, "attempted": len(results), "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}
    report = dict(line, env=env, check=check, workload=wl.name, seed=args.seed,
                  smoke=args.smoke, imports=imports,
                  repeats=[{k: v for k, v in r.items()
                            if k not in ("step_ms", "layers", "values", "digests")}
                           for r in results])
    suffix = "-smoke" if args.smoke else ""
    (OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}{suffix}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True, default=str))
    print(json.dumps(line, allow_nan=False))
    return 0


def record_reference(smoke: bool) -> int:
    """Store each workload's outputs at REFERENCE_SEED from the current code."""
    for wl in WORKLOADS.values():
        workdir = OUT_DIR / f"reference-{os.getpid()}"
        cfg = wl.make_config(REFERENCE_SEED, smoke)
        try:
            r = run_child(wl, cfg, False, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if not r["ok"]:
            print(f"{wl.name}: {r['error']}", file=sys.stderr)
            return 1
        path = reference_path(wl, smoke)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"seed": REFERENCE_SEED, "config": cfg,
                                    "digests": r["digests"], "values": r["values"]},
                                   indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit: subprocess.run then kills and reaps the
    # running child, and the work directory is removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "vqkit" / "__init__.py").is_file():
        print(f"no vqkit sources at {SRC}; run from a vqkit checkout", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    if args.record_reference:
        return record_reference(args.smoke)
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
