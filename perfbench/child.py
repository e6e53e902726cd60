"""One benchmark repeat: run one vqkit CLI command in this fresh process and
record, from outside the library, when its phases happened.

Usage: python3 child.py <spec.json>

The spec names the checkout's ``src`` directory, the CLI arguments, whether
to trace, and where to write the report. The library is never edited: hooks
replace module and class attributes after ``import vqkit`` and call the
original function unchanged, so outputs stay byte-identical.

Every hooked function is rebound at every name its callers look it up by: the
defining module, each vqkit module that imported it by name, and the package
re-export. Untraced runs only stamp a few boundaries (set-up end, run end,
per-step completions). Traced runs also record a span (name, start, end,
parent) around every function in ``SPANS``; spans stay in memory and are
written when the command returns.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time


def clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so stamps compare with the parent's.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# (module, attribute or Class.method, span name). Tape primitives share the
# prefix "autodiff.fwd." so the parent can sum them into forward time.
_TAPE_PRIMITIVES = ("leaf", "matmul", "add", "sub", "mul", "scale", "tanh", "relu",
                    "sum", "mse", "stop_gradient", "straight_through", "gather_rows",
                    "slice_rows", "reshape", "row_scale", "affine_rows")
SPANS = [("vqkit.autodiff", f"Tape.{p}", f"autodiff.fwd.{p}") for p in _TAPE_PRIMITIVES] + [
    ("vqkit.autodiff", "Tape.backward", "autodiff.backward"),
    ("vqkit.codebook", "pairwise_distances_chunked", "codebook.distances"),
    ("vqkit.codebook", "sample_code_stochastic", "codebook.sample"),
    ("vqkit.codebook", "Codebook.save", "codebook.save"),
    ("vqkit.initialization", "init_codebook", "initialization.init_codebook"),
    ("vqkit.initialization", "kmeans", "initialization.kmeans"),
    ("vqkit.initialization", "kmeans_pp_seed", "initialization.kmeans_pp_seed"),
    ("vqkit.initialization", "lloyd_step", "initialization.lloyd_step"),
    ("vqkit.vqlayer", "quantize", "vqlayer.quantize"),
    ("vqkit.vqlayer", "commitment_codebook_grads", "vqlayer.commitment_codebook_grads"),
    ("vqkit.vqlayer", "lru_replace", "vqlayer.lru_replace"),
    ("vqkit.vqlayer", "affine_update_ema", "vqlayer.affine_update_ema"),
    ("vqkit.vqlayer", "kmeans_reset", "vqlayer.kmeans_reset"),
    ("vqkit.metrics", "gradient_gap", "metrics.gradient_gap"),
    ("vqkit.metrics", "divergence", "metrics.divergence"),
    ("vqkit.metrics", "write_metrics_csv", "metrics.write_metrics_csv"),
    ("vqkit.training", "SGD.step", "training.sgd_step"),
    ("vqkit.training", "train_joint", "training.loop"),
    ("vqkit.training", "train_alternating", "training.loop"),
    ("vqkit.experiments", "load_config", "experiments.load_config"),
    ("vqkit.experiments", "resolve_config", "experiments.resolve_config"),
    ("vqkit.experiments", "gen_mixture", "experiments.gen_mixture"),
    ("vqkit.experiments", "build_codebook", "experiments.build_codebook"),
    ("vqkit.experiments", "run_training", "experiments.run_training"),
    ("vqkit.experiments", "run_init_study", "experiments.run_init_study"),
]


class Recorder:
    """Stamps, exact counters and (when tracing) spans of one process."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.stamps: dict[str, float] = {}
        self.record_stamps: list[float] = []
        self.lloyd_stamps: list[float] = []
        self.counters = {"autodiff.nodes": 0, "codebook.distances.cells": 0,
                         "codebook.distances.bytes": 0, "vqlayer.lru_replace.codes_replaced": 0}
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.sp_name: list[int] = []
        self.sp_parent: list[int] = []
        self.sp_start: list[float] = []
        self.sp_end: list[float] = []
        self._open: list[int] = []

    def stamp(self, key: str) -> None:
        self.stamps[key] = clock()

    def stamp_once(self, key: str) -> None:
        if key not in self.stamps:
            self.stamp(key)

    def span(self, fn, name: str):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.span_names):
            self.span_names.append(name)
        sp_name, sp_parent, sp_start, sp_end, open_ = (
            self.sp_name, self.sp_parent, self.sp_start, self.sp_end, self._open)

        def wrapper(*args, **kwargs):
            i = len(sp_start)
            sp_name.append(name_id)
            sp_parent.append(open_[-1] if open_ else -1)
            sp_end.append(0.0)
            open_.append(i)
            sp_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                sp_end[i] = clock()
                open_.pop()

        return wrapper

    def spans(self) -> dict:
        return {"names": self.span_names, "name": self.sp_name, "parent": self.sp_parent,
                "start": self.sp_start, "end": self.sp_end}


def _rebind(qualname: str, module, make_wrapper) -> None:
    """Replace the object at ``module.qualname`` with ``make_wrapper(obj)`` at
    every binding: the class attribute for a method, or every vqkit module
    attribute that holds the same function object."""
    if "." in qualname:
        cls_name, meth = qualname.split(".")
        cls = getattr(module, cls_name)
        setattr(cls, meth, make_wrapper(cls.__dict__[meth]))
        return
    original = getattr(module, qualname)
    wrapper = make_wrapper(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "vqkit" or mod_name.startswith("vqkit.")):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def _calling(before=None, after=None):
    """Wrapper factory: run ``before(args)`` and ``after(args, result)`` around
    the original call."""
    def make(fn):
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        return wrapper
    return make


def install(rec: Recorder) -> None:
    """Hook the library. A missing target raises, so a renamed function shows
    as a failed run instead of a silent zero."""
    mods = {name: sys.modules[name] for name in
            ("vqkit.autodiff", "vqkit.codebook", "vqkit.experiments",
             "vqkit.initialization", "vqkit.metrics", "vqkit.training", "vqkit.vqlayer")}
    exp, init, mtr = mods["vqkit.experiments"], mods["vqkit.initialization"], mods["vqkit.metrics"]

    # Boundaries for the end-to-end metrics, on in every run.
    setup_end = _calling(before=lambda a: rec.stamp_once("train_entry"))
    _rebind("train_joint", mods["vqkit.training"], setup_end)
    _rebind("train_alternating", mods["vqkit.training"], setup_end)
    _rebind("init_codebook", init, _calling(before=lambda a: rec.stamp_once("init_entry")))
    run_end = _calling(after=lambda a, r: rec.stamp("run_end"))
    _rebind("run_training", exp, run_end)
    _rebind("run_init_study", exp, run_end)
    _rebind("MetricsRecord", mtr, _calling(after=lambda a, r: rec.record_stamps.append(clock())))
    _rebind("lloyd_step", init, _calling(after=lambda a, r: rec.lloyd_stamps.append(clock())))
    if not rec.trace:
        return

    # Exact counters, recorded at the same boundaries as the spans.
    c = rec.counters

    def count_nodes(args):
        c["autodiff.nodes"] += len(args[0].nodes)

    def count_cells(args, result):
        c["codebook.distances.cells"] += int(result.size)
        c["codebook.distances.bytes"] += int(result.nbytes)

    def count_replaced(args, result):
        c["vqlayer.lru_replace.codes_replaced"] += len(result)

    _rebind("Tape.backward", mods["vqkit.autodiff"], _calling(before=count_nodes))
    _rebind("pairwise_distances_chunked", mods["vqkit.codebook"], _calling(after=count_cells))
    _rebind("lru_replace", mods["vqkit.vqlayer"], _calling(after=count_replaced))
    for mod_name, qualname, span_name in SPANS:
        _rebind(qualname, mods[mod_name], lambda fn, n=span_name: rec.span(fn, n))


def blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS loaded into this process (numpy and
    scipy ship their own), keyed by library file name."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    threads = {}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(lib)] = int(fn())
                break
    return threads


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    rec = Recorder(spec["trace"])
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    rec.stamp("import_start")
    import vqkit
    rec.stamp("import_end")
    if not os.path.realpath(vqkit.__file__).startswith(src + os.sep):
        print(f"vqkit imported from {vqkit.__file__}, not from {src}", file=sys.stderr)
        return 4
    from vqkit import cli

    install(rec)
    rc = cli.main(spec["argv"])
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report = {"stamps": rec.stamps, "record_stamps": rec.record_stamps,
              "lloyd_stamps": rec.lloyd_stamps, "counters": rec.counters,
              "maxrss_kb": usage.ru_maxrss, "utime_s": usage.ru_utime,
              "stime_s": usage.ru_stime, "blas_threads": blas_threads()}
    if rec.trace:
        report["spans"] = rec.spans()
    with open(spec["report"], "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
