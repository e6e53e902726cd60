"""Artifact files, the one module that serializes them and reads strict JSON:
each is written whole or not at all, and a NaN or infinite value is a
NumericFailure before anything is written, so a run that exits 0 leaves only
strict JSON and finite CSV."""
from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager, suppress
from pathlib import Path

from .errors import NumericFailure


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file beside `path` for writing. When the block ends
    normally the file replaces `path` (`os.replace`); when it raises, the
    temporary file is removed and `path` is left as it was. An OSError is
    raised again with its errno and reason but naming `path`, not the
    temporary file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        # under a regular file, unlinking fails as the open did
        with suppress(OSError):
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror or str(exc), str(path)) from exc
        raise


def write_json(path, obj) -> None:
    """Write `obj` as strict JSON. A NaN or infinite value is a
    NumericFailure, and `path` is not written."""
    path = Path(path)
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericFailure(f"{path.name}: {exc}") from exc
    with atomic_open(path) as fh:
        fh.write(text + "\n")


def read_json(path):
    """The value of the UTF-8 JSON file `path`, read as strictly as `write_json`
    writes: a NaN, an Infinity or a real number past the float range (`1e999`)
    raises ValueError, as does a file that is not UTF-8, not JSON or nested too deep."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text, parse_float=_finite_float, parse_constant=_finite_float)
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply") from exc


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def write_jsonl(path, records) -> None:
    """Write one compact, strict JSON object per line. A NaN or infinite
    value is a NumericFailure, and `path` is not written."""
    path = Path(path)
    try:
        lines = [json.dumps(r, sort_keys=True, allow_nan=False) + "\n" for r in records]
    except ValueError as exc:
        raise NumericFailure(f"{path.name}: {exc}") from exc
    with atomic_open(path) as fh:
        fh.writelines(lines)


def write_csv(path, header, rows) -> None:
    """Write `rows`, float cells with 17 significant digits and lines ended by
    "\\n". A NaN or infinite float is a NumericFailure, and `path` is not
    written."""
    path = Path(path)
    bad = next((v for row in rows for v in row
                if isinstance(v, float) and not math.isfinite(v)), None)
    if bad is not None:
        raise NumericFailure(f"{path.name}: non-finite value {bad}")
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format(float(v), ".17g") if isinstance(v, float) else v
                          for v in row] for row in rows)
