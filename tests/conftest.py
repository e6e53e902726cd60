"""Shared fixtures."""
from collections import Counter

import pytest

import vqkit.codebook as cbk_mod
from vqkit.metrics import write_metrics_csv


@pytest.fixture
def row_pieces(monkeypatch):
    """Force the distance kernel's row pieces on or off.

    `row_pieces.force(on, cells)` sets the smallest piece to `cells` cells
    (on) or to a size that no chunk holds twice (off); `row_pieces.cut`
    counts the chunks that were cut into more than one piece."""
    real_row_blocks = cbk_mod._row_blocks

    class Pieces:
        cut = 0

        def force(self, on, cells=1):
            monkeypatch.setattr(cbk_mod, "PIECE_CELLS", cells if on else 1 << 62)

        def row_blocks(self, n, cols):
            blocks = real_row_blocks(n, cols)
            per_chunk = Counter(lo // cbk_mod.CHUNK_ROWS for lo, _ in blocks)
            self.cut += sum(count > 1 for count in per_chunk.values())
            return blocks

    pieces = Pieces()
    monkeypatch.setattr(cbk_mod, "_row_blocks", pieces.row_blocks)
    return pieces


@pytest.fixture
def metrics_bytes(tmp_path):
    """`metrics_bytes(records)`: the bytes `write_metrics_csv` writes for
    `records`, so runs compare as bit-strictly as their artifact."""
    def write(records):
        path = tmp_path / "compare.csv"
        write_metrics_csv(records, path)
        return path.read_bytes()
    return write
