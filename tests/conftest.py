"""Shared fixtures."""
import pytest

import vqkit.codebook as cbk_mod


@pytest.fixture
def row_pieces(monkeypatch):
    """Force the distance kernel's row pieces on or off.

    `row_pieces.force(on, cells)` sets the smallest piece to `cells` cells
    (on) or to a size that no block holds twice (off); `row_pieces.cut`
    counts the blocks that were cut into more than one piece."""
    real_row_pieces = cbk_mod._row_pieces

    class Pieces:
        cut = 0

        def force(self, on, cells=1):
            monkeypatch.setattr(cbk_mod, "PIECE_CELLS", cells if on else 1 << 62)

        def row_pieces(self, lo, hi, cols):
            pieces = real_row_pieces(lo, hi, cols)
            self.cut += len(pieces) > 1
            return pieces

    pieces = Pieces()
    monkeypatch.setattr(cbk_mod, "_row_pieces", pieces.row_pieces)
    return pieces
