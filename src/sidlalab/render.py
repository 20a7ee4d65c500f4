"""Deterministic SVG pictures of forests.

One line segment per tree edge, boundary drawn along the bottom, levels
increasing upward.  Each tree is colored by a hash of its root so that
adjacent trees separate visually; one root can be highlighted in red.
Seam-crossing edges are drawn from the head's local tail position, so a
cyclic window never produces segments across the full image.  Output text
depends only on the input arrays and options.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fileio import cell_text
from .fpp import Forest
from .hashing import hash_u64

_PALETTE_SEED = 0x5E4A7
_HIGHLIGHT_COLOR = "#d81b2a"
# Largest error, as a fraction of a lattice step (scale drawing units), with
# which a coordinate's 6-digit text may read back
_READBACK_TOL = 0.01


def _fmt(v: float) -> str:
    return format(v, ".6g")


def root_color(x: int) -> str:
    """Deterministic hash palette; hue spread over the wheel, red-ish band
    avoided so the highlight stays unique."""
    hue = 25 + (hash_u64(_PALETTE_SEED, x) % 300)
    return f"hsl({hue},62%,42%)"


@dataclass(frozen=True)
class RenderOptions:
    highlight_root: int | None = 0  # the root's x
    scale: float = 12.0
    max_level: int | None = None

    def __post_init__(self) -> None:
        if not self.scale > 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")
        if self.max_level is not None and self.max_level < 0:
            raise ConfigError(f"max_level must be nonnegative, got {self.max_level}")


def _coordinate_texts(axis: str, values: list[float], s: float, W: int, M: int) -> list[str]:
    """The texts of a table of coordinates; ConfigError, before anything is
    written, if one reads back more than _READBACK_TOL of a step off."""
    texts = [_fmt(v) for v in values]
    err = np.abs(np.array(texts, dtype=float) - values)
    i = int(np.argmax(err))
    if err[i] > _READBACK_TOL * s:
        raise ConfigError(f"the {W}x{M} drawing at scale {s:g} needs more than 6 "
                          f"significant digits: {axis} = {values[i]!r} would be written "
                          f"{texts[i]}, {err[i] / s:.3g} of a lattice step off "
                          f"(at most {_READBACK_TOL:g})")
    return texts


def coordinate_texts(W: int, M: int, options: RenderOptions) -> tuple[list[str], list[str]]:
    """The x texts (x = -1..2W) and the y texts (levels 0..top) of a W x M
    drawing; ConfigError if its extent is no finite double or a text would
    read back more than _READBACK_TOL of a step off.  They depend on W, the
    drawn top level and the scale alone, so a drawing can be refused before
    its forest is sampled."""
    top = M if options.max_level is None else min(options.max_level, M)
    s = options.scale
    extent = max(2 * W + 2, top + 2) * s
    if not np.isfinite(extent):
        raise ConfigError(f"scale {s} makes the {W}x{M} drawing {extent} wide; "
                          f"its extent must be a finite double")
    return (_coordinate_texts("x", [(x + 1.0) * s for x in range(-1, 2 * W + 1)], s, W, M),
            _coordinate_texts("y", [(top - y + 1.0) * s for y in range(top + 1)], s, W, M))


def _cells(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """A table of ASCII texts as (n, k) uint8 cells, NUL-padded, and the
    length of each."""
    cells = np.array(texts, dtype=bytes)
    cells = cells.view(np.uint8).reshape(len(texts), cells.itemsize)
    return cells, np.count_nonzero(cells, axis=1)


def render_svg(forest: Forest, options: RenderOptions = RenderOptions()) -> bytearray:
    """Render a forest as an SVG document, in ASCII bytes.

    Root labels must be boundary roots (fpp.check_invariants); vertices
    labeled -1 are not drawn.  Each segment is a line of pieces from small
    tables: x by tail and by head x, two texts per level, and the stroke
    by root column, with the highlight at index W.  The document's size is
    summed from the pieces' lengths, then the pieces are copied level by
    level into one buffer of that size: the plain segments in level order,
    then the highlighted ones.
    """
    win = forest.window
    W, M = win.W, win.M
    # x_text[x + 1] for x in -1..2W, y_text[y] for y in 0..top
    x_text, y_text = coordinate_texts(W, M, options)
    top, s = len(y_text) - 1, options.scale
    hr = options.highlight_root
    highlight_x = -1 if hr is None else hr % win.period

    width = _fmt((2 * W + 2) * s)
    height = _fmt((top + 2) * s)
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f"  <title>{forest.label} seed={forest.seed} "
        f"window={W}x{M}</title>\n"
        f'  <rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>\n'
    ).encode()

    colors = [root_color(2 * k) for k in range(W)]
    stroke = _fmt(0.16 * s)
    x_cells, x_len = _cells(x_text)
    stroke_cells, stroke_len = _cells([
        f'stroke="{c}" stroke-width="{stroke}" stroke-linecap="round"/>\n'
        for c in colors + [_HIGHLIGHT_COLOR]])
    line = b'  <line x1="'
    level_text = [(f'" y1="{y_text[y - 1]}" x2="'.encode(), f'" y2="{y_text[y]}" '.encode())
                  for y in range(1, top + 1)]
    r = _fmt(0.2 * s)
    circles = "".join(
        f'  <circle cx="{x_text[2 * j + 1]}" cy="{y_text[0]}" r="{r}" '
        f'fill="{_HIGHLIGHT_COLOR if 2 * j == highlight_x else colors[j]}"/>\n'
        for j in range(W)).encode() + b"</svg>\n"

    labels, pdirs = forest.root_x, forest.parent_dir
    cols = np.arange(W)

    def segments(y: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The plain and the red segments into level y, each as the table
        rows of their tail x, head x and stroke."""
        row = labels[y]
        drawn = row >= 0
        red = drawn & (row == highlight_x)
        hx = (y & 1) + 2 * cols + 1
        # tail x + 1 = head x + 1 - dx, with dx = -1 for LEFT (code 0) and +1 for RIGHT
        tx = hx + 1 - 2 * pdirs[y].astype(np.int64)
        plain = drawn & ~red
        return [(tx[plain], hx[plain], row[plain] >> 1),
                (tx[red], hx[red], np.full(np.count_nonzero(red), W))]

    # the exact size first, so the document is built in one buffer
    size = [0, 0]
    for y, (a, b) in enumerate(level_text, 1):
        for k, (tails, heads, strokes) in enumerate(segments(y)):
            size[k] += (len(line) + len(a) + len(b)) * len(tails) + int(
                x_len[tails].sum() + x_len[heads].sum() + stroke_len[strokes].sum())
    svg = bytearray(len(head) + size[0] + size[1] + len(circles))
    svg[:len(head)] = head
    at = [len(head), len(head) + size[0]]
    for y, (a, b) in enumerate(level_text, 1):
        for k, (tails, heads, strokes) in enumerate(segments(y)):
            if len(tails):
                text = cell_text([line, x_cells[tails], a, x_cells[heads], b,
                                  stroke_cells[strokes]])
                svg[at[k]:at[k] + len(text)] = text
                at[k] += len(text)
    svg[-len(circles):] = circles
    return svg
