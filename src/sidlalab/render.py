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


def _coordinate_texts(W: int, M: int, options: RenderOptions) -> list[str]:
    """The texts ``text[k] = _fmt(k * scale)``, k = 0..2W+1, of a W x M
    drawing: x (-1..2W) is drawn as ``text[x + 1]`` and level y as
    ``text[top - y + 1]``, inside the table since top <= M <= W.  ConfigError
    if the drawing's extent is no finite double or a text would read back
    more than _READBACK_TOL of a step off."""
    s = options.scale
    extent = (2 * W + 2) * s
    if not np.isfinite(extent):
        raise ConfigError(f"scale {s} makes the {W}x{M} drawing {extent} wide; "
                          f"its extent must be a finite double")
    values = [k * s for k in range(2 * W + 2)]
    texts = [_fmt(v) for v in values]
    err = np.abs(np.array(texts, dtype=float) - values)
    i = int(np.argmax(err))
    if err[i] > _READBACK_TOL * s:
        raise ConfigError(f"the {W}x{M} drawing at scale {s:g} needs more than 6 "
                          f"significant digits: x = {values[i]!r} would be written "
                          f"{texts[i]}, {err[i] / s:.3g} of a lattice step off "
                          f"(at most {_READBACK_TOL:g})")
    return texts


def _cells(texts: list) -> np.ndarray:
    """A table of ASCII texts as (n, k) uint8 cells, NUL-padded."""
    cells = np.array(texts, dtype=bytes)
    return cells.view(np.uint8).reshape(len(texts), cells.itemsize)


def render_svg(forest: Forest, options: RenderOptions = RenderOptions()) -> bytearray:
    """Render a forest as an SVG document, in ASCII bytes.

    Root labels must be boundary roots (fpp.load_snapshot derives them); vertices
    labeled -1 are not drawn.  Each segment is a line of pieces from small
    tables: x by tail and by head x (``_coordinate_texts``), two texts per
    level, and the stroke by root column.  Each level's plain segments are
    copied as one ``cell_text`` into one buffer presized at a lower bound
    of the document, as ``fileio.block_text`` does; the highlighted ones
    follow them, then the circles.
    """
    win = forest.window
    W, M = win.W, win.M
    text = _coordinate_texts(W, M, options)
    top = M if options.max_level is None else min(options.max_level, M)
    s = options.scale
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
    strokes = [f'stroke="{c}" stroke-width="{stroke}" stroke-linecap="round"/>\n'.encode()
               for c in colors + [_HIGHLIGHT_COLOR]]
    x_cells, stroke_cells = _cells(text), _cells(strokes[:W])
    r = _fmt(0.2 * s)
    circles = "".join(
        f'  <circle cx="{text[2 * j + 1]}" cy="{text[top + 1]}" r="{r}" '
        f'fill="{_HIGHLIGHT_COLOR if 2 * j == highlight_x else colors[j]}"/>\n'
        for j in range(W)).encode() + b"</svg>\n"

    labels, pdirs = forest.root_x, forest.parent_dir
    cols = np.arange(W)
    line = b'  <line x1="'
    # every drawn segment is at least as long as the shortest line there is
    shortest = len(b'  <line x1="0" y1="0" x2="0" y2="0" ') + min(map(len, strokes))
    svg = bytearray(len(head) + shortest * int(np.count_nonzero(labels[1:top + 1] >= 0)))
    svg[:len(head)] = head
    at, red = len(head), []
    for y in range(1, top + 1):
        row = labels[y]
        hx = (y & 1) + 2 * cols + 1
        # tail x + 1 = head x + 1 - dx, with dx = -1 for LEFT (code 0) and +1 for RIGHT
        tx = hx + 1 - 2 * pdirs[y].astype(np.int64)
        a = f'" y1="{text[top - y + 2]}" x2="'.encode()
        b = f'" y2="{text[top - y + 1]}" '.encode()
        drawn = row >= 0
        is_red = drawn & (row == highlight_x)
        plain = drawn & ~is_red
        level = cell_text([line, x_cells[tx[plain]], a, x_cells[hx[plain]], b,
                           stroke_cells[row[plain] >> 1]])
        svg[at:at + len(level)] = level
        at += len(level)
        red.append(cell_text([line, x_cells[tx[is_red]], a, x_cells[hx[is_red]], b, strokes[W]]))
    svg[at:] = b"".join(red) + circles
    return svg
