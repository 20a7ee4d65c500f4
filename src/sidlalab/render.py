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
from .fpp import Forest
from .hashing import hash_u64
from .lattice import Vertex

_PALETTE_SEED = 0x5E4A7
_HIGHLIGHT_COLOR = "#d81b2a"


def _fmt(v: float) -> str:
    return format(v, ".6g")


def root_color(x: int) -> str:
    """Deterministic hash palette; hue spread over the wheel, red-ish band
    avoided so the highlight stays unique."""
    hue = 25 + (hash_u64(_PALETTE_SEED, x) % 300)
    return f"hsl({hue},62%,42%)"


@dataclass(frozen=True)
class RenderOptions:
    highlight_root: Vertex | None = Vertex(0, 0)
    scale: float = 12.0
    max_level: int | None = None

    def __post_init__(self) -> None:
        if not self.scale > 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")
        if self.max_level is not None and self.max_level < 0:
            raise ConfigError(f"max_level must be nonnegative, got {self.max_level}")


def render_svg(forest: Forest, options: RenderOptions = RenderOptions()) -> str:
    """Render a forest as an SVG document.

    Root labels must be boundary roots (fpp.check_invariants); vertices
    labeled -1 are not drawn.  Coordinates and stroke attributes come from
    small tables, one per x, per level and per root, and each level's
    segments are formatted by one template.
    """
    win = forest.window
    W, M = win.W, win.M
    top = M if options.max_level is None else min(options.max_level, M)
    s = options.scale
    extent = max(2 * W + 2, top + 2) * s
    if not np.isfinite(extent):
        raise ConfigError(f"scale {s} makes the {W}x{M} drawing {extent} wide; "
                          f"its extent must be a finite double")
    highlight_x = -1
    if options.highlight_root is not None:
        hr = options.highlight_root
        highlight_x = (hr.x if isinstance(hr, Vertex) else int(hr)) % win.period

    def sx(x: float) -> float:
        return (x + 1.0) * s

    def sy(y: float) -> float:
        return (top - y + 1.0) * s

    width = _fmt((2 * W + 2) * s)
    height = _fmt((top + 2) * s)
    chunks = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f"  <title>{forest.label} seed={forest.seed} "
        f"window={W}x{M}</title>\n"
        f'  <rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>\n'
    ]

    # x_text[x + 1] for tail and head x in -1..2W, y_text[y] for y in 0..top
    x_text = np.array([_fmt(sx(x)) for x in range(-1, 2 * W + 1)], dtype=object)
    y_text = [_fmt(sy(y)) for y in range(top + 1)]
    colors = [root_color(2 * k) for k in range(W)]
    stroke = _fmt(0.16 * s)
    tail = f'" stroke-width="{stroke}" stroke-linecap="round"/>\n'
    stroke_text = np.array([f'stroke="{c}{tail}' for c in colors], dtype=object)
    red_text = f'stroke="{_HIGHLIGHT_COLOR}{tail}'

    red: list[str] = []
    labels = forest.root_x
    pdirs = forest.parent_dir
    cols = np.arange(W, dtype=np.int64)
    for y in range(1, top + 1):
        row = labels[y]
        drawn = row >= 0
        hx = (y & 1) + 2 * cols[drawn]
        # tail x = hx - dx, with dx = -1 for LEFT (code 0) and +1 for RIGHT
        tx = hx + 1 - 2 * pdirs[y][drawn].astype(np.int64)
        roots = row[drawn]
        segment = f'  <line x1="%s" y1="{y_text[y - 1]}" x2="%s" y2="{y_text[y]}" '
        is_red = roots == highlight_x
        stroke_of = stroke_text[roots >> 1]
        stroke_of[is_red] = red_text
        for mask, out in ((~is_red, chunks), (is_red, red)):
            n = int(np.count_nonzero(mask))
            cells: list = [None] * (3 * n)
            cells[0::3] = x_text[tx[mask] + 1].tolist()
            cells[1::3] = x_text[hx[mask] + 1].tolist()
            cells[2::3] = stroke_of[mask].tolist()
            out.append((segment + "%s") * n % tuple(cells))
    chunks.extend(red)

    r = _fmt(0.2 * s)
    for j in range(W):
        color = _HIGHLIGHT_COLOR if 2 * j == highlight_x else colors[j]
        chunks.append(
            f'  <circle cx="{x_text[2 * j + 1]}" cy="{y_text[0]}" r="{r}" '
            f'fill="{color}"/>\n'
        )
    chunks.append("</svg>\n")
    return "".join(chunks)
