"""Geometry of the rotated upper-half-plane lattice.

Vertices are integer pairs ``(x, y)`` with ``x + y`` even and ``y >= 0``.
Every vertex emits two directed edges, one step left-up ``(-1, 1)`` and one
right-up ``(1, 1)``, so each edge climbs exactly one level.  An edge is
named by its tail and its ``Dir`` code d; its head is ``(x + 2d - 1, y + 1)``,
and the level of an edge is the level of its head.  Level 0 is the boundary; trees grown by the
simulations are rooted there and every non-root vertex lies strictly above
its parent, which makes "distance from the boundary" and "level" the same
number for tree vertices.

Simulations run on a finite cyclic window: x is reduced modulo ``2 * W`` so
each level holds exactly W vertices, column j of level y at
``x = (y & 1) + 2j``, and only levels ``0..M`` exist.  A
tree of height m spans at most m + 1 columns, so with ``W >= M + 1`` no
tree can ever wrap onto itself; ``W == M`` is also accepted (the single
wrap case would need a maximal-width tree at exactly the top level).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ConfigError


class Dir(IntEnum):
    """The direction of an edge: the horizontal sign of the step to its head."""

    LEFT = 0
    RIGHT = 1


@dataclass(frozen=True)
class Window:
    """Cyclic simulation window: W columns per level, levels 0..M."""

    W: int
    M: int

    def __post_init__(self) -> None:
        if self.W < 1:
            raise ConfigError(f"window width must be >= 1, got {self.W}")
        if self.M < 1:
            raise ConfigError(f"height cap must be >= 1, got {self.M}")
        if self.W < self.M:
            raise ConfigError(
                f"window width {self.W} too small for height cap {self.M}; "
                f"need W >= M so a single tree cannot wrap onto itself"
            )

    @property
    def period(self) -> int:
        return 2 * self.W


def tail_column(W: int, level, col, d):
    """Column of the tail of the edge that enters column col of a level by
    direction d.

    It depends only on the parity of the level: a RIGHT step into an even
    level starts one column to the left, a LEFT step into an odd level one
    column to the right, and the other two start in the head's own column.
    """
    return (col + ((level & 1) - d)) % W


def incoming_tail_index(W: int, head: np.ndarray, d) -> np.ndarray:
    """Flat index ``level * W + column`` of the tail of the edge that
    enters each flat head index by direction d (one Dir code per head)."""
    level, col = np.divmod(head, W)
    return (level - 1) * W + tail_column(W, level, col, d)
