"""Stretched internal DLA on the half-plane lattice and its
first-passage-percolation twin.

The package simulates two pictures of the same random forest on the
rotated upper-half-plane lattice and verifies that they agree:

* ``fpp``: independent exponential edge weights whose rate halves per
  level; geodesics to the boundary form a spanning forest.
* ``sidla``: boundary sites emit coin-walking particles that grow one
  tree each; the tree laws coincide with the geodesic forest.
* ``fpp.Forest``: the one record both pictures produce (window, label,
  seed, per-vertex times, parent directions and root labels), which the
  snapshot, analysis, rendering and coupling layers all take.
* ``coupling``: the explicit ring construction that turns one picture
  into the other, replayable and checkable bit for bit.
* ``analysis`` / ``render`` / ``cli``: exact identities, statistics,
  drawings, and the command-line front end.
"""

__version__ = "0.1.0"
