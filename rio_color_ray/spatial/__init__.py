"""Spatial core — pure numpy, zero Ray, all from scratch.

``h3`` / ``s2sphere`` / ``shapely`` are not available in this environment
(and BASELINE.json's north_rule mandates a from-scratch engine anyway), so:

* ``hexgrid`` — an H3-ANALOG hierarchical hex grid (aperture-7 edge-length
  scaling, resolutions 0..15, axial coordinates on an equirectangular
  plane). Ids are internally consistent, hierarchical, and support
  ring/disk enumeration for kNN; they are NOT bit-compatible with
  Uber H3 ids (documented deviation — conformance is against our own
  single-node oracle, see SURVEY.md §7 "What's hard" #2).
* ``s2`` — an S2-STYLE quadsphere cell index: unit sphere -> cube face ->
  quadratic s/t -> Hilbert curve position. Same caveat: S2-style, not
  bit-compatible with Google S2.
* ``rtree`` — STR-bulk-loaded packed R-tree over bounding boxes with a
  fully vectorized batch query, plus one-pass ray casting of candidate
  (point, polygon) pairs over a padded edge table.
* ``geo`` — haversine, web-mercator tile math.
"""

from .hexgrid import (
    hex_cell,
    hex_cell_center,
    hex_parent,
    hex_ring,
    hex_disk,
    hex_res,
    hex_edge_deg,
)
from .s2 import s2_cell, s2_parent, s2_level, s2_face
from .rtree import STRtree, pairs_in_polygons, polygon_edges
from .geo import haversine_km, mercator_tile, tile_pixel

__all__ = [
    "hex_cell",
    "hex_cell_center",
    "hex_parent",
    "hex_ring",
    "hex_disk",
    "hex_res",
    "hex_edge_deg",
    "s2_cell",
    "s2_parent",
    "s2_level",
    "s2_face",
    "STRtree",
    "polygon_edges",
    "pairs_in_polygons",
    "haversine_km",
    "mercator_tile",
    "tile_pixel",
]
