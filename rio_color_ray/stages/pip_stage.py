"""Point-in-polygon join stages — stateful, broadcast small side.

The polygon/rect table is the SMALL side (≪ memory): it rides in the
stage function's arguments (``make_stage_fn``) and is indexed with an
STRtree built once per worker process and per distinct table — never
per batch or per pipeline build, never shuffled. Join modes:

* inner  — one output row per (point, matching region) pair
* semi   — points with >= 1 match, original columns only
* anti   — points with no match
* left   — every point; admin_id = -1 where unmatched (first match wins,
           lowest admin_id, for deterministic output under any ordering)

Candidates are verified in one broadcast pass over the polygons' padded
edge table (``spatial.rtree.polygon_edges``, built with the tree): no
Python loop per polygon or edge. Matches are then stably sorted by
polygon, so ``inner`` rows come out grouped by polygon.
"""

import numpy as np
import pyarrow as pa

from ..spatial import STRtree, pairs_in_polygons, polygon_edges


class RectJoinStage:
    """Rectangle-region join on integer microdegrees (SQL-mirrorable).

    Bounds are closed (BETWEEN) on both sides. The bbox test of the
    STRtree IS the exact containment test for rectangles.
    """

    def __init__(self, rects, mode="inner"):
        self.rects = rects
        self.mode = mode
        boxes = np.stack(
            [
                rects["min_lon_u"].astype(np.float64),
                rects["min_lat_u"].astype(np.float64),
                rects["max_lon_u"].astype(np.float64),
                rects["max_lat_u"].astype(np.float64),
            ],
            axis=1,
        )
        self.tree = STRtree(boxes)

    def __call__(self, batch: pa.Table) -> pa.Table:
        lat_u = np.rint(batch.column("lat").to_numpy() * 1e6).astype(np.int64)
        lon_u = np.rint(batch.column("lon").to_numpy() * 1e6).astype(np.int64)
        pts, rect_idx = self.tree.query_points(
            lon_u.astype(np.float64), lat_u.astype(np.float64)
        )
        return _emit(batch, pts, rect_idx, self.rects["admin_id"], self.mode)


class PIPJoinStage:
    """General polygon join: STRtree bbox candidates -> exact ray-cast PIP."""

    def __init__(self, polygons, mode="inner"):
        self.mode = mode
        self.tree = STRtree(np.asarray([p["bbox"] for p in polygons]))
        self.edges, _ = polygon_edges(polygons)
        self.admin_ids = np.asarray([p["admin_id"] for p in polygons], dtype=np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        lat = batch.column("lat").to_numpy()
        lon = batch.column("lon").to_numpy()
        pts, poly_idx = self.tree.query_points(lon, lat)
        keep = pairs_in_polygons(self.edges, poly_idx, lon[pts], lat[pts])
        pts, poly_idx = pts[keep], poly_idx[keep]
        order = np.argsort(poly_idx, kind="stable")
        pts, poly_idx = pts[order], poly_idx[order]
        return _emit(batch, pts, poly_idx, self.admin_ids, self.mode)


def _emit(batch, pts, region_idx, admin_ids, mode):
    """Materialize join output for the chosen mode."""
    n = batch.num_rows
    if mode == "inner":
        out = batch.take(pa.array(pts, pa.int64()))
        return out.append_column("admin_id", pa.array(admin_ids[region_idx], pa.int64()))
    if mode == "semi":
        matched = np.zeros(n, dtype=bool)
        matched[pts] = True
        return batch.filter(pa.array(matched))
    if mode == "anti":
        matched = np.zeros(n, dtype=bool)
        matched[pts] = True
        return batch.filter(pa.array(~matched))
    if mode == "left":
        best = np.full(n, -1, dtype=np.int64)
        if len(pts):
            # lowest admin_id per point, order-independent
            order = np.lexsort((admin_ids[region_idx], pts))
            p_sorted = pts[order]
            first = np.ones(len(p_sorted), dtype=bool)
            first[1:] = p_sorted[1:] != p_sorted[:-1]
            best[p_sorted[first]] = admin_ids[region_idx][order][first]
        return batch.append_column("admin_id", pa.array(best, pa.int64()))
    raise ValueError(f"unknown join mode: {mode}")
