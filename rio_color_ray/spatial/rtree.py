"""Packed STR R-tree + broadcast point-in-polygon.

The broadcast small-side index for PIP joins (north_star: "point-in-polygon
joins against admin/tile polygons with an STRtree-backed broadcast index
held in actor pools"). Built once per worker process in
``PIPJoinStage.__init__`` (stages/statecache.py); queried per batch by a
padded child-box walk: each level stores every node's child boxes, padded
with NaN boxes to a fixed width, so one level is one broadcast comparison
of the surviving (point, node) pairs, with no per-pair expansion. Exact
ray casting of the candidates follows in one pass (:func:`pairs_in_polygons`).

No shapely in this environment — all from scratch on numpy arrays.
"""

import math

import numpy as np


class STRtree:
    """Sort-Tile-Recursive bulk-loaded R-tree over axis-aligned boxes.

    ``boxes``: float64 array (N, 4) as (minx, miny, maxx, maxy). The tree
    is stored as per-level numpy arrays; ``query_points`` returns candidate
    (point_row, box_index) pairs whose boxes contain the points.
    """

    def __init__(self, boxes, leaf_size=16):
        boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        n = len(boxes)
        if n == 0:
            self.levels = []
            self.item_order = np.empty(0, dtype=np.int64)
            return

        # STR packing: sort by center-x, slice, sort each slice by center-y
        cx = (boxes[:, 0] + boxes[:, 2]) / 2.0
        cy = (boxes[:, 1] + boxes[:, 3]) / 2.0
        n_leaves = math.ceil(n / leaf_size)
        n_slices = math.ceil(math.sqrt(n_leaves))
        order = np.argsort(cx, kind="stable")
        slice_rows = math.ceil(n / n_slices)
        pieces = []
        for s in range(0, n, slice_rows):
            sl = order[s : s + slice_rows]
            pieces.append(sl[np.argsort(cy[sl], kind="stable")])
        self.item_order = np.concatenate(pieces)

        # one level per pass, leaves first: each node's child boxes padded
        # to the level's width with NaN boxes (a NaN box contains no point),
        # stored coordinate-major (4, nodes, width) so each bound gathers
        # whole rows, and the matching child indices (next-level nodes, or
        # box rows at the leaves). The last level is one node whose only
        # child is the root box.
        cur_boxes, cur_ids = boxes[self.item_order], self.item_order
        levels = []
        while True:
            m = len(cur_boxes)
            width = min(leaf_size, m)
            n_nodes = math.ceil(m / width)
            pad = np.full((n_nodes * width, 4), np.nan)
            pad[:m] = cur_boxes
            pad = np.ascontiguousarray(pad.reshape(n_nodes, width, 4).transpose(2, 0, 1))
            ids = np.zeros(n_nodes * width, dtype=np.int64)
            ids[:m] = cur_ids
            levels.append((pad, ids.reshape(n_nodes, width)))
            if m == 1:
                break
            cur_boxes = np.concatenate([np.nanmin(pad[:2], axis=2), np.nanmax(pad[2:], axis=2)]).T
            cur_ids = np.arange(n_nodes, dtype=np.int64)
        self.levels = levels[::-1]  # the root box first

    def query_points(self, px, py):
        """Candidate pairs for point containment (closed bounds).

        Returns (point_rows, box_indices): for each pair, box bbox contains
        the point. Pairs come in point order, and for one point in the
        tree's packed order (``item_order``). From the root box down, each
        level is one broadcast comparison of the surviving (point, node)
        pairs against the nodes' padded child boxes; its nonzero entries
        are the next level's pairs. NaN points match nothing.
        """
        px = np.asarray(px, dtype=np.float64)
        py = np.asarray(py, dtype=np.float64)
        if not self.levels or len(px) == 0:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

        pts = np.arange(len(px), dtype=np.int64)
        nodes = np.zeros(len(px), dtype=np.int64)
        for (minx, miny, maxx, maxy), ids in self.levels:
            x = px[pts, None]
            y = py[pts, None]
            inside = x >= minx[nodes]
            inside &= x <= maxx[nodes]
            inside &= y >= miny[nodes]
            inside &= y <= maxy[nodes]
            rows, cols = np.nonzero(inside)
            pts = pts[rows]
            nodes = ids[nodes[rows], cols]
        return pts, nodes


def polygon_edges(polys):
    """``(edges, n_edges)`` of dicts with vertex arrays ``xs``/``ys``:
    ``edges`` is float64 ``(4, P, Emax)``, ``x1, y1, x2, y2`` of edge e of
    polygon p at ``[:, p, e]``, (x1, y1) the PREVIOUS vertex and (x2, y2)
    the current one (the wrap edge included; a closing vertex equal to
    the first is dropped). Polygon p's ``n_edges[p]`` real edges come
    first; the rest of its row is all-zero pad edges (``y1 == y2``: they
    never cross). Padding bound: every candidate pair tests ``Emax``
    edges; the admin set's 5-11 vertices cost at most ~2x the real edge
    work, while a few huge rings among small ones would want CSR edges.
    """
    rings = [np.asarray([p["xs"], p["ys"]], dtype=np.float64) for p in polys]
    rings = [r[:, :-1] if r.shape[1] > 1 and (r[:, 0] == r[:, -1]).all() else r for r in rings]
    n_edges = np.asarray([r.shape[1] for r in rings], dtype=np.int64)
    edges = np.zeros((4, len(rings), n_edges.max(initial=0)))
    for p, r in enumerate(rings):
        edges[:, p, : r.shape[1]] = np.concatenate([np.roll(r, 1, axis=1), r])
    return edges, n_edges


def pairs_in_polygons(edges, poly_idx, px, py):
    """Is point ``(px[k], py[k])`` in polygon ``poly_idx[k]`` (even-odd)?
    One broadcast over the pairs' :func:`polygon_edges` rows tests every
    crossing with the SQL twin's float expression; NaN is inside nothing."""
    x1, y1, x2, y2 = edges[:, poly_idx]
    x = np.asarray(px, dtype=np.float64)[:, None]
    y = np.asarray(py, dtype=np.float64)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        crosses = (y2 > y) != (y1 > y)
        xint = (x1 - x2) * (y - y2) / (y1 - y2) + x2
        return np.logical_xor.reduce(crosses & (x < xint), axis=1)
