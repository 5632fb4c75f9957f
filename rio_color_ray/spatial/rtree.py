"""Packed STR R-tree + vectorized point-in-polygon.

The broadcast small-side index for PIP joins (north_star: "point-in-polygon
joins against admin/tile polygons with an STRtree-backed broadcast index
held in actor pools"). Built once per worker process in
``PIPJoinStage.__init__`` (stages/statecache.py); queried per batch with
fully vectorized level-by-level frontier expansion, then exact
ray-casting containment.

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
        self.boxes = boxes
        self.leaf_size = leaf_size
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

        # leaf level: groups of leaf_size consecutive packed items
        cur_boxes = boxes[self.item_order]
        levels = []
        while True:
            m = len(cur_boxes)
            n_nodes = math.ceil(m / leaf_size)
            starts = np.arange(n_nodes, dtype=np.int64) * leaf_size
            ends = np.minimum(starts + leaf_size, m)
            node_boxes = np.empty((n_nodes, 4))
            for k in range(n_nodes):  # small: runs once per build, not per query
                seg = cur_boxes[starts[k] : ends[k]]
                node_boxes[k, 0] = seg[:, 0].min()
                node_boxes[k, 1] = seg[:, 1].min()
                node_boxes[k, 2] = seg[:, 2].max()
                node_boxes[k, 3] = seg[:, 3].max()
            levels.append((node_boxes, starts, ends))
            cur_boxes = node_boxes
            if n_nodes == 1:
                break
        self.levels = levels[::-1]  # root first

    def query_points(self, px, py):
        """Candidate pairs for point containment.

        Returns (point_rows, box_indices): for each pair, box bbox contains
        the point. Vectorized frontier walk from the root level down.
        """
        px = np.asarray(px, dtype=np.float64)
        py = np.asarray(py, dtype=np.float64)
        if not self.levels or len(px) == 0:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

        pts = np.arange(len(px), dtype=np.int64)
        nodes = np.zeros(len(px), dtype=np.int64)  # everyone starts at root 0
        for li, (node_boxes, starts, ends) in enumerate(self.levels):
            nb = node_boxes[nodes]
            keep = (
                (px[pts] >= nb[:, 0])
                & (px[pts] <= nb[:, 2])
                & (py[pts] >= nb[:, 1])
                & (py[pts] <= nb[:, 3])
            )
            pts = pts[keep]
            nodes = nodes[keep]
            if len(pts) == 0:
                return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
            # expand to children in the next level (or to items at the leaves)
            counts = ends[nodes] - starts[nodes]
            pts = np.repeat(pts, counts)
            base = np.repeat(starts[nodes], counts)
            step = np.arange(len(base), dtype=np.int64) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            nodes = base + step

        # `nodes` now indexes packed item order; map back + final bbox filter
        items = self.item_order[nodes]
        b = self.boxes[items]
        keep = (
            (px[pts] >= b[:, 0])
            & (px[pts] <= b[:, 2])
            & (py[pts] >= b[:, 1])
            & (py[pts] <= b[:, 3])
        )
        return pts[keep], items[keep]


def points_in_polygon(poly_x, poly_y, px, py):
    """Vectorized even-odd ray-casting containment test.

    ``poly_x/poly_y``: polygon vertices (closed or open — the wrap edge is
    added). ``px/py``: many points. Returns a bool array. O(E) numpy ops
    over all points at once; intended for many points vs one small polygon
    inside the PIP-join candidate verification step.
    """
    poly_x = np.asarray(poly_x, dtype=np.float64)
    poly_y = np.asarray(poly_y, dtype=np.float64)
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    if poly_x[0] == poly_x[-1] and poly_y[0] == poly_y[-1] and len(poly_x) > 1:
        poly_x, poly_y = poly_x[:-1], poly_y[:-1]

    inside = np.zeros(len(px), dtype=bool)
    j = len(poly_x) - 1
    for i in range(len(poly_x)):
        x1, y1 = poly_x[j], poly_y[j]
        x2, y2 = poly_x[i], poly_y[i]
        crosses = (y2 > py) != (y1 > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = (x1 - x2) * (py - y2) / (y1 - y2) + x2
        inside ^= crosses & (px < xint)
        j = i
    return inside
