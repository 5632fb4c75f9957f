"""kNN neighbor lookup — per-batch partial top-k + keyed top-k + cell-ring expansion.

Metric: squared planar distance in integer MICRODEGREES
(``d2 = dlat_u^2 + dlon_u^2``, exact int64 — deterministic across numpy
and SQL, no float ordering hazards). Haversine is available in
``spatial.geo`` for geodesic variants; the conformance metric is the
integer one.

Two strategies (``pipelines.knn``):

* ``KNNBruteStage`` — the exact path: queries are BROADCAST (small side);
  each batch computes its local (points x queries) distance matrix and
  emits only its per-query :func:`local_topk` rows, which
  ``stages.agg.keyed_topk`` merges and ranks per query. Work is
  proportional to |points| x |queries| but fully data-parallel with no
  shuffle of the big side — correct at any scale where |queries| is
  bounded (and the oracle for the cell path).

* cell-ring expansion (``pipelines.knn.knn_cells``) — the scale path for
  large query sets: every block of points joins the broadcast candidate
  cells of the queries on the hex cell id (``stages.join.broadcast_join``)
  and emits local pairs; a keyed per-query top-k follows. A query's result
  is PROVABLY exact when its k-th neighbor distance D_k satisfies
  ``D_k <= (1.5*r - 2) * edge`` for ring radius r (hex centers at
  hex-distance h are >= 1.5*e*h apart and any point is within e of its
  center) — queries failing the guarantee are re-run with doubled radius
  (escalation rounds), falling back to the brute stage for stragglers.
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..spatial import hex_edge_deg


def excluded(dtype):
    """The cost that marks an excluded (row, query) entry: the dtype's max."""
    return np.iinfo(dtype).max if np.issubdtype(dtype, np.integer) else np.inf


def exclude_self(cost, ids, query_ids):
    """Mark ``cost[r, c]`` excluded wherever ``ids[r]`` is query ``c``'s id:
    a query never matches its own row. Query ids are distinct, so
    ``index_in``'s first match is the only match."""
    qpos = pc.fill_null(pc.index_in(ids, value_set=query_ids), -1).to_numpy()
    rows = np.flatnonzero(qpos >= 0)
    cost[rows, qpos[rows]] = excluded(cost.dtype)


def local_topk(cost, k):
    """(rows, queries) of a batch's per-query top-k candidates.

    ``cost`` is (rows x queries), lower is better, and is the first column
    of the ``keyed_topk`` order that ranks the candidates. Every entry at
    most its column's k-th smallest cost is kept, TIES INCLUDED, so the
    tie-break column decides inside ``keyed_topk`` (whose map-side
    combiner cuts the ties back to k) and never here. An excluded entry
    (:func:`excluded`) is never kept.
    """
    if cost.shape[0] == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    k = min(k, cost.shape[0])
    kth = np.partition(cost, k - 1, axis=0)[k - 1]  # (queries,)
    return np.nonzero((cost <= kth) & (cost != excluded(cost.dtype)))


class KNNBruteStage:
    """Per-batch exact top-k against broadcast queries; the query arrays
    and url lookup are built once per worker process (``make_stage_fn``)."""

    def __init__(self, query_urls, qlat_u, qlon_u, k):
        self.qurl = pa.array(np.asarray(query_urls), pa.string())
        self.qlat = np.asarray(qlat_u, dtype=np.int64)
        self.qlon = np.asarray(qlon_u, dtype=np.int64)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        plat = np.rint(batch.column("lat").to_numpy() * 1e6).astype(np.int64)
        plon = np.rint(batch.column("lon").to_numpy() * 1e6).astype(np.int64)

        # (points, queries) int64 distance matrix for this batch
        d2 = (plat[:, None] - self.qlat[None, :]) ** 2 + (
            plon[:, None] - self.qlon[None, :]
        ) ** 2
        exclude_self(d2, batch.column("url"), self.qurl)
        rows, qids = local_topk(d2, self.k)
        return pa.table(
            {
                "query_id": pa.array(qids, pa.int64()),
                "url": batch.column("url").take(pa.array(rows)),
                "d2": pa.array(d2[rows, qids], pa.int64()),
            }
        )


def knn_guarantee_radius(res, d2_k):
    """Smallest ring radius r that PROVES exactness for k-th distance d2_k."""
    edge_u = hex_edge_deg(res) * 1e6
    d_k = np.sqrt(np.asarray(d2_k, dtype=np.float64))
    return np.ceil((d_k / edge_u + 2.0) / 1.5).astype(np.int64)
