"""kNN neighbor lookup — distributed partial top-k + cell-ring expansion.

Metric: squared planar distance in integer MICRODEGREES
(``d2 = dlat_u^2 + dlon_u^2``, exact int64 — deterministic across numpy
and SQL, no float ordering hazards). Haversine is available in
``spatial.geo`` for geodesic variants; the conformance metric is the
integer one.

Two strategies:

* ``KNNBruteStage`` — the exact path: queries are BROADCAST (small side);
  each batch computes its local (points x queries) distance matrix and
  emits only its per-query top-k rows. A final reduce per exchange
  block merges the partials of every query in it. Work is proportional
  to |points| x |queries| but fully data-parallel with no shuffle of
  the big side — correct at any scale where |queries| is bounded (and
  the oracle for the cell path).

* cell-ring expansion (``knn_cells_plan``) — the scale path for large
  query sets: points and query-candidate cells are co-partitioned by hex
  cell (one shuffle on the cell key); each cell group emits local pairs;
  a per-query top-k follows. A query's result is PROVABLY exact when its
  k-th neighbor distance D_k satisfies ``D_k <= (1.5*r - 2) * edge`` for
  ring radius r (hex centers at hex-distance h are >= 1.5*e*h apart and
  any point is within e of its center) — queries failing the guarantee
  are re-run with doubled radius (escalation rounds), falling back to
  the brute stage for stragglers.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..spatial import hex_edge_deg


def microdeg(lat, lon):
    return (
        np.rint(np.asarray(lat) * 1e6).astype(np.int64),
        np.rint(np.asarray(lon) * 1e6).astype(np.int64),
    )


class KNNBruteStage:
    """Per-batch exact top-k against broadcast queries; the query arrays
    and url lookup are built once per worker process (``make_stage_fn``)."""

    def __init__(self, query_urls, qlat_u, qlon_u, k):
        # query urls are distinct page urls, so index_in's first match is
        # the only match
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
        # self-exclusion: a query never matches its own page
        qid = pc.fill_null(pc.index_in(batch.column("url"), value_set=self.qurl), -1).to_numpy()
        rows = np.flatnonzero(qid >= 0)
        d2[rows, qid[rows]] = np.iinfo(np.int64).max

        k = min(self.k, d2.shape[0])
        # per-query local top-k (unordered) — final reduce re-ranks
        idx = np.argpartition(d2, k - 1, axis=0)[:k]  # (k, queries)
        qids = np.broadcast_to(np.arange(d2.shape[1]), idx.shape)
        flat_idx = idx.ravel()
        flat_qid = qids.ravel()
        keep = d2[flat_idx, flat_qid] != np.iinfo(np.int64).max  # self sentinels
        flat_idx, flat_qid = flat_idx[keep], flat_qid[keep]
        return pa.table(
            {
                "query_id": pa.array(flat_qid.astype(np.int64), pa.int64()),
                "url": batch.column("url").take(pa.array(flat_idx)),
                "d2": pa.array(d2[flat_idx, flat_qid], pa.int64()),
            }
        )


def topk_d2(block: pd.DataFrame, k: int) -> pd.DataFrame:
    """Each query's k nearest rows of ``block`` by (d2, url), sorted."""
    block = block.sort_values(["query_id", "d2", "url"], kind="mergesort")
    return block.groupby("query_id", sort=False).head(k)


def topk_per_query(block: pd.DataFrame, k: int) -> pd.DataFrame:
    """Final reduce over one exchange block holding many queries: merge
    their partial candidates and rank each query's by (d2, url)."""
    if len(block) == 0 or "query_id" not in block.columns:
        return pd.DataFrame(
            {
                "query_id": pd.Series([], dtype=np.int64),
                "url": pd.Series([], dtype=object),
                "rank": pd.Series([], dtype=np.int64),
            }
        )
    g = topk_d2(block, k)
    g = g.assign(rank=g.groupby("query_id").cumcount().to_numpy(np.int64) + 1)
    return g[["query_id", "url", "rank"]]


def knn_guarantee_radius(res, d2_k):
    """Smallest ring radius r that PROVES exactness for k-th distance d2_k."""
    edge_u = hex_edge_deg(res) * 1e6
    d_k = np.sqrt(np.asarray(d2_k, dtype=np.float64))
    return np.ceil((d_k / edge_u + 2.0) / 1.5).astype(np.int64)
