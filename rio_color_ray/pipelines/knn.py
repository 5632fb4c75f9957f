"""kNN pipelines: exact brute top-k (oracle path) + cell-ring scale path.

Queries are the pages with ``doc_id < n_queries`` (self-matches excluded);
results are (query_id, url, rank) with rank by exact integer (d2, url) —
deterministic and SQL-mirrorable.
"""

import numpy as np
import pandas as pd
import pyarrow as pa

from ..sources.pages import page_coords_microdeg
from ..spatial import hex_cell, hex_disk
from ..stages.agg import hash_bucket_agg
from ..stages.knn import KNNBruteStage, knn_guarantee_radius, topk_d2, topk_per_query
from ..stages.statecache import make_stage_fn
from .geo import cellified

def _query_side(sf_dir, n_queries):
    """Driver-side query set: (urls, lat_u, lon_u) for doc_id < n_queries.

    Deterministic and tiny; mirrors the pages derivation exactly. The
    source names come from the documents table (read once, small column).
    """
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "source"])
    doc_id = t.column("doc_id").to_numpy()
    source = t.column("source").to_pandas().to_numpy()
    sel = doc_id < n_queries
    doc_id, source = doc_id[sel], source[sel]
    order = np.argsort(doc_id)
    doc_id, source = doc_id[order], source[order]
    lat_u, lon_u = page_coords_microdeg(doc_id)
    urls = np.asarray(
        [f"https://{s}.example.com/doc/{d}" for s, d in zip(source, doc_id)]
    )
    return doc_id, urls, lat_u, lon_u


def knn(sf_dir, k=5, n_queries=100):
    """Exact kNN via broadcast queries + per-batch partial top-k.

    Returns (query_id, url, rank); query_id is the query page's doc_id.
    The queries are a few KB, so they ride in the stage function's closure.
    """
    doc_id, urls, lat_u, lon_u = _query_side(sf_dir, n_queries)
    pts = cellified(sf_dir, keep_columns=["url", "lat", "lon"])
    partial = pts.map_batches(
        make_stage_fn(KNNBruteStage, urls, lat_u, lon_u, k), batch_format="pyarrow"
    )
    ranked = hash_bucket_agg(partial, "query_id", lambda b: topk_per_query(b, k))

    # map positional query index back to doc_id
    def relabel(batch: pa.Table) -> pa.Table:
        qid = batch.column("query_id").to_numpy()
        return batch.set_column(
            batch.schema.get_field_index("query_id"),
            "query_id",
            pa.array(doc_id[qid], pa.int64()),
        )

    return ranked.map_batches(relabel, batch_format="pyarrow")


def knn_sql(k=5, n_queries=100):
    """DuckDB oracle: exact integer-distance cross join + window rank."""
    from ..sources.pages import pages_sql_cte

    pages = pages_sql_cte()
    return f"""
WITH pages_u AS ({pages.replace("lat_microdeg / 1000000.0 AS lat, lon_microdeg / 1000000.0 AS lon",
                                "lat_microdeg, lon_microdeg")}),
q AS (SELECT doc_id AS qid, url AS qurl, lat_microdeg AS qlat, lon_microdeg AS qlon
      FROM pages_u WHERE doc_id < {n_queries})
SELECT query_id, url, rank FROM (
  SELECT q.qid AS query_id, p.url AS url,
         row_number() OVER (
           PARTITION BY q.qid
           ORDER BY (p.lat_microdeg - q.qlat) * (p.lat_microdeg - q.qlat)
                  + (p.lon_microdeg - q.qlon) * (p.lon_microdeg - q.qlon),
                    p.url
         ) AS rank
  FROM pages_u p CROSS JOIN q
  WHERE p.url <> q.qurl
) WHERE rank <= {k}
"""


def knn_cells(sf_dir, k=5, n_queries=100, res=6, radius=2, max_rounds=4):
    """Cell-ring kNN (the scale path; returns a pandas DataFrame).

    Every block of points merges with the broadcast candidate cells of
    the queries on the hex cell id (vectorized pandas merge) and emits
    local (query, url, d2) pairs; a reduce per exchange block ranks the
    pairs of every query in it. Queries whose k-th distance violates the
    ring guarantee escalate with doubled radius; the provably-exact
    invariant is asserted in tests against the brute path.
    """
    doc_id, urls, lat_u, lon_u = _query_side(sf_dir, n_queries)

    pts = cellified(sf_dir, keep_columns=["url", "lat", "lon"])

    def add_cell(batch: pa.Table) -> pa.Table:
        lat = batch.column("lat").to_numpy()
        lon = batch.column("lon").to_numpy()
        cell = hex_cell(lat, lon, res).astype(np.int64)
        return pa.table(
            {
                "cell": pa.array(cell, pa.int64()),
                "url": batch.column("url"),
                "lat_u": pa.array(np.rint(lat * 1e6).astype(np.int64), pa.int64()),
                "lon_u": pa.array(np.rint(lon * 1e6).astype(np.int64), pa.int64()),
            }
        )

    # pin the cellified points: every escalation round re-scans them, and
    # without this the whole read+cellify re-executes per round. The
    # pinned set is (cell, url, lat_u, lon_u) — a fraction of the
    # corpus; at cluster scale the object store spills it rather than
    # re-reading storage each round (a deliberate trade documented here).
    cell_pts = pts.map_batches(add_cell, batch_format="pyarrow").materialize()

    remaining = np.arange(len(doc_id))
    results = []
    r = radius
    for _round in range(max_rounds):
        if len(remaining) == 0:
            break
        qlat, qlon = lat_u[remaining], lon_u[remaining]
        qcell = hex_cell(qlat / 1e6, qlon / 1e6, res)
        ids, owner = hex_disk(qcell, int(r))
        cand = pd.DataFrame(
            {
                "cell": ids.astype(np.int64),
                "qpos": remaining[owner],
            }
        )

        # broadcast the candidate table (small: queries x disk size)
        empty = pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "url": pa.array([], pa.string()),
                "d2": pa.array([], pa.int64()),
            }
        )

        def local_pairs(batch: pd.DataFrame, cand=cand):
            m = batch.merge(cand, on="cell", how="inner")
            if m.empty:
                return empty
            qp = m["qpos"].to_numpy()
            d2 = (m["lat_u"].to_numpy() - lat_u[qp]) ** 2 + (
                m["lon_u"].to_numpy() - lon_u[qp]
            ) ** 2
            out = pd.DataFrame(
                {"query_id": qp.astype(np.int64), "url": m["url"], "d2": d2}
            )
            # self-exclusion, then the local top-k per query
            out = topk_d2(out[out["url"].to_numpy() != urls[qp]], k)
            if out.empty:
                return empty
            # emit Arrow so Ray never size-estimates an object column
            return pa.table(
                {
                    "query_id": pa.array(out["query_id"].to_numpy(), pa.int64()),
                    "url": pa.array(out["url"].tolist(), pa.string()),
                    "d2": pa.array(out["d2"].to_numpy(), pa.int64()),
                }
            )

        # reduce per query INSIDE the dataset (keyed on query_id), so
        # the driver only ever collects <= k rows per query — independent
        # of the input's block count (the per-batch partials never land
        # on the driver)
        pdf = hash_bucket_agg(
            cell_pts.map_batches(local_pairs, batch_format="pandas"),
            "query_id",
            lambda b: topk_d2(b, k),
        ).to_pandas()
        if len(pdf) == 0 or "query_id" not in pdf.columns:
            r *= 2
            continue
        pdf = pdf.sort_values(["query_id", "d2", "url"], kind="mergesort")
        pdf["rank"] = pdf.groupby("query_id").cumcount() + 1

        # guarantee check: k found AND k-th distance within the proven radius
        stats = pdf.groupby("query_id").agg(n=("d2", "size"), dk=("d2", "max"))
        need = knn_guarantee_radius(res, stats["dk"].to_numpy())
        ok = stats.index.to_numpy()[(stats["n"].to_numpy() >= k) & (need <= r)]
        results.append(pdf[np.isin(pdf["query_id"].to_numpy(), ok)][["query_id", "url", "rank"]])
        remaining = remaining[~np.isin(remaining, ok)]
        r *= 2

    if len(remaining):
        # stragglers: exact brute pass restricted to the remaining queries
        sub = pts.map_batches(
            make_stage_fn(KNNBruteStage, urls[remaining], lat_u[remaining], lon_u[remaining], k),
            batch_format="pyarrow",
        )
        ranked = hash_bucket_agg(sub, "query_id", lambda b: topk_per_query(b, k)).to_pandas()
        ranked["query_id"] = remaining[ranked["query_id"].to_numpy()]
        results.append(ranked)

    out = pd.concat(results, ignore_index=True)
    out["query_id"] = doc_id[out["query_id"].to_numpy()]
    return out.sort_values(["query_id", "rank"]).reset_index(drop=True)
