"""Approximate-nearest-neighbor search over an embedding column.

Baseline: brute-force cosine top-k — the query matrix is BROADCAST once
per worker process; every batch does one (batch x dim) @ (dim x queries) float64
matmul and emits only per-query local top-k rows. Scale path:
LSH-bucketed search (stages.dedup.EmbeddingLSHStage buckets + probing).

Ranking is by (round(score, 6) DESC, vec_id ASC) — rounding absorbs
summation-order float differences vs the SQL oracle
(list_cosine_similarity), ties break on the id.
"""

import numpy as np
import pandas as pd
import pyarrow as pa


def list_col_to_matrix(col, dtype=np.float64):
    """(n, d) matrix from a fixed-length list column, no Python lists.

    Arrow ``flatten()`` + one numpy reshape — measured 66x faster than
    ``np.stack(col.to_pylist())`` on the embeddings table and
    bit-identical (BASELINE.md).
    """
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(arr)
    if n == 0:
        # empty block-split artifact: reshape(0, -1) would raise; the
        # width is only knowable for fixed-size lists, (0, 0) otherwise
        # (callers guard on len(batch) before using the width)
        width = getattr(arr.type, "list_size", 0) or 0
        return np.empty((0, width), dtype=dtype)
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(dtype, copy=False)
    if flat.size % n:
        raise ValueError("list_col_to_matrix: ragged list column")
    return flat.reshape(n, -1)


def _empty_partial() -> pa.Table:
    return pa.table(
        {
            "query_id": pa.array([], pa.int64()),
            "vec_id": pa.array([], pa.int64()),
            "score_r6": pa.array([], pa.float64()),
        }
    )


def _self_exclusion_index(qid):
    """(sorted qids, their column index) for vectorized self-exclusion.

    Query ids are unique by construction (_query_vectors filters on
    vec_id), so one searchsorted probe per batch row replaces the old
    O(batch x queries) Python loop.
    """
    order = np.argsort(qid, kind="stable")
    return qid[order], order


def _exclude_self(scores, ids, qid_sorted, qid_cols):
    """scores[r, c] = -inf wherever ids[r] == query id of column c."""
    if len(qid_sorted) == 0 or len(ids) == 0:
        return
    pos = np.minimum(np.searchsorted(qid_sorted, ids), len(qid_sorted) - 1)
    rows = np.flatnonzero(qid_sorted[pos] == ids)
    scores[rows, qid_cols[pos[rows]]] = -np.inf


class AnnBruteStage:
    """Stateful stage: per-batch cosine top-k against broadcast queries.

    ``query_labels`` (optional, parallel to ``query_ids``) turns the
    stage into METADATA-FILTERED search: a table row only scores for
    queries sharing its ``label_col`` value (the filtered-ANN shape of a
    vector store — the filter applies inside the same matmul pass, no
    extra scan).
    """

    def __init__(self, query_ids, query_matrix, k, id_col="vec_id", vec_col="embedding",
                 query_labels=None, label_col="label"):
        self.qid = np.asarray(query_ids, dtype=np.int64)
        q = np.asarray(query_matrix, dtype=np.float64)
        self.q = q / np.linalg.norm(q, axis=1, keepdims=True)
        self.k = k
        self.id_col = id_col
        self.vec_col = vec_col
        self.qlabel = None if query_labels is None else np.asarray(query_labels, np.int64)
        self.label_col = label_col
        self._qid_sorted, self._qid_cols = _self_exclusion_index(self.qid)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _empty_partial()
        ids = batch.column(self.id_col).to_numpy()
        vecs = list_col_to_matrix(batch.column(self.vec_col))
        vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        scores = vecs @ self.q.T  # (batch, queries)
        if self.qlabel is not None:
            col = batch.column(self.label_col)
            if not pa.types.is_integer(col.type):
                # a string/float label would hit an opaque numpy cast
                # error (or silently parse numeric strings) below, where
                # the SQL twin's equi-join handles any type — refuse with
                # the actual contract instead
                raise ValueError(
                    f"AnnBruteStage: label column must be an integer type, "
                    f"got {col.type}"
                )
            if col.null_count:
                # NaN -> int64 casts to a garbage sentinel that would
                # MATCH other nulls where the SQL twin's equi-join
                # excludes them — refuse instead of silently diverging
                raise ValueError("AnnBruteStage: null labels are not supported")
            labels = col.to_numpy(zero_copy_only=False)
            scores[labels[:, None].astype(np.int64) != self.qlabel[None, :]] = -np.inf
        _exclude_self(scores, ids, self._qid_sorted, self._qid_cols)
        k = min(self.k, scores.shape[0])
        idx = np.argpartition(-scores, k - 1, axis=0)[:k]  # (k, queries)
        qcols = np.broadcast_to(np.arange(scores.shape[1]), idx.shape)
        flat_i, flat_q = idx.ravel(), qcols.ravel()
        keep = np.isfinite(scores[flat_i, flat_q])  # drop self-exclusion sentinels
        flat_i, flat_q = flat_i[keep], flat_q[keep]
        return pa.table(
            {
                "query_id": pa.array(self.qid[flat_q], pa.int64()),
                "vec_id": pa.array(ids[flat_i].astype(np.int64), pa.int64()),
                "score_r6": pa.array(
                    np.round(scores[flat_i, flat_q], 6), pa.float64()
                ),
            }
        )


def ann_topk_reduce(block: pd.DataFrame, k: int) -> pd.DataFrame:
    """Final reduce over one exchange block holding many queries: rank
    each query's candidates by (rounded score desc, vec_id asc)."""
    if len(block) == 0 or "query_id" not in block.columns:
        return pd.DataFrame(
            {
                "query_id": pd.Series([], dtype=np.int64),
                "vec_id": pd.Series([], dtype=np.int64),
                "rank": pd.Series([], dtype=np.int64),
            }
        )
    g = block.sort_values(
        ["query_id", "score_r6", "vec_id"], ascending=[True, False, True], kind="mergesort"
    )
    g = g.groupby("query_id", sort=False).head(k)
    return pd.DataFrame(
        {
            "query_id": g["query_id"].to_numpy(),
            "vec_id": g["vec_id"].to_numpy(),
            "rank": g.groupby("query_id").cumcount().to_numpy(np.int64) + 1,
        }
    )


def sample_embeddings_spread(path, sample_n, seed=2024, max_row_groups=16,
                             vec_col="embedding"):
    """Seeded embedding sample SPREAD across the file's row groups.

    Training IVF centroids on the file's first batch silently collapses
    recall on a sorted/clustered layout (the first row group is one
    cluster); instead, up to ``max_row_groups`` row groups are chosen
    uniformly at random (seeded) and an equal per-group quota of rows is
    drawn from each — the driver touches a bounded number of row groups
    regardless of file size. Returns an (n, dim) float64 matrix.
    """
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(path)
    n_rg = pf.metadata.num_row_groups
    if n_rg == 0 or pf.metadata.num_rows == 0:
        raise ValueError(
            f"sample_embeddings_spread: {path} has no rows — cannot train centroids"
        )
    rng = np.random.default_rng(seed)
    groups = np.sort(rng.choice(n_rg, size=min(n_rg, max_row_groups), replace=False))
    quota = -(-sample_n // len(groups))  # ceil
    parts = []
    for g in groups:
        t = pf.read_row_group(int(g), columns=[vec_col])
        take = min(quota, t.num_rows)
        if take == 0:
            continue
        idx = np.sort(rng.choice(t.num_rows, size=take, replace=False))
        parts.append(list_col_to_matrix(t.column(vec_col))[idx])
    return np.concatenate(parts)[:sample_n]


def train_ivf_centroids(sample, n_cells, iters=5, seed=2024):
    """Deterministic spherical k-means on a driver-side SAMPLE.

    IVF coarse quantizers are trained on a small sample by design (the
    100 TB table itself never reaches the driver); seeded init + fixed
    Lloyd iterations make the cell layout reproducible. Returns
    (n_cells, dim) L2-normalized centroids.
    """
    s = np.asarray(sample, dtype=np.float64)
    s = s / np.linalg.norm(s, axis=1, keepdims=True)
    rng = np.random.default_rng(seed)
    cent = s[rng.choice(len(s), size=n_cells, replace=False)]
    for _ in range(iters):
        assign = np.argmax(s @ cent.T, axis=1)
        for c in range(n_cells):
            m = assign == c
            if m.any():
                v = s[m].mean(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    cent[c] = v / n
    return cent


class AnnIVFStage:
    """IVF probe stage: per batch, assign vectors to their coarse cell
    and score ONLY the queries probing that cell — the scale path that
    touches a fraction of the table per query instead of all of it.

    Broadcast state: centroids + per-query probe lists (tiny). Emits the
    same (query_id, vec_id, score_r6) partials as AnnBruteStage, so the
    exact per-query reduce is shared.
    """

    def __init__(self, query_ids, query_matrix, centroids, n_probe, k,
                 id_col="vec_id", vec_col="embedding"):
        self.qid = np.asarray(query_ids, dtype=np.int64)
        q = np.asarray(query_matrix, dtype=np.float64)
        self.q = q / np.linalg.norm(q, axis=1, keepdims=True)
        self.cent = np.asarray(centroids, dtype=np.float64)
        # probe set per query: the n_probe nearest centroids
        order = np.argsort(-(self.q @ self.cent.T), axis=1, kind="stable")
        self.probes = order[:, :n_probe]  # (queries, n_probe)
        self.k = k
        self.id_col = id_col
        self.vec_col = vec_col
        self._qid_sorted, self._qid_cols = _self_exclusion_index(self.qid)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _empty_partial()
        ids = batch.column(self.id_col).to_numpy()
        vecs = list_col_to_matrix(batch.column(self.vec_col))
        vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        cell = np.argmax(vecs @ self.cent.T, axis=1)  # (batch,)
        # query q scores row r iff cell[r] in probes[q]
        probe_mask = (self.probes[:, :, None] == cell[None, None, :]).any(axis=1)
        scores = vecs @ self.q.T  # (batch, queries)
        scores[~probe_mask.T] = -np.inf
        _exclude_self(scores, ids, self._qid_sorted, self._qid_cols)
        k = min(self.k, scores.shape[0])
        idx = np.argpartition(-scores, k - 1, axis=0)[:k]
        qcols = np.broadcast_to(np.arange(scores.shape[1]), idx.shape)
        flat_i, flat_q = idx.ravel(), qcols.ravel()
        keep = np.isfinite(scores[flat_i, flat_q])
        flat_i, flat_q = flat_i[keep], flat_q[keep]
        return pa.table(
            {
                "query_id": pa.array(self.qid[flat_q], pa.int64()),
                "vec_id": pa.array(ids[flat_i].astype(np.int64), pa.int64()),
                "score_r6": pa.array(np.round(scores[flat_i, flat_q], 6), pa.float64()),
            }
        )
