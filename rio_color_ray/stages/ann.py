"""Approximate-nearest-neighbor search over an embedding column.

Baseline: brute-force cosine top-k — the query matrix is BROADCAST once
per worker process; every batch does one (batch x dim) @ (dim x queries) float64
matmul and emits only per-query local top-k rows (``stages.knn.local_topk``),
which ``stages.agg.keyed_topk`` merges and ranks per query. Scale path:
IVF — vectors score only for the queries probing their coarse cell
(``AnnIVFStage``, centroids trained on a row-group-spread sample).

Ranking is by (round(score, 6) DESC, vec_id ASC) — rounding absorbs
summation-order float differences vs the SQL oracle
(list_cosine_similarity), ties break on the id.
"""

import numpy as np
import pyarrow as pa

from .knn import exclude_self, excluded, local_topk


def list_col_to_matrix(col):
    """(n, d) float64 matrix from a fixed-length list column, no Python lists.

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
        return np.empty((0, width), dtype=np.float64)
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
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


class _AnnStage:
    """Per-batch cosine top-k against broadcast queries: what both ANN
    stages share. A stage says only which (row, query) pairs may not
    score (``_masked``); normalisation, scoring, self-exclusion, the local
    top-k and the emitted (query_id, vec_id, score_r6) partials are here."""

    def __init__(self, query_ids, query_matrix, k):
        self.qid = np.asarray(query_ids, dtype=np.int64)
        self.qid_arrow = pa.array(self.qid)
        q = np.asarray(query_matrix, dtype=np.float64)
        self.q = q / np.linalg.norm(q, axis=1, keepdims=True)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _empty_partial()
        vecs = list_col_to_matrix(batch.column("embedding"))
        vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        # the cost is the first column of the ranking, round(score, 6)
        # DESC, negated; a zero vector's NaN score never ranks
        cost = -np.round(vecs @ self.q.T, 6)  # (batch, queries)
        cost[np.isnan(cost) | self._masked(batch, vecs)] = excluded(cost.dtype)
        ids = batch.column("vec_id")
        exclude_self(cost, ids, self.qid_arrow)
        rows, cols = local_topk(cost, self.k)
        return pa.table(
            {
                "query_id": pa.array(self.qid[cols], pa.int64()),
                "vec_id": ids.take(pa.array(rows)).cast(pa.int64()),
                "score_r6": pa.array(-cost[rows, cols], pa.float64()),
            }
        )


class AnnBruteStage(_AnnStage):
    """Stateful stage: per-batch cosine top-k against broadcast queries.

    ``query_labels`` (optional, parallel to ``query_ids``) turns the
    stage into METADATA-FILTERED search: a table row only scores for
    queries sharing its ``label`` value (the filtered-ANN shape of a
    vector store — the filter applies inside the same matmul pass, no
    extra scan).
    """

    def __init__(self, query_ids, query_matrix, k, query_labels=None):
        super().__init__(query_ids, query_matrix, k)
        self.qlabel = None if query_labels is None else np.asarray(query_labels, np.int64)

    def _masked(self, batch, vecs):
        if self.qlabel is None:
            return False
        col = batch.column("label")
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
        return labels[:, None].astype(np.int64) != self.qlabel[None, :]


# the seed of the IVF sample draw and of the centroid init
IVF_SEED = 2024


def sample_embeddings_spread(path, sample_n):
    """Seeded ``embedding`` sample SPREAD across the file's row groups.

    Training IVF centroids on the file's first batch silently collapses
    recall on a sorted/clustered layout (the first row group is one
    cluster); instead, up to 16 row groups are chosen uniformly at
    random (seeded) and an equal per-group quota of rows is drawn from
    each — the driver touches a bounded number of row groups regardless
    of file size. Returns an (n, dim) float64 matrix.
    """
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(path)
    n_rg = pf.metadata.num_row_groups
    if n_rg == 0 or pf.metadata.num_rows == 0:
        raise ValueError(
            f"sample_embeddings_spread: {path} has no rows — cannot train centroids"
        )
    rng = np.random.default_rng(IVF_SEED)
    groups = np.sort(rng.choice(n_rg, size=min(n_rg, 16), replace=False))
    quota = -(-sample_n // len(groups))  # ceil
    parts = []
    for g in groups:
        t = pf.read_row_group(int(g), columns=["embedding"])
        take = min(quota, t.num_rows)
        if take == 0:
            continue
        idx = np.sort(rng.choice(t.num_rows, size=take, replace=False))
        parts.append(list_col_to_matrix(t.column("embedding"))[idx])
    return np.concatenate(parts)[:sample_n]


def train_ivf_centroids(sample, n_cells):
    """Deterministic spherical k-means on a driver-side SAMPLE.

    IVF coarse quantizers are trained on a small sample by design (the
    100 TB table itself never reaches the driver); seeded init + 5 fixed
    Lloyd iterations make the cell layout reproducible. Returns
    (n_cells, dim) L2-normalized centroids.
    """
    s = np.asarray(sample, dtype=np.float64)
    s = s / np.linalg.norm(s, axis=1, keepdims=True)
    rng = np.random.default_rng(IVF_SEED)
    cent = s[rng.choice(len(s), size=n_cells, replace=False)]
    for _ in range(5):
        assign = np.argmax(s @ cent.T, axis=1)
        for c in range(n_cells):
            m = assign == c
            if m.any():
                v = s[m].mean(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    cent[c] = v / n
    return cent


class AnnIVFStage(_AnnStage):
    """IVF probe stage: per batch, assign vectors to their coarse cell
    and score ONLY the queries probing that cell — the scale path that
    touches a fraction of the table per query instead of all of it.

    Broadcast state: centroids + per-query probe lists (tiny). Emits the
    same (query_id, vec_id, score_r6) partials as AnnBruteStage, so the
    exact per-query reduce is shared.
    """

    def __init__(self, query_ids, query_matrix, centroids, n_probe, k):
        super().__init__(query_ids, query_matrix, k)
        self.cent = np.asarray(centroids, dtype=np.float64)
        # probe set per query: the n_probe nearest centroids
        order = np.argsort(-(self.q @ self.cent.T), axis=1, kind="stable")
        self.probes = order[:, :n_probe]  # (queries, n_probe)

    def _masked(self, batch, vecs):
        cell = np.argmax(vecs @ self.cent.T, axis=1)  # (batch,)
        # query q scores row r iff cell[r] in probes[q]
        return ~(self.probes[:, :, None] == cell[None, None, :]).any(axis=1).T
