"""Deduplication operators: exact, MinHash-LSH, SimHash, embedding LSH.

Shuffle discipline (ray_guide "Aggregation at scale"): content hashes are
computed vectorized inside map_batches; the exchange moves only
(hash, key) pairs or per-band signature rows, never document bodies.
Candidate pairs from banding are verified (exact Jaccard / Hamming /
cosine) before being reported.

Hash collisions: exact dedup keys on a 64-bit content hash
(stages.sampling.hash64, deterministic across processes); at 10^12 docs the
expected collision count is ~0.03 — documented approximation, exact at
test scale (verified against a GROUP BY text oracle).
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import keyed_agg, keyed_scan
from .sampling import hash64

# --- exact dedup ------------------------------------------------------------


def content_hash_batch(key_col, id_col):
    """map_batches fn factory: (id, h64) rows, one per input row."""

    def fn(batch: pa.Table) -> pa.Table:
        h = hash64(batch.column(key_col)).astype(np.int64)
        return pa.table({id_col: batch.column(id_col), "h64": pa.array(h, pa.int64())})

    return fn


def exact_dedup(ds, key_col="text", id_col="doc_id"):
    """Keep the minimum id per distinct key value. Returns Dataset[id].

    The content-hash key is corpus-cardinality, so the min runs as a
    keyed aggregate (stages/agg.py) — combined inside each block, one
    exchange of (hash, id) partials.
    """
    from .agg import keyed_agg

    hashed = ds.map_batches(content_hash_batch(key_col, id_col), batch_format="pyarrow")
    return keyed_agg(hashed, "h64", {id_col: "min"}).select_columns([id_col])


# --- MinHash + LSH ----------------------------------------------------------

N_HASHES = 64
N_BANDS = 16  # 16 bands x 4 rows
_ROWS_PER_BAND = N_HASHES // N_BANDS
_MERSENNE = np.uint64((1 << 61) - 1)
_BAND_P = np.uint64(1099511628211)  # FNV-style band fold multiplier

# Candidate-pair blowup guard: a (band, band_hash) bucket of n ids emits
# n(n-1)/2 pairs — a boilerplate cluster putting 10^5+ docs in one bucket
# would emit 10^10 pairs in one task. Buckets above the cap degrade to a
# STAR (each id paired with the bucket's min id): linear output that
# preserves duplicate-cluster connectivity (what dedup consumes), loses
# only transitive pair enumeration. Degradations are counted and logged.
MAX_BUCKET_PAIRS_IDS = 1024


def shingle_hash_arrays(texts):
    """Vectorized word-3-gram shingle hashes for a batch of documents.

    Returns ``(grams, gcounts)``: a flat uint64 array of rolling 3-gram
    hashes (g = h0*P1 + h1*P2 + h2 mod 2^64 over polynomial token hashes
    — the fingerprint scheme, SQL-expressible) and the per-doc gram
    count. A doc with < 3 tokens is end-padded with ``_FP_H0`` token
    hashes (the hash of an empty token) up to 3 and contributes ONE
    gram. No per-document Python loop: tokenize + token hashing run
    straight off the Arrow UTF-8 buffers (text.tokenize_hash_arrays —
    ``texts`` may be an Arrow string array or a Python list); the
    grams are text.rolling_grams over the padded hashes.
    """
    from .text import _FP_H0, rolling_grams, tokenize_hash_arrays

    h, tcounts = tokenize_hash_arrays(texts)
    pad = np.maximum(3 - tcounts, 0)
    if pad.any():
        padded = np.full(len(h) + int(pad.sum()), _FP_H0, dtype=np.uint64)
        padded[np.arange(len(h)) + np.repeat(np.cumsum(pad) - pad, tcounts)] = h
        h = padded
    tcounts = tcounts + pad
    g, inside = rolling_grams(h, np.repeat(np.arange(len(tcounts)), tcounts))
    return g[inside], tcounts - 2


def minhash_coefficients():
    """The seeded universal-hash coefficients (shared with the SQL twin)."""
    rng = np.random.default_rng(12345)
    a = rng.integers(1, (1 << 61) - 1, N_HASHES, dtype=np.uint64)
    b = rng.integers(0, (1 << 61) - 1, N_HASHES, dtype=np.uint64)
    return a, b


class MinHashStage:
    """Batch-vectorized MinHash banding: (id, band, band_hash) rows.

    The shingles are word 3-grams (:func:`shingle_hash_arrays`), the
    set :func:`minhash_bands_sql` hashes too; no other size is offered.
    Coefficients are generated once per stage instance (seeded, shared
    with :func:`minhash_bands_sql`); the whole batch is processed as one
    (total_grams x N_HASHES) universal hash + per-doc minimum.reduceat —
    no per-document loop (measured ~8x over the per-doc variant).
    """

    def __init__(self, id_col="doc_id", text_col="text"):
        self.a, self.b = minhash_coefficients()
        self.id_col = id_col
        self.text_col = text_col

    def signatures(self, texts, chunk=4096):
        """(docs, N_HASHES) uint64 signature matrix, batch-vectorized.

        The (grams x 64) universal-hash matrix is computed in gram-axis
        chunks that stay cache-resident (one monolithic matrix for a
        whole batch is memory-bound: measured ~4x slower at 100k grams);
        per-doc minima are merged across chunk boundaries.
        """
        grams, gcounts = shingle_hash_arrays(texts)
        ndocs = len(gcounts)
        starts = np.cumsum(gcounts) - gcounts
        doc_of = np.repeat(np.arange(ndocs), gcounts)
        sig = np.full((ndocs, N_HASHES), np.iinfo(np.uint64).max, dtype=np.uint64)
        for s in range(0, len(grams), chunk):
            e = min(s + chunk, len(grams))
            v = (grams[s:e, None] * self.a[None, :] + self.b[None, :]) % _MERSENNE
            d0, d1 = doc_of[s], doc_of[e - 1]
            st = np.maximum(starts[d0 : d1 + 1], s) - s
            m = np.minimum.reduceat(v, st, axis=0)
            sig[d0 : d1 + 1] = np.minimum(sig[d0 : d1 + 1], m)
        return sig

    def signature(self, text):
        return self.signatures([text])[0]

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col)
        n = batch.num_rows
        texts = batch.column(self.text_col)  # Arrow column straight through
        sig = self.signatures(texts).reshape(n, N_BANDS, _ROWS_PER_BAND)
        bh = np.zeros((n, N_BANDS), dtype=np.uint64)
        for c in range(_ROWS_PER_BAND):  # fold the 4 band rows (fixed count)
            bh = bh * _BAND_P + sig[:, :, c]
        return pa.table(
            {
                "id": ids.take(np.repeat(np.arange(n), N_BANDS)),
                "band": pa.array(np.tile(np.arange(N_BANDS), n), pa.int64()),
                "band_hash": pa.array(
                    (bh % np.uint64(1 << 63)).astype(np.int64).ravel(), pa.int64()
                ),
            }
        )


def _bucketed_segment_pairs(band_ds, emit, extra_cols=(), what="LSH", dedup=True):
    """Shared scaffolding for banded candidate-pair stages.

    The LSH group count grows with the corpus (bands x distinct hashes),
    so the rows move through a keyed scan (``stages.agg.keyed_scan``) on
    ``[band, band_hash]`` ordered by ``id`` — one reduce call per exchange
    block, not one per LSH bucket (~0.6 ms/group measured, see
    stages/agg.py). Inside a block, each run of one LSH bucket (a repeated
    id counted once) is handed to ``emit(ids, extras) -> (id_a, id_b,
    degraded)`` (numpy slices, ~us each). The cross-band duplicate
    collapse is a keyed distinct on the pair (:func:`dedup_pairs`) —
    never a pair-cardinality groupby.
    """

    def pairs_bucket(block: pa.Table, start: np.ndarray) -> pa.Table:
        # an id repeated inside its run counts once
        id_col = block.column("id")
        keep = start.copy()
        new_id = pc.not_equal(id_col.slice(1), id_col.slice(0, len(keep) - 1))
        keep[1:] |= new_id.to_numpy(zero_copy_only=False)
        kept = block.filter(pa.array(keep))
        ids = kept.column("id").to_numpy(zero_copy_only=False)
        extras = {c: kept.column(c).to_numpy() for c in extra_cols}
        starts = np.flatnonzero(start[keep])
        ends = np.append(starts[1:], len(ids))
        outs_a, outs_b, degraded = [], [], 0
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue
            a, b, deg = emit(ids[s:e], {c: v[s:e] for c, v in extras.items()})
            degraded += deg
            outs_a.append(a)
            outs_b.append(b)
        if degraded:
            import logging

            logging.getLogger(__name__).warning(
                "%d %s buckets over %d ids degraded to star pairs",
                degraded,
                what,
                MAX_BUCKET_PAIRS_IDS,
            )
        a, b = (np.concatenate(outs) if outs else ids[:0] for outs in (outs_a, outs_b))
        return pa.table({"id_a": pa.array(a, id_col.type), "id_b": pa.array(b, id_col.type)})

    cand = keyed_scan(band_ds, ["band", "band_hash"], [("id", "ascending")], pairs_bucket)
    if not dedup:
        # caller collapses cross-band duplicates itself (e.g. inside the
        # verify exchange) — skip the dedicated pair-dedup exchange
        return cand
    return dedup_pairs(cand)


def candidate_pairs_from_bands(band_ds, dedup=True):
    """(band, band_hash) groups -> unique candidate id pairs (a < b),
    vectorized per segment (triu_indices) and star-capped
    (MAX_BUCKET_PAIRS_IDS) — see :func:`_bucketed_segment_pairs`.
    ``dedup=False`` skips the cross-band pair-dedup exchange for callers
    whose downstream exchange collapses duplicates anyway."""

    def emit(u, _extras):
        c = len(u)
        if c > MAX_BUCKET_PAIRS_IDS:
            return np.repeat(u[:1], c - 1), u[1:], 1
        ia, ib = np.triu_indices(c, k=1)
        return u[ia], u[ib], 0

    return _bucketed_segment_pairs(band_ds, emit, dedup=dedup)


def dedup_pairs(cand):
    """Distinct (id_a, id_b) rows: a keyed aggregate on the pair with no
    aggregate (``stages.agg.keyed_agg``), so each block collapses its
    duplicates before the exchange and again after it — never one Ray
    group per pair."""
    return keyed_agg(cand, ["id_a", "id_b"], {})


def simhash_candidate_pairs(band_ds, max_hamming, cap=MAX_BUCKET_PAIRS_IDS):
    """Bucketed SimHash candidate pairs with in-segment Hamming verify:
    the shared :func:`_bucketed_segment_pairs` scaffolding with an
    XOR+popcount pair filter against ``max_hamming``; segments over
    ``cap`` degrade to Hamming-verified star pairs against the min id.
    """

    def emit(u, extras):
        sv = extras["simhash"].astype(np.uint64)
        n = len(u)
        if n > cap:
            x = sv[0] ^ sv
            ham = np.unpackbits(
                x.view(np.uint8).reshape(n, 8), axis=1
            ).sum(axis=1, dtype=np.int64)
            keep = (ham <= max_hamming) & (u != u[0])
            return np.repeat(u[:1], int(keep.sum())), u[keep], 1
        ham = hamming_matrix(sv)
        ia, ib = np.triu_indices(n, k=1)
        keep = ham[ia, ib] <= max_hamming
        return u[ia[keep]], u[ib[keep]], 0

    return _bucketed_segment_pairs(band_ds, emit, extra_cols=("simhash",), what="simhash")


def jaccard(text_a, text_b, n=3):
    """Exact word n-gram Jaccard for verification."""
    ta, tb = text_a.split(), text_b.split()
    sa = set(" ".join(ta[i : i + n]) for i in range(max(1, len(ta) - n + 1)))
    sb = set(" ".join(tb[i : i + n]) for i in range(max(1, len(tb) - n + 1)))
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


# --- SimHash ----------------------------------------------------------------

SIMHASH_BITS = 64
_SIM_BANDS = 4  # hamming <= 3 guarantees >= 1 equal 16-bit band


def simhash_batch(id_col="doc_id", text_col="text"):
    """Vectorized SimHash + 16-bit banding: (id, band, band_hash, simhash).

    Token hashes use the polynomial codepoint scheme (stages/text.py) so
    the whole operator has an exact SQL twin; bit accumulation and band
    slicing are pure array ops — no per-document loop.
    """
    from .text import tokenize_hash_arrays

    def fn(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        h, counts = tokenize_hash_arrays(batch.column(text_col))
        sims = np.zeros(n, dtype=np.uint64)
        if len(h):
            bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1).astype(
                np.int64
            ) * 2 - 1
            starts = np.cumsum(counts) - counts
            valid = counts > 0
            if valid.any():
                acc = np.add.reduceat(bits, starts[valid], axis=0)
                sgn = (acc > 0).astype(np.uint64)
                sims[valid] = (sgn << np.arange(64, dtype=np.uint64)[None, :]).sum(
                    axis=1, dtype=np.uint64
                )
        bands = np.arange(_SIM_BANDS, dtype=np.uint64)
        keys = ((sims[:, None] >> (bands * np.uint64(16))[None, :]) & np.uint64(0xFFFF))
        return pa.table(
            {
                "id": batch.column(id_col).take(np.repeat(np.arange(n), _SIM_BANDS)),
                "band": pa.array(np.tile(bands.astype(np.int64), n), pa.int64()),
                "band_hash": pa.array(keys.astype(np.int64).ravel(), pa.int64()),
                "simhash": pa.array(
                    np.repeat((sims % np.uint64(1 << 63)).astype(np.int64), _SIM_BANDS),
                    pa.int64(),
                ),
            }
        )

    return fn


def hamming64(a, b):
    return bin(int(a) ^ int(b)).count("1")


def hamming_matrix(sims):
    """(n, n) pairwise Hamming distances of int64 simhashes, vectorized
    via uint8-view + unpackbits (numpy < 2 has no bitwise_count)."""
    s = np.asarray(sims, dtype=np.uint64)
    x = s[:, None] ^ s[None, :]
    by = x.view(np.uint8).reshape(len(s), len(s), 8)
    return np.unpackbits(by, axis=2).sum(axis=2, dtype=np.int64)


# --- embedding LSH (random hyperplanes) ------------------------------------


class EmbeddingLSHStage:
    """Actor: seeded random hyperplanes; emits (id, bucket) sign-bit keys.

    ``carry_vec=True`` keeps the embedding column in the output so the
    downstream per-bucket verification shuffles vectors alongside their
    keys instead of re-reading them (the distributed near-dup path).
    """

    def __init__(
        self,
        dim=64,
        n_planes=16,
        seed=777,
        id_col="vec_id",
        vec_col="embedding",
        carry_vec=False,
        n_tables=1,
    ):
        rng = np.random.default_rng(seed)
        # n_tables independent plane sets: near-dup pairs missed by one
        # table (a sign flip near a hyperplane) are caught by another —
        # classic multi-table LSH recall boost
        self.planes = rng.standard_normal((n_tables, dim, n_planes))
        self.id_col = id_col
        self.vec_col = vec_col
        self.carry_vec = carry_vec
        self.n_tables = n_tables

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .ann import list_col_to_matrix

        if batch.num_rows == 0:  # block-split artifact
            cols = {
                "id": batch.column(self.id_col),
                "table": pa.array([], pa.int64()),
                "bucket": pa.array([], pa.int64()),
            }
            if self.carry_vec:
                cols["embedding"] = batch.column(self.vec_col)
            return pa.table(cols)
        vecs = list_col_to_matrix(batch.column(self.vec_col))
        n = len(vecs)
        ids = batch.column(self.id_col)
        out = []
        for t in range(self.n_tables):
            signs = (vecs @ self.planes[t]) > 0
            buckets = np.zeros(n, dtype=np.int64)
            for j in range(self.planes.shape[2]):
                buckets |= signs[:, j].astype(np.int64) << j
            cols = {
                "id": ids,
                "table": pa.array(np.full(n, t, dtype=np.int64)),
                "bucket": pa.array(buckets, pa.int64()),
            }
            if self.carry_vec:
                cols["embedding"] = batch.column(self.vec_col)
            out.append(pa.table(cols))
        return pa.concat_tables(out)


def embedding_cosine_pairs(band_ds, threshold, cap=MAX_BUCKET_PAIRS_IDS):
    """Bucketed embedding near-dup pairs with in-segment cosine verify.

    The shared :func:`_bucketed_segment_pairs` scaffolding — LSH (table,
    bucket) keys ride as (band, band_hash), vectors ride as the extra
    column — so the embedding path gets the same scale guarantees the
    text LSH paths have: grouping through the keyed exchange (one reduce
    call per exchange block, not one per LSH bucket), a ``cap`` star degradation (a boilerplate
    cluster of n identical embeddings emits n-1 cosine-verified star
    pairs, never n^2), and the bucketed cross-table pair collapse
    (:func:`dedup_pairs`) instead of a pair-cardinality native groupby.
    """

    def emit(u, extras):
        vecs = np.stack(extras["embedding"]).astype(np.float64)
        vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        n = len(u)
        if n > cap:
            sim = vecs @ vecs[0]
            keep = (sim >= threshold) & (u != u[0])
            return np.repeat(u[:1], int(keep.sum())), u[keep], 1
        sim = vecs @ vecs.T
        ia, ib = np.triu_indices(n, k=1)
        keep = sim[ia, ib] >= threshold
        return u[ia[keep]], u[ib[keep]], 0

    return _bucketed_segment_pairs(
        band_ds, emit, extra_cols=("embedding",), what="embedding-LSH"
    )


# --- SQL twins (DuckDB oracles) ---------------------------------------------
#
# The near-dup pipelines are deterministic end to end (polynomial token
# hashes, seeded coefficients, exact verification), so each has an exact
# ANSI-SQL twin. Shared fragments mirror the numpy arithmetic with
# explicit % 2^64 in HUGEINT; every constant is embedded from the same
# Python source the engine uses, so the two sides cannot drift apart.

_MOD64 = 1 << 64
_MOD63 = 1 << 63


def _pages_replicated_sql(replicate):
    """url+text of pages(replicate=N) as a CTE body (sources/pages.py)."""
    from ..sources.pages import REP_STRIDE

    return (
        f"SELECT 'https://' || source || '.example.com/doc/' || "
        f"(doc_id + reps.r * {REP_STRIDE}) AS url, text "
        f"FROM documents CROSS JOIN "
        f"(SELECT unnest(range(0, {replicate})) AS r) reps"
    )


def _token_hash_sql():
    """hs: per-token polynomial hash list (twin of text.token_hashes)."""
    from .text import _FP_B, _FP_H0

    return (
        "SELECT url, text, list_transform(regexp_extract_all(text, '\\S+'), "
        f"t -> list_reduce(list_prepend(CAST({int(_FP_H0)} AS HUGEINT), "
        "list_transform(regexp_extract_all(t, '.'), c -> CAST(unicode(c) AS HUGEINT))), "
        f"(a, b) -> (a * {int(_FP_B)} + b) % {_MOD64}::HUGEINT)) AS hs "
        "FROM pagesR"
    )


def _shingle_sql():
    """gs: rolling 3-gram hash list with _FP_H0 end-padding (twin of
    shingle_hash_arrays)."""
    from .text import _FP_H0, _FP_P1, _FP_P2

    h0 = f"CAST({int(_FP_H0)} AS HUGEINT)"
    return (
        "SELECT url, list_transform(range(1, greatest(len(hs) - 2, 1) + 1), "
        f"i -> (coalesce(hs[i], {h0}) * {int(_FP_P1)} "
        f"+ coalesce(hs[i+1], {h0}) * {int(_FP_P2)} "
        f"+ coalesce(hs[i+2], {h0})) % {_MOD64}::HUGEINT) AS gs "
        "FROM th"
    )


def _gram_set_sql():
    """gset: distinct word-3-gram STRINGS per url (twin of jaccard())."""
    return (
        "SELECT url, list_distinct(list_transform("
        "range(1, greatest(len(toks) - 2, 1) + 1), "
        "i -> concat_ws(' ', toks[i], toks[i+1], toks[i+2]))) AS gset "
        "FROM (SELECT url, regexp_extract_all(text, '\\S+') AS toks FROM pagesR)"
    )


def _jaccard_verify_sql(threshold):
    """cand(id_a, id_b) -> verified (url_a, url_b) via exact string-gram
    Jaccard, the SQL form of _verify_pairs_jaccard."""
    return (
        f"SELECT c.id_a AS url_a, c.id_b AS url_b FROM cand c "
        f"JOIN gsets ga ON ga.url = c.id_a "
        f"JOIN gsets gb ON gb.url = c.id_b "
        f"WHERE len(list_intersect(ga.gset, gb.gset)) * 1.0 "
        f"/ len(list_distinct(list_concat(ga.gset, gb.gset))) >= {threshold!r}"
    )


def minhash_bands_sql():
    """bands(url, band, band_hash): the SQL twin of MinHashStage over the
    shingle CTE ``sh`` — 64 universal-hash minima then the banded fold."""
    a, b = minhash_coefficients()
    m = int(_MERSENNE)
    mins = ", ".join(
        f"min(((g * {int(a[k])} + {int(b[k])}) % {_MOD64}::HUGEINT) % {m}) AS m{k}"
        for k in range(N_HASHES)
    )
    p = int(_BAND_P)
    band_rows = []
    for j in range(N_BANDS):
        expr = f"m{4 * j}"
        for c in range(1, _ROWS_PER_BAND):
            expr = f"(({expr}) * {p} + m{4 * j + c}) % {_MOD64}::HUGEINT"
        band_rows.append(
            f"SELECT url, {j} AS band, CAST(({expr}) % {_MOD63}::HUGEINT AS BIGINT) "
            f"AS band_hash FROM sig"
        )
    return (
        f"shu AS (SELECT url, unnest(gs) AS g FROM sh), "
        f"sig AS (SELECT url, {mins} FROM shu GROUP BY url), "
        f"bands AS ({' UNION ALL '.join(band_rows)})"
    )


def near_dup_minhash_sql(replicate=2, threshold=0.8):
    """Exact DuckDB twin of pipelines.corpus.near_dup_pairs_minhash."""
    return (
        f"WITH pagesR AS ({_pages_replicated_sql(replicate)}), "
        f"th AS ({_token_hash_sql()}), "
        f"sh AS ({_shingle_sql()}), "
        f"{minhash_bands_sql()}, "
        f"cand AS (SELECT DISTINCT l.url AS id_a, r.url AS id_b "
        f"FROM bands l JOIN bands r ON l.band = r.band "
        f"AND l.band_hash = r.band_hash AND l.url < r.url), "
        f"gsets AS ({_gram_set_sql()}) "
        f"{_jaccard_verify_sql(threshold)}"
    )


def near_dup_jaccard_sql(replicate=2, threshold=0.8, k_min=5):
    """Exact DuckDB twin of pipelines.corpus.near_dup_pairs_jaccard: the
    K smallest distinct shingle hashes (mod 2^63, as emitted) key the
    candidate join; verification is the same string-gram Jaccard."""
    return (
        f"WITH pagesR AS ({_pages_replicated_sql(replicate)}), "
        f"th AS ({_token_hash_sql()}), "
        f"sh AS ({_shingle_sql()}), "
        f"mins AS (SELECT url, CAST(unnest("
        f"list_sort(list_distinct(gs))[1:{k_min}]) % {_MOD63}::HUGEINT AS BIGINT) AS k "
        f"FROM sh), "
        f"cand AS (SELECT DISTINCT l.url AS id_a, r.url AS id_b "
        f"FROM mins l JOIN mins r ON l.k = r.k AND l.url < r.url), "
        f"gsets AS ({_gram_set_sql()}) "
        f"{_jaccard_verify_sql(threshold)}"
    )


def near_dup_simhash_sql(replicate=2, max_hamming=3):
    """Exact DuckDB twin of pipelines.corpus.near_dup_pairs_simhash."""
    sums = ", ".join(
        f"sum(CASE WHEN (h >> {k}) & 1 = 1 THEN 1 ELSE -1 END) AS s{k}"
        for k in range(SIMHASH_BITS)
    )
    sim_expr = " + ".join(
        f"(CASE WHEN s{k} > 0 THEN {1 << k}::HUGEINT ELSE 0::HUGEINT END)"
        for k in range(SIMHASH_BITS)
    )
    band_rows = " UNION ALL ".join(
        f"SELECT url, {j} AS band, "
        f"CAST((sim_raw >> {16 * j}) & 65535 AS BIGINT) AS band_hash, "
        f"CAST(sim_raw % {_MOD63}::HUGEINT AS BIGINT) AS simhash FROM sims"
        for j in range(_SIM_BANDS)
    )
    return (
        f"WITH pagesR AS ({_pages_replicated_sql(replicate)}), "
        f"th AS ({_token_hash_sql()}), "
        f"tok AS (SELECT url, unnest(hs) AS h FROM th), "
        f"bitsum AS (SELECT url, {sums} FROM tok GROUP BY url), "
        f"sims AS (SELECT p.url, coalesce(({sim_expr}), 0::HUGEINT) AS sim_raw "
        f"FROM (SELECT url FROM pagesR) p LEFT JOIN bitsum b ON p.url = b.url), "
        f"bands AS ({band_rows}) "
        f"SELECT DISTINCT l.url AS url_a, r.url AS url_b "
        f"FROM bands l JOIN bands r ON l.band = r.band "
        f"AND l.band_hash = r.band_hash AND l.url < r.url "
        f"AND bit_count(xor(l.simhash, r.simhash)) <= {max_hamming}"
    )
