"""Training-corpus curation pipelines: deterministic split/sampling,
quality+dedup curation, vocabulary building.

The composition a 100 TB pretraining-data run needs, expressed
Ray-Data-first: every stage is a vectorized ``map_batches`` over Arrow,
the only exchanges are (a) the dedup groupby on the 64-bit content hash
(moves (hash, id, small-metadata) — never document bodies) and (b) the
vocabulary count (a keyed sum: moves (token, partial_count) after the
per-block combine). Sampling decisions are pure functions of stable row
ids (stages/sampling.py), so output is identical under resume,
repartitioning, or a different cluster size — and every operator here
has an exact DuckDB oracle.
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..ctx import collect
from ..stages.agg import _sorted_runs, keyed_agg, keyed_scan, keyed_topk, run_cumsum, run_position
from ..stages.sampling import (
    hash64,
    rate_of,
    split_assign_batch,
    split_sql,
    stratified_filter_batch,
    stratified_filter_sql,
)
from ..stages.text import _ALPHA_RE, _TOKEN_RE


def documents(sf_dir, columns=None):
    """``columns=`` pushes projection into the Parquet read — callers
    name exactly what they touch so unused columns never leave storage
    (VERDICT r03 #5). Block count ~1/CPU via io.read_table."""
    from ..io import read_table

    return read_table(sf_dir, "documents", columns=columns)


# --- train/valid/test split -------------------------------------------------


def train_test_split(sf_dir):
    """(doc_id, split) for every document — 98/1/1 by splitmix64(doc_id).

    Stateless and shuffle-free: the assignment is a pure row function,
    so adding machines or resuming mid-run cannot move a document
    between splits (the property random_sample / random_shuffle-based
    splitting lacks).
    """
    return documents(sf_dir, columns=["doc_id"]).map_batches(
        split_assign_batch("doc_id"), batch_format="pyarrow"
    )


TRAIN_TEST_SPLIT_SQL = split_sql("doc_id", "documents")


# --- stratified sampling ----------------------------------------------------

# per-language keep rates (ppm): downsample the over-represented head,
# keep the tail whole — the classic data-mixing move
STRATA_RATES_PPM = {"en": 500_000, "de": 800_000, "fr": 800_000}
STRATA_DEFAULT_PPM = 1_000_000


def sample_stratified(sf_dir):
    """Deterministic per-language downsampling of the documents table."""
    ds = documents(sf_dir, columns=["doc_id", "lang"])
    return ds.map_batches(
        stratified_filter_batch(
            STRATA_RATES_PPM, "lang", "doc_id", STRATA_DEFAULT_PPM
        ),
        batch_format="pyarrow",
    )


SAMPLE_STRATIFIED_SQL = (
    "SELECT doc_id, lang FROM documents WHERE "
    + stratified_filter_sql(STRATA_RATES_PPM, "lang", "doc_id", STRATA_DEFAULT_PPM)
)


# --- end-to-end curation ----------------------------------------------------

CURATE_MIN_QUALITY_PPM = 550_000


def curate_corpus(sf_dir, min_quality_ppm=CURATE_MIN_QUALITY_PPM, parts=None, n_parts=None):
    """Quality-filter -> exact-dedup -> stratified-sample -> split.

    The full curation funnel over the documents table, ending in the
    rows a tokenizer run would consume: (doc_id, lang, n_tokens,
    quality_ppm, split).

    Scale shape: the quality filter runs BEFORE the dedup exchange, so
    rejected documents never shuffle; the dedup's keyed top-1 keys on
    the 64-bit content hash and carries only (hash, doc_id, lang, n_tokens,
    quality_ppm) — text stays in the scan stage. Stratified sampling and
    split assignment are stateless row functions after the exchange.
    Hash-collision note as stages/dedup.py: ~0.03 expected collisions at
    10^12 docs; exact at test scale (the oracle groups by full text).

    ``parts``/``n_parts`` (the checkpoint-resume hook,
    state/checkpoint.py:resumable_curate): keep only rows whose
    CONTENT-HASH bucket ``h64 % n_parts`` is in ``parts``, and carry the
    bucket as a ``part`` column. Partitioning by content hash — not by
    doc_id — is what makes resume exact: a dedup group lives entirely
    inside one bucket, so recomputing a pending bucket can never be
    perturbed by duplicates that landed in completed ones.
    """

    def metrics_and_filter(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        n_chars = pc.cast(pc.utf8_length(text), pa.int64()).to_numpy()
        n_alpha = pc.cast(
            pc.count_substring_regex(text, _ALPHA_RE), pa.int64()
        ).to_numpy()
        n_tokens = pc.cast(
            pc.count_substring_regex(text, _TOKEN_RE), pa.int64()
        ).to_numpy()
        alpha_ppm = n_alpha * 1_000_000 // np.maximum(n_chars, 1)
        quality_ppm = (alpha_ppm + np.minimum(n_tokens, 200) * 5000) // 2
        h = hash64(text).astype(np.int64)
        cols = {
            "h64": pa.array(h, pa.int64()),
            "doc_id": batch.column("doc_id"),
            "lang": batch.column("lang"),
            "n_tokens": pa.array(n_tokens, pa.int64()),
            "quality_ppm": pa.array(quality_ppm, pa.int64()),
        }
        keep = quality_ppm >= min_quality_ppm
        if n_parts is not None:
            part = h.view(np.uint64) % np.uint64(n_parts)
            cols["part"] = pa.array(part.astype(np.int64), pa.int64())
            if parts is not None:
                keep = keep & np.isin(part.astype(np.int64), np.asarray(parts))
        return pa.table(cols).filter(pa.array(keep))

    filtered = documents(sf_dir, columns=["doc_id", "text", "lang"]).map_batches(
        metrics_and_filter, batch_format="pyarrow"
    )

    # dedup: min doc_id per content hash, metadata riding along. A keyed
    # top-1 per hash: content-hash cardinality is corpus-sized, and its
    # combiner moves at most one row per (batch, hash).
    kept = ["doc_id", "lang", "n_tokens", "quality_ppm"] + (["part"] if n_parts is not None else [])
    deduped = keyed_topk(filtered, "h64", [("doc_id", "ascending")], 1).select_columns(kept)

    sampled = deduped.map_batches(
        stratified_filter_batch(
            STRATA_RATES_PPM, "lang", "doc_id", STRATA_DEFAULT_PPM
        ),
        batch_format="pyarrow",
    )

    def attach_split(batch: pa.Table) -> pa.Table:
        split = split_assign_batch("doc_id")(batch)
        return batch.append_column("split", split.column("split"))

    return sampled.map_batches(attach_split, batch_format="pyarrow")


def curate_corpus_sql(min_quality_ppm=CURATE_MIN_QUALITY_PPM):
    strat = stratified_filter_sql(
        STRATA_RATES_PPM, "lang", "doc_id", STRATA_DEFAULT_PPM
    )
    split_case = split_sql("doc_id", "j").replace("SELECT doc_id, ", "").replace(
        " FROM j", ""
    )
    return f"""
WITH q AS (
  SELECT doc_id, text, lang,
         length(regexp_extract_all(text, '\\S+')) AS n_tokens,
         (length(regexp_replace(text, '[^A-Za-z]', '', 'g')) * 1000000
            // greatest(length(text), 1)
          + least(length(regexp_extract_all(text, '\\S+')), 200) * 5000) // 2
           AS quality_ppm
  FROM documents
),
f AS (SELECT * FROM q WHERE quality_ppm >= {min_quality_ppm}),
d AS (SELECT min(doc_id) AS doc_id FROM f GROUP BY text),
j AS (SELECT f.doc_id, f.lang, f.n_tokens, f.quality_ppm FROM f JOIN d USING (doc_id))
SELECT doc_id, lang, n_tokens, quality_ppm, {split_case}
FROM j WHERE {strat}
"""


# --- vocabulary building ----------------------------------------------------

VOCAB_K = 100


def vocab_top_tokens(sf_dir, k=VOCAB_K):
    """Corpus-wide top-k tokens by count (tokenizer-vocab seed).

    Per-batch token explosion is pure Arrow (split_pattern_regex +
    list_flatten) into a keyed count — the combiner leaves the exchange
    (token, partial_count) rows, bounded by per-batch distinct tokens,
    not corpus token occurrences. Final order: count desc, token asc
    (fully deterministic).
    """

    def tokens(batch: pa.Table) -> pa.Table:
        toks = pc.list_flatten(
            pc.split_pattern_regex(batch.column("text"), pattern=r"\s+")
        )
        toks = toks.filter(pc.not_equal(toks, ""))
        return pa.table({"token": toks, "n": np.ones(len(toks), np.int64)})

    ds = documents(sf_dir, columns=["text"])
    # token cardinality is vocabulary-sized (millions on a real corpus):
    # a keyed count on the string key, then a global top-k (stages/agg.py)
    counts = keyed_agg(ds.map_batches(tokens, batch_format="pyarrow"), "token", {"n": "sum"})
    return keyed_topk(counts, [], [("n", "descending"), ("token", "ascending")], k).select_columns(
        ["token", "n"]
    )


def vocab_top_tokens_sql(k=VOCAB_K):
    return (
        "SELECT token, CAST(count(*) AS BIGINT) AS n FROM ("
        "SELECT unnest(regexp_extract_all(text, '\\S+')) AS token FROM documents"
        f") GROUP BY token ORDER BY n DESC, token LIMIT {k}"
    )


# --- fixed-size per-stratum sample ------------------------------------------

SAMPLE_K = 25
SAMPLE_K_SALT = 0x4B53414D504C45  # distinct hash stream


def sample_k_per_stratum(sf_dir, k=SAMPLE_K):
    """Exactly min(k, |stratum|) documents per language, uniformly.

    The deterministic reservoir: rank documents inside each stratum by
    splitmix64(doc_id) and keep the k smallest — a uniform k-sample
    that is identical on every run and every cluster layout (order-by-
    random-hash is the distributed replacement for reservoir sampling,
    which is sequential by construction). A keyed top-k on ``lang``:
    its combiner moves at most k rows per (batch, lang) through the
    exchange.
    """
    from ..stages.sampling import splitmix64

    ds = documents(sf_dir, columns=["doc_id", "lang"])

    def with_hash(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        h = splitmix64(ids.astype(np.uint64) ^ np.uint64(SAMPLE_K_SALT))
        # shift into int64 order-preservingly (uint64 msb -> sign bit)
        return batch.append_column(
            "h", pa.array((h - np.uint64(1 << 63)).view(np.int64), pa.int64())
        )

    ds = ds.map_batches(with_hash, batch_format="pyarrow")
    return keyed_topk(ds, "lang", [("h", "ascending"), ("doc_id", "ascending")], k).select_columns(
        ["lang", "doc_id"]
    )


def sample_k_per_stratum_sql(k=SAMPLE_K):
    from ..stages.sampling import splitmix64_sql

    h = splitmix64_sql(f"xor(CAST(doc_id AS HUGEINT), {int(SAMPLE_K_SALT)})")
    return f"""
SELECT lang, doc_id FROM (
  SELECT lang, doc_id,
         row_number() OVER (PARTITION BY lang ORDER BY ({h}), doc_id) AS rk
  FROM documents
) WHERE rk <= {k}
"""


# --- TF-IDF relevance (integer-exact) ----------------------------------------

TFIDF_TOP_M = 3
# idf ceiling: a df=1 term's raw weight is 1e6 * N, which would wrap
# int64 silently (numpy) around N*tf ~ 9.2e12 while the BIGINT SQL twin
# errors. Capping the WEIGHT (both engines identically) bounds
# score_ppm <= tf * 1e12 — safe for any tf < 9.2e6 tokens/doc at any
# corpus size. Terms rarer than ~1-in-1e6 docs tie at the cap and break
# on the token ordering, identically on both sides.
TFIDF_WEIGHT_PPM_CAP = 10**12


MIX_SALT = 0x4D49_5853_5243  # distinct hash stream per decision ('MIXSRC')


def mix_sources(sf_dir):
    """Deterministic source-mixture rebalancing: down-sample every source
    to the SMALLEST source's whitespace-token total (an equal-token
    mixture — the data-mixing step of a pretraining pipeline), keeping
    doc ``d`` of source ``s`` iff
    ``splitmix64(doc_id ^ MIX_SALT) % 1e6 < keep_ppm[s]`` with
    ``keep_ppm[s] = (min_tokens * 1e6) // tokens[s]`` (the smallest
    source keeps everything). Returns (doc_id, source) of kept docs.

    Scale shape: phase 1 is a source-cardinality keyed sum (a handful of
    source keys); phase 2 is a stateless hash filter with the tiny
    keep_ppm table captured by value — the corpus itself never
    shuffles, and the decision is stable under repartition/resume (pure
    function of doc_id). keep_ppm is computed in arbitrary-precision
    Python ints and HUGEINT in the twin, so min_tokens * 1e6 cannot
    overflow at any corpus size.
    """
    import pyarrow.compute as pc

    from ..stages.sampling import splitmix64

    ds = documents(sf_dir, columns=["doc_id", "source", "text"])

    def doc_tokens(batch: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(batch.column("text"), r"\S+")
        return pa.table({"source": batch.column("source"), "toks": pc.cast(n, pa.int64())})

    totals = collect(keyed_agg(
        ds.map_batches(doc_tokens, batch_format="pyarrow"), "source", {"toks": "sum"}
    )).to_pydict()  # source-cardinality rows
    # zero-token sources (all-empty texts after aggressive stripping)
    # keep nothing and are excluded from the mixture minimum — without
    # the guard min_toks = 0 would zero every source (and the division
    # would crash on the empty one); the SQL twin mirrors both rules
    nonzero = [t for t in totals["toks"] if t > 0]
    min_toks = min(nonzero) if nonzero else 0
    keep_ppm = {
        s: 0 if t == 0 else (min_toks * 1_000_000) // t
        for s, t in zip(totals["source"], totals["toks"])
    }

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy().astype(np.uint64)
        u = (splitmix64(ids ^ np.uint64(MIX_SALT)) % np.uint64(1_000_000)).astype(
            np.int64
        )
        mask = u < rate_of(batch.column("source"), keep_ppm, 0)
        return pa.table(
            {
                "doc_id": batch.column("doc_id").filter(pa.array(mask)),
                "source": batch.column("source").filter(pa.array(mask)),
            }
        )

    # phase 2 re-reads WITHOUT text: the filter only touches
    # doc_id/source, and Ray cannot prune columns through a black-box
    # UDF — re-scanning the corpus' dominant column would double the I/O
    ds_ids = documents(sf_dir, columns=["doc_id", "source"])
    return ds_ids.map_batches(keep, batch_format="pyarrow")


def mix_sources_sql() -> str:
    """DuckDB twin of :func:`mix_sources` (exact)."""
    from ..stages.sampling import splitmix64_sql

    h = splitmix64_sql(f"xor(CAST(doc_id AS HUGEINT), {int(MIX_SALT)})")
    return f"""
WITH tt AS (
  SELECT source, sum(len(regexp_extract_all(text, '\\S+'))) AS toks
  FROM documents GROUP BY source
),
kp AS (
  SELECT source,
         CASE WHEN toks = 0 THEN 0
              ELSE (SELECT CAST(min(toks) FILTER (WHERE toks > 0) AS HUGEINT)
                    FROM tt) * 1000000 // toks
         END AS keep_ppm
  FROM tt
)
SELECT d.doc_id, d.source
FROM documents d JOIN kp USING (source)
WHERE ({h}) % 1000000 < kp.keep_ppm
"""


def tfidf_top_terms(sf_dir, k_vocab=VOCAB_K, m=TFIDF_TOP_M):
    """Top-``m`` most characteristic vocab terms per document by an
    integer-exact TF-IDF-ish score.

    ``score_ppm = tf * min((1_000_000 * N) // df, 10^12)`` — term
    frequency times a parts-per-million inverse document frequency
    computed with integer division only, so the DuckDB twin matches
    bit-for-bit (a log-based idf would float-diverge; the ranking it
    induces is the same rare-term-wins order). The weight cap keeps the
    int64 score from overflowing at any corpus size (see
    TFIDF_WEIGHT_PPM_CAP).

    Three passes, all streaming: (1) the corpus-wide top-``k_vocab``
    vocabulary (tiny result, collected); (2) document frequency per
    vocab term — per-batch DISTINCT (doc, token) partials, one exchange
    of at most ``k_vocab`` rows per batch; (3) per-doc tf + score +
    top-``m`` rank, entirely within map_batches (each document is one
    row, so per-doc ranking never crosses a batch; the ~``k_vocab``-row
    weight table rides in the function's closure). At 100 TB the only
    shuffle is the (token, partial_df) exchange, bounded by vocab size x
    batches.
    """
    vocab_arr = collect(vocab_top_tokens(sf_dir, k=k_vocab)).column("token").combine_chunks()
    docs = documents(sf_dir, columns=["doc_id", "text"])
    n_docs = docs.count()  # parquet metadata, no scan

    def explode_vocab(batch: pa.Table) -> pa.Table:
        """(doc_id, token) per vocab token occurrence."""
        tok_lists = pc.split_pattern_regex(batch.column("text"), pattern=r"\s+")
        flat = pc.list_flatten(tok_lists)
        doc_id = batch.column("doc_id").take(pc.list_parent_indices(tok_lists))
        keep = pc.and_(pc.is_in(flat, value_set=vocab_arr), pc.not_equal(flat, ""))
        return pa.table({"doc_id": doc_id, "token": flat}).filter(keep)

    def doc_terms(batch: pa.Table) -> pa.Table:
        # a document is one row, so its distinct terms are distinct here
        token = explode_vocab(batch).group_by(["doc_id", "token"], use_threads=False).aggregate([])["token"]
        return pa.table({"token": token, "df": np.ones(len(token), np.int64)})

    df_tbl = collect(
        keyed_agg(docs.map_batches(doc_terms, batch_format="pyarrow"), "token", {"df": "sum"})
    )  # <= k_vocab rows
    weight = np.minimum((1_000_000 * n_docs) // df_tbl.column("df").to_numpy(), TFIDF_WEIGHT_PPM_CAP)
    weights = pa.table({"token": df_tbl.column("token"), "weight_ppm": pa.array(weight, pa.int64())})
    order = [("doc_id", "ascending"), ("score_ppm", "descending"), ("token", "ascending")]

    def score_batch(batch: pa.Table) -> pa.Table:
        tf = explode_vocab(batch).group_by(["doc_id", "token"], use_threads=False).aggregate([([], "count_all")])
        scored = tf.join(weights, "token", use_threads=False)
        scored = scored.append_column("score_ppm", pc.multiply(scored["count_all"], scored["weight_ppm"]))
        scored, start = _sorted_runs(scored, ["doc_id"], order)
        return scored.filter(pa.array(run_position(start) < m)).select(["doc_id", "token", "score_ppm"])

    return docs.map_batches(score_batch, batch_format="pyarrow")


def tfidf_top_terms_sql(k_vocab=VOCAB_K, m=TFIDF_TOP_M):
    return f"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '\\S+')) AS token FROM documents
), vocab AS (
  SELECT token, count(*) AS n FROM toks GROUP BY token
  ORDER BY n DESC, token LIMIT {int(k_vocab)}
), df AS (
  SELECT token, count(DISTINCT doc_id) AS df FROM toks
  WHERE token IN (SELECT token FROM vocab) GROUP BY token
), nd AS (SELECT count(*) AS n_docs FROM documents
), tf AS (
  SELECT doc_id, token, count(*) AS tf FROM toks
  WHERE token IN (SELECT token FROM vocab) GROUP BY doc_id, token
), scored AS (
  SELECT tf.doc_id, tf.token,
         CAST(tf.tf * least((1000000 * nd.n_docs) // df.df,
                            {TFIDF_WEIGHT_PPM_CAP}) AS BIGINT) AS score_ppm
  FROM tf JOIN df USING(token) CROSS JOIN nd
)
SELECT doc_id, token, score_ppm FROM (
  SELECT *, row_number() OVER (
      PARTITION BY doc_id ORDER BY score_ppm DESC, token) AS r
  FROM scored
) WHERE r <= {int(m)}
"""


# --- sequence packing (concat-and-chunk into fixed token budgets) -------------

PACK_BUDGET = 512
PACK_PARTS = 32


def pack_sequences(sf_dir, budget=PACK_BUDGET, n_parts=PACK_PARTS):
    """Assign every document its position in the packed training stream:
    documents are concatenated in doc_id order and chunked into packs of
    ``budget`` tokens (the standard pretraining concat-and-chunk).
    Returns (doc_id, n_tokens, pack_id, pack_offset).

    The core primitive is a distributed ORDERED PREFIX SUM over doc_id
    order, built in two passes without any sequential bottleneck:

    1. doc_id range from Parquet row-group statistics (metadata only, no
       scan), split into ``n_parts`` contiguous ranges;
    2. pass 1: per-range token totals (a keyed sum -> ``n_parts`` rows
       to the driver -> exclusive scan -> broadcast);
    3. pass 2: a keyed scan on the range (stages/agg.py) sorts its docs
       and adds its base offset to their running token sum — every
       doc's global stream offset, with no cross-range dependency.

    Token counting runs in both passes (vectorized RE2); re-scanning
    beats pinning a doc-level table at corpus scale.
    """
    import pyarrow.parquet as pq

    from ..stages.text import token_count_batch

    f = pq.ParquetFile(f"{sf_dir}/documents.parquet")
    # resolve doc_id by NAME (column order is not a contract) and fall
    # back to a scan aggregate if the writer omitted column statistics
    los, his = [], []
    for rg in range(f.metadata.num_row_groups):
        meta = f.metadata.row_group(rg)
        st = None
        for ci in range(meta.num_columns):
            col = meta.column(ci)
            if col.path_in_schema == "doc_id":
                st = col.statistics
                break
        if st is None or st.min is None or st.max is None:
            los, his = [], []
            break
        los.append(st.min)
        his.append(st.max)
    if los:
        lo, hi = min(los), max(his)
    else:  # stats-free file: one distributed min/max pass over doc_id
        def ids(batch: pa.Table) -> pa.Table:
            i = batch.column("doc_id")
            return pa.table({"__k": np.zeros(len(i), np.int64), "lo": i, "hi": i})

        ds = documents(sf_dir, columns=["doc_id"]).map_batches(ids, batch_format="pyarrow")
        [bounds] = keyed_agg(ds, "__k", {"lo": "min", "hi": "max"}).take_all()
        lo, hi = bounds["lo"], bounds["hi"]
    span = (hi - lo + n_parts) // n_parts  # ceil

    def tc(batch: pa.Table) -> pa.Table:
        t = token_count_batch(batch)
        return t.append_column("part", pa.array((t.column("doc_id").to_numpy() - lo) // span))

    docs = documents(sf_dir, columns=["doc_id", "text"])
    counted = docs.map_batches(tc, batch_format="pyarrow")

    # n_parts rows
    totals = collect(keyed_agg(counted, "part", {"n_tokens": "sum"})).sort_by("part")
    present = totals.column("part").to_numpy()
    cum = np.cumsum(totals.column("n_tokens").to_numpy())
    run = np.zeros(n_parts + 1, dtype=np.int64)
    run[present + 1] = cum
    base = np.maximum.accumulate(run)[:-1]  # exclusive base per part

    def offsets(g: pa.Table, start: np.ndarray) -> pa.Table:
        n = g.column("n_tokens").to_numpy()
        off = base[g.column("part").to_numpy()] + run_cumsum(n, start) - n
        pack, at = np.divmod(off, budget)
        return pa.table({"doc_id": g.column("doc_id"), "n_tokens": n, "pack_id": pack, "pack_offset": at})

    return keyed_scan(counted, "part", [("doc_id", "ascending")], offsets)


def pack_sequences_sql(budget=PACK_BUDGET):
    return f"""
WITH tc AS (
  SELECT doc_id, length(regexp_extract_all(text, '\\S+')) AS n_tokens
  FROM documents
), w AS (
  SELECT doc_id, n_tokens,
         CAST(coalesce(sum(n_tokens) OVER (ORDER BY doc_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT)
           AS off
  FROM tc
)
SELECT doc_id, n_tokens, off // {int(budget)} AS pack_id,
       off % {int(budget)} AS pack_offset
FROM w
"""


# --- sliding-window chunking (RAG / long-context prep) ------------------------

CHUNK_SIZE = 24
CHUNK_OVERLAP = 8


def chunk_documents(sf_dir, size=CHUNK_SIZE, overlap=CHUNK_OVERLAP):
    """(doc_id, chunk_idx, tok_start, tok_end): sliding token windows of
    ``size`` with ``overlap`` — the retrieval-prep expansion. Chunk i
    covers [i*stride, min(i*stride + size, n_tokens)) with
    stride = size - overlap; docs at or under ``size`` tokens (including
    empty ones) emit exactly one chunk.

    Pure per-row flat-map: token counts and the chunk explosion are one
    vectorized pass per batch (repeat + rebased arange) — no exchange at
    all, the embarrassingly-parallel shape chunking should have.
    """
    from ..stages.text import token_count_batch

    stride = size - overlap
    if stride <= 0:
        raise ValueError("overlap must be smaller than size")

    def chunks(batch: pa.Table) -> pa.Table:
        t = token_count_batch(batch)
        doc_id = t.column("doc_id").to_numpy()
        n = t.column("n_tokens").to_numpy()
        nch = np.where(n <= size, 1, (n - size + stride - 1) // stride + 1)
        rep_doc = np.repeat(doc_id, nch)
        rep_n = np.repeat(n, nch)
        pos = np.arange(int(nch.sum()))
        starts = np.cumsum(nch) - nch
        idx = pos - np.repeat(starts, nch)
        tok_start = idx * stride
        return pa.table(
            {
                "doc_id": pa.array(rep_doc, pa.int64()),
                "chunk_idx": pa.array(idx.astype(np.int64), pa.int64()),
                "tok_start": pa.array(tok_start.astype(np.int64), pa.int64()),
                "tok_end": pa.array(
                    np.minimum(tok_start + size, rep_n).astype(np.int64), pa.int64()
                ),
            }
        )

    return documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        chunks, batch_format="pyarrow"
    )


def chunk_documents_sql(size=CHUNK_SIZE, overlap=CHUNK_OVERLAP):
    stride = size - overlap
    return f"""
WITH tc AS (
  SELECT doc_id, length(regexp_extract_all(text, '\\S+')) AS n_tokens
  FROM documents
), e AS (
  SELECT doc_id, n_tokens,
         unnest(range(CASE WHEN n_tokens <= {size} THEN 1
                ELSE (n_tokens - {size} + {stride} - 1) // {stride} + 1 END))
           AS chunk_idx
  FROM tc
)
SELECT doc_id, chunk_idx, chunk_idx * {stride} AS tok_start,
       least(chunk_idx * {stride} + {size}, n_tokens) AS tok_end
FROM e
"""


# --- domain balancing (cap per source) ---------------------------------------

CAP_PER_SOURCE_K = 20


def cap_per_source(sf_dir, k=CAP_PER_SOURCE_K):
    """Domain balancing: keep at most ``k`` documents per source (the
    lowest ``doc_id``s — "earliest crawled" under the corpus' id order).
    The standard guard against a single host/domain dominating a crawl-
    derived pretraining mix.

    Scale shape: a keyed top-k on ``source`` (stages/agg.py), whose
    combiner caps every block at k rows per source before the exchange.
    The exchange moves at most k x n_sources x n_blocks (id, source)
    pairs — never document text, never the uncapped row set. Returns
    Dataset[doc_id, source].
    """
    ds = documents(sf_dir, columns=["doc_id", "source"])

    return keyed_topk(ds, "source", [("doc_id", "ascending")], k).select_columns(["doc_id", "source"])


def cap_per_source_sql(k=CAP_PER_SOURCE_K) -> str:
    return f"""
SELECT doc_id, source FROM (
  SELECT doc_id, source,
         row_number() OVER (PARTITION BY source ORDER BY doc_id) AS rn
  FROM documents
) WHERE rn <= {int(k)}
"""


# --- global length-percentile filter ------------------------------------------

LENGTH_FILTER_Q = 0.5


def length_filter_median(sf_dir, q=LENGTH_FILTER_Q):
    """Keep documents at or above the corpus-wide ``q`` length quantile
    (whitespace tokens, quantile_disc semantics: the smallest length
    whose cumulative count reaches ``ceil(q * n)``). Length filtering
    against a GLOBAL percentile — not a fixed constant — is the usual
    first quality gate on web text, and it needs a corpus statistic.

    Scale shape: two streaming passes. Pass 1 reduces to a histogram of
    DISTINCT token counts (a keyed count — the exchange moves (length,
    count) pairs, bounded by the distinct-length set, not by rows); the
    cutoff falls out of one cumulative sum over that driver-sized
    histogram. Pass 2 re-streams
    the corpus through a stateless filter against the broadcast cutoff.
    Returns Dataset[doc_id, n_tokens].
    """
    from ..stages.text import token_count_batch

    def tc(sf):
        return documents(sf, columns=["doc_id", "text"]).map_batches(
            token_count_batch, batch_format="pyarrow"
        )

    def ones(batch: pa.Table) -> pa.Table:
        return batch.append_column("cnt", pa.array(np.ones(batch.num_rows, np.int64)))

    h = collect(keyed_agg(
        tc(sf_dir).map_batches(ones, batch_format="pyarrow"), "n_tokens", {"cnt": "sum"}
    )).sort_by("n_tokens")  # driver-sized: one row per distinct document length
    cum = h.column("cnt").to_numpy().cumsum()
    target = int(np.ceil(q * cum[-1]))
    cutoff = int(h.column("n_tokens").to_numpy()[np.searchsorted(cum, target)])

    def keep(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch.column("n_tokens"), cutoff))

    return tc(sf_dir).map_batches(keep, batch_format="pyarrow")


def length_filter_median_sql(q=LENGTH_FILTER_Q) -> str:
    """Exact twin: same explicit quantile_disc definition (smallest
    length with cumulative count >= ceil(q * n)), no engine-specific
    interpolation semantics."""
    return f"""
WITH tc AS (
  SELECT doc_id, length(regexp_extract_all(text, '\\S+')) AS n_tokens
  FROM documents
), hist AS (
  SELECT n_tokens, count(*) AS cnt FROM tc GROUP BY n_tokens
), cum AS (
  SELECT n_tokens, sum(cnt) OVER (ORDER BY n_tokens) AS c,
         sum(cnt) OVER () AS tot
  FROM hist
), cut AS (
  SELECT min(n_tokens) AS cutoff FROM cum WHERE c >= ceil({q} * tot)
)
SELECT doc_id, n_tokens FROM tc, cut WHERE n_tokens >= cutoff
"""


# --- deterministic global shuffle (sharded) -----------------------------------

SHUFFLE_SALT = 0x53_4855_4646  # distinct hash stream per decision ('SHUFF')
SHUFFLE_N_SHARDS = 64


def shuffle_shards(sf_dir, n_shards=SHUFFLE_N_SHARDS):
    """Deterministic global shuffle for training: every document gets a
    (shard, shard_pos) — the order a reader streaming shard files in
    position order would see. Hash-ordering by splitmix64(doc_id) is the
    distributed replacement for a seeded Fisher-Yates pass: identical
    output on every run, resume, and cluster size, and NO global sort —
    one hash exchange on the shard key, then an independent in-shard
    sort per group.

    Scale shape: ``n_shards`` is the unit of parallel work AND output
    (one shard = one training file); size it so corpus/n_shards fits a
    worker (100 TB -> ~10^6 shards of ~100 MB). The exchange moves
    (doc_id, shard, hash) triples only. Returns
    Dataset[shard, shard_pos, doc_id].
    """
    from ..stages.sampling import splitmix64

    ds = documents(sf_dir, columns=["doc_id"])

    def with_key(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        h = splitmix64(ids.astype(np.uint64) ^ np.uint64(SHUFFLE_SALT))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "shard": pa.array((h % np.uint64(n_shards)).astype(np.int64)),
                # order-preserving int64 shift (uint64 msb -> sign bit),
                # same trick as sample_k_per_stratum
                "h": pa.array((h - np.uint64(1 << 63)).view(np.int64), pa.int64()),
            }
        )

    def in_shard(block: pa.Table, start: np.ndarray) -> pa.Table:
        # splitmix64 is a bijection and doc_ids are unique -> no ties
        return pa.table(
            {
                "shard": block.column("shard"),
                "shard_pos": pa.array(run_position(start), pa.int64()),
                "doc_id": block.column("doc_id"),
            }
        )

    return keyed_scan(
        ds.map_batches(with_key, batch_format="pyarrow"), "shard", [("h", "ascending")], in_shard
    )


def shuffle_shards_sql(n_shards=SHUFFLE_N_SHARDS) -> str:
    from ..stages.sampling import splitmix64_sql

    h = splitmix64_sql(f"xor(CAST(doc_id AS HUGEINT), {int(SHUFFLE_SALT)})")
    return f"""
WITH hv AS (SELECT doc_id, ({h}) AS h FROM documents)
SELECT CAST(h % {int(n_shards)} AS BIGINT) AS shard,
       CAST(row_number() OVER (PARTITION BY h % {int(n_shards)} ORDER BY h) - 1
            AS BIGINT) AS shard_pos,
       doc_id
FROM hv
"""
