"""Dedup / text-analysis / kNN / ANN operator tests (sf0.001 + synthetic)."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


# --- kNN --------------------------------------------------------------------


def _brute_knn_oracle(k=5, n_queries=20, n_docs=500):
    from rio_color_ray.sources.pages import page_coords_microdeg

    import duckdb

    doc_id = np.arange(n_docs)
    lat_u, lon_u = page_coords_microdeg(doc_id)
    src = duckdb.sql(
        f"SELECT doc_id, source FROM read_parquet('{SF}/documents.parquet') ORDER BY doc_id"
    ).df()
    urls = np.asarray(
        [f"https://{s}.example.com/doc/{d}" for d, s in zip(src.doc_id, src.source)]
    )
    rows = []
    for q in range(n_queries):
        d2 = (lat_u - lat_u[q]) ** 2 + (lon_u - lon_u[q]) ** 2
        order = sorted(range(n_docs), key=lambda i: (d2[i], urls[i]))
        rank = 1
        for i in order:
            if i == q:
                continue
            rows.append((q, urls[i], rank))
            rank += 1
            if rank > k:
                break
    return pd.DataFrame(rows, columns=["query_id", "url", "rank"])


def test_knn_brute_and_cells_match_oracle(ray_session):
    from rio_color_ray.pipelines import knn as K

    exp = _brute_knn_oracle(k=5, n_queries=20)
    got = (
        K.knn(SF, k=5, n_queries=20)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    # max_rounds=0 sends every query to the brute straggler pass
    for max_rounds in (4, 0):
        cells = (
            K.knn_cells(SF, k=5, n_queries=20, max_rounds=max_rounds)
            .to_pandas()
            .sort_values(["query_id", "rank"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            cells[["query_id", "url", "rank"]], exp, check_dtype=False
        )


def test_local_topk_keeps_every_kth_place_tie():
    """The per-batch kernel of the broadcast-query stages keeps every row
    that can still be in a query's top k, whatever the tie-break column:
    ranked by (cost, tie key), its survivors' first k equal the first k
    of all rows, in random tie-heavy trials with excluded entries."""
    from rio_color_ray.stages.knn import excluded, local_topk

    rng = np.random.default_rng(0)
    for trial in range(3000):
        n, q, k = rng.integers(1, 60), rng.integers(1, 6), int(rng.integers(1, 8))
        dtype = np.int64 if trial % 2 else np.float64
        cost = rng.integers(0, 4, size=(n, q)).astype(dtype)
        cost[rng.random((n, q)) < 0.1] = excluded(dtype)
        tie = rng.permutation(n)
        rows, cols = local_topk(cost, k)
        assert (cost[rows, cols] != excluded(dtype)).all()
        for c in range(q):
            def first_k(r):
                return sorted(r, key=lambda i: (cost[i, c], tie[i]))[:k]

            everything = [i for i in range(n) if cost[i, c] != excluded(dtype)]
            assert first_k(rows[cols == c]) == first_k(everything), (trial, c)


def _sf0_01_pages():
    """The sf0.01 pages (url, lat, lon) as ONE Arrow table, built by the
    pages source and geocode bodies without Ray."""
    from rio_color_ray.sources.pages import synth_pages_batch
    from rio_color_ray.stages.geocode import geocode_batch

    docs = pq.read_table("/root/testdata/sf0.01/documents.parquet")
    return geocode_batch(synth_pages_batch(docs)).select(["url", "lat", "lon"])


def test_knn_stage_over_one_batch_matches_sql():
    """``KNNBruteStage`` over all the sf0.01 pages in one batch, ranked
    by (d2, url), equals ``knn_sql``: a distance tie at k-th place keeps
    the url that sorts first (queries 51, 59 and 61 have such ties)."""
    import duckdb

    from rio_color_ray.pipelines.knn import NEAREST, knn_sql
    from rio_color_ray.stages.knn import KNNBruteStage

    pages = _sf0_01_pages()
    doc_id = np.asarray([int(u.rsplit("/", 1)[1]) for u in pages.column("url").to_pylist()])
    q = np.argsort(doc_id)[:100]
    lat_u = np.rint(pages.column("lat").to_numpy() * 1e6).astype(np.int64)
    lon_u = np.rint(pages.column("lon").to_numpy() * 1e6).astype(np.int64)
    stage = KNNBruteStage(pages.column("url").to_numpy(zero_copy_only=False)[q], lat_u[q], lon_u[q], 5)
    part = stage(pages).sort_by([("query_id", "ascending")] + NEAREST).to_pandas()
    part["rank"] = part.groupby("query_id").cumcount() + 1
    got = part[part["rank"] <= 5].assign(query_id=lambda d: doc_id[q][d["query_id"]])

    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM read_parquet('/root/testdata/sf0.01/documents.parquet')")
    want = con.sql(knn_sql(k=5, n_queries=100)).df()
    cols = ["query_id", "rank", "url"]
    pd.testing.assert_frame_equal(
        got[cols].sort_values(cols[:2]).reset_index(drop=True),
        want[cols].sort_values(cols[:2]).reset_index(drop=True),
        check_dtype=False,
    )


@pytest.mark.parametrize("blocks", [1, 2])
def test_knn_distance_ties_in_one_block_and_across_two(ray_session, blocks):
    """Points tied at one distance from the query, in one block and then
    split over two: the broadcast stage + ``keyed_topk`` keep the urls
    that sort first, as ``knn_sql``'s (d2, url) order does."""
    import ray.data

    from rio_color_ray.pipelines.knn import NEAREST
    from rio_color_ray.stages.agg import keyed_topk
    from rio_color_ray.stages.knn import KNNBruteStage
    from rio_color_ray.stages.statecache import make_stage_fn

    # query "q" at the origin; eight points at d2 = 1 (microdegrees),
    # the urls that win the tie listed last; one farther point
    urls = ["p9", "p8", "p7", "p6", "p5", "p4", "p3", "p2", "p1", "far", "q"]
    lat_u = np.array([1, 0, -1, 0, 1, 0, -1, 0, 1, 2, 0])
    lon_u = np.array([0, 1, 0, -1, 0, 1, 0, -1, 0, 2, 0])
    pts = pa.table({"url": urls, "lat": lat_u / 1e6, "lon": lon_u / 1e6})
    parts = [pts.slice(0, 5), pts.slice(5)] if blocks == 2 else [pts]
    partial = ray.data.from_arrow(parts).map_batches(
        make_stage_fn(KNNBruteStage, ["q"], lat_u[-1:], lon_u[-1:], 3), batch_format="pyarrow"
    )
    got = keyed_topk(partial, "query_id", NEAREST, 3).to_pandas().sort_values("rank")
    assert got["url"].tolist() == ["p1", "p2", "p3"]
    assert got["d2"].tolist() == [1, 1, 1] and got["rank"].tolist() == [1, 2, 3]


# --- text analysis ----------------------------------------------------------


def test_token_and_quality_fixed_cases(ray_session):
    from rio_color_ray.stages.text import quality_batch, token_count_batch

    t = pa.table({"doc_id": [0, 1, 2], "text": ["a  b   c", "", "Hello, World! 42"]})
    out = token_count_batch(t).to_pydict()
    assert out["n_tokens"] == [3, 0, 3]
    q = quality_batch(t).to_pydict()
    assert q["n_chars"] == [8, 0, 16]
    assert q["n_alpha"] == [3, 0, 10]
    assert q["alpha_ppm"][0] == 3 * 1_000_000 // 8
    assert q["alpha_ppm"][1] == 0


def test_langid_fixed_cases(ray_session):
    from rio_color_ray.stages.text import LangIdStage

    stage = LangIdStage()
    t = pa.table(
        {
            "doc_id": [0, 1, 2, 3],
            "text": [
                "the cat and the dog sat in a house that was red",
                "der Hund und die Katze ist nicht auf der Couch",
                "le chat et les chiens est dans une maison pour que",
                "zzz qqq xxx",  # no stopwords anywhere
            ],
        }
    )
    out = stage(t).to_pydict()
    assert out["lang_pred"] == ["en", "de", "fr", "und"]


def test_langid_matches_sql_oracle(ray_session):
    """lang_id over sf0.001 must equal its DuckDB oracle value-for-value."""
    import duckdb

    from rio_color_ray.pipelines.corpus import lang_id
    from rio_color_ray.stages.text import lang_id_sql

    rdf = (
        lang_id(SF)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    odf = con.sql(lang_id_sql()).df().sort_values("doc_id").reset_index(drop=True)
    odf = odf[rdf.columns].astype(rdf.dtypes.to_dict())
    pd.testing.assert_frame_equal(rdf, odf)


def test_fingerprint_batch_invariance(ray_session):
    """Fingerprints must not depend on batch composition (rolling hashes
    must not bleed across document boundaries)."""
    from rio_color_ray.stages.text import fingerprint_batch

    texts = ["alpha beta gamma delta", "one two", "x", "", "p q r s t u"]
    whole = fingerprint_batch(
        pa.table({"doc_id": list(range(5)), "text": texts})
    ).to_pydict()
    single = []
    for i, t in enumerate(texts):
        single.extend(
            fingerprint_batch(pa.table({"doc_id": [i], "text": [t]})).to_pydict()[
                "fingerprint"
            ]
        )
    assert whole["fingerprint"] == single
    # identical text -> identical fingerprint; different text -> different
    a = fingerprint_batch(pa.table({"doc_id": [0], "text": ["a b c d e"]}))
    b = fingerprint_batch(pa.table({"doc_id": [1], "text": ["a b c d e"]}))
    assert a.column("fingerprint").to_pylist() == b.column("fingerprint").to_pylist()


# --- dedup ------------------------------------------------------------------


def test_exact_dedup_pages_keeps_one_per_text(ray_session):
    from rio_color_ray.pipelines.corpus import dedup_exact_pages

    import duckdb

    from rio_color_ray.sources.pages import REP_STRIDE

    kept = dedup_exact_pages(SF, replicate=3).to_pandas()
    # 500 distinct texts, three urls each -> 500 keepers: the lexicographic
    # min url per text (note: string order, so not always replica 0)
    assert len(kept) == 500
    exp = duckdb.sql(
        f"WITH pr AS (SELECT 'https://' || source || '.example.com/doc/' || "
        f"(doc_id + r * {REP_STRIDE}) AS url, text "
        f"FROM read_parquet('{SF}/documents.parquet') "
        f"CROSS JOIN (SELECT * FROM (VALUES (0),(1),(2)) v(r))) "
        f"SELECT min(url) AS url FROM pr GROUP BY text"
    ).df()
    assert set(kept["url"]) == set(exp["url"])


def test_minhash_finds_exact_duplicates_and_verifies(ray_session):
    from rio_color_ray.pipelines.corpus import near_dup_pairs_minhash
    from rio_color_ray.stages.dedup import MinHashStage, jaccard

    pairs = near_dup_pairs_minhash(SF, replicate=2, threshold=0.8).to_pandas()
    # every doc's (r0, r1) pair must be present (identical text, J = 1)
    a_ids = pairs["url_a"].str.rsplit("/", n=1).str[1].astype(np.int64) % 10_000_000
    b_ids = pairs["url_b"].str.rsplit("/", n=1).str[1].astype(np.int64) % 10_000_000
    replica_pairs = pairs[(a_ids == b_ids)]
    assert len(replica_pairs) == 500
    # any extra pairs are genuinely near-duplicate (already verified >= 0.8);
    # spot-check one against the exact jaccard definition
    stage = MinHashStage()
    assert jaccard("a b c d e f", "a b c d e f") == 1.0
    assert jaccard("a b c d e f", "x y z w v u") == 0.0


def test_simhash_identical_docs_collide(ray_session):
    from rio_color_ray.pipelines.corpus import near_dup_pairs_simhash

    pairs = near_dup_pairs_simhash(SF, replicate=2, max_hamming=3).to_pandas()
    a_ids = pairs["url_a"].str.rsplit("/", n=1).str[1].astype(np.int64) % 10_000_000
    b_ids = pairs["url_b"].str.rsplit("/", n=1).str[1].astype(np.int64) % 10_000_000
    assert (a_ids == b_ids).sum() == 500  # all replica pairs found


# --- ANN --------------------------------------------------------------------


def test_ann_topk_matches_numpy_oracle(ray_session):
    from rio_color_ray.pipelines.corpus import ann_topk

    got = (
        ann_topk(SF, k=10, n_queries=8)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    t = pq.read_table(f"{SF}/embeddings.parquet")
    ids = t.column("vec_id").to_numpy()
    vecs = np.stack(t.column("embedding").to_pylist()).astype(np.float64)
    vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    rows = []
    for q in range(8):
        qv = vecs[ids == q][0]
        s = np.round(vecs @ qv, 6)
        order = sorted(
            [i for i in range(len(ids)) if ids[i] != q],
            key=lambda i: (-s[i], ids[i]),
        )[:10]
        rows.extend((q, int(ids[i]), r + 1) for r, i in enumerate(order))
    exp = pd.DataFrame(rows, columns=["query_id", "vec_id", "rank"])
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_embedding_near_dup_synthetic(ray_session, tmp_path):
    from rio_color_ray.pipelines.corpus import embedding_near_dup

    rng = np.random.default_rng(5)
    base = rng.standard_normal((50, 64)).astype(np.float32)
    # vec 50/51 duplicate vec 0; vec 52 nearly duplicates vec 1
    dup = np.vstack([base, base[0], base[0], base[1] + 0.001 * rng.standard_normal(64).astype(np.float32)])
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(53), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in dup], pa.list_(pa.float32())),
        }
    )
    pq.write_table(t, os.path.join(tmp_path, "embeddings.parquet"))
    pairs = embedding_near_dup(str(tmp_path), threshold=0.95).to_pandas()
    got = set(zip(pairs["vec_id_a"], pairs["vec_id_b"]))
    assert {(0, 50), (0, 51), (50, 51), (1, 52)} <= got


def test_jaccard_near_dup_matches_minhash_on_replicated(ray_session):
    """The min-shingle Jaccard path and the MinHash-LSH path verify with
    the same exact-Jaccard predicate, so on the replicated corpus (every
    text duplicated under 2 urls) both must report the same pairs."""
    from rio_color_ray.pipelines.corpus import (
        near_dup_pairs_jaccard,
        near_dup_pairs_minhash,
    )

    mh = near_dup_pairs_minhash(SF).to_pandas()
    jc = near_dup_pairs_jaccard(SF).to_pandas()
    assert set(zip(mh["url_a"], mh["url_b"])) == set(zip(jc["url_a"], jc["url_b"]))
    assert len(jc) >= 500  # one exact-dup pair per doc guaranteed


def test_embedding_near_dup_planted_recall(ray_session):
    """replicate=2 plants one jittered near-dup per vector; the
    multi-table LSH + bucket-cosine pipeline must recover >=95%."""
    from rio_color_ray.pipelines.corpus import VEC_REP_STRIDE, embedding_near_dup

    pairs = embedding_near_dup(SF, replicate=2).to_pandas()
    found = set(zip(pairs["vec_id_a"], pairs["vec_id_b"]))
    hit = sum((v, v + VEC_REP_STRIDE) in found for v in range(500))
    assert hit / 500 >= 0.95


def test_media_features_deterministic(ray_session):
    from rio_color_ray.pipelines.corpus import media_features

    a = media_features(SF).to_pandas().sort_values("media_id").reset_index(drop=True)
    b = media_features(SF).to_pandas().sort_values("media_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    assert len(a) == 500 and (a["height"] == 16).all()
    assert a["mean_r"].between(0, 255).all()


# --- LSH scale guards --------------------------------------------------------


def test_candidate_pairs_mega_bucket_bounded(ray_session):
    """A planted identical-text cluster (5k docs, every band colliding)
    must complete quickly with LINEAR output: buckets over the cap
    degrade to star pairs against the min id instead of emitting
    n(n-1)/2 pairs (stages/dedup.py MAX_BUCKET_PAIRS_IDS)."""
    import ray.data

    from rio_color_ray.stages.dedup import MinHashStage, candidate_pairs_from_bands

    n = 5000
    t = pa.table(
        {
            "url": [f"u{i:05d}" for i in range(n)],
            "text": ["the same boilerplate text repeated everywhere"] * n,
        }
    )
    ds = ray.data.from_arrow(t)
    bands = ds.map_batches(
        MinHashStage(id_col="url", text_col="text"), batch_format="pyarrow"
    )
    pairs = candidate_pairs_from_bands(bands).to_pandas()
    # star per bucket, same min id in every band -> exactly n-1 pairs
    assert len(pairs) == n - 1
    assert (pairs["id_a"] == "u00000").all()


def test_embedding_hot_bucket_bounded(ray_session, tmp_path):
    """A planted 5k-member identical-embedding cluster (every LSH table
    hashes it to one bucket) must complete in seconds with LINEAR
    output: segments over MAX_BUCKET_PAIRS_IDS degrade to cosine-verified
    star pairs against the min id — never the n(n-1)/2 all-pairs matrix
    (the embedding twin of test_candidate_pairs_mega_bucket_bounded)."""
    from rio_color_ray.pipelines.corpus import embedding_near_dup

    n = 5000
    rng = np.random.default_rng(11)
    v = rng.standard_normal(64).astype(np.float32)
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(n), pa.int64()),
            "embedding": pa.array([list(map(float, v))] * n, pa.list_(pa.float32())),
        }
    )
    pq.write_table(t, os.path.join(tmp_path, "embeddings.parquet"))
    pairs = embedding_near_dup(str(tmp_path), replicate=1).to_pandas()
    # star per (table, bucket), identical across tables -> exactly n-1
    assert len(pairs) == n - 1
    assert (pairs["vec_id_a"] == 0).all()
    assert set(pairs["vec_id_b"]) == set(range(1, n))


def test_ann_ivf_recall_on_sorted_layout(ray_session, tmp_path):
    """Centroid training must survive a cluster-SORTED layout: 20 tight
    Gaussian clusters written in label order, query vectors planted in
    the LAST clusters. Training on the file's first batch only ever sees
    the first ~2 clusters — measured recall 0.65 at n_probe=6 and a 1.6x
    worse max-cell load; sample_embeddings_spread (seeded draw across
    row groups) restores recall 1.0. Guards the representative-sampling
    contract of ann_topk_ivf."""
    from rio_color_ray.pipelines.corpus import ann_topk, ann_topk_ivf

    rng = np.random.default_rng(99)
    n_clusters, n, dim = 20, 4000, 64
    centers = rng.standard_normal((n_clusters, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    lab = np.sort(rng.integers(0, n_clusters, n))
    pts = (centers[lab] + 0.05 * rng.standard_normal((n, dim))).astype(np.float32)
    ids = np.arange(8, n + 8)
    ids[-8:] = np.arange(8)  # query ids 0..7 live in the last clusters
    t = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in pts], pa.list_(pa.float32())),
        }
    )
    pq.write_table(t, os.path.join(tmp_path, "embeddings.parquet"), row_group_size=256)
    exact = ann_topk(str(tmp_path), k=10, n_queries=8).to_pandas()
    approx = ann_topk_ivf(str(tmp_path), k=10, n_queries=8).to_pandas()
    e = set(zip(exact["query_id"], exact["vec_id"]))
    a = set(zip(approx["query_id"], approx["vec_id"]))
    assert len(e & a) / len(e) >= 0.9, (len(e & a), len(e))


def test_minhash_signatures_batch_invariant(ray_session):
    """Vectorized signatures must not depend on batch composition and
    must be identical for identical texts."""
    from rio_color_ray.stages.dedup import MinHashStage

    stage = MinHashStage()
    texts = ["alpha beta gamma delta eps", "one two", "x", "", "alpha beta gamma delta eps"]
    sig_all = stage.signatures(texts)
    for i, t in enumerate(texts):
        assert (stage.signature(t) == sig_all[i]).all()
    assert (sig_all[0] == sig_all[4]).all()
    assert (sig_all[0] != sig_all[1]).any()


@pytest.mark.parametrize("ids", [pa.array(["u1", "u2", "u3"]), pa.array([7, 3, 5], pa.int64())])
def test_band_rows_repeat_the_id_column_in_arrow(ids):
    """MinHash and SimHash band rows repeat each id once per band, in
    the id column's own Arrow type, also from two chunks and from an
    empty batch."""
    from rio_color_ray.stages.dedup import N_BANDS, MinHashStage, simhash_batch

    t = pa.table({"doc_id": ids, "text": ["a b c d", "", "x y"]})
    t = pa.concat_tables([t.slice(0, 1), t.slice(1)])
    for stage, bands in ((MinHashStage(), N_BANDS), (simhash_batch(), 4)):
        out = stage(t).column("id")
        assert out.type == ids.type
        assert out.to_pylist() == [i for i in ids.to_pylist() for _ in range(bands)]
        assert stage(t.slice(0, 0)).column("id").type == ids.type


def test_hamming_matrix_matches_scalar(ray_session):
    from rio_color_ray.stages.dedup import hamming64, hamming_matrix

    rng = np.random.default_rng(3)
    sims = rng.integers(0, 1 << 62, 20, dtype=np.int64)
    m = hamming_matrix(sims)
    for i in range(20):
        for j in range(20):
            assert m[i, j] == hamming64(sims[i], sims[j])


def test_shingle_hash_arrays_matches_naive(ray_session):
    """The padded rolling-kernel gram construction must equal the per-doc
    definition (rolling fold with end padding) for every length class."""
    from rio_color_ray.stages.dedup import shingle_hash_arrays
    from rio_color_ray.stages.text import _FP_H0, _FP_P1, _FP_P2, token_hashes

    texts = ["a b c d e", "p q", "z", "", "m n o"]
    grams, gcounts = shingle_hash_arrays(texts)
    starts = np.cumsum(gcounts) - gcounts
    for i, t in enumerate(texts):
        toks = t.split()
        hs = list(token_hashes(toks)) if toks else []
        while len(hs) < 3:
            hs.append(_FP_H0)
        exp = [
            hs[j] * _FP_P1 + hs[j + 1] * _FP_P2 + hs[j + 2]
            for j in range(max(1, len(toks) - 2))
        ]
        got = grams[starts[i] : starts[i] + gcounts[i]].tolist()
        assert got == [int(e) for e in exp], t


# the edge cases the testdata lacks: empty, whitespace-only, 1 and 2
# tokens, non-ASCII, repeated tokens and repeated grams
EDGE_TEXTS = [
    "", "  \t\n ", "one", "two tokens", "wörld naïve café 日本語 \U0001f389",
    "a a a a b a a a a", "x y x y x y x", "the quick brown fox jumps over the lazy dog",
]


def _naive_grams(text, pad):
    """One document's token hashes folded into its rolling 3-grams, per
    document in Python ints; ``pad`` end-pads a short document with
    ``_FP_H0`` to one gram (the shingle scheme), otherwise a 1-2-token
    document keeps its token hashes (the fingerprint scheme)."""
    import re

    from rio_color_ray.stages.text import _FP_H0, _FP_P1, _FP_P2, token_hashes

    toks = re.findall(r"[^\t\n\f\r ]+", text)
    hs = [int(h) for h in token_hashes(toks)] if toks else []
    if pad:
        hs += [int(_FP_H0)] * max(0, 3 - len(hs))
    elif len(hs) < 3:
        return hs
    return [
        (hs[j] * int(_FP_P1) + hs[j + 1] * int(_FP_P2) + hs[j + 2]) % 2**64
        for j in range(len(hs) - 2)
    ]


def _edge_batches(id_col):
    """The edge texts as one batch and each alone."""
    t = pa.table({id_col: pa.array(range(len(EDGE_TEXTS)), pa.int64()), "text": EDGE_TEXTS})
    return [t] + [t.slice(i, 1) for i in range(t.num_rows)]


def test_fingerprint_batch_matches_naive():
    from rio_color_ray.stages.text import fingerprint_batch

    for batch in _edge_batches("doc_id"):
        want = [
            min(_naive_grams(t, pad=False), default=0) % 2**63
            for t in batch.column("text").to_pylist()
        ]
        assert fingerprint_batch(batch).column("fingerprint").to_pylist() == want


@pytest.mark.parametrize("k", [1, 2, 5])
def test_fingerprint_keys_batch_matches_naive(k):
    from rio_color_ray.stages.text import fingerprint_keys_batch

    for batch in _edge_batches("doc_id"):
        want = sorted(
            (d, key % 2**63)
            for d, t in zip(batch.column("doc_id").to_pylist(), batch.column("text").to_pylist())
            for key in (sorted(set(_naive_grams(t, pad=False)))[:k] or [0])
        )
        got = fingerprint_keys_batch(batch, k=k)
        assert sorted(zip(got.column("doc_id").to_pylist(), got.column("key").to_pylist())) == want


def test_min_shingle_keys_match_naive():
    from rio_color_ray.pipelines.corpus import K_MIN_SHINGLES, min_shingles

    for batch in _edge_batches("url"):
        want = sorted(
            (u, 0, key % 2**63)
            for u, t in zip(batch.column("url").to_pylist(), batch.column("text").to_pylist())
            for key in sorted(set(_naive_grams(t, pad=True)))[:K_MIN_SHINGLES]
        )
        got = min_shingles(batch)
        assert sorted(zip(*(got.column(c).to_pylist() for c in ("id", "band", "band_hash")))) == want


def test_tokenize_hash_arrays_mixed_ascii_routing(ray_session):
    """One non-ASCII token in a batch must not change any other token's
    hash: the per-token UTF-8 routing (only non-ASCII tokens go through
    the codepoint decode) must match the per-token reference on mixed
    batches, sliced arrays, and large_string layouts."""
    import re

    from rio_color_ray.stages.text import token_hashes, tokenize_hash_arrays

    docs = [
        "pure ascii doc here",
        "one \U0001f389 emoji among ascii",
        "wörld naïve café",
        "日本語テキスト mixed\U0001f389tok",
        "ab keeps vertical tab inside token",
        "", "   ", None, "\U0001f389",
    ]
    arr = pa.array(docs, pa.string())
    tok_re = re.compile(r"[^\t\n\f\r ]+")
    for a in (arr, arr.slice(1, 7), arr.cast(pa.large_string())):
        exp_h, exp_c = [], []
        for t in a.to_pylist():
            toks = tok_re.findall(t or "")
            exp_c.append(len(toks))
            if toks:
                exp_h.extend(int(h) for h in token_hashes(toks))
        got_h, got_c = tokenize_hash_arrays(a)
        assert got_c.tolist() == exp_c
        assert got_h.tolist() == exp_h


# --- multimodal stages -------------------------------------------------------


def test_audio_frame_stage_matches_naive(ray_session):
    """Vectorized frame energies must equal the per-frame definition:
    full frames of L samples, remainder truncated, short docs keep one
    partial frame, empty docs energy 0."""
    from rio_color_ray.stages.multimodal import AudioFrameStage

    payloads = [bytes(range(256)) * 3 + b"xy", b"ab", b"", bytes(600)]
    t = pa.table(
        {"media_id": pa.array(list(range(4)), pa.int64()),
         "payload": pa.array(payloads, pa.binary())}
    )
    out = AudioFrameStage(frame_len=256)(t).to_pydict()
    exp = []
    for mid, p in enumerate(payloads):
        pcm = np.frombuffer(p, dtype=np.int8).astype(np.int64)
        nf = max(1, len(pcm) // 256)
        for f in range(nf):
            seg = pcm[f * 256 : (f + 1) * 256]
            exp.append((mid, f, int((seg * seg).sum())))
    got = list(zip(out["media_id"], out["frame"], out["energy"]))
    assert sorted(got) == sorted(exp)


def test_resize_stage_matches_naive(ray_session):
    from rio_color_ray.stages.multimodal import ResizeImageStage

    rng = np.random.default_rng(7)
    imgs = [rng.integers(0, 256, (16, 16, 3), dtype=np.uint8),
            rng.integers(0, 256, (12, 20, 3), dtype=np.uint8)]
    t = pa.table(
        {
            "media_id": pa.array([0, 1], pa.int64()),
            "height": pa.array([16, 12], pa.int32()),
            "width": pa.array([16, 20], pa.int32()),
            "pixels": pa.array([i.tobytes() for i in imgs], pa.binary()),
        }
    )
    out = ResizeImageStage(out_size=(8, 8))(t)
    for row, img in enumerate(imgs):
        h, w = img.shape[:2]
        ri = (np.arange(8) * h) // 8
        ci = (np.arange(8) * w) // 8
        exp = img[ri][:, ci]
        got = np.frombuffer(out.column("pixels")[row].as_py(), np.uint8).reshape(8, 8, 3)
        assert (got == exp).all()


def test_video_frame_sample_semantics(ray_session):
    from rio_color_ray.stages.multimodal import VideoFrameSampleStage

    p0 = bytes(range(64)) * 9 + b"tail"   # 9 full frames + padding
    p1 = bytes(40)                          # shorter than one frame -> 0 rows
    t = pa.table(
        {"media_id": pa.array([0, 1], pa.int64()),
         "payload": pa.array([p0, p1], pa.binary())}
    )
    out = VideoFrameSampleStage(frame_bytes=64, stride=4)(t).to_pydict()
    assert out["media_id"] == [0, 0, 0]
    assert out["frame"] == [0, 4, 8]
    assert all(len(fp) == 64 for fp in out["frame_payload"])
    assert out["sum_luma"] == [sum(range(64))] * 3


def _ann_tie():
    """A query (vec_id 0) and two vectors whose cosines with it,
    0.99999902 (vec_id 10) and 0.99999901 (vec_id 5), both round to
    0.999999: the (round(score, 6) DESC, vec_id) order ranks 5 first,
    although 10 scores higher before rounding."""
    cos = np.array([1.0, 0.99999902, 0.99999901])
    vecs = np.stack([cos, np.sqrt(1 - cos**2), np.zeros(3)], axis=1)
    batch = pa.table({
        "vec_id": pa.array([0, 10, 5], pa.int64()),
        "embedding": pa.array(vecs.tolist(), pa.list_(pa.float64())),
    })
    return batch, vecs[:1]


@pytest.mark.parametrize("stage", ["brute", "ivf_full_probe"])
def test_ann_stage_keeps_rounded_score_ties(stage):
    from rio_color_ray.stages.ann import AnnBruteStage, AnnIVFStage

    batch, query = _ann_tie()
    if stage == "brute":
        fn = AnnBruteStage([0], query, 1)
    else:
        fn = AnnIVFStage([0], query, np.eye(3)[:2], 2, 1)
    part = fn(batch).sort_by([("score_r6", "descending"), ("vec_id", "ascending")])
    assert part.column("vec_id")[0].as_py() == 5
    assert 0 not in part.column("vec_id").to_pylist()  # never its own neighbour


def test_ann_ivf_recall_vs_brute(ray_session):
    """IVF machinery check: probing EVERY cell must reproduce the exact
    brute top-k (same scores, same tie-breaks); partial probing must
    still reach >=0.9 recall at n_probe=12/16. (The synthetic embeddings
    are uniform on the sphere — IVF's worst case; clustered real data
    reaches high recall at much smaller probe fractions.)"""
    import pandas as pd

    from rio_color_ray.pipelines.corpus import ann_topk, ann_topk_ivf

    exact = (
        ann_topk(SF, k=10, n_queries=8)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    full = (
        ann_topk_ivf(SF, k=10, n_queries=8, n_cells=16, n_probe=16)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(full, exact)

    approx = ann_topk_ivf(SF, k=10, n_queries=8, n_probe=12).to_pandas()
    e = set(zip(exact["query_id"], exact["vec_id"]))
    a = set(zip(approx["query_id"], approx["vec_id"]))
    assert len(e & a) / len(e) >= 0.9, (len(e & a), len(e))


def test_label_centroids(ray_session):
    """Exact Q20 fixed-point centroid sums vs the DuckDB unnest oracle,
    plus the reconstructed mean vs a plain numpy oracle."""
    import duckdb

    from rio_color_ray.pipelines.corpus import label_centroids, label_centroids_sql

    rdf = label_centroids(SF).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM read_parquet('{SF}/embeddings.parquet')"
    )
    odf = con.sql(label_centroids_sql()).df()
    cols = sorted(rdf.columns)
    a = rdf[cols].sort_values(["label", "dim"]).reset_index(drop=True)
    b = odf[cols].sort_values(["label", "dim"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)

    # reconstructed means track the true float centroids
    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    lab0 = t["label"].iloc[0]
    want = np.stack(t.loc[t["label"] == lab0, "embedding"].to_numpy()).mean(axis=0)
    got_rows = a[a["label"] == lab0].sort_values("dim")
    got = got_rows["sum_q20"].to_numpy() / (got_rows["n"].to_numpy() * (1 << 20))
    assert np.abs(got - want).max() < 1e-5


def test_media_feature_and_resize_sql_oracles(ray_session):
    """The recursive-SHA-keystream DuckDB twins reproduce media_features
    and media_resize value-for-value (keystream chain, byte extraction,
    floor means, and the NN gather positions via sum_pixels)."""
    import duckdb

    from rio_color_ray.pipelines.corpus import (
        media_features,
        media_features_sql,
        media_resize,
        media_resize_sql,
    )

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    for fn, sql in ((media_features, media_features_sql()), (media_resize, media_resize_sql())):
        rdf = fn(SF).to_pandas()
        odf = con.sql(sql).df()
        cols = sorted(rdf.columns)
        assert cols == sorted(odf.columns)
        a = rdf[cols].sort_values("media_id").reset_index(drop=True)
        b = odf[cols].sort_values("media_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)


def test_fingerprint_keys_batch_invariance(ray_session):
    """Per-doc key sets must not depend on batch composition."""
    from rio_color_ray.stages.text import fingerprint_keys_batch

    texts = ["alpha beta gamma delta eps", "one two", "x", "", "p q r s t u"]
    whole = fingerprint_keys_batch(
        pa.table({"doc_id": list(range(5)), "text": texts})
    ).to_pandas()
    for i, t in enumerate(texts):
        single = fingerprint_keys_batch(
            pa.table({"doc_id": [i], "text": [t]})
        ).to_pandas()
        got = sorted(whole.loc[whole.doc_id == i, "key"])
        assert got == sorted(single["key"]), i


def test_min_label_components_multi_hop(ray_session):
    """A~B and B~C via shared keys must cluster A with C (no shared key)."""
    import ray.data

    from rio_color_ray.stages.cluster import min_label_components

    keys = pd.DataFrame(
        {
            "doc_id": [10, 10, 20, 20, 30, 30, 40, 50, 50, 60],
            "key": [1, 2, 2, 3, 3, 4, 99, 7, 8, 8],
        }
    )
    out = (
        min_label_components(ray.data.from_pandas(keys))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out.doc_id.tolist() == [10, 20, 30, 40, 50, 60]
    assert out.cluster_id.tolist() == [10, 10, 10, 40, 50, 50]


def test_min_label_components_long_chain(ray_session):
    """Worst-case diameter: a 3000-node path (node i shares key i with
    node i+1) must converge within MAX_ITERS — the path-compression
    rewrite makes rounds O(log diameter), not one hop per round — and
    label every node with the chain head."""
    import ray.data

    from rio_color_ray.stages.cluster import min_label_components

    n = 3000
    keys = pd.DataFrame(
        {
            "doc_id": np.repeat(np.arange(n), 2)[1:-1],
            "key": np.repeat(np.arange(n - 1), 2) + 10_000,
        }
    )
    # local_finish_rows=0 forces the pure distributed rounds — the
    # O(log diameter) property under test must not hide behind the
    # size-gated local finish
    out = min_label_components(
        ray.data.from_pandas(keys), local_finish_rows=0
    ).to_pandas()
    assert len(out) == n
    assert (out["cluster_id"] == 0).all()


def test_repetition_signals_values(ray_session):
    """Hand-computed repetition metrics (integer ppm, floor)."""
    from rio_color_ray.stages.text import repetition_signals_batch

    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": ["a a a b", "a a a a", "x y", ""],
        }
    )
    out = repetition_signals_batch(t).to_pydict()
    assert out["n_tokens"] == [4, 4, 2, 0]
    assert out["n_distinct_tokens"] == [2, 1, 2, 0]
    assert out["top_token_ppm"] == [750000, 1000000, 500000, 0]
    # grams: 'a a a b' -> (aaa, aab) distinct -> 0; 'a a a a' -> (aaa, aaa)
    # -> 1 of 2 duplicated -> 500000; 'x y' -> token fallback, distinct
    assert out["dup_gram_ppm"] == [0, 500000, 0, 0]


def test_decontaminate_planted(ray_session, tmp_path):
    """Doc 0 is the eval set (doc_id % 50 == 0); training docs sharing
    any 3-gram with it are dropped, the rest survive."""
    from rio_color_ray.pipelines.corpus import decontaminate

    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": [
                "alpha beta gamma delta",
                "zzz alpha beta gamma qqq",  # shares gram 'alpha beta gamma'
                "one two three four",  # clean
                "beta gamma alpha",  # same tokens, different gram
            ],
        }
    )
    pq.write_table(t, os.path.join(tmp_path, "documents.parquet"))
    out = sorted(decontaminate(str(tmp_path)).to_pandas()["doc_id"])
    assert out == [2, 3]


def test_dedup_canonical_is_cluster_minima(ray_session):
    from rio_color_ray.pipelines.corpus import dedup_canonical, dedup_clusters

    clusters = dedup_clusters(SF).to_pandas()
    got = sorted(dedup_canonical(SF).to_pandas()["doc_id"])
    assert got == sorted(clusters["cluster_id"].unique())


def test_min_label_components_random_graphs_vs_union_find(ray_session):
    """Path-compressed min-label propagation == a local union-find on
    seeded random bipartite graphs, including key values that collide
    numerically with node ids (the rewrite puts node ids into the key
    column, so collisions must be harmless)."""
    import ray.data

    from rio_color_ray.stages.cluster import min_label_components

    def union_find_oracle(df):
        parent = {}

        def find(x):
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for n, k in zip(df["doc_id"], df["key"]):
            a, b = find(("n", n)), find(("k", k))
            if a != b:
                parent[max(a, b)] = min(a, b)
        comp = {}
        for n in df["doc_id"].unique():
            comp.setdefault(find(("n", n)), []).append(n)
        return {n: min(m) for m in comp.values() for n in m}

    rng = np.random.default_rng(7)
    for trial in range(4):
        n_nodes, n_keys = 120, 40
        rows = rng.integers(0, [n_nodes, n_keys], size=(300, 2))
        df = pd.DataFrame(
            {
                "doc_id": rows[:, 0].astype(np.int64),
                # key universe overlaps node ids on purpose in trial 0
                "key": rows[:, 1].astype(np.int64)
                + (0 if trial == 0 else 10_000 * (trial + 1)),
            }
        ).drop_duplicates()
        want = union_find_oracle(df)
        # both convergence paths: pure distributed rounds
        # (local_finish_rows=0) and the size-gated single-task finish
        for lfr in (0, 2_000_000):
            got = (
                min_label_components(
                    ray.data.from_pandas(df), local_finish_rows=lfr
                )
                .to_pandas()
                .set_index("doc_id")["cluster_id"]
                .to_dict()
            )
            assert got == want, f"trial {trial} local_finish_rows={lfr}"


def test_dedup_clusters_matches_transitive_closure(ray_session):
    """Engine min-label propagation == exact recursive reachability."""
    import duckdb

    from rio_color_ray.pipelines.corpus import dedup_clusters
    from rio_color_ray.stages.text import fingerprint_keys_sql

    got = (
        dedup_clusters(SF)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    exp = con.sql(
        f"WITH RECURSIVE fkeys AS ({fingerprint_keys_sql(k=2)}), "
        "edges AS (SELECT a.doc_id AS x, b.doc_id AS y FROM fkeys a "
        "JOIN fkeys b USING(key) WHERE a.doc_id <> b.doc_id), "
        "walk(doc_id, reach) AS ("
        "  SELECT DISTINCT doc_id, doc_id FROM fkeys"
        "  UNION"
        "  SELECT w.doc_id, e.y FROM walk w JOIN edges e ON e.x = w.reach) "
        "SELECT doc_id, min(reach) AS cluster_id FROM walk GROUP BY doc_id "
        "ORDER BY doc_id"
    ).df()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    # sanity: real multi-hop clusters exist at this scale
    assert got.cluster_id.nunique() < len(got)


def test_embed_quantize_values(ray_session, tmp_path):
    """Hand-computed int8 quantization incl. the all-zero guard."""
    from rio_color_ray.pipelines.corpus import embed_quantize

    t = pa.table(
        {
            "vec_id": pa.array([0, 1], pa.int64()),
            "embedding": pa.array(
                [[1.0, 0.0, -1.0, 0.5], [0.0, 0.0, 0.0, 0.0]],
                pa.list_(pa.float32()),
            ),
        }
    )
    pq.write_table(t, os.path.join(tmp_path, "embeddings.parquet"))
    out = (
        embed_quantize(str(tmp_path))
        .to_pandas()
        .sort_values(["vec_id", "dim"])
        .reset_index(drop=True)
    )
    assert out["q8"].tolist() == [127, 0, -127, 63, 0, 0, 0, 0]


def test_embed_quantize_oracle(ray_session):
    """Engine int8 quantization vs the DuckDB float64 twin, bit-exact."""
    import duckdb

    from rio_color_ray.pipelines.corpus import embed_quantize, embed_quantize_sql

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM read_parquet('{SF}/embeddings.parquet')"
    )
    got = (
        embed_quantize(SF).to_pandas().sort_values(["vec_id", "dim"]).reset_index(drop=True)
    )
    exp = con.sql(embed_quantize_sql()).df().sort_values(["vec_id", "dim"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    assert got["q8"].between(-127, 127).all()


def test_ann_topk_filtered(ray_session):
    """Filtered ANN vs the label-scoped DuckDB twin, value-exact; every
    result must share its query's label."""
    import duckdb

    from rio_color_ray.pipelines.corpus import ann_topk_filtered, ann_topk_filtered_sql

    got = (
        ann_topk_filtered(SF, k=10, n_queries=8)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM read_parquet('{SF}/embeddings.parquet')"
    )
    exp = (
        con.sql(ann_topk_filtered_sql())
        .df()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    lab = con.sql("SELECT vec_id, label FROM embeddings").df()
    lab = dict(zip(lab["vec_id"], lab["label"]))
    assert all(lab[q] == lab[v] for q, v in zip(got["query_id"], got["vec_id"]))


def test_hex_string_array_large_binary(ray_session):
    """The hex kernel must parse 64-bit offsets when the column arrives
    as large_binary (and match bytes.hex exactly on both layouts)."""
    from rio_color_ray.pipelines.tiles import _hex_string_array

    payloads = [b"\x00\xffab", b"", b"\x10\x20\x30"]
    for typ in (pa.binary(), pa.large_binary()):
        arr = pa.array(payloads, typ)
        got = _hex_string_array(arr).to_pylist()
        assert got == [p.hex() for p in payloads]
    # sliced arrays use the offset-aware path
    arr = pa.array(payloads * 2, pa.binary()).slice(2, 3)
    assert _hex_string_array(arr).to_pylist() == [p.hex() for p in (payloads * 2)[2:5]]


def test_sample_embeddings_spread_empty_file(ray_session, tmp_path):
    from rio_color_ray.stages.ann import sample_embeddings_spread

    path = os.path.join(tmp_path, "embeddings.parquet")
    pq.write_table(
        pa.table({"embedding": pa.array([], pa.list_(pa.float32()))}), path
    )
    with pytest.raises(ValueError, match="no rows"):
        sample_embeddings_spread(path, 16)


def test_dedup_incremental_matches_oracle(ray_session):
    """Anti-join of the derived crawl shard against the base corpus:
    even doc_ids re-crawl unchanged (dropped), odd doc_ids carry edited
    text (kept) — value-exact against the text NOT IN text twin."""
    from conftest import duckdb_con, oracle_check
    from rio_color_ray.pipelines import corpus

    con = duckdb_con(sf=SF)
    out = oracle_check(
        corpus.dedup_incremental(SF), con, corpus.dedup_incremental_sql()
    )
    assert len(out) == 250
    kept = out["new_id"].to_numpy() - corpus.SHARD_ID_OFFSET
    assert (kept % 2 == 1).all()
