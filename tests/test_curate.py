"""Corpus-curation pipelines (split / stratified sample / curate / vocab)
vs exact DuckDB oracles, plus the splitmix64 determinism properties the
100 TB design depends on."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    return c


def _check(ray_result, con, sql):
    rdf = ray_result.to_pandas()
    odf = con.sql(sql).df()
    cols = sorted(rdf.columns)
    assert cols == sorted(odf.columns)
    a = rdf[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)
    b = odf[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)
    return rdf


def test_splitmix64_sql_twin():
    """The DuckDB HUGEINT mixer reproduces numpy splitmix64 bit-for-bit,
    including values near 2^64 (the INT128-overflow danger zone)."""
    from rio_color_ray.stages.sampling import splitmix64, splitmix64_sql

    xs = np.array(
        [0, 1, 2, 12345, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1],
        dtype=np.uint64,
    )
    want = splitmix64(xs)
    con = duckdb.connect()
    vals = ", ".join(f"({int(x)}::HUGEINT)" for x in xs)
    got = con.sql(
        f"SELECT {splitmix64_sql('x')} AS h FROM (VALUES {vals}) t(x)"
    ).fetchall()
    assert [int(g[0]) % (1 << 64) for g in got] == [int(w) for w in want]


def test_train_test_split(ray_session, con):
    from rio_color_ray.pipelines import curate

    out = _check(curate.train_test_split(SF), con, curate.TRAIN_TEST_SPLIT_SQL)
    n_docs = con.sql("SELECT count(*) FROM documents").fetchone()[0]
    assert len(out) == n_docs
    assert set(out["split"]) <= {"train", "valid", "test"}
    # 98/1/1: train dominates even at tiny scale
    assert (out["split"] == "train").mean() > 0.9


def test_split_stable_under_batch_size(ray_session):
    """The assignment is a pure row function: different block layouts
    produce the identical split (the resume/repartition invariant)."""
    import ray.data

    from rio_color_ray.stages.sampling import split_assign_batch

    ds = ray.data.read_parquet(f"{SF}/documents.parquet", columns=["doc_id"])
    a = (
        ds.map_batches(split_assign_batch("doc_id"), batch_format="pyarrow", batch_size=7)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    b = (
        ds.repartition(5)
        .map_batches(split_assign_batch("doc_id"), batch_format="pyarrow", batch_size=64)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)


def test_sample_stratified(ray_session, con):
    from rio_color_ray.pipelines import curate

    out = _check(curate.sample_stratified(SF), con, curate.SAMPLE_STRATIFIED_SQL)
    # the head language is actually downsampled
    full = con.sql("SELECT lang, count(*) AS n FROM documents GROUP BY lang").df()
    full = dict(zip(full["lang"], full["n"]))
    got = out["lang"].value_counts().to_dict()
    assert got.get("en", 0) < full.get("en", 0)


def test_curate_corpus(ray_session, con):
    from rio_color_ray.pipelines import curate

    out = _check(curate.curate_corpus(SF), con, curate.curate_corpus_sql())
    assert (out["quality_ppm"] >= curate.CURATE_MIN_QUALITY_PPM).all()
    assert out["doc_id"].is_unique


def test_vocab_top_tokens(ray_session, con):
    from rio_color_ray.pipelines import curate

    out = _check(curate.vocab_top_tokens(SF), con, curate.vocab_top_tokens_sql())
    n = out["n"].to_numpy()
    assert (np.diff(n) <= 0).all()  # count-descending


def test_sample_k_per_stratum(ray_session, con):
    from rio_color_ray.pipelines import curate

    out = _check(
        curate.sample_k_per_stratum(SF), con, curate.sample_k_per_stratum_sql()
    )
    sizes = con.sql(
        "SELECT lang, count(*) AS n FROM documents GROUP BY lang"
    ).df()
    want = {
        r["lang"]: min(curate.SAMPLE_K, r["n"]) for _, r in sizes.iterrows()
    }
    got = out["lang"].value_counts().to_dict()
    assert got == want  # exactly min(k, stratum size) per stratum


def test_sample_k_stable_under_layout(ray_session):
    """Same k-sample regardless of block layout (order-by-hash, not
    position-dependent reservoir state)."""
    from rio_color_ray.pipelines import curate

    a = (
        curate.sample_k_per_stratum(SF)
        .to_pandas()
        .sort_values(["lang", "doc_id"])
        .reset_index(drop=True)
    )
    import ray.data

    # force a different layout by repartitioning inside a copied pipeline
    from rio_color_ray.stages.sampling import splitmix64

    ds = ray.data.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "lang"])
    import numpy as np
    import pyarrow as pa

    def with_hash(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        h = splitmix64(ids.astype(np.uint64) ^ np.uint64(curate.SAMPLE_K_SALT))
        return batch.append_column(
            "h", pa.array((h - np.uint64(1 << 63)).view(np.int64), pa.int64())
        )

    def partial(batch):
        b = batch.sort_values(["lang", "h", "doc_id"], kind="mergesort")
        return b.groupby("lang", as_index=False).head(curate.SAMPLE_K)

    def final(group):
        g = group.sort_values(["h", "doc_id"], kind="mergesort").head(curate.SAMPLE_K)
        return g[["lang", "doc_id"]]

    b = (
        ds.repartition(7)
        .map_batches(with_hash, batch_format="pyarrow", batch_size=11)
        .map_batches(partial, batch_format="pandas")
        .groupby("lang")
        .map_groups(final, batch_format="pandas")
        .to_pandas()
        .sort_values(["lang", "doc_id"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)


def test_token_counts_bpe(ray_session, con):
    """BPE-ish pre-tokenizer counts match the RE2 oracle, and segment at
    least as finely as whitespace tokens."""
    from rio_color_ray.pipelines.corpus import token_counts_bpe
    from rio_color_ray.stages.text import TOKEN_BPE_SQL

    out = _check(token_counts_bpe(SF), con, TOKEN_BPE_SQL)
    assert (out["n_bpe_tokens"] >= out["n_tokens"]).all()


def test_tfidf_top_terms(ray_session, con):
    from rio_color_ray.pipelines import curate

    out = _check(curate.tfidf_top_terms(SF), con, curate.tfidf_top_terms_sql())
    # at most m rows per doc, scores positive
    assert out.groupby("doc_id").size().max() <= curate.TFIDF_TOP_M
    assert (out["score_ppm"] > 0).all()


def test_pack_sequences(ray_session, con):
    from rio_color_ray.pipelines import curate

    out = _check(curate.pack_sequences(SF), con, curate.pack_sequences_sql())
    # global stream contiguity: consecutive docs' offsets differ by
    # exactly the earlier doc's token count
    g = out.sort_values("doc_id").reset_index(drop=True)
    off = g["pack_id"].to_numpy() * curate.PACK_BUDGET + g["pack_offset"].to_numpy()
    assert (np.diff(off) == g["n_tokens"].to_numpy()[:-1]).all()
    assert (g["pack_offset"] < curate.PACK_BUDGET).all()


def test_pack_sequences_without_statistics(ray_session, tmp_path):
    """A documents file written without column statistics sends
    pack_sequences to its doc_id min/max scan; the packing is the same."""
    import pyarrow.parquet as pq

    from rio_color_ray.pipelines import curate

    path = tmp_path / "documents.parquet"
    pq.write_table(pq.read_table(f"{SF}/documents.parquet"), path, write_statistics=False)
    f = pq.ParquetFile(path)
    i = f.schema_arrow.get_field_index("doc_id")
    assert all(f.metadata.row_group(r).column(i).statistics is None for r in range(f.num_row_groups))
    cols = ["doc_id", "n_tokens", "pack_id", "pack_offset"]
    want = curate.pack_sequences(SF).to_pandas()[cols].sort_values("doc_id")
    got = curate.pack_sequences(str(tmp_path)).to_pandas()[cols].sort_values("doc_id")
    assert len(got) == len(want) > 0
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want.reset_index(drop=True))


def test_chunk_documents(ray_session, con):
    from rio_color_ray.pipelines import curate

    out = _check(curate.chunk_documents(SF), con, curate.chunk_documents_sql())
    assert len(out) > 500  # multi-chunk docs exist at this window size
    g = out.sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)
    # full coverage: chunk i+1 starts exactly `overlap` tokens before
    # chunk i ends... i.e., starts advance by the stride; last chunk ends
    # at n_tokens (== tok_end of the final chunk covers the tail)
    stride = curate.CHUNK_SIZE - curate.CHUNK_OVERLAP
    within = g.groupby("doc_id")
    assert (within["tok_start"].diff().dropna() == stride).all()
    assert (g["tok_end"] - g["tok_start"] <= curate.CHUNK_SIZE).all()
    assert (g["tok_end"] > g["tok_start"]).sum() >= (g["tok_end"] >= 0).sum() - 1


def test_mix_sources(ray_session, con):
    """Equal-token source mixture vs its splitmix64 SQL twin, value-exact;
    the smallest source keeps everything, larger sources are downsampled."""
    from rio_color_ray.pipelines import curate

    out = _check(curate.mix_sources(SF), con, curate.mix_sources_sql())
    full = con.sql(
        "SELECT source, count(*) AS n, "
        "sum(len(regexp_extract_all(text, '\\S+'))) AS toks "
        "FROM documents GROUP BY source"
    ).df()
    kept = out["source"].value_counts().to_dict()
    smallest = full.loc[full["toks"].idxmin(), "source"]
    n_by_source = dict(zip(full["source"], full["n"]))
    assert kept.get(smallest, 0) == n_by_source[smallest]
    assert any(kept.get(s, 0) < n_by_source[s] for s in n_by_source if s != smallest)


def test_repetition_signals_oracle(ray_session, con):
    """Engine repetition metrics vs the DuckDB list-function twin."""
    from rio_color_ray.pipelines.corpus import repetition_signals
    from rio_color_ray.stages.text import repetition_signals_sql

    out = _check(repetition_signals(SF), con, repetition_signals_sql())
    assert (out["n_distinct_tokens"] <= out["n_tokens"]).all()
    assert out["dup_gram_ppm"].between(0, 1_000_000).all()


def test_decontaminate_oracle(ray_session, con):
    """Engine decontamination vs the DuckDB gram-intersection twin; the
    eval docs themselves are never in the output."""
    from rio_color_ray.pipelines.corpus import DECONTAM_EVERY, decontaminate
    from rio_color_ray.pipelines.corpus import decontaminate_sql

    out = _check(decontaminate(SF), con, decontaminate_sql())
    assert (out["doc_id"] % DECONTAM_EVERY != 0).all()
    n_docs = con.sql("SELECT count(*) FROM documents").fetchone()[0]
    assert 0 < len(out) < n_docs


def test_mix_sources_zero_token_source(ray_session, tmp_path):
    """A source whose documents are all empty keeps nothing and is
    excluded from the mixture minimum (no ZeroDivisionError), on both
    engines."""
    import os

    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from rio_color_ray.pipelines import curate

    t = pa.table(
        {
            "doc_id": pa.array(list(range(8)), pa.int64()),
            "source": ["empty"] * 2 + ["big"] * 4 + ["small"] * 2,
            "text": ["", "  "] + ["w1 w2 w3 w4 w5 w6"] * 4 + ["a b c"] * 2,
        }
    )
    pq.write_table(t, os.path.join(tmp_path, "documents.parquet"))
    out = curate.mix_sources(str(tmp_path)).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{os.path.join(tmp_path, 'documents.parquet')}')"
    )
    exp = con.sql(curate.mix_sources_sql()).df()
    a = out.sort_values(["doc_id"]).reset_index(drop=True)
    b = exp[a.columns].sort_values(["doc_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    assert "empty" not in set(out["source"])
    # the smallest nonzero source keeps all its docs
    assert (out["source"] == "small").sum() == 2


def test_cap_per_source_oracle(ray_session, con):
    from rio_color_ray.pipelines import curate

    rdf = _check(curate.cap_per_source(SF), con, curate.cap_per_source_sql())
    # the cap binds: no source exceeds k, and the kept ids are the minima
    per = rdf.groupby("source")["doc_id"].agg(["count", "max"])
    assert (per["count"] <= curate.CAP_PER_SOURCE_K).all()
    full = con.sql(
        f"SELECT source, count(*) n FROM documents GROUP BY source"
    ).df()
    assert (full.set_index("source")["n"] > curate.CAP_PER_SOURCE_K).any()


def test_length_filter_median_oracle(ray_session, con):
    from rio_color_ray.pipelines import curate

    rdf = _check(
        curate.length_filter_median(SF), con, curate.length_filter_median_sql()
    )
    # quantile_disc semantics: at least half the corpus survives, and the
    # cutoff excludes at least one document (the synthetic lengths vary)
    n_docs = con.sql("SELECT count(*) FROM documents").fetchone()[0]
    assert n_docs // 2 <= len(rdf) < n_docs


def test_length_filter_quantile_param(ray_session, con):
    """The same operator at q=0.9 keeps a strict subset of q=0.5."""
    from rio_color_ray.pipelines import curate

    hi = _check(
        curate.length_filter_median(SF, q=0.9),
        con,
        curate.length_filter_median_sql(q=0.9),
    )
    lo = curate.length_filter_median(SF).to_pandas()
    assert set(hi["doc_id"]) < set(lo["doc_id"])


def test_shuffle_shards_oracle(ray_session, con):
    from rio_color_ray.pipelines import curate

    rdf = _check(curate.shuffle_shards(SF), con, curate.shuffle_shards_sql())
    # a permutation: every doc exactly once, positions dense per shard
    n_docs = con.sql("SELECT count(*) FROM documents").fetchone()[0]
    assert len(rdf) == n_docs and rdf["doc_id"].is_unique
    for _, g in rdf.groupby("shard"):
        assert sorted(g["shard_pos"]) == list(range(len(g)))
    # determinism across runs (resume-stability contract)
    again = curate.shuffle_shards(SF).to_pandas()
    key = ["shard", "shard_pos"]
    a = rdf.sort_values(key).reset_index(drop=True)
    b = again.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
