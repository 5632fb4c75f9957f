"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init`` itself before importing this module:
nothing here (or in rio_color_ray) calls ``ray.init`` / ``ray.shutdown``.

``queries()`` returns one callable per implemented pipeline; every entry
with a matching key in ``oracle_sql()`` is verified value-for-value
against DuckDB at sf=0.01. Column names match between both sides.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

SF_SMOKE = "/root/testdata/sf0.001"


def entry() -> Any:
    """Flagship pipeline on sf0.001: pages -> geocode -> cellify -> PIP
    join -> tile render -> rio-color correction. Returns the corrected
    tiles Dataset (driver checks rows >= 0 / stable schema)."""
    from rio_color_ray.pipelines.flagship import flagship

    return flagship(SF_SMOKE)


def queries() -> dict[str, Callable[[str], Any]]:
    from rio_color_ray.registry import queries as _registry_queries

    return _registry_queries()


def oracle_sql() -> dict[str, str]:
    from rio_color_ray.pipelines import curate, web
    from rio_color_ray.pipelines.corpus import dedup_incremental_sql
    from rio_color_ray.pipelines.graph import pagerank_sql
    from rio_color_ray.pipelines import relational as R
    from rio_color_ray.pipelines.knn import knn_sql
    from rio_color_ray.sources.pages import REP_STRIDE, pages_sql_cte
    from rio_color_ray.stages.text import (
        QUALITY_SQL,
        TOKEN_BPE_SQL,
        fingerprint_keys_sql,
        fingerprint_sql,
        lang_id_sql,
        repetition_signals_sql,
    )
    from rio_color_ray.stages.dedup import (
        near_dup_jaccard_sql,
        near_dup_minhash_sql,
        near_dup_simhash_sql,
    )
    from rio_color_ray.sources.polygons import (
        make_admin_polygons,
        make_admin_rects,
        polys_edges_sql_values,
        rects_sql_values,
    )
    from rio_color_ray.stages.cellify import grid_cell_sql
    from rio_color_ray.pipelines.tiles import (
        color_tiles_content_sql,
        render_tiles_content_sql,
    )
    from rio_color_ray.pipelines.corpus import (
        ann_topk_filtered_sql,
        embedding_dup_clusters_sql,
        embedding_near_dup_exact_sql,
        audio_frames_sql,
        decontaminate_sql,
        embed_quantize_sql,
        label_centroids_sql,
        media_features_sql,
        media_resize_sql,
        video_frames_sql,
    )
    from rio_color_ray.spatial.hexgrid import hex_cell_sql
    from rio_color_ray.spatial.s2 import s2_cell_sql
    from rio_color_ray.stages.cellify import S2_LEVEL

    pages = pages_sql_cte()
    grid = grid_cell_sql()
    rects = rects_sql_values(make_admin_rects())
    rect_match = (
        "CAST(round(p.lat * 1000000) AS BIGINT) BETWEEN r.min_lat_u AND r.max_lat_u "
        "AND CAST(round(p.lon * 1000000) AS BIGINT) BETWEEN r.min_lon_u AND r.max_lon_u"
    )

    # Exact SQL twin of the even-odd ray cast (spatial/rtree.py:115): a
    # point is inside a polygon iff an odd number of its edges satisfy
    # crosses AND lon < xint — the identical float64 expression, so the
    # parity decision is bit-for-bit the engine's.
    h8_cte, h8_pack = hex_cell_sql(8, out_name="h3_r8")
    hx8 = f"SELECT url, lang, {h8_pack} FROM ({h8_cte('pages')})"
    s2_fn, s2_pack = s2_cell_sql(S2_LEVEL)
    s2c = f"SELECT {s2_pack} FROM ({s2_fn('pages')})"

    edges = polys_edges_sql_values(make_admin_polygons())
    pip_hits = (
        f"SELECT p.url AS url, CAST(e.admin_id AS BIGINT) AS admin_id "
        f"FROM pages p CROSS JOIN {edges} "
        f"GROUP BY 1, 2 "
        f"HAVING sum(CASE WHEN ((e.y2 > p.lat) <> (e.y1 > p.lat)) "
        f"AND p.lon < (e.x1 - e.x2) * (p.lat - e.y2) / (e.y1 - e.y2) + e.x2 "
        f"THEN 1 ELSE 0 END) % 2 = 1"
    )

    # shared by ann_topk and ann_topk_ivf_fullprobe: full-probe IVF is
    # mathematically identical to brute search, so both entries must
    # stay byte-identical
    brute_topk_sql = (
        "WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings "
        "WHERE vec_id < 8) "
        "SELECT query_id, vec_id, rank FROM ("
        "  SELECT q.qid AS query_id, e.vec_id AS vec_id, "
        "         row_number() OVER (PARTITION BY q.qid ORDER BY "
        "           round(list_cosine_similarity(e.embedding, q.qe), 6) DESC, "
        "           e.vec_id) AS rank "
        "  FROM embeddings e CROSS JOIN q WHERE e.vec_id <> q.qid"
        ") WHERE rank <= 10"
    )

    return {
        "q1_pricing_summary": R.Q1_SQL,
        "q3_top_orders": R.Q3_SQL,
        "q5_nation_revenue": R.Q5_SQL,
        "q6_forecast_revenue": R.Q6_SQL,
        "q14_promo_revenue": R.Q14_SQL,
        "events_daily": R.EVENTS_DAILY_SQL,
        "events_sliding_window": R.SLIDING_SQL,
        "sessionize": R.SESSIONIZE_SQL,
        "top_users_by_value": R.TOP_USERS_SQL,
        "distinct_users_per_type": R.DISTINCT_USERS_SQL,
        "q10_returned_revenue": R.Q10_SQL,
        "q18_large_orders": R.Q18_SQL,
        "asof_join_clicks": R.ASOF_SQL,
        "topk_orders_per_priority": R.TOPK_PRIORITY_SQL,
        "value_quantiles_per_type": R.QUANTILES_SQL,
        "range_join_clicks": R.RANGE_JOIN_SQL,
        "customer_order_counts": R.CUSTOMER_ORDER_COUNTS_SQL,
        "event_gaps": R.EVENT_GAPS_SQL,
        "users_click_and_purchase": R.INTERSECT_SQL,
        "events_pivot": R.PIVOT_SQL,
        "late_events": R.LATE_EVENTS_SQL,
        "q4_late_shipments": R.Q4_SQL,
        "user_running_value": R.USER_RUNNING_VALUE_SQL,
        "approx_distinct_users_kmv": R.approx_distinct_users_kmv_sql(),
        "events_rollup": R.ROLLUP_SQL,
        "users_click_no_purchase": R.EXCEPT_SQL,
        "cap_per_source": curate.cap_per_source_sql(),
        "length_filter_median": curate.length_filter_median_sql(),
        "shuffle_shards": curate.shuffle_shards_sql(),
        # CC over the exact-config embedding near-dup pairs (recall-1.0
        # LSH configuration; see embedding_near_dup_exact)
        "embedding_dup_clusters": embedding_dup_clusters_sql(),
        "pagerank": pagerank_sql(),
        # same fixed point, computed over the EXTRACTED href edge table
        # through the bucketed hash join — one oracle, two engines' paths
        "pagerank_edges": pagerank_sql(),
        "dedup_incremental": dedup_incremental_sql(),
        "extract_text": web.extract_text_sql(pages),
        "host_stats": web.host_stats_sql(pages),
        "latest_page_snapshot": web.latest_page_snapshot_sql(pages),
        "url_canonical_dedup": web.url_canonical_dedup_sql(pages),
        "geocode": f"WITH pages AS ({pages}) SELECT url, lat, lon FROM pages",
        "grid_cell_agg": (
            f"WITH pages AS ({pages}) "
            f"SELECT {grid} AS grid_cell, count(*) AS n_pages FROM pages GROUP BY 1"
        ),
        "top_grid_cells": (
            f"WITH pages AS ({pages}) "
            f"SELECT {grid} AS grid_cell, count(*) AS n_pages FROM pages "
            f"GROUP BY 1 ORDER BY n_pages DESC, grid_cell LIMIT 20"
        ),
        "rect_join": (
            f"WITH pages AS ({pages}) "
            f"SELECT p.url AS url, CAST(r.admin_id AS BIGINT) AS admin_id "
            f"FROM pages p JOIN {rects} ON {rect_match}"
        ),
        "rect_join_semi": (
            f"WITH pages AS ({pages}) "
            f"SELECT p.url AS url FROM pages p "
            f"WHERE EXISTS (SELECT 1 FROM {rects} WHERE {rect_match})"
        ),
        "rect_join_anti": (
            f"WITH pages AS ({pages}) "
            f"SELECT p.url AS url FROM pages p "
            f"WHERE NOT EXISTS (SELECT 1 FROM {rects} WHERE {rect_match})"
        ),
        "cell_agg_salted_h8": (
            f"WITH pages AS ({pages}), hx AS ({hx8}) "
            f"SELECT h3_r8, count(*) AS n_pages FROM hx GROUP BY 1"
        ),
        "cell_agg_h8": (
            f"WITH pages AS ({pages}), hx AS ({hx8}), "
            f"l AS (SELECT h3_r8, lang, count(*) AS n FROM hx GROUP BY 1, 2), "
            f"h AS (SELECT h3_r8, string_agg(lang || ':' || n, '|' ORDER BY lang) "
            f"       AS lang_hist FROM l GROUP BY 1), "
            f"b AS (SELECT h3_r8, count(*) AS n_pages, "
            f"       count(DISTINCT split_part(url, '/', 3)) AS n_domains "
            f"       FROM hx GROUP BY 1) "
            f"SELECT b.h3_r8 AS h3_r8, b.n_pages AS n_pages, "
            f"b.n_domains AS n_domains, h.lang_hist AS lang_hist "
            f"FROM b JOIN h ON b.h3_r8 = h.h3_r8"
        ),
        "cell_agg_s2": (
            f"WITH pages AS ({pages}), sc AS ({s2c}) "
            f"SELECT s2_cell, count(*) AS n_pages FROM sc GROUP BY 1"
        ),
        "pip_join": f"WITH pages AS ({pages}) {pip_hits}",
        "pip_join_semi": (
            f"WITH pages AS ({pages}), hits AS ({pip_hits}) "
            f"SELECT DISTINCT url FROM hits"
        ),
        "pip_join_anti": (
            f"WITH pages AS ({pages}), hits AS ({pip_hits}) "
            f"SELECT url FROM pages WHERE url NOT IN (SELECT url FROM hits)"
        ),
        "knn": knn_sql(),
        "knn_cells": knn_sql(),
        "token_counts": (
            "SELECT doc_id, length(regexp_extract_all(text, '\\S+')) AS n_tokens "
            "FROM documents"
        ),
        "token_counts_bpe": TOKEN_BPE_SQL,
        "render_tiles_content": render_tiles_content_sql(),
        "color_tiles_content": color_tiles_content_sql(),
        "quality_scores": QUALITY_SQL,
        "lang_id": lang_id_sql(),
        "fingerprints": fingerprint_sql(),
        "audio_frames": audio_frames_sql(),
        "video_frames": video_frames_sql(),
        "label_centroids": label_centroids_sql(),
        "media_features": media_features_sql(),
        "media_resize": media_resize_sql(),
        "near_dup_minhash": near_dup_minhash_sql(),
        "near_dup_jaccard": near_dup_jaccard_sql(),
        "near_dup_simhash": near_dup_simhash_sql(),
        "dedup_exact_docs": (
            "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text"
        ),
        # transitive closure over shared-fingerprint edges: the engine's
        # distributed min-label propagation must match an exact
        # reachability computation
        "dedup_clusters": (
            f"WITH RECURSIVE fkeys AS ({fingerprint_keys_sql(k=2)}), "
            "edges AS (SELECT a.doc_id AS x, b.doc_id AS y "
            "          FROM fkeys a JOIN fkeys b USING(key) "
            "          WHERE a.doc_id <> b.doc_id), "
            "walk(doc_id, reach) AS ("
            "  SELECT DISTINCT doc_id, doc_id FROM fkeys"
            "  UNION"
            "  SELECT w.doc_id, e.y FROM walk w JOIN edges e ON e.x = w.reach) "
            "SELECT doc_id, min(reach) AS cluster_id FROM walk GROUP BY doc_id"
        ),
        "dedup_exact_pages": (
            f"WITH reps AS (SELECT * FROM (VALUES (0), (1), (2)) v(r)), "
            f"pr AS (SELECT 'https://' || source || '.example.com/doc/' || "
            f"(doc_id + r * {REP_STRIDE}) AS url, text "
            f"FROM documents CROSS JOIN reps) "
            f"SELECT min(url) AS url FROM pr GROUP BY text"
        ),
        "ann_topk": brute_topk_sql,
        "train_test_split": curate.TRAIN_TEST_SPLIT_SQL,
        "sample_stratified": curate.SAMPLE_STRATIFIED_SQL,
        "sample_k_per_stratum": curate.sample_k_per_stratum_sql(),
        "curate_corpus": curate.curate_corpus_sql(),
        "vocab_top_tokens": curate.vocab_top_tokens_sql(),
        "tfidf_top_terms": curate.tfidf_top_terms_sql(),
        "pack_sequences": curate.pack_sequences_sql(),
        "chunk_documents": curate.chunk_documents_sql(),
        "decontaminate": decontaminate_sql(),
        "repetition_signals": repetition_signals_sql(),
        "mix_sources": curate.mix_sources_sql(),
        "embed_quantize": embed_quantize_sql(),
        "ann_topk_filtered": ann_topk_filtered_sql(),
        # recall-1.0 LSH configuration vs the all-pairs cosine ground
        # truth (planted pairs at ~0.9996 vs the 0.95 threshold; next
        # closest pair <= ~0.48) — the approximate embedding_near_dup
        # entry stays rows-only beside it
        "embedding_near_dup_exact": embedding_near_dup_exact_sql(),
        # full-probe IVF == brute search (every cell probed), so it
        # shares the exact brute twin; the equivalence itself is locked
        # by tests/test_corpus.py::test_ann_ivf_recall_vs_brute
        "ann_topk_ivf_fullprobe": brute_topk_sql,
        # canonical corpus: the dedup_clusters closure restricted to the
        # nodes that are their own component minimum
        "dedup_canonical": (
            f"WITH RECURSIVE fkeys AS ({fingerprint_keys_sql(k=2)}), "
            "edges AS (SELECT a.doc_id AS x, b.doc_id AS y "
            "          FROM fkeys a JOIN fkeys b USING(key) "
            "          WHERE a.doc_id <> b.doc_id), "
            "walk(doc_id, reach) AS ("
            "  SELECT DISTINCT doc_id, doc_id FROM fkeys"
            "  UNION"
            "  SELECT w.doc_id, e.y FROM walk w JOIN edges e ON e.x = w.reach) "
            "SELECT doc_id FROM (SELECT doc_id, min(reach) AS cluster_id "
            "FROM walk GROUP BY doc_id) WHERE doc_id = cluster_id"
        ),
    }
