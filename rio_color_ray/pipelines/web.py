"""Web-corpus operators over the Common-Crawl-style pages table.

The four operations every crawl-curation pipeline runs before anything
else touches the corpus:

* ``extract_text`` — html bytes -> text (the input_hint's "byte-identical
  extracted text per url" invariant, as a driver-verified query: the
  oracle returns the source text column, so a value-hash match proves the
  extraction reproduced every byte).
* ``host_stats`` — per-host page counts / text volume / language spread
  (the crawl-frequency table that drives per-domain sampling caps).
* ``latest_page_snapshot`` — one row per canonical page, the most recent
  crawl wins (argmax-per-key over ``warc_ts``).
* ``url_canonical_dedup`` — strip tracking query strings / fragments and
  count how many raw variants collapse into each canonical url.

Scale notes (the 100 TB shapes):
* All four stream: pages blocks flow straight from the source
  ``map_batches`` with no materialization.
* Every aggregate pre-reduces INSIDE map_batches, so the one all-to-all
  exchange moves per-batch partials (host/canon keys + counts, or one
  argmax row per key per batch) — never raw pages, never html/text.
* ``extract_text`` is exchange-free: a single stateless vectorized RE2
  pass over the html column.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.pages import LINK_FANOUT as _LINK_FANOUT
from ..stages.agg import hash_bucket_agg, keyed_agg, keyed_topk
from .geo import pages

# anchored to the document tail so embedded tags inside text can't
# truncate the extraction; (?s) because text may span lines
_TEXT_RE = r"(?s)<body><p>(?P<text>.*)</p></body></html>$"
_DOC_ID_RE = r"/doc/(?P<doc_id>\d+)$"

# deterministic raw-url variant scheme (mirrored in the SQL twins):
# odd doc_ids were also crawled with tracking params, doc_id % 3 == 0
# pages also appear with a fragment anchor
_TRACKING = "?utm_source=feed&ref=rss"
_FRAGMENT = "#section-2"


def _doc_ids(url: pa.ChunkedArray) -> np.ndarray:
    hits = pc.extract_regex(url, _DOC_ID_RE)
    return pc.cast(pc.struct_field(hits, "doc_id"), pa.int64()).to_numpy()


def extract_text(sf_dir, replicate=1):
    """pages -> (url, text) by parsing the html bytes back out.

    The oracle twin selects the source text column directly, so the
    driver's value-hash compare verifies byte-identical extraction per
    url end to end.
    """

    def extract(batch: pa.Table) -> pa.Table:
        html_str = pc.cast(batch.column("html"), pa.string())
        hits = pc.extract_regex(html_str, _TEXT_RE)
        return pa.table(
            {"url": batch.column("url"), "text": pc.struct_field(hits, "text")}
        )

    return pages(sf_dir, replicate=replicate).map_batches(
        extract, batch_format="pyarrow"
    )


def extract_text_sql(pages_cte: str) -> str:
    return f"WITH pages AS ({pages_cte}) SELECT url, text FROM pages"


def host_stats(sf_dir, replicate=1):
    """Per-host crawl stats: page count, total text chars, distinct langs.

    Partial combine: one (host, lang) row per batch carries (n, chars);
    the exchange then moves O(hosts x langs) partials per batch. Distinct
    langs can't pre-reduce past the (host, lang) pair, which is why the
    partial keys on the pair, not the host alone.
    """

    def partial(batch: pa.Table) -> pd.DataFrame:
        host = pc.struct_field(
            pc.extract_regex(batch.column("url"), r"^https://(?P<host>[^/]+)/"), "host"
        )
        df = pd.DataFrame(
            {
                "host": host.to_pandas(),
                "lang": batch.column("lang").to_pandas(),
                "chars": pc.utf8_length(batch.column("text")).to_numpy(),
            }
        )
        out = df.groupby(["host", "lang"], as_index=False).agg(
            n=("chars", "size"), chars=("chars", "sum")
        )
        return out

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("host", as_index=False).agg(
            n_pages=("n", "sum"), total_chars=("chars", "sum"), n_langs=("lang", "nunique")
        )

    ds = pages(sf_dir, replicate=replicate).map_batches(partial, batch_format="pyarrow")
    return hash_bucket_agg(ds, "host", final)


def host_stats_sql(pages_cte: str) -> str:
    return f"""WITH pages AS ({pages_cte})
SELECT split_part(url, '/', 3) AS host,
       count(*) AS n_pages,
       CAST(sum(length(text)) AS BIGINT) AS total_chars,
       count(DISTINCT lang) AS n_langs
FROM pages GROUP BY 1"""


def latest_page_snapshot(sf_dir, group=4, replicate=1):
    """One page per canonical group, most recent crawl (max warc_ts) wins.

    Models re-crawl snapshot dedup: ``group`` consecutive doc_ids stand
    in for crawls of the same canonical page. Argmax-per-key as a keyed
    top-1 (stages/agg.py): its combiner cuts each batch to one candidate
    row per canon_id, so the exchange carries at most one (canon_id,
    url, warc_ts) triple per key per batch, never page payloads.
    """

    def candidates(batch: pa.Table) -> pa.Table:
        did = _doc_ids(batch.column("url"))
        return pa.table(
            {
                "canon_id": pa.array(did - did % group, pa.int64()),
                "url": batch.column("url"),
                "warc_ts": batch.column("warc_ts"),
            }
        )

    ds = pages(sf_dir, replicate=replicate).map_batches(candidates, batch_format="pyarrow")
    latest = [("warc_ts", "descending"), ("url", "ascending")]
    return keyed_topk(ds, "canon_id", latest, 1).select_columns(["canon_id", "url", "warc_ts"])


def latest_page_snapshot_sql(pages_cte: str, group=4) -> str:
    # warc_ts is strictly increasing in doc_id, so arg_max is unique
    return f"""WITH pages AS ({pages_cte})
SELECT doc_id - doc_id % {int(group)} AS canon_id,
       arg_max(url, warc_ts) AS url,
       max(warc_ts) AS warc_ts
FROM pages GROUP BY 1"""


def url_canonical_dedup(sf_dir, replicate=1):
    """Canonical-url collapse: emit every raw crawl variant (tracking
    params on odd doc_ids, fragment anchors on doc_id % 3 == 0), strip
    ``[?#].*`` and count variants per canonical url.

    The variant expansion and the canonicalization happen in the same
    stateless batch pass, into a keyed count: the exchange moves
    (canon_url, n_variants) partials.
    """

    def expand_canon(batch: pa.Table) -> pa.Table:
        url = batch.column("url").combine_chunks()
        did = _doc_ids(url)
        variants = [url]
        tracked = url.filter(pa.array(did % 2 == 1))
        if len(tracked):
            variants.append(pc.binary_join_element_wise(tracked, _TRACKING, ""))
        anchored = url.filter(pa.array(did % 3 == 0))
        if len(anchored):
            variants.append(pc.binary_join_element_wise(anchored, _FRAGMENT, ""))
        raw = pa.concat_arrays(variants)
        canon = pc.replace_substring_regex(raw, r"[?#].*$", "")
        return pa.table({"canon_url": canon, "n_variants": np.ones(len(canon), np.int64)})

    ds = pages(sf_dir, replicate=replicate).map_batches(
        expand_canon, batch_format="pyarrow"
    )
    return keyed_agg(ds, "canon_url", {"n_variants": "sum"})


def url_canonical_dedup_sql(pages_cte: str) -> str:
    return f"""WITH pages AS ({pages_cte}), variants AS (
  SELECT url FROM pages
  UNION ALL SELECT url || '{_TRACKING}' FROM pages WHERE doc_id % 2 = 1
  UNION ALL SELECT url || '{_FRAGMENT}' FROM pages WHERE doc_id % 3 = 0
)
SELECT regexp_replace(url, '[?#].*$', '') AS canon_url,
       count(*) AS n_variants
FROM variants GROUP BY 1"""


def _n_docs(sf_dir) -> int:
    from ..io import table_num_rows

    return table_num_rows(sf_dir, "documents")


def extract_links(sf_dir):
    """pages (href-bearing html) -> the ``links(src, dst)`` edge table.

    The crawl-side half of PageRank: the source synthesizes pages WITH
    outbound ``<link rel="lK" href="/doc/D">`` elements
    (``synth_pages_batch(links_n=n)``), and this stage parses them back
    out — one vectorized RE2 pass per link slot (RE2 has no repeated
    capture groups, so K anchored extracts replace one; K is the fixed
    per-page fanout). Exchange-free: edges stream out of the same
    map_batches that parsed them, int64 pairs only.

    Base corpus only (no ``replicate``): the link graph is DEFINED over
    the n base documents — replica srcs would carry REP_STRIDE-offset
    ids disjoint from the [0, n) dst domain, so a replicated edge table
    is incoherent by construction.
    """
    n = _n_docs(sf_dir)
    href_res = [
        rf'rel="l{k}" href="/doc/(?P<dst>\d+)"' for k in range(_LINK_FANOUT)
    ]

    def extract(batch: pa.Table) -> pa.Table:
        html_str = pc.cast(batch.column("html"), pa.string())
        src = _doc_ids(batch.column("url"))
        srcs, dsts = [], []
        for pat in href_res:
            hits = pc.extract_regex(html_str, pat)
            dst = pc.cast(pc.struct_field(hits, "dst"), pa.int64()).to_numpy(
                zero_copy_only=False
            )
            srcs.append(src)
            dsts.append(dst)
        return pa.table(
            {
                "src": pa.array(np.concatenate(srcs), pa.int64()),
                "dst": pa.array(np.concatenate(dsts), pa.int64()),
            }
        )

    return pages(sf_dir, links_n=n).map_batches(extract, batch_format="pyarrow")
