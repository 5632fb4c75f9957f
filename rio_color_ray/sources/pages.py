"""Deterministic Common-Crawl-style pages corpus, derived from `documents`.

The mandated input shape (BASELINE.json ``input_hint``) is a Parquet table
``(url: string, warc_ts: timestamp, html: binary, text: string,
lang: string)``. The driver's testdata has no such table, so we derive one
DETERMINISTICALLY from ``documents.parquet`` (doc_id, text, lang, source)
with pure integer arithmetic on ``doc_id`` — every derived value is also
expressible in ANSI SQL (see ``pages_sql_cte``), which is what lets the
DuckDB oracle verify the geocode/cellify pipelines value-for-value.

Coordinate scheme (FIXTURES.md F1 skew requirements):
* ``doc_id % 10 in {0,1,2}`` → ~30% of pages cluster in three "urban"
  hotspots (NYC / London / Tokyo) with ±0.5 deg jitter — this exercises
  salted aggregation and hot-cell handling.
* otherwise → uniform background in lat [-80, 80], lon [-170, 170]
  (antimeridian excluded in v1 per FIXTURES.md F5).
* jitter/background positions come from two 32-bit multiplicative hashes
  of doc_id, expressed in integer MICRODEGREES so Python and SQL agree
  bit-for-bit after the single ``microdeg / 1e6`` double division.

The html embeds ``<meta name="geo.position" content="LAT;LON">`` with
exactly 6 decimals, so the geocode stage is a pure parse and
``parse(format(microdeg/1e6)) == microdeg/1e6`` exactly. ``text`` is
embedded byte-identically — the "byte-identical extracted text per url"
invariant (input_hint) holds by construction and is asserted in tests.
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

HOTSPOTS = ((40.7, -74.0), (51.5, -0.13), (35.68, 139.69))

_M1 = 2654435761  # Knuth multiplicative hash
_M2A = 2246822519
_M2B = 3266489917
_MOD32 = 1 << 32

# epoch microseconds of 2024-01-01 00:00:00 UTC
_WARC_EPOCH_US = 1704067200 * 1_000_000


def page_coords_microdeg(doc_id):
    """(lat, lon) in integer microdegrees for each doc_id. Pure int math.

    Valid for doc_id < ~2^31 (no int64 overflow in the SQL mirror; numpy
    side uses int64 with the same in-range products).
    """
    d = np.asarray(doc_id, dtype=np.int64)
    h1 = (d * _M1) % _MOD32
    h2 = (d * _M2A + _M2B) % _MOD32
    m = d % 10

    lat = (h1 % 160_000_001) - 80_000_000
    lon = (h2 % 340_000_001) - 170_000_000
    for i, (clat, clon) in enumerate(HOTSPOTS):
        sel = m == i
        lat = np.where(sel, int(round(clat * 1e6)) + (h1 % 1_000_001) - 500_000, lat)
        lon = np.where(sel, int(round(clon * 1e6)) + (h2 % 1_000_001) - 500_000, lon)
    return lat, lon


# the same derivation as ANSI SQL (DuckDB dialect), used as a CTE prefix by
# every oracle query that consumes pages. Kept in one place so Ray and SQL
# can never drift apart silently.
_COORD_SQL = """
  SELECT doc_id,
         'https://' || source || '.example.com/doc/' || doc_id AS url,
         TIMESTAMP '2024-01-01 00:00:00' + doc_id * INTERVAL 1 SECOND AS warc_ts,
         text,
         lang,
         CASE doc_id % 10
           WHEN 0 THEN {h0lat} + ((doc_id * {m1}) % {mod} % 1000001) - 500000
           WHEN 1 THEN {h1lat} + ((doc_id * {m1}) % {mod} % 1000001) - 500000
           WHEN 2 THEN {h2lat} + ((doc_id * {m1}) % {mod} % 1000001) - 500000
           ELSE ((doc_id * {m1}) % {mod} % 160000001) - 80000000
         END AS lat_microdeg,
         CASE doc_id % 10
           WHEN 0 THEN {h0lon} + ((doc_id * {m2a} + {m2b}) % {mod} % 1000001) - 500000
           WHEN 1 THEN {h1lon} + ((doc_id * {m2a} + {m2b}) % {mod} % 1000001) - 500000
           WHEN 2 THEN {h2lon} + ((doc_id * {m2a} + {m2b}) % {mod} % 1000001) - 500000
           ELSE ((doc_id * {m2a} + {m2b}) % {mod} % 340000001) - 170000000
         END AS lon_microdeg
  FROM documents
"""


def pages_sql_cte():
    """`WITH pages AS (...)`-ready SQL snippet mirroring the Ray derivation.

    Exposes url, warc_ts, text, lang, lat (double), lon (double).
    """
    inner = _COORD_SQL.format(
        m1=_M1,
        m2a=_M2A,
        m2b=_M2B,
        mod=_MOD32,
        h0lat=int(round(HOTSPOTS[0][0] * 1e6)),
        h0lon=int(round(HOTSPOTS[0][1] * 1e6)),
        h1lat=int(round(HOTSPOTS[1][0] * 1e6)),
        h1lon=int(round(HOTSPOTS[1][1] * 1e6)),
        h2lat=int(round(HOTSPOTS[2][0] * 1e6)),
        h2lon=int(round(HOTSPOTS[2][1] * 1e6)),
    )
    return (
        "SELECT doc_id, url, warc_ts, text, lang, "
        "lat_microdeg / 1000000.0 AS lat, lon_microdeg / 1000000.0 AS lon "
        "FROM (" + inner + ")"
    )


# replica stride: effective doc_id = doc_id + replica * stride keeps the
# integer hash math in int64 range up to ~900 replicas of 10M-doc tables
REP_STRIDE = 10_000_000

# ---------------------------------------------------------------------------
# link graph: each page links to LINK_FANOUT deterministic targets; with
# ``links_n`` set, synth_pages_batch embeds them as <link href="/doc/D">
# elements in the html head, and pipelines/web.py extracts them back out
# as the (src, dst) edge table that pipelines/graph.py ranks over. The
# three maps (an affine permutation, a 3-to-1 collapse, a quadratic map)
# give hubs and orphans like a real href graph; ``n`` is the corpus size.

LINK_FANOUT = 3
# the quadratic map squares doc_id before the % n: beyond ~2^26 the
# numpy int64 product silently wraps while DuckDB's BIGINT raises, so
# the engines would diverge — guard at runtime, not just in docs
LINK_MAX_NODES = 1 << 26


def link_dsts(src: np.ndarray, n: int) -> list[np.ndarray]:
    """The three link maps (numpy side). ``_link_sql`` in
    pipelines/graph.py is the SQL mirror — keep them in lockstep."""
    if n >= LINK_MAX_NODES or (len(src) and int(src.max()) >= LINK_MAX_NODES):
        raise ValueError(
            f"link graph maps are int64-overflow-safe only below "
            f"{LINK_MAX_NODES} nodes (quadratic map squares doc_id); got n={n}"
        )
    return [
        (src * 31 + 7) % n,
        ((src // 3) * 97 + 13) % n,
        (src * src + 29) % n,
    ]


def _decimal6(u: np.ndarray) -> list:
    """Join parts spelling integer microdegrees ``u`` as ``%.6f`` of
    ``u / 1e6``: sign, whole degrees, ``"."``, six zero-padded digits."""
    a = np.abs(u)
    return [
        pc.if_else(pa.array(u < 0), "-", ""),
        pc.cast(pa.array(a // 1_000_000), pa.string()),
        pa.scalar("."),
        pc.utf8_lpad(pc.cast(pa.array(a % 1_000_000), pa.string()), width=6, padding="0"),
    ]


def synth_pages_batch(batch: pa.Table, replica: int = 0, links_n: int = 0) -> pa.Table:
    """documents batch -> pages batch (Arrow in / Arrow out, vectorized).

    The per-batch body of the pages source stage:
    ``ray.data.read_parquet(documents).map_batches(synth_pages_batch,
    batch_format="pyarrow")``. The html head is built from the integer
    microdegrees with Arrow compute (:func:`_decimal6`), so no float is
    formatted; text bytes are embedded untouched.

    ``replica > 0`` derives an additional deterministic corpus copy with
    distinct urls/coords (same text per url) — used by bench.py to scale
    the streamed corpus without external data.

    ``links_n > 0`` additionally embeds ``LINK_FANOUT`` outbound
    ``<link rel="lK" href="/doc/D">`` elements in the head (targets from
    :func:`link_dsts` over a ``links_n``-node graph) — the href source
    for the link-graph pipelines. Off by default so the geocode/tile
    flagship path never pays the extra string assembly.
    """
    doc_id = batch.column("doc_id").to_numpy() + replica * REP_STRIDE
    source = batch.column("source")
    text = batch.column("text")
    lang = batch.column("lang")

    lat_u, lon_u = page_coords_microdeg(doc_id)

    url = pc.binary_join_element_wise(
        pa.scalar("https://"),
        source,
        pa.scalar(".example.com/doc/"),
        pc.cast(pa.array(doc_id), pa.string()),
        "",
    )
    warc_ts = pa.array(
        _WARC_EPOCH_US + doc_id * 1_000_000, type=pa.timestamp("us")
    )
    parts = [
        pa.scalar('<!doctype html><html><head><meta name="geo.position" content="'),
        *_decimal6(lat_u),
        pa.scalar(";"),
        *_decimal6(lon_u),
        pa.scalar('">'),
    ]
    if links_n:
        for k, dst in enumerate(link_dsts(doc_id, links_n)):
            parts.append(pa.scalar(f'<link rel="l{k}" href="/doc/'))
            parts.append(pc.cast(pa.array(dst), pa.string()))
            parts.append(pa.scalar('">'))
    parts.append(pa.scalar("</head><body><p>"))
    html_str = pc.binary_join_element_wise(*parts, text, pa.scalar("</p></body></html>"), "")
    html = pc.cast(html_str, pa.binary())

    return pa.table(
        {
            "url": url,
            "warc_ts": warc_ts,
            "html": html,
            "text": text,
            "lang": lang,
        }
    )
