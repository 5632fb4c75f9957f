"""Pages source: the html geo head, built from integer microdegrees with
Arrow compute, must equal the old ``np.char.mod("%.6f", u / 1e6)``
formatting byte for byte, and geocode must parse it back exactly."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from rio_color_ray.sources.pages import (
    _M1,
    _M2A,
    _M2B,
    _MOD32,
    LINK_MAX_NODES,
    REP_STRIDE,
    link_dsts,
    page_coords_microdeg,
    synth_pages_batch,
)
from rio_color_ray.stages.geocode import geocode_batch

# background coords (doc_id % 10 >= 3) are (h % span) - half, with h an
# invertible multiplicative hash mod 2^32, so a wanted microdegree value
# can be solved for exactly
_LAT = (_M1, 0, 160_000_001, 80_000_000)
_LON = (_M2A, _M2B, 340_000_001, 170_000_000)
_LAT_CASES = (-1, -999_999, 0, 1, 999_999, -1_000_000, 1_000_000, -1_000_001,
              45_000_000, -80_000_000, 80_000_000)
_LON_CASES = (-1, -999_999, 0, -12_000_000, 7_000_000, -170_000_000, 170_000_000)


def _doc_ids_for(u, axis, n=2):
    """Up to ``n`` background doc ids below 2^31 whose coordinate is ``u``."""
    mul, add, span, half = axis
    inv = pow(mul, -1, _MOD32)
    out = []
    for h in range(u + half, _MOD32, span):
        d = ((h - add) * inv) % _MOD32
        if d % 10 >= 3 and d < 1 << 31:
            out.append(d)
        if len(out) == n:
            break
    return out


def _hard_doc_ids():
    ids = [d for u in _LAT_CASES for d in _doc_ids_for(u, _LAT)]
    ids += [d for u in _LON_CASES for d in _doc_ids_for(u, _LON)]
    return np.asarray(ids + list(range(30)), dtype=np.int64)


def _documents(doc_id):
    n = len(doc_id)
    return pa.table(
        {
            "doc_id": pa.array(doc_id, pa.int64()),
            "text": pa.array([f"text {i} é" for i in range(n)]),
            "lang": pa.array(["en"] * n),
            "source": pa.array(["web", "news"] * (n // 2) + ["web"] * (n % 2)),
        }
    )


def _expected_html(docs, replica, links_n):
    """The head as the pages source formatted it before: floats, %.6f."""
    d = docs.column("doc_id").to_numpy() + replica * REP_STRIDE
    lat_u, lon_u = page_coords_microdeg(d)
    lat_s = np.char.mod("%.6f", lat_u / 1e6)
    lon_s = np.char.mod("%.6f", lon_u / 1e6)
    links = [""] * len(d)
    if links_n:
        for k, dst in enumerate(link_dsts(d, links_n)):
            links = [s + f'<link rel="l{k}" href="/doc/{t}">' for s, t in zip(links, dst)]
    return [
        (
            f'<!doctype html><html><head><meta name="geo.position" content="{a};{o}">'
            f"{lk}</head><body><p>{t}</p></body></html>"
        ).encode()
        for a, o, lk, t in zip(lat_s, lon_s, links, docs.column("text").to_pylist())
    ]


def _check(doc_id, replica, links_n):
    docs = _documents(doc_id)
    pages = synth_pages_batch(docs, replica=replica, links_n=links_n)
    assert pages.column("html").to_pylist() == _expected_html(docs, replica, links_n)
    lat_u, lon_u = page_coords_microdeg(doc_id + replica * REP_STRIDE)
    geo = geocode_batch(pages)
    assert np.array_equal(geo.column("lat").to_numpy(), lat_u / 1e6)
    assert np.array_equal(geo.column("lon").to_numpy(), lon_u / 1e6)


def test_hard_doc_ids_hit_the_hard_cases():
    lat_u, lon_u = page_coords_microdeg(_hard_doc_ids())
    assert set(_LAT_CASES) <= set(lat_u.tolist())
    assert set(_LON_CASES) <= set(lon_u.tolist())


def test_geo_head_equals_float_formatting_on_hard_cases():
    doc_id = _hard_doc_ids()
    _check(doc_id, replica=0, links_n=0)
    # a replica's effective doc id is doc_id + replica * REP_STRIDE
    _check(doc_id[doc_id >= 3 * REP_STRIDE] - 3 * REP_STRIDE, replica=3, links_n=0)
    # link targets are defined below LINK_MAX_NODES only
    _check(np.arange(0, LINK_MAX_NODES, 997_001, dtype=np.int64), replica=0, links_n=1000)
    _check(np.arange(30, dtype=np.int64), replica=2, links_n=7)


@st.composite
def _batches(draw):
    links_n = draw(st.sampled_from([0, 7, 1000]))
    replica = draw(st.integers(0, 5 if links_n else 99))
    top = (LINK_MAX_NODES if links_n else 1 << 31) - replica * REP_STRIDE - 1
    doc_ids = draw(st.lists(st.integers(0, top), min_size=1, max_size=40))
    return np.asarray(doc_ids, dtype=np.int64), replica, links_n


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_batches())
def test_geo_head_equals_float_formatting(case):
    _check(*case)


def test_pages_replicas_match_per_replica_calls(ray_session):
    """``pages(replicate=R)`` builds every replica of a block in one call;
    each output block equals the per-replica ``synth_pages_batch`` calls
    over its documents, concatenated replica-major."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray

    from rio_color_ray.pipelines.geo import pages

    sf = "/root/testdata/sf0.001"
    docs = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "source", "text", "lang"])
    blocks = [ray.get(ref) for ref in pages(sf, replicate=3).to_arrow_refs()]
    assert sum(b.num_rows for b in blocks) == 3 * docs.num_rows
    for block in blocks:
        first = block.slice(0, block.num_rows // 3).column("url")
        ids = pc.cast(pc.replace_substring_regex(first, ".*/", ""), pa.int64())
        src = docs.filter(pc.is_in(docs.column("doc_id"), value_set=ids.combine_chunks()))
        assert src.column("doc_id").equals(ids)
        want = pa.concat_tables([synth_pages_batch(src, replica=r) for r in range(3)])
        assert block.equals(want)
