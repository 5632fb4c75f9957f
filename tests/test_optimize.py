"""Color-formula search (reference scripts/optimize_color.py analog)."""

import numpy as np
import pytest

from rio_color_ray.functions import (
    ColorOptimizer,
    band_histograms,
    histogram_distance,
    optimize_ops,
)
from rio_color_ray.sources.tiles import make_tiles_table


def test_histogram_distance_reference_semantics():
    """Same contract as optimize_color.py:168-191: 10 bins over [0,1],
    normalized, SSE; identical arrays -> 0; range asserted."""
    rng = np.random.default_rng(3)
    a = rng.random((3, 50, 50))
    assert histogram_distance(a, a) == 0.0
    b = np.clip(a * 0.5, 0, 1)
    assert histogram_distance(a, b) > 0
    with pytest.raises(AssertionError):
        histogram_distance(a * 2.0, b)


def test_tiles_to_band_arrays_reads_mixed_tiles_in_row_order():
    """Tiles of two shapes and two dtypes, interleaved and in two chunks,
    decode to the same three arrays as one frombuffer per tile."""
    import pyarrow as pa

    from rio_color_ray.color import to_math_type
    from rio_color_ray.functions.optimize import _tiles_to_band_arrays

    parts = [
        make_tiles_table("rgb8", n_tiles=3, size=8),
        make_tiles_table("rgba8", n_tiles=2, size=4, seed=1),
        make_tiles_table("rgb8", n_tiles=1, size=8, seed=2),
        make_tiles_table("rgb16", n_tiles=2, size=4, seed=3),
    ]
    batch = pa.concat_tables([pa.concat_tables(parts[:2]), pa.concat_tables(parts[2:]).combine_chunks()])
    want = [[], [], []]
    for t in batch.to_pylist():
        px = np.frombuffer(t["pixels"], t["dtype"]).reshape(t["band_count"], t["height"], t["width"])
        for b in range(3):
            want[b].append(to_math_type(px)[b].ravel())
    got = _tiles_to_band_arrays(batch)
    for b in range(3):
        np.testing.assert_array_equal(got[b], np.concatenate(want[b]))
    assert [len(a) for a in _tiles_to_band_arrays(batch.slice(0, 0))] == [0, 0, 0]


def _darkened_tiles(n=48):
    """rgb8 tiles with pixel values compressed into the dark range."""
    t = make_tiles_table("rgb8", n_tiles=n)
    import pyarrow as pa

    dark = [
        (np.frombuffer(p, dtype=np.uint8) // 3).astype(np.uint8).tobytes()
        for p in t.column("pixels").to_pylist()
    ]
    return t.set_column(t.schema.get_field_index("pixels"), "pixels", pa.array(dark, pa.binary()))


def test_band_histograms_distributed_exact(ray_session):
    """The distributed per-band histogram equals a local numpy pass."""
    import ray.data

    from rio_color_ray.color import to_math_type

    t = make_tiles_table("rgb8", n_tiles=30)
    ds = ray.data.from_arrow(t)
    got = band_histograms(ds)
    bins = np.asarray([x / 10 for x in range(11)])
    exp = np.zeros_like(got)
    for pix in t.column("pixels").to_pylist():
        arr = to_math_type(np.frombuffer(pix, dtype=np.uint8).reshape(3, 32, 32))
        for b in range(3):
            exp[b] += np.histogram(arr[b], bins=bins)[0]
    assert np.array_equal(got, exp)


def test_optimize_recovers_brightening(ray_session):
    """Annealing a darkened copy toward the original must cut the energy
    and push the gammas above 1 (brighten), deterministically."""
    import ray.data

    ref = ray.data.from_arrow(make_tiles_table("rgb8", n_tiles=48))
    src = ray.data.from_arrow(_darkened_tiles(48))

    ops1, e1 = optimize_ops(src, ref, n_steps=120, sample_tiles=32, seed=7)
    ops2, e2 = optimize_ops(src, ref, n_steps=120, sample_tiles=32, seed=7)
    assert ops1 == ops2 and e1 == e2  # seeded determinism

    # energy of the found state must beat the identity state
    ref_hist = band_histograms(ref)
    import pyarrow as pa

    from rio_color_ray.functions.optimize import _tiles_to_band_arrays

    src_bands = _tiles_to_band_arrays(_darkened_tiles(48))
    opt = ColorOptimizer(src_bands, ref_hist, seed=7)
    e_identity = opt.energy()
    assert e1 < e_identity

    # the program must parse and contain brightening gammas
    from rio_color_ray.color import parse_operations

    parse_operations(ops1)
    gammas = [float(tok) for tok in ops1.replace(",", "").split() if tok.replace(".", "").isdigit()]
    assert max(gammas[:3]) > 1.0
