"""The LUT fast path in apply_ops_to_tiles is byte-identical to direct math.

The stage gathers the elementwise-op prefix from a per-code table
(color_stage.py:_split_lut_prefix); these tests pin the gather against an
inline direct-math twin (the stage's pre-LUT body: to_math_type -> every
op -> scale_dtype) byte-for-byte over random tiles, across programs with
and without the cross-band saturation op, per-band band masks, both LUT
dtypes, band counts 1-4, and dtype-changing output.
"""

import numpy as np
import pytest

from rio_color_ray.color import parse_operations
from rio_color_ray.stages.color_stage import _split_lut_prefix, apply_ops_to_tiles


def _tiles(rng, n, bands, dtype, w=16, h=16):
    hi = np.iinfo(dtype).max + 1
    return [
        rng.integers(0, hi, size=(bands, h, w), dtype=dtype).tobytes()
        for _ in range(n)
    ]


PROGRAMS = [
    "gamma rgb 1.2, sigmoidal rgb 6 0.25",  # pure prefix -> code-to-code LUT
    "gamma rgb 1.2, sigmoidal rgb 6 0.25, saturation 1.1",  # prefix + cross-band
    "saturation 1.2, gamma rgb 0.95",  # empty prefix (cross-band first)
    "gamma g 1.1, sigmoidal b 4 0.4",  # per-band masks through the ramp rows
]


@pytest.mark.parametrize("ops_string", PROGRAMS)
@pytest.mark.parametrize("dtype", ["uint8", "uint16"])
def test_lut_path_matches_direct_math(ops_string, dtype, direct_math):
    ops = parse_operations(ops_string)
    rng = np.random.default_rng(7)
    tiles = _tiles(rng, 5, 3, dtype)
    got = apply_ops_to_tiles(tiles, 3, dtype, 16, 16, ops, dtype)
    want = direct_math(tiles, 3, dtype, 16, 16, ops, dtype)
    assert got == want


@pytest.mark.parametrize("bands", [1, 4])
def test_lut_path_band_counts(bands, direct_math):
    # 1-band programs must name band 1; rgb masks on a 4-band tile leave
    # alpha scaled-but-untouched — same on both paths
    prog = "gamma 1 1.3, sigmoidal 1 5 0.3" if bands == 1 else "gamma rgb 1.3, sigmoidal rgb 5 0.3"
    ops = parse_operations(prog)
    rng = np.random.default_rng(11)
    tiles = _tiles(rng, 3, bands, "uint8")
    got = apply_ops_to_tiles(tiles, bands, "uint8", 16, 16, ops, "uint8")
    want = direct_math(tiles, bands, "uint8", 16, 16, ops, "uint8")
    assert got == want


def test_lut_path_output_dtype_conversion(direct_math):
    ops = parse_operations("gamma rgb 1.2")
    rng = np.random.default_rng(3)
    tiles = _tiles(rng, 3, 3, "uint8")
    got = apply_ops_to_tiles(tiles, 3, "uint8", 16, 16, ops, "uint16")
    want = direct_math(tiles, 3, "uint8", 16, 16, ops, "uint16")
    assert got == want
    assert len(got[0]) == 2 * 3 * 16 * 16


def test_split_lut_prefix():
    ops = parse_operations("gamma rgb 1.2, saturation 1.1, sigmoidal rgb 6 0.25")
    prefix, rest = _split_lut_prefix(ops)
    assert [f.__name__ for f in prefix] == ["gamma"]
    assert [f.__name__ for f in rest] == ["saturation", "sigmoidal"]


def test_dictionary_path_low_cardinality_exact(direct_math):
    # few distinct band tuples (the rasterized-density-tile shape):
    # dictionary encoding must reproduce the direct bytes exactly
    rng = np.random.default_rng(5)
    palette = rng.integers(0, 256, size=(7, 3), dtype=np.uint8)
    tiles = [
        np.ascontiguousarray(
            palette[rng.integers(0, 7, size=32 * 32)].reshape(32, 32, 3).transpose(2, 0, 1)
        ).tobytes()
        for _ in range(20)
    ]
    ops = parse_operations("gamma rgb 1.2, sigmoidal rgb 6 0.25, saturation 1.1")
    got = apply_ops_to_tiles(tiles, 3, "uint8", 32, 32, ops, "uint8")
    want = direct_math(tiles, 3, "uint8", 32, 32, ops, "uint8")
    assert got == want


def test_dictionary_gate_falls_back_on_high_cardinality(direct_math):
    # a big random image exceeds both gates -> full-image path, same bytes
    rng = np.random.default_rng(9)
    tiles = [
        rng.integers(0, 256, size=(3, 64, 64), dtype=np.uint8).tobytes()
        for _ in range(8)
    ]
    ops = parse_operations("saturation 1.3")
    got = apply_ops_to_tiles(tiles, 3, "uint8", 64, 64, ops, "uint8")
    want = direct_math(tiles, 3, "uint8", 64, 64, ops, "uint8")
    assert got == want


def test_dictionary_path_four_band_uint16_exact(direct_math):
    rng = np.random.default_rng(13)
    palette = rng.integers(0, 65536, size=(9, 4), dtype=np.uint16)
    tiles = [
        np.ascontiguousarray(
            palette[rng.integers(0, 9, size=16 * 16)].reshape(16, 16, 4).transpose(2, 0, 1)
        ).tobytes()
        for _ in range(6)
    ]
    ops = parse_operations("sigmoidal rgb 4 0.4, saturation 0.8")
    got = apply_ops_to_tiles(tiles, 4, "uint16", 16, 16, ops, "uint16")
    want = direct_math(tiles, 4, "uint16", 16, 16, ops, "uint16")
    assert got == want


def test_dictionary_path_declines_unknown_op(monkeypatch):
    # an op not on the per-pixel whitelist (e.g. a future spatial kernel)
    # must force the full-image path even on low-cardinality input, and
    # must never run per count inside the fused tile reduce
    import pyarrow as pa

    from rio_color_ray.pipelines import tiles
    from rio_color_ray.stages.color_stage import _dictionary_apply, color_tuples

    def box_blur(arr):  # name not in _PER_PIXEL_OPS
        return arr

    palette = np.array([[10, 20, 30], [40, 50, 60]], dtype=np.uint8)
    raw = np.ascontiguousarray(
        palette[np.zeros(8 * 8, dtype=np.int64)].reshape(8, 8, 3).transpose(2, 0, 1)
    )
    assert _dictionary_apply(raw, [box_blur], "uint8") is None
    # sanity: the same call with a whitelisted program takes the path
    sat = parse_operations("saturation 1.1")
    assert _dictionary_apply(raw, list(sat), "uint8") is not None

    with pytest.raises(ValueError, match="box_blur"):
        color_tuples(palette.T.copy(), [*sat, box_blur], "uint8")
    monkeypatch.setattr(tiles, "parse_operations", lambda ops: [*sat, box_blur])
    block = pa.table(
        {
            "tile_key": pa.array([5], pa.int64()),
            "bucket": pa.array([0], pa.int64()),
            "pix": pa.array([3], pa.int64()),
            "n": pa.array([2], pa.int64()),
        }
    )
    with pytest.raises(ValueError, match="box_blur"):
        tiles._assemble_bucket(block, ops="saturation 1.1, box_blur")


def test_lut_range_check_sees_only_present_codes(direct_math):
    # the inverse sigmoid maps code 0 to -3.9e-16, outside the next op's
    # [0, 1] check; direct math never sees code 0 on this tile, so the
    # ramp's rejection must fall back to direct math, not raise
    ops = parse_operations("sigmoidal 1 -9.0 0.50, gamma 1 1.00")
    tiles = [np.full(16, 95, dtype=np.uint8).tobytes()]
    got = apply_ops_to_tiles(tiles, 1, "uint8", 4, 4, ops, "uint8")
    assert got == direct_math(tiles, 1, "uint8", 4, 4, ops, "uint8")
    with pytest.raises(ValueError, match="between 0 and 1"):
        apply_ops_to_tiles([bytes(16)], 1, "uint8", 4, 4, ops, "uint8")


def test_every_code_value_roundtrips_identity():
    # identity program: LUT path must reproduce every input byte exactly
    ops = parse_operations("gamma rgb 1.0")
    ramp = np.tile(np.arange(256, dtype=np.uint8), 3).reshape(3, 16, 16)
    (out,) = apply_ops_to_tiles([ramp.tobytes()], 3, "uint8", 16, 16, ops, "uint8")
    assert out == ramp.tobytes()
