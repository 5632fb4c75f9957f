"""ColorStage: the rio-color graft — stateful tile stage.

``tiles.map_batches(make_stage_fn(ColorStage, ops, out_dtype),
batch_format="pyarrow", batch_size=B)``. The ops program is parsed ONCE
per worker process in ``__init__`` (the reference re-parses per window,
workers.py:27 — pure overhead we drop); per batch the tile pixel buffers are stacked into one
``(bands, n_tiles*h, w)`` float64 array and the whole program runs
vectorized across every tile at once. All color operators are strictly
elementwise per band (operations.py), so stacking tiles along rows is
semantically identical to the reference's per-window loop — asserted
against the single-tile oracle in tests.

Per-window equivalence chain (reference workers.py:21-31):
read -> to_math_type -> ops... -> scale_dtype(out_dtype).
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..color import parse_operations, scale_dtype, to_math_type

# Ops that are strictly per-band elementwise (operations.py): the output
# of each pixel-band depends only on that pixel-band's own value, so a
# leading run of them over quantized input is a pure function of the
# input code value. saturation mixes bands (LCH chroma) and is excluded;
# any op not on this list falls back to the direct math path.
_ELEMENTWISE_OPS = frozenset({"gamma", "sigmoidal"})


def _split_lut_prefix(ops_funcs):
    """Longest leading run of per-band elementwise ops, and the rest."""
    k = 0
    while k < len(ops_funcs) and getattr(ops_funcs[k], "__name__", "") in _ELEMENTWISE_OPS:
        k += 1
    return ops_funcs[:k], ops_funcs[k:]


# Ops that read only their own pixel's band tuple (all current ops:
# saturation mixes bands but never neighbors). The dictionary path is
# valid only for these — a future spatial op (blur, convolution) must
# NOT be added here, or the per-tuple rewrite would corrupt it.
_PER_PIXEL_OPS = frozenset({"gamma", "sigmoidal", "saturation"})


def _first_non_per_pixel(ops_funcs):
    """Name of the first op outside ``_PER_PIXEL_OPS``, or None."""
    for fn in ops_funcs:
        name = getattr(fn, "__name__", "")
        if name not in _PER_PIXEL_OPS:
            return name
    return None


# Dictionary-path gates: sample the first pixels to estimate tuple
# cardinality before paying a full sort; commit only when the distinct
# tuples are a small fraction of the image.
_DICT_SAMPLE = 4096
_DICT_SAMPLE_MAX = 2048


def color_tuples(codes, ops_funcs, out_dtype):
    """Color program over distinct pixel band tuples, one column each.

    ``codes`` is a ``(bands, U)`` unsigned-integer array; returns the
    ``(bands, U)`` output codes: to_math_type -> every op -> scale_dtype,
    the reference's per-window chain run over U one-pixel columns. Only
    valid because every op reads nothing but its own pixel's tuple; an
    op outside ``_PER_PIXEL_OPS`` raises a ValueError naming it.
    """
    name = _first_non_per_pixel(ops_funcs)
    if name is not None:
        raise ValueError(f"{name!r} is not a per-pixel op; it cannot run per tuple")
    arr = to_math_type(codes[:, :, None])  # (bands, U, 1): cross-band ops validate ndim == 3
    for fn in ops_funcs:
        arr = fn(arr)
    return scale_dtype(arr, out_dtype)[:, :, 0]


def _dictionary_apply(raw, ops_funcs, out_dtype):
    """Whole program via dictionary encoding; None when not profitable.

    Every color op is a pure per-PIXEL function (elementwise ops read one
    band-value, saturation reads the pixel's band tuple — never a
    neighbor), so the image's distinct band tuples fully determine the
    output: unique the packed tuples, push only the uniques through
    :func:`color_tuples`, and gather output codes back by inverse index.
    Bit-identical to the direct path (same ufuncs over the same float64
    values — tests/test_color_stage_lut.py), and a large win on
    low-cardinality imagery (palettized or posterized rasters);
    continuous photography exceeds the cardinality gate and returns None
    to take the full-image path, as does any op outside ``_PER_PIXEL_OPS``.
    """
    band_count = raw.shape[0]
    if band_count > 4:  # 16-bit lanes: four bands fill the uint64 key
        return None
    if _first_non_per_pixel(ops_funcs) is not None:
        return None
    flat = raw.reshape(band_count, -1)
    packed = flat[0].astype(np.uint64)
    for b in range(1, band_count):
        packed |= flat[b].astype(np.uint64) << np.uint64(16 * b)
    if len(np.unique(packed[:_DICT_SAMPLE])) > _DICT_SAMPLE_MAX:
        return None
    uniq, inv = np.unique(packed, return_inverse=True)
    if len(uniq) > max(_DICT_SAMPLE, packed.size // 8):
        return None
    shifts = np.uint64(16) * np.arange(band_count, dtype=np.uint64)
    codes = ((uniq[None, :] >> shifts[:, None]) & np.uint64(0xFFFF)).astype(raw.dtype)
    small = color_tuples(codes, ops_funcs, out_dtype)
    out = np.empty((band_count, packed.size), dtype=small.dtype)
    for b in range(band_count):
        np.take(small[b], inv, out=out[b])
    return out.reshape(raw.shape)


def _lut_apply(raw, prefix, rest, out_dtype):
    """``prefix`` as a per-band LUT over the 0..max code ramp, then ``rest``.

    One ramp row per band: the closures band-mask on axis 0 exactly as
    they do on image arrays, so per-band programs come out right. Over
    the whole ramp an op's range check also sees codes the image lacks,
    so it can reject a program direct math accepts (an inverse sigmoid
    steps just outside [0, 1] at an absent code); the ramp's ValueError
    then returns None and the caller runs direct math.
    """
    band_count = raw.shape[0]
    n_codes = np.iinfo(raw.dtype).max + 1
    lut = to_math_type(np.broadcast_to(np.arange(n_codes, dtype=raw.dtype), (band_count, n_codes)))
    try:
        for fn in prefix:
            lut = fn(lut)
    except ValueError:
        return None
    if not rest:
        lut_codes = scale_dtype(lut, out_dtype)
        out = np.empty(raw.shape, dtype=lut_codes.dtype)
        for b in range(band_count):
            np.take(lut_codes[b], raw[b], out=out[b])
        return out
    arr = np.empty(raw.shape, dtype=np.float64)
    for b in range(band_count):
        np.take(lut[b], raw[b], out=arr[b])
    for fn in rest:
        arr = fn(arr)
    return scale_dtype(arr, out_dtype)


def apply_ops_to_tiles(pixels_list, band_count, dtype, width, height, ops_funcs, out_dtype):
    """Apply a parsed ops program to a homogeneous list of tile buffers.

    Returns a list of output buffers (bytes) in input order; the thin
    list entry to :func:`_color_stacked`.
    """
    if not pixels_list:
        return []
    out = _color_stacked(
        np.frombuffer(b"".join(pixels_list), dtype=np.uint8),
        len(pixels_list), band_count, dtype, width, height, ops_funcs, out_dtype,
    )
    return [tile.tobytes() for tile in out]


def _color_stacked(data, n, band_count, dtype, width, height, ops_funcs, out_dtype):
    """Apply a parsed ops program to same-shape tiles packed back to back.

    ``data`` is a uint8 array of ``n`` whole ``(band_count, height, width)``
    tiles of ``dtype``; returns a C-contiguous ``(n, band_count, height,
    width)`` array of ``out_dtype``. Vectorized: one stacked array for
    the whole group.

    For unsigned-integer tiles (uint8/uint16) the leading elementwise ops
    run over the 0..max code ramp once (:func:`_lut_apply`) and every
    pixel is then a LUT gather — bit-identical to the direct path because numpy ufuncs are
    value-deterministic elementwise, so computing f(v) once per distinct
    code v yields the same float64 as computing it per pixel (asserted
    byte-for-byte in tests/test_color_stage_lut.py). A program with no
    cross-band op folds ``scale_dtype`` into the table too and never
    materializes the float64 image. With saturation present the whole
    program runs over the distinct band tuples (:func:`_dictionary_apply`);
    past its cardinality gate, the gather produces the exact float64
    array the cross-band tail then consumes.
    This is the engine-side twin of the oracle's 256-entry LUT
    (tiles.py:band_uniform_lut / color_tiles_content_sql).
    """
    np_dtype = np.dtype(dtype)
    stacked = data.view(np_dtype).reshape(n, band_count, height, width)
    # (n, b, h, w) -> (b, n*h, w): ops are per-band elementwise, so tiles
    # stacked along the row axis behave exactly like one tall window
    raw = np.ascontiguousarray(stacked.transpose(1, 0, 2, 3)).reshape(
        band_count, n * height, width
    )
    prefix, rest = _split_lut_prefix(ops_funcs)
    out = None
    if np_dtype.kind == "u" and np_dtype.itemsize <= 2:
        out = _dictionary_apply(raw, ops_funcs, out_dtype) if rest else None
        if out is None:
            out = _lut_apply(raw, prefix, rest, out_dtype)
    if out is None:
        arr = to_math_type(raw)
        for fn in ops_funcs:
            arr = fn(arr)
        out = scale_dtype(arr, out_dtype)
    out = out.reshape(band_count, n, height, width).transpose(1, 0, 2, 3)
    return np.ascontiguousarray(out)


_ITEMSIZE = {"uint8": 1, "uint16": 2}


def check_tiles(batch: pa.Table):
    """Raise ValueError naming the first malformed tile of ``batch``.

    A tile is well formed when its ``pixels`` is not null, its ``dtype``
    is uint8 or uint16, ``band_count``, ``width`` and ``height`` are at
    least 1, and its buffer holds exactly
    ``band_count * width * height * itemsize`` bytes. One vectorized pass
    over the whole batch; the per-tile message is built only on failure.
    """
    pixels, dtype = batch.column("pixels"), batch.column("dtype")
    b, w, h = (batch.column(c).cast(pa.int64()) for c in ("band_count", "width", "height"))
    itemsize = pc.if_else(pc.equal(dtype, "uint16"), 2, 1)
    expected = pc.multiply(pc.multiply(b, w), pc.multiply(h, itemsize))
    ok = pc.and_(
        pc.and_(
            pc.is_in(dtype, value_set=pa.array(list(_ITEMSIZE))),
            pc.greater(pc.min_element_wise(b, w, h), 0),
        ),
        pc.equal(pc.binary_length(pixels).cast(pa.int64()), expected),
    )
    bad = np.flatnonzero(~pc.fill_null(ok, False).to_numpy(zero_copy_only=False))
    if len(bad) == 0:
        return
    i = int(bad[0])
    row = batch.slice(i, 1).to_pylist()[0]
    name = f"tile {row['tile_id']!r}" if "tile_id" in row else f"tile at row {i}"
    if row["pixels"] is None:
        raise ValueError(f"{name}: pixels is null")
    if row["dtype"] not in _ITEMSIZE:
        raise ValueError(f"{name}: unsupported dtype {row['dtype']!r}, expected uint8 or uint16")
    size = (row["band_count"], row["width"], row["height"])
    if any(v is None or v < 1 for v in size):
        raise ValueError(
            f"{name}: {size[0]} bands x {size[1]} x {size[2]}, "
            "band_count, width and height must be at least 1"
        )
    raise ValueError(
        f"{name}: pixels has {len(row['pixels'])} bytes, expected {expected[i].as_py()} "
        f"({row['band_count']} bands x {row['width']} x {row['height']} x "
        f"{_ITEMSIZE[row['dtype']]} bytes)"
    )


class ColorStage:
    """Callable stage class for ``make_stage_fn``; one parse per worker process."""

    def __init__(self, ops_string, out_dtype=None):
        self.ops_string = ops_string
        self.ops = parse_operations(ops_string)  # validates up front, like cli.py:95-98
        self.out_dtype = out_dtype  # None -> keep each tile's own dtype

    def __call__(self, batch: pa.Table) -> pa.Table:
        check_tiles(batch)
        n = batch.num_rows
        pixels = batch.column("pixels").combine_chunks()
        sig = tile_signature(batch)
        # rows grouped by homogeneous (bands, w, h, dtype) signature; each
        # group's pixels go to the kernel straight from the Arrow buffer
        sigs, inv = np.unique(sig, axis=1, return_inverse=True)
        inv = inv.reshape(-1)
        order = np.argsort(inv, kind="stable")
        counts = np.bincount(inv, minlength=sigs.shape[1])
        outs, out_dts = [], []
        for (b, w, h, u16), stop, count in zip(sigs.T, np.cumsum(counts), counts):
            rows = order[stop - count:stop]
            if rows[-1] - rows[0] + 1 == count:  # consecutive rows: no copy
                group = pixels.slice(rows[0], count)
            else:
                group = pixels.take(rows)
            dt = "uint16" if u16 else "uint8"
            odt = self.out_dtype or dt
            out = _color_stacked(binary_view(group)[1], count, b, dt, w, h, self.ops, odt)
            outs.append(out.reshape(count, -1).view(np.uint8))
            out_dts.append(odt)

        # one output buffer in signature order, then back to row order
        sizes = np.repeat([o.shape[1] for o in outs], counts)
        data = np.concatenate([o.ravel() for o in outs] or [np.empty(0, np.uint8)])
        out_px = binary_array(np.concatenate([[0], np.cumsum(sizes)]), data)
        if not np.array_equal(order, np.arange(n)):
            out_px = out_px.take(pa.array(np.argsort(order)))
        out_dt = pa.array(out_dts, pa.string()).take(pa.array(inv))

        result = batch.set_column(batch.schema.get_field_index("pixels"), "pixels", out_px)
        result = result.set_column(result.schema.get_field_index("dtype"), "dtype", out_dt)
        return result.append_column("ops", pa.repeat(pa.scalar(self.ops_string, pa.string()), n))


def tile_signature(batch: pa.Table) -> np.ndarray:
    """(4, rows) int64: every tile's band count, width, height and
    whether it is uint16."""
    is16 = pc.equal(batch.column("dtype"), "uint16").to_numpy(zero_copy_only=False)
    return np.stack(
        [batch.column(c).to_numpy().astype(np.int64) for c in ("band_count", "width", "height")]
        + [is16.astype(np.int64)]
    )


def binary_view(arr):
    """The offsets and values of a binary or string column, zero-copy.

    Returns ``(offsets, values)``: ``len(arr) + 1`` int64 offsets that
    start at 0, and the values back to back as a uint8 view. Either
    offset width is read, a sliced array's offset is honoured and a
    ChunkedArray is combined first. :func:`binary_array` is the inverse.
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if len(arr) == 0:
        return np.zeros(1, np.int64), np.empty(0, np.uint8)
    large = pa.types.is_large_binary(arr.type) or pa.types.is_large_string(arr.type)
    off_t = np.dtype(np.int64 if large else np.int32)
    offs = np.frombuffer(arr.buffers()[1], off_t, len(arr) + 1, arr.offset * off_t.itemsize)
    offs = offs.astype(np.int64)
    values = arr.buffers()[2]
    data = np.frombuffer(values, np.uint8)[offs[0]:offs[-1]] if values else np.empty(0, np.uint8)
    return offs - offs[0], data


_INT32_OFFSET_LIMIT = np.iinfo(np.int32).max


def binary_array(offsets, values, type=pa.binary()):
    """A binary (or, given ``type``, string) column from ``len + 1``
    int64 offsets that start at 0 and a uint8 values buffer; the inverse
    of :func:`binary_view`.

    The values become the Arrow data buffer as they are, not copied;
    only the offsets are narrowed to int32. The engine's one way to make
    a binary or string array from buffers. Raises ``ValueError`` when
    the values do not fit int32 offsets, rather than wrapping them.
    """
    offsets = np.asarray(offsets, np.int64)
    nbytes = int(offsets[-1])
    if nbytes > _INT32_OFFSET_LIMIT:
        raise ValueError(
            f"{nbytes} bytes in one {type} column exceed the int32 offset limit "
            f"of {_INT32_OFFSET_LIMIT} bytes; split the batch"
        )
    return pa.Array.from_buffers(
        type, len(offsets) - 1, [None, pa.py_buffer(offsets.astype(np.int32)), pa.py_buffer(values)]
    )
