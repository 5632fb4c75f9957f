"""Tile materialization + the rio-color correction stage.

cell-level point density -> web-mercator raster tiles (the engine's analog
of the reference GeoTIFF: 32x32 uint8 band-major buffers in a binary
column), color-corrected by a DSL program inside the same reduce. The
standalone stage (:func:`color_stage`) colors arbitrary tiles tables for
the CLI, with the ops program parsed once per worker process.

Shuffle discipline (round-5 design; measurements in BASELINE.md):
* stage 1 (map_batches): per-batch PARTIAL pixel histograms
  (tile_key, pix, n) — reduces the corpus to at most
  active-pixels-per-tile rows per batch before any exchange.
* stage 2 (the keyed exchange, ``ctx.bucket_exchange``): partials get
  ``tile_hash = splitmix64(tile_key)`` and the exchange keys on it (the
  mix decorrelates the bucket from tile adjacency, so hot cities spread
  uniformly) and every tile's partials meet in one exchange block,
  which is assembled and colored in ONE vectorized call over its
  distinct pixel counts. At 1 CPU the exchange is one bucket: one
  ``repartition(1)`` task gathers every partial and one reduce task
  assembles every tile. The exchange declares that reduce's output
  schema (taken from :func:`_assemble_bucket` over an empty partials
  table), so consuming the tiles with ``to_arrow_refs()`` or asking for
  their ``schema()`` never re-runs the plan.

Tile identity is the (z, x, y) triple — never row order.
"""

from functools import partial

import numpy as np
import pyarrow as pa

from ..color import parse_operations
from ..ctx import bucket_exchange
from ..spatial import mercator_tile, tile_pixel
from ..stages.color_stage import (
    ColorStage,
    apply_ops_to_tiles,
    binary_array,
    binary_view,
    color_tuples,
)
from ..stages.sampling import splitmix64
from ..stages.statecache import make_stage_fn


def color_stage(tiles_ds, ops, out_dtype=None, concurrency=None):
    """Apply the rio-color DSL program to a tiles Dataset.

    For tiles tables the engine did not render itself (the CLI's
    ``color``/``atmos``); rendered tiles are colored inside their reduce
    (:func:`render_tiles_from`). The ops program is parsed once per
    worker process. ``concurrency`` caps how many color tasks run at once
    (the CLI's ``-j``); None lets Ray size it.
    batch_size=128 keeps the stacked per-batch pixel array cache-resident
    — measured ~10x faster per pixel than one giant stacked array, and
    the fastest point of the 64/128/256/512 sweep (BASELINE.md).
    """
    return tiles_ds.map_batches(
        make_stage_fn(ColorStage, ops, out_dtype),
        batch_format="pyarrow",
        batch_size=128,
        concurrency=concurrency,
    )

TILE_SIZE = 32
DEFAULT_ZOOM = 7
DEFAULT_OPS = "gamma rgb 1.2, sigmoidal rgb 6 0.25, saturation 1.1"
# the partial-histogram rows stage 1 emits
_PARTIALS_SCHEMA = pa.schema(
    [(name, pa.int64()) for name in ("tile_key", "pix", "n")]
)


def _tile_key(z, xt, yt):
    return (
        (np.int64(z) << np.int64(44))
        | (xt.astype(np.int64) << np.int64(22))
        | yt.astype(np.int64)
    )


def _partial_pixel_counts(z):
    def fn(batch: pa.Table) -> pa.Table:
        lat = batch.column("lat").to_numpy(zero_copy_only=False)
        lon = batch.column("lon").to_numpy(zero_copy_only=False)
        xt, yt = mercator_tile(lat, lon, z)
        row, col = tile_pixel(lat, lon, z, xt, yt, TILE_SIZE)
        key = _tile_key(z, xt, yt)
        pix = row.astype(np.int64) * TILE_SIZE + col.astype(np.int64)
        combo = key * (TILE_SIZE * TILE_SIZE) + pix
        uniq, counts = np.unique(combo, return_counts=True)
        tile_key, pix = np.divmod(uniq, TILE_SIZE * TILE_SIZE)
        return pa.Table.from_arrays(
            [tile_key, pix, counts.astype(np.int64)], schema=_PARTIALS_SCHEMA
        )

    return fn


def _add_tile_hash(batch: pa.Table) -> pa.Table:
    # key the exchange on a MIXED tile key: raw keys of adjacent tiles (hot
    # cities) once put a whole city in one reduce task (34x tiles-per-task
    # spread, 3.5s straggler at z10/sf0.1; round-5 profile)
    tile_hash = splitmix64(batch.column("tile_key").to_numpy()).view(np.int64)
    return batch.append_column("tile_hash", pa.array(tile_hash))


def _assemble_bucket(group: pa.Table, ops=None) -> pa.Table:
    """All tiles of one bucket (one exchange block), rendered and,
    given an ops program, color-corrected in one vectorized pass.

    Every output byte of a pixel depends only on that pixel's count, so
    the render contract and the color program run once per DISTINCT
    count in the block — a few hundred values instead of tiles x 1024
    pixels. Every tile buffer is filled with the count-0 tuple and only
    occupied pixels are scattered. That (tiles, 3, 32, 32) buffer is the
    ``pixels`` column's data buffer as it is (``binary_array``, no
    copy), and the constant ``dtype`` and ``ops`` columns are
    ``pa.repeat`` arrays. Output is byte-identical to rendering densely
    and then applying ``ColorStage`` (tested), with the same schema:
    ``dtype`` stays the input's uint8 and an ``ops`` column is appended.
    Requires only that every partial of a given tile is co-located in
    the block.
    """
    import pyarrow.compute as pc

    npix = TILE_SIZE * TILE_SIZE
    tk = group.column("tile_key").to_numpy()
    # one sort: (tile, pix) cells, partials summed (they repeat across
    # input batches); cells come out grouped by tile
    cells, cinv = np.unique(tk * npix + group.column("pix").to_numpy(), return_inverse=True)
    sums = np.zeros(len(cells), dtype=np.int64)
    np.add.at(sums, cinv, group.column("n").to_numpy())
    cell_tile = cells // npix
    first = np.ones(len(cells), dtype=bool)
    first[1:] = cell_tile[1:] != cell_tile[:-1]
    uniq = cell_tile[first]
    k = len(uniq)

    values, vinv = np.unique(sums, return_inverse=True)
    # count 0 only where some pixel is empty, so the program's range
    # checks see exactly the values ColorStage would (an empty block
    # keeps it too: the ops reject zero-size input)
    if k == 0 or len(cells) < k * npix:
        values = np.concatenate([[0], values])
        vinv += 1
    # integer-deterministic banding: log-density, occupancy mask, density%256
    tuples = np.stack([
        np.clip(np.round(32.0 * np.log2(1.0 + values)), 0, 255).astype(np.uint8),
        np.where(values > 0, 255, 0).astype(np.uint8),
        (values % 256).astype(np.uint8),
    ])
    if ops is not None:
        tuples = color_tuples(tuples, parse_operations(ops), "uint8")
    px = np.empty((k, 3, npix), dtype=np.uint8)
    px[:] = tuples[:, 0, None]  # count 0's tuple, where one is needed
    px[np.cumsum(first) - 1, :, cells % npix] = tuples[:, vinv].T

    pixels = binary_array(np.arange(k + 1, dtype=np.int64) * (3 * npix), px.reshape(-1))
    z = (uniq >> 44).astype(np.int32)
    xt = ((uniq >> 22) & ((1 << 22) - 1)).astype(np.int32)
    yt = (uniq & ((1 << 22) - 1)).astype(np.int32)
    slash = pa.scalar("/")
    tile_id = pc.binary_join_element_wise(
        pc.cast(pa.array(z), pa.string()),
        slash,
        pc.cast(pa.array(xt), pa.string()),
        slash,
        pc.cast(pa.array(yt), pa.string()),
        "",
    )
    cols = {
        "tile_id": tile_id,
        "z": pa.array(z),
        "x": pa.array(xt),
        "y": pa.array(yt),
        "band_count": pa.array(np.full(k, 3, dtype=np.uint8)),
        "dtype": pa.repeat(pa.scalar("uint8", pa.string()), k),
        "width": pa.array(np.full(k, TILE_SIZE, dtype=np.int32)),
        "height": pa.array(np.full(k, TILE_SIZE, dtype=np.int32)),
        "pixels": pixels,
    }
    if ops is not None:
        cols["ops"] = pa.repeat(pa.scalar(ops, pa.string()), k)
    return pa.table(cols)


def render_tiles_from(points_ds, z=DEFAULT_ZOOM, ops=None):
    """Any Dataset with lat/lon columns -> raster tiles at zoom z,
    color-corrected by the DSL program ``ops`` when one is given.

    Per-batch partial pixel histograms, then one keyed exchange on the
    mixed tile key (``ctx.bucket_exchange``, which documents the
    exchange and its reduce-task count) with :func:`_assemble_bucket` as
    the reduce. One reduce task holds one bucket, 1/``shuffle_partitions()``
    of the tiles, one task per CPU: at 1 CPU one ``repartition(1)`` task
    moves every partial and one reduce holds every tile, with no empty
    range beside it.

    The returned Dataset carries its output schema, taken from the
    reduce's own output over an empty partials table (one cheap local
    call; it cannot drift from the blocks), so ``to_arrow_refs()`` and
    ``schema()`` never re-run the plan (see ``bucket_exchange``).
    """
    parts = points_ds.map_batches(_partial_pixel_counts(z), batch_format="pyarrow").map_batches(
        _add_tile_hash, batch_format="pyarrow"
    )
    reduce_block = partial(_assemble_bucket, ops=ops)
    schema = reduce_block(_PARTIALS_SCHEMA.empty_table()).schema
    return bucket_exchange(parts, "tile_hash", reduce_block, schema=schema)


def render_tiles(sf_dir, z=DEFAULT_ZOOM, replicate=1, ops=None):
    """Point corpus -> raster tiles at zoom z, colored by ``ops`` if given."""
    from .geo import cellified

    pts = cellified(sf_dir, keep_columns=["lat", "lon"], replicate=replicate)
    return render_tiles_from(pts, z, ops=ops)


def color_tiles(sf_dir, ops=DEFAULT_OPS, z=DEFAULT_ZOOM, replicate=1):
    """The flagship tail: tiles rendered and color-corrected in one reduce."""
    parse_operations(ops)  # fail fast BEFORE launching work (cf. cli.py:95-98)
    return render_tiles(sf_dir, z, replicate=replicate, ops=ops)


def render_tiles_sql(z=DEFAULT_ZOOM):
    """DuckDB twin of :func:`render_tiles` including the pixel BLOBs.

    The slippy-map projection mirrors spatial/geo.py term for term
    (asinh written as ln(x + sqrt(x^2+1)) — DuckDB lacks asinh; libm may
    differ from numpy by an ulp, which only matters if fy*n*32 lands
    within that ulp of an integer pixel edge: measure-zero, verified
    empirically at sf scale). Pixel buffers are assembled band-major as
    hex (format + string_agg ORDER BY band, pix) then unhex'd to BLOB —
    byte-for-byte the engine's (tiles, 3, 32, 32) C-order layout.
    """
    from ..sources.pages import pages_sql_cte
    from ..spatial.geo import _MAX_MERC_LAT

    n = float(2**z)
    ts = TILE_SIZE
    npix = ts * ts
    asinh = "ln(t + sqrt(t * t + 1.0))"
    return f"""
WITH pages AS ({pages_sql_cte()}),
pts AS (
  SELECT greatest(least(lat, {_MAX_MERC_LAT!r}), {-_MAX_MERC_LAT!r}) AS lat, lon
  FROM pages
),
m AS (
  SELECT (lon + 180.0) / 360.0 * {n!r} AS fxn,
         (1.0 - ({asinh}) / pi()) / 2.0 * {n!r} AS fyn
  FROM (SELECT lat, lon, tan(radians(lat)) AS t FROM pts)
),
t AS (
  SELECT CAST(least(greatest(floor(fxn), 0), {n - 1!r}) AS INTEGER) AS xt,
         CAST(least(greatest(floor(fyn), 0), {n - 1!r}) AS INTEGER) AS yt,
         fxn, fyn
  FROM m
),
p AS (
  SELECT xt, yt,
         CAST(least(greatest(floor((fyn - yt) * {ts}), 0), {ts - 1}) AS BIGINT) * {ts}
         + CAST(least(greatest(floor((fxn - xt) * {ts}), 0), {ts - 1}) AS BIGINT) AS pix
  FROM t
),
counts AS (SELECT xt, yt, pix, count(*) AS n FROM p GROUP BY 1, 2, 3),
tiles AS (SELECT DISTINCT xt, yt FROM counts),
grid AS (
  SELECT tiles.xt, tiles.yt, b.b AS band, i.i AS pix
  FROM tiles
  CROSS JOIN (SELECT unnest(range(0, 3)) AS b) b
  CROSS JOIN (SELECT unnest(range(0, {npix})) AS i) i
),
bytes AS (
  SELECT g.xt, g.yt, g.band, g.pix,
    CASE g.band
      WHEN 0 THEN CAST(least(greatest(round(32.0 * log2(1.0 + coalesce(c.n, 0))), 0), 255) AS BIGINT)
      WHEN 1 THEN CASE WHEN coalesce(c.n, 0) > 0 THEN 255 ELSE 0 END
      ELSE coalesce(c.n, 0) % 256
    END AS v
  FROM grid g LEFT JOIN counts c ON c.xt = g.xt AND c.yt = g.yt AND c.pix = g.pix
),
blobs AS (
  SELECT xt, yt,
         unhex(string_agg(format('{{:02x}}', v), '' ORDER BY band, pix)) AS pixels
  FROM bytes GROUP BY xt, yt
)
SELECT CAST({z} AS VARCHAR) || '/' || CAST(xt AS VARCHAR) || '/' || CAST(yt AS VARCHAR)
         AS tile_id,
       CAST({z} AS INTEGER) AS z, xt AS x, yt AS y,
       CAST(3 AS UTINYINT) AS band_count,
       CAST('uint8' AS VARCHAR) AS dtype,
       CAST({ts} AS INTEGER) AS width, CAST({ts} AS INTEGER) AS height,
       pixels
FROM blobs
"""


def _hex_string_array(arr: pa.Array) -> pa.Array:
    """Lowercase-hex encode a binary array, Arrow-buffer vectorized.

    Two fancy-indexed nibble lookups over the data buffer and a doubled
    offsets buffer — no per-row ``bytes.hex()`` Python loop (a 256x256x3
    tile is ~200 kB/row; the loop was O(rows) interpreter work).
    """
    if arr.null_count:
        raise ValueError("_hex_string_array: null pixel rows are not expected")
    rel, data = binary_view(arr)
    hex_lut = np.frombuffer(b"0123456789abcdef", np.uint8)
    out = np.empty(data.size * 2, np.uint8)
    out[0::2] = hex_lut[data >> 4]
    out[1::2] = hex_lut[data & 0x0F]
    return binary_array(rel * 2, out, pa.string())


def _pixels_to_hex(batch: pa.Table) -> pa.Table:
    """pixels (binary) -> pixels_hex (lowercase hex VARCHAR), other
    columns untouched — the shared hex contract of both content twins."""
    cols = {}
    for name in batch.column_names:
        if name == "pixels":
            cols["pixels_hex"] = _hex_string_array(
                batch.column("pixels").combine_chunks()
            )
        else:
            cols[name] = batch.column(name)
    return pa.table(cols)


def render_tiles_content(sf_dir, z=DEFAULT_ZOOM):
    """render_tiles with the pixel buffer hex-encoded (VARCHAR).

    The driver's value-hash comparator needs hashable cells; DuckDB
    returns BLOBs as bytearray, so the binary ``pixels`` column can't be
    compared directly. This twin of :func:`render_tiles` carries the
    SAME bytes as lowercase hex — the oracle (render_tiles_sql minus the
    unhex) verifies full tile content, not just ids.
    """
    return render_tiles(sf_dir, z).map_batches(_pixels_to_hex, batch_format="pyarrow")


def render_tiles_content_sql(z=DEFAULT_ZOOM):
    """Oracle for render_tiles_content: the full twin, hex instead of BLOB."""
    sql = render_tiles_sql(z)
    return sql.replace(
        "unhex(string_agg(format('{:02x}', v), '' ORDER BY band, pix)) AS pixels",
        "string_agg(format('{:02x}', v), '' ORDER BY band, pix) AS pixels_hex",
    ).replace("       pixels\nFROM blobs", "       pixels_hex\nFROM blobs")


BAND_UNIFORM_OPS = "gamma rgb 1.2, sigmoidal rgb 6 0.25"


def band_uniform_lut():
    """256-entry uint8 LUT for the band-uniform ``BAND_UNIFORM_OPS``.

    Valid only for a program with no cross-band operator (gamma and
    sigmoidal are strictly elementwise per band, operations.py; the
    reference's saturation mixes bands and is excluded). Built by running
    the engine's own scalar path over the 0..255 ramp — the scalar math
    itself is verified against the reference's golden fixtures in
    tests/test_color_operations.py; the SQL oracle built from this LUT
    verifies the DISTRIBUTED tile pipeline routes every byte through it.
    """
    ramp = np.arange(256, dtype=np.uint8).tobytes()
    out = apply_ops_to_tiles(
        [ramp * 3], 3, "uint8", 16, 16, parse_operations(BAND_UNIFORM_OPS), "uint8"
    )[0]
    return np.frombuffer(out, dtype=np.uint8)[:256]


def color_tiles_content(sf_dir, z=DEFAULT_ZOOM):
    """color_tiles with a band-uniform program, pixels hex-encoded.

    The oracle-checkable twin of :func:`color_tiles`: same render +
    color stages, ops restricted to the per-band subset so DuckDB can
    reproduce the pixel bytes exactly via a 256-entry lookup.
    """
    ds = color_tiles(sf_dir, ops=BAND_UNIFORM_OPS, z=z).drop_columns(["ops"])
    return ds.map_batches(_pixels_to_hex, batch_format="pyarrow")


def color_tiles_content_sql(z=DEFAULT_ZOOM):
    """Oracle for color_tiles_content: render SQL + LUT join on v."""
    lut = band_uniform_lut()
    values = ", ".join(f"({i}, {int(v)})" for i, v in enumerate(lut))
    sql = render_tiles_content_sql(z)
    return sql.replace(
        "string_agg(format('{:02x}', v), '' ORDER BY band, pix) AS pixels_hex",
        "string_agg(format('{:02x}', lut.v2), '' ORDER BY band, pix) AS pixels_hex",
    ).replace(
        "blobs AS (",
        f"lut(v, v2) AS (VALUES {values}),\nblobs AS (",
    ).replace(
        "FROM bytes GROUP BY xt, yt",
        "FROM bytes JOIN lut ON lut.v = bytes.v GROUP BY xt, yt",
    )
