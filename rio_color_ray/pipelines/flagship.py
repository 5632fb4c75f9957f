"""The flagship end-to-end pipeline (the north-star composition).

pages -> geocode -> cellify -> PIP join (broadcast STRtree) -> per-tile
pixel partials -> boundary-partitioned sort(tile bucket) -> one reduce
that rasterizes and color-corrects each tile (pipelines/tiles.py).
Cellify computes only the cells a pipeline keeps, none here (geo.py).

One streaming Dataset: no stage materializes the corpus; the only
all-to-all exchange is the sort over pre-summed (tile_key, pix)
partials. The PIP join's STRtree is built once per worker process and
the join runs fused into the map chain (stages/statecache.py). Used by
``__ray_entry__.entry()`` (sf0.001) and ``bench.py`` (sf0.1 with
replication).
"""

from ..sources.polygons import make_admin_polygons
from ..stages.pip_stage import PIPJoinStage
from ..stages.statecache import make_stage_fn
from .geo import cellified
from .tiles import DEFAULT_OPS, DEFAULT_ZOOM, render_tiles_from


def flagship(sf_dir, replicate=1, ops=DEFAULT_OPS, z=DEFAULT_ZOOM):
    """Corpus -> joined -> rasterized -> color-corrected tiles Dataset."""
    from ..color import parse_operations

    parse_operations(ops)  # validate the program before any work launches
    pts = cellified(sf_dir, keep_columns=["url", "lat", "lon"], replicate=replicate)
    joined = pts.map_batches(
        make_stage_fn(PIPJoinStage, make_admin_polygons(), "left"), batch_format="pyarrow"
    )
    return render_tiles_from(joined, z, ops=ops)
