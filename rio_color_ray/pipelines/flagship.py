"""The flagship end-to-end pipeline (the north-star composition).

pages -> geocode -> PIP join (broadcast STRtree) -> per-tile pixel
partials -> keyed exchange on the mixed tile key -> one reduce that
rasterizes and color-corrects each tile (pipelines/tiles.py). No cell id
is computed: the flagship keeps none.

One streaming Dataset of three operators: the documents read, ONE map
function (``pipelines.tiles.tile_chain``) that makes the pages, geocodes
them, joins them to the admin polygons and sums their partial pixel
counts, then the exchange and its reduce. No stage materializes the
corpus; the only all-to-all exchange moves pre-summed (tile_key, pix)
partials. The PIP join's STRtree is built once per worker process and
kept across pipeline builds (stages/statecache.py), and the driver
makes the polygons and their stage function once per process
(:func:`admin_pip_left`). Used by ``__ray_entry__.entry()`` (sf0.001)
and ``bench.py`` (sf0.1 with replication). No tile depends on the
join's admin ids yet, so the tiles and their schema are
``pipelines.tiles.color_tiles``'.
"""

import functools

from ..sources.polygons import make_admin_polygons
from ..stages.pip_stage import PIPJoinStage
from ..stages.statecache import make_stage_fn
from .geo import geocode_steps, page_docs
from .tiles import DEFAULT_OPS, DEFAULT_ZOOM, _render


@functools.cache
def admin_pip_left():
    """The left PIP join on the admin polygons as a stage function.

    The polygons are deterministic, so one driver process makes them
    and digests them once, and every build shares one stage key."""
    return make_stage_fn(PIPJoinStage, make_admin_polygons(), "left")


def flagship(sf_dir, replicate=1, ops=DEFAULT_OPS, z=DEFAULT_ZOOM):
    """Corpus -> joined -> rasterized -> color-corrected tiles Dataset."""
    from ..color import parse_operations

    parse_operations(ops)  # validate the program before any work launches
    steps = (*geocode_steps(replicate), admin_pip_left())
    return _render(page_docs(sf_dir), steps, z, ops)
