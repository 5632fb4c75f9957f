"""Ray Data stage callables.

Stateless per-batch functions and stateful stage classes, both run as
Ray tasks; a stage class is wrapped by ``statecache.make_stage_fn`` so
its state is built once per worker process. All hot paths are vectorized
(pyarrow.compute / numpy); no per-row Python in any stage body.
"""

from .geocode import geocode_batch
from .cellify import cellify_batch, GRID_DEG
from .color_stage import ColorStage, apply_ops_to_tiles
from .pip_stage import PIPJoinStage, RectJoinStage

__all__ = [
    "geocode_batch",
    "cellify_batch",
    "GRID_DEG",
    "ColorStage",
    "apply_ops_to_tiles",
    "PIPJoinStage",
    "RectJoinStage",
]
