"""rio_color_ray — a Ray-Data-native spatial-join + tiling + color engine.

A from-scratch engine (NOT a port) with the pixel-math capabilities of
mapbox/rio-color (reference at /root/reference, v2.0.1) re-expressed as
vectorized numpy kernels inside Ray Data ``map_batches`` stages, plus the
spatial core mandated by BASELINE.json: H3-style / S2-style cell indexing,
point-in-polygon joins, kNN via cell-ring expansion, cell aggregation with
salted shuffles, raster-tile materialization, dedup / text-analysis /
similarity-search operators for web-scale corpora, and per-partition
lineage + resume.

Subpackages
-----------
color      -- numerically exact reimplementation of rio-color's operators
              (reference: rio_color/operations.py, colorspace.pyx, utils.py)
spatial    -- cell indexes (hex hierarchy + quadsphere), R-tree, PIP, kNN
sources    -- deterministic synthetic pages/tiles/polygons generators
stages     -- Ray Data map_batches stage callables (stateless fns + stateful classes)
pipelines  -- end-to-end Dataset pipelines (flagship, relational, dedup, ann)
state      -- lineage records, checkpointed writes, resume
"""

__version__ = "0.1.0"
