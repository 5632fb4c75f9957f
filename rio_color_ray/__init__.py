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

# Every exchange in this engine wants hash partitioning (key colocation,
# no ordering); applied at import so the driver's own `ray.init` +
# `queries()` calls get the tuned executor too. Measurements: ctx.py.
try:  # pragma: no cover - trivial guard
    from .ctx import tune_data_context

    tune_data_context()
except Exception as _e:  # noqa: BLE001 — a DataContext rename / kwarg change
    # must degrade to Ray's defaults with a warning, never abort import
    import warnings

    warnings.warn(
        f"rio_color_ray: DataContext tuning failed ({_e!r}); running with "
        "Ray's default shuffle strategy — see rio_color_ray/ctx.py",
        RuntimeWarning,
        stacklevel=2,
    )
