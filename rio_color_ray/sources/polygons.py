"""Deterministic admin-polygon small side for the PIP join (FIXTURES.md F5).

Two flavors:

* ``make_admin_rects`` — axis-aligned rectangles. Same STRtree + ray-cast
  code path as general polygons, but the containment predicate is also
  expressible in SQL (``lat BETWEEN ... AND lon BETWEEN ...``), giving the
  driver's DuckDB oracle a value-exact check of the whole join.
* ``make_admin_polygons`` — convex + concave (star-perturbed) polygons
  covering the pages hotspots; verified against brute force in pytest.

Both are tiny (≪ 10 MB): the broadcast small side of the join, built into an
index once per worker process. Boundary semantics: points exactly on a
polygon edge follow the even-odd rule's half-open convention; rect edges
are closed (BETWEEN) in both Ray and SQL. Rect bounds are integer
microdegrees so Ray/SQL agree exactly.
"""

import numpy as np

from .pages import HOTSPOTS


def make_admin_rects():
    """60 deterministic rectangles around hotspots + scattered background.

    Returns a dict of numpy arrays: admin_id, admin_name, and integer
    microdegree bounds (min_lat_u, max_lat_u, min_lon_u, max_lon_u).
    Rectangles may overlap; the join emits ALL matches (url, admin_id).
    """
    rng = np.random.default_rng(42)
    ids, names = [], []
    min_lat, max_lat, min_lon, max_lon = [], [], [], []
    for i in range(60):
        if i % 2 == 0:
            clat, clon = HOTSPOTS[(i // 2) % 3]
            clat += rng.uniform(-0.4, 0.4)
            clon += rng.uniform(-0.4, 0.4)
            half_lat = rng.uniform(0.05, 0.35)
            half_lon = rng.uniform(0.05, 0.35)
        else:
            clat = rng.uniform(-75, 75)
            clon = rng.uniform(-165, 165)
            half_lat = rng.uniform(0.5, 4.0)
            half_lon = rng.uniform(0.5, 4.0)
        ids.append(i)
        names.append(f"admin_{i:03d}")
        min_lat.append(int(round((clat - half_lat) * 1e6)))
        max_lat.append(int(round((clat + half_lat) * 1e6)))
        min_lon.append(int(round((clon - half_lon) * 1e6)))
        max_lon.append(int(round((clon + half_lon) * 1e6)))
    return {
        "admin_id": np.asarray(ids, dtype=np.int64),
        "admin_name": np.asarray(names),
        "min_lat_u": np.asarray(min_lat, dtype=np.int64),
        "max_lat_u": np.asarray(max_lat, dtype=np.int64),
        "min_lon_u": np.asarray(min_lon, dtype=np.int64),
        "max_lon_u": np.asarray(max_lon, dtype=np.int64),
    }


def rects_sql_values(rects):
    """The rectangles as a SQL VALUES list for the oracle side."""
    rows = ", ".join(
        f"({int(a)}, {mn_la}, {mx_la}, {mn_lo}, {mx_lo})"
        for a, mn_la, mx_la, mn_lo, mx_lo in zip(
            rects["admin_id"],
            rects["min_lat_u"],
            rects["max_lat_u"],
            rects["min_lon_u"],
            rects["max_lon_u"],
        )
    )
    return (
        "(VALUES "
        + rows
        + ") AS r(admin_id, min_lat_u, max_lat_u, min_lon_u, max_lon_u)"
    )


def polys_edges_sql_values(polys):
    """Polygon edges as a SQL VALUES list — the DuckDB-oracle twin of the
    engine's ray cast (``spatial.rtree.pairs_in_polygons``).

    One row per real edge (admin_id, x1, y1, x2, y2) of the engine's own
    edge table (``spatial.rtree.polygon_edges``), with (x1, y1) the
    PREVIOUS vertex and (x2, y2) the current one (wrap edge included);
    pad edges are left out. Vertex doubles are embedded as
    ``CAST('<repr>' AS DOUBLE)`` — shortest-roundtrip repr parses back to
    the identical float64, so the SQL crossing test
    ``lon < (x1-x2)*(lat-y2)/(y1-y2)+x2`` computes bit-identical IEEE
    doubles to the numpy expression.
    """
    from ..spatial import polygon_edges

    def d(v):
        return f"CAST('{float(v)!r}' AS DOUBLE)"

    edges, n_edges = polygon_edges(polys)
    rows = [
        f"({int(p['admin_id'])}, " + ", ".join(d(v) for v in edges[:, i, e]) + ")"
        for i, p in enumerate(polys)
        for e in range(n_edges[i])
    ]
    return "(VALUES " + ", ".join(rows) + ") AS e(admin_id, x1, y1, x2, y2)"


def make_admin_polygons():
    """80 deterministic convex/concave polygons over the hotspot regions.

    Returns a list of dicts {admin_id, admin_name, xs (lon), ys (lat),
    bbox} — polygons open (no repeated last vertex). Concave shapes come
    from radial perturbation of a star polygon.
    """
    rng = np.random.default_rng(42)
    polys = []
    for i in range(80):
        if i % 4 != 3:
            clat, clon = HOTSPOTS[i % 3]
            clat += rng.uniform(-0.5, 0.5)
            clon += rng.uniform(-0.5, 0.5)
            scale = rng.uniform(0.05, 0.4)
        else:
            clat = rng.uniform(-70, 70)
            clon = rng.uniform(-160, 160)
            scale = rng.uniform(1.0, 5.0)
        k = int(rng.integers(5, 12))
        ang = np.sort(rng.uniform(0, 2 * np.pi, k))
        radius = scale * (1.0 + rng.uniform(-0.6, 0.6, k))  # concave allowed
        xs = clon + radius * np.cos(ang)
        ys = clat + radius * np.sin(ang)
        polys.append(
            {
                "admin_id": i,
                "admin_name": f"poly_{i:03d}",
                "xs": xs,
                "ys": ys,
                "bbox": (xs.min(), ys.min(), xs.max(), ys.max()),
            }
        )
    return polys
