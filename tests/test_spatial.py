"""Spatial core unit tests: hex grid, quadsphere cells, R-tree, PIP, geo."""

import numpy as np
import pytest

from rio_color_ray.spatial import (
    STRtree,
    haversine_km,
    hex_cell,
    hex_cell_center,
    hex_disk,
    hex_edge_deg,
    hex_parent,
    hex_res,
    hex_ring,
    mercator_tile,
    pairs_in_polygons,
    polygon_edges,
    s2_cell,
    s2_face,
    s2_level,
    s2_parent,
    tile_pixel,
)

RNG = np.random.default_rng(42)


def _rand_latlon(n, lat_range=(-80, 80), lon_range=(-170, 170)):
    lat = RNG.uniform(*lat_range, n)
    lon = RNG.uniform(*lon_range, n)
    return lat, lon


# --- hex grid ---------------------------------------------------------------


def test_hex_roundtrip_center():
    lat, lon = _rand_latlon(5000)
    for res in (7, 8, 9):
        cells = hex_cell(lat, lon, res)
        assert cells.dtype == np.uint64
        clat, clon = hex_cell_center(cells)
        # every point is within one circumradius (= edge length) of its center
        d = np.hypot(clat - lat, clon - lon)
        assert d.max() <= hex_edge_deg(res) * 1.0001
        # re-assigning the center lands in the same cell
        assert np.array_equal(hex_cell(clat, clon, res), cells)


def test_hex_res_extraction():
    lat, lon = _rand_latlon(10)
    for res in (0, 7, 9, 15):
        assert np.all(hex_res(hex_cell(lat, lon, res)) == res)


def test_hex_determinism_and_locality():
    lat, lon = _rand_latlon(1000)
    a = hex_cell(lat, lon, 8)
    b = hex_cell(lat.copy(), lon.copy(), 8)
    assert np.array_equal(a, b)
    # nearby points share cells far more often than distant ones
    near = hex_cell(lat + 1e-7, lon + 1e-7, 8)
    assert (near == a).mean() > 0.95


def test_hex_parent_contains_child_center():
    lat, lon = _rand_latlon(2000)
    child = hex_cell(lat, lon, 9)
    parent = hex_parent(child, 8)
    assert np.all(hex_res(parent) == 8)
    clat, clon = hex_cell_center(child)
    # geometric-parent contract: parent is the res-8 cell of the child center
    assert np.array_equal(parent, hex_cell(clat, clon, 8))


def test_hex_ring_and_disk():
    c = hex_cell(np.asarray([10.0]), np.asarray([20.0]), 8)[0]
    assert len(hex_ring(c, 0)) == 1
    for k in (1, 2, 3):
        ring = hex_ring(c, k)
        assert len(ring) == 6 * k
        assert len(np.unique(ring)) == 6 * k
    ids, owner = hex_disk(np.asarray([c]), 2)
    assert len(ids) == 1 + 3 * 2 * 3  # 1 + 3k(k+1) = 19
    assert len(np.unique(ids)) == 19
    # disk(2) == {self} ∪ ring(1) ∪ ring(2)
    expect = np.concatenate([[c], hex_ring(c, 1), hex_ring(c, 2)])
    assert set(ids.tolist()) == set(expect.tolist())
    assert np.all(owner == 0)


def test_hex_disk_multi_owner():
    lat, lon = _rand_latlon(50)
    cells = hex_cell(lat, lon, 8)
    ids, owner = hex_disk(cells, 1)
    assert len(ids) == 50 * 7
    assert np.all(owner == np.repeat(np.arange(50), 7))


# --- s2 quadsphere ----------------------------------------------------------


def test_s2_levels_and_faces():
    lat, lon = _rand_latlon(5000, lat_range=(-89, 89), lon_range=(-180, 180))
    for level in (5, 12, 20):
        cells = s2_cell(lat, lon, level)
        assert cells.dtype == np.uint64
        assert np.all(s2_level(cells) == level)
        assert np.all((s2_face(cells) >= 0) & (s2_face(cells) <= 5))


def test_s2_poles_and_cardinals():
    lat = np.asarray([90.0, -90.0, 0.0, 0.0, 0.0, 0.0])
    lon = np.asarray([0.0, 0.0, 0.0, 90.0, 180.0, -90.0])
    faces = s2_face(s2_cell(lat, lon, 10))
    assert faces.tolist() == [2, 5, 0, 1, 3, 4]


def test_s2_parent_is_prefix():
    lat, lon = _rand_latlon(5000)
    child = s2_cell(lat, lon, 14)
    parent = s2_parent(child, 10)
    # hierarchical: parent of the cell computed directly at level 10 matches
    assert np.array_equal(parent, s2_cell(lat, lon, 10))
    with pytest.raises(ValueError):
        s2_parent(s2_cell(lat, lon, 5), 10)


def test_s2_hilbert_curve_invariants():
    from rio_color_ray.spatial.s2 import _hilbert_xy2d

    L = 6
    n = 1 << L
    x, y = np.meshgrid(np.arange(n, dtype=np.uint64), np.arange(n, dtype=np.uint64))
    x, y = x.ravel(), y.ravel()
    d = _hilbert_xy2d(L, x, y)
    # bijection onto [0, 4^L)
    assert len(np.unique(d)) == n * n
    # walking the curve moves exactly one grid step at a time
    order = np.argsort(d)
    xs, ys = x[order].astype(int), y[order].astype(int)
    assert np.all(np.abs(np.diff(xs)) + np.abs(np.diff(ys)) == 1)
    # hierarchical prefix: level-(L-1) position is the level-L position >> 2
    d_parent = _hilbert_xy2d(L - 1, x >> np.uint64(1), y >> np.uint64(1))
    assert np.all((d >> np.uint64(2)) == d_parent)


def test_s2_cell_id_ranges_are_contiguous():
    # all level-14 descendants of a level-10 cell share the parent id prefix
    lat, lon = _rand_latlon(3000, lat_range=(30, 31), lon_range=(10, 11))
    c14 = s2_cell(lat, lon, 14)
    c10 = s2_parent(c14, 10)
    pos14 = c14 & np.uint64((1 << 54) - 1)
    pos10 = c10 & np.uint64((1 << 54) - 1)
    assert np.all((pos14 >> np.uint64(8)) == pos10)


# --- R-tree + PIP -----------------------------------------------------------


def _brute_candidates(tree, boxes, px, py):
    """Every (point, box) pair with the box containing the point (closed
    bounds), in query_points' order: points ascending, and for one point
    its boxes in the tree's packed order."""
    b = boxes[tree.item_order]
    inside = (
        (px[:, None] >= b[:, 0]) & (px[:, None] <= b[:, 2])
        & (py[:, None] >= b[:, 1]) & (py[:, None] <= b[:, 3])
    )
    pi, k = np.nonzero(inside)
    return list(zip(pi.tolist(), tree.item_order[k].tolist()))


def test_strtree_matches_bruteforce():
    # (boxes, leaf_size, node levels): single-level trees up to leaf_size
    # boxes, a two-level tree at leaf_size + 1, and a 7-level tree; the
    # tree stores one more level, holding the root box
    for n_boxes, leaf_size, depth in [(300, 8, 3), (5, 8, 1), (8, 8, 1), (9, 8, 2), (5000, 4, 7)]:
        x, y = RNG.uniform(-50, 50, (2, n_boxes))
        w, h = RNG.uniform(0.5, 5, (2, n_boxes))
        boxes = np.stack([x, y, x + w, y + h], axis=1)
        tree = STRtree(boxes, leaf_size=leaf_size)
        assert len(tree.levels) == depth + 1
        # random points, points on every corner of some boxes (bounds are
        # closed), NaN coordinates (a null lat/lon from geocode) and the
        # origin, which a zero-padded child box would contain
        edge = boxes[:40]
        px = np.concatenate([RNG.uniform(-55, 55, 500), edge[:, 0], edge[:, 2], edge[:, 0],
                             edge[:, 2], [np.nan, 0.0, np.nan, 0.0]])
        py = np.concatenate([RNG.uniform(-55, 55, 500), edge[:, 1], edge[:, 3], edge[:, 3],
                             edge[:, 1], [0.0, np.nan, np.nan, 0.0]])
        pts, items = tree.query_points(px, py)
        assert list(zip(pts.tolist(), items.tolist())) == _brute_candidates(tree, boxes, px, py)
        # each corner point finds at least its own box; NaN points find none
        corners = np.arange(500, 500 + 4 * len(edge))
        own = np.tile(np.arange(len(edge)), 4)
        assert set(zip(corners.tolist(), own.tolist())) <= set(zip(pts.tolist(), items.tolist()))
        assert not np.isin(pts, np.flatnonzero(np.isnan(px) | np.isnan(py))).any()


def test_strtree_empty_and_tiny():
    tree = STRtree(np.empty((0, 4)))
    pts, items = tree.query_points(np.asarray([1.0]), np.asarray([1.0]))
    assert len(pts) == 0
    tree = STRtree(np.asarray([[0.0, 0.0, 1.0, 1.0]]))
    pts, items = tree.query_points(np.asarray([0.5, 2.0]), np.asarray([0.5, 2.0]))
    assert pts.tolist() == [0] and items.tolist() == [0]


def points_in_polygon(xs, ys, px, py):
    """Every point against one polygon, through the engine's kernel."""
    edges, _ = polygon_edges([{"xs": xs, "ys": ys}])
    return pairs_in_polygons(edges, np.zeros(len(px), dtype=np.int64), px, py)


def test_pip_square_and_concave():
    # unit square
    sq_x = np.asarray([0.0, 1.0, 1.0, 0.0])
    sq_y = np.asarray([0.0, 0.0, 1.0, 1.0])
    px = np.asarray([0.5, 1.5, -0.1, 0.99])
    py = np.asarray([0.5, 0.5, 0.5, 0.01])
    assert points_in_polygon(sq_x, sq_y, px, py).tolist() == [True, False, False, True]
    # concave "C" shape: point in the notch is outside
    cx = np.asarray([0.0, 3.0, 3.0, 2.0, 2.0, 3.0, 3.0, 0.0])
    cy = np.asarray([0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
    px = np.asarray([1.0, 2.5, 2.5])
    py = np.asarray([1.5, 1.5, 0.5])
    assert points_in_polygon(cx, cy, px, py).tolist() == [True, False, True]
    # closed ring (first == last) handled
    rx = np.asarray([0.0, 1.0, 1.0, 0.0, 0.0])
    ry = np.asarray([0.0, 0.0, 1.0, 1.0, 0.0])
    assert points_in_polygon(rx, ry, np.asarray([0.5]), np.asarray([0.5])).tolist() == [
        True
    ]


def test_pip_matches_matplotlib_free_bruteforce():
    # random convex polygons: containment equals the half-plane test
    for _ in range(20):
        ang = np.sort(RNG.uniform(0, 2 * np.pi, 8))
        r = RNG.uniform(1, 3)
        cx, cy = RNG.uniform(-5, 5, 2)
        vx, vy = cx + r * np.cos(ang), cy + r * np.sin(ang)
        px, py = RNG.uniform(-9, 9, 300), RNG.uniform(-9, 9, 300)
        got = points_in_polygon(vx, vy, px, py)
        # half-plane check (CCW polygon): inside iff left of every edge
        inside = np.ones(300, dtype=bool)
        for i in range(8):
            x1, y1 = vx[i], vy[i]
            x2, y2 = vx[(i + 1) % 8], vy[(i + 1) % 8]
            cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
            inside &= cross > 0
        strict = np.ones(300, dtype=bool)
        for i in range(8):
            x1, y1 = vx[i], vy[i]
            x2, y2 = vx[(i + 1) % 8], vy[(i + 1) % 8]
            cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
            strict &= np.abs(cross) > 1e-9
        # compare only away from edges (boundary semantics may differ)
        mask = strict
        assert np.array_equal(got[mask], inside[mask])


def _property_polygons(rng):
    """Mixed vertex counts (3-14, so rows are padded), vertices on a
    half-unit grid (so points land on vertices and horizontal edges),
    self-intersections allowed, one closed ring, non-sorted admin ids."""
    polys = []
    for i in range(24):
        k = int(rng.integers(3, 15))
        cx, cy = rng.integers(-6, 7, 2)
        xs = cx + rng.integers(-8, 9, k) / 2.0
        ys = cy + rng.integers(-8, 9, k) / 2.0
        if i == 0:  # closed ring: first vertex repeated last
            xs, ys = np.append(xs, xs[0]), np.append(ys, ys[0])
        if i == 1:  # an axis-aligned rectangle: two horizontal edges
            xs, ys = np.asarray([0.0, 3.0, 3.0, 0.0]), np.asarray([1.0, 1.0, 2.5, 2.5])
        polys.append(
            {
                "admin_id": int((i * 7) % 24),
                "xs": xs,
                "ys": ys,
                "bbox": (xs.min(), ys.min(), xs.max(), ys.max()),
            }
        )
    return polys


def _property_points(rng, polys):
    """Vertices, grid points, uniform points, NaN points, points on the
    rectangle's horizontal edges, and points ON slanted edges: px is the
    edge's crossing x as the SQL twin computes it, so a kernel whose
    float expression differs in the last bit flips some of them."""
    vx = np.concatenate([p["xs"] for p in polys])
    vy = np.concatenate([p["ys"] for p in polys])
    gx, gy = rng.integers(-20, 21, (2, 1500)) / 2.0  # on the vertex grid
    ux, uy = rng.uniform(-11, 11, (2, 1500))
    x2, y2 = vx, vy
    x1, y1 = np.roll(vx, 1), np.roll(vy, 1)  # ring seams make a few extra segments
    slanted = y1 != y2
    x1, y1, x2, y2 = x1[slanted], y1[slanted], x2[slanted], y2[slanted]
    ey = y2 + rng.uniform(0, 1, len(y2)) * (y1 - y2)
    ex = (x1 - x2) * (ey - y2) / (y1 - y2) + x2
    px = np.concatenate([vx, gx, ux, ex, [np.nan, 1.0, np.nan], [1.5, 0.0, 3.0]])
    py = np.concatenate([vy, gy, uy, ey, [1.0, np.nan, np.nan], [1.0, 2.5, 1.75]])
    return px, py


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pip_kernel_matches_loop_reference(seed, pip_loop):
    """The one-pass kernel against the per-edge loop, bit for bit, over
    every (point, polygon) pair."""
    rng = np.random.default_rng(seed)
    polys = _property_polygons(rng)
    px, py = _property_points(rng, polys)
    edges, n_edges = polygon_edges(polys)
    assert edges.shape == (4, len(polys), n_edges.max())
    assert n_edges.min() < n_edges.max()  # padding is exercised
    assert n_edges[0] == len(polys[0]["xs"]) - 1  # the closing vertex dropped
    pi = np.repeat(np.arange(len(polys)), len(px))
    got = pairs_in_polygons(edges, pi, np.tile(px, len(polys)), np.tile(py, len(polys)))
    want = np.concatenate([pip_loop(p["xs"], p["ys"], px, py) for p in polys])
    assert np.array_equal(got, want)
    assert 0 < got.sum() < len(got)
    assert not got[np.tile(np.isnan(px) | np.isnan(py), len(polys))].any()


def _loop_join(polys, mode, batch, pip_loop):
    """The PIP join with per-polygon loop verification, pairs sorted by
    polygon: the join's output before the one-pass kernel."""
    from rio_color_ray.stages.pip_stage import _emit

    lat = batch.column("lat").to_numpy()
    lon = batch.column("lon").to_numpy()
    admin_ids = np.asarray([p["admin_id"] for p in polys], dtype=np.int64)
    tree = STRtree(np.asarray([p["bbox"] for p in polys]))
    pts, pi = tree.query_points(lon, lat)
    order = np.argsort(pi, kind="stable")
    pts, pi = pts[order], pi[order]
    keep = np.zeros(len(pts), dtype=bool)
    for k in np.unique(pi):
        seg = pi == k
        keep[seg] = pip_loop(polys[k]["xs"], polys[k]["ys"], lon[pts[seg]], lat[pts[seg]])
    return _emit(batch, pts[keep], pi[keep], admin_ids, mode)


@pytest.mark.parametrize("mode", ["inner", "semi", "anti", "left"])
@pytest.mark.parametrize("seed", [0, 1])
def test_pip_join_matches_loop_reference(seed, mode, pip_loop):
    import pyarrow as pa

    from rio_color_ray.stages.pip_stage import PIPJoinStage

    rng = np.random.default_rng(seed)
    polys = _property_polygons(rng)
    px, py = _property_points(rng, polys)
    batch = pa.table({"row": np.arange(len(px)), "lat": py, "lon": px})
    got = PIPJoinStage(polys, mode)(batch)
    want = _loop_join(polys, mode, batch, pip_loop)
    # DataFrame.equals: same rows in the same order, NaN equal to NaN
    assert got.schema == want.schema and got.to_pandas().equals(want.to_pandas())
    assert got.num_rows > 0
    if mode in ("semi", "anti"):
        assert got.num_rows < len(px)
    # no polygons: nothing matches, in every mode
    empty = PIPJoinStage([], mode)(batch)
    n = {"inner": 0, "semi": 0, "anti": len(px), "left": len(px)}[mode]
    assert empty.num_rows == n
    if mode == "left":
        assert set(empty.column("admin_id").to_pylist()) == {-1}


def test_pip_kernel_empty_polygon_set():
    edges, n_edges = polygon_edges([])
    assert edges.shape == (4, 0, 0) and len(n_edges) == 0
    got = pairs_in_polygons(edges, np.empty(0, dtype=np.int64), np.empty(0), np.empty(0))
    assert got.dtype == bool and len(got) == 0


# --- geo --------------------------------------------------------------------


def test_haversine_known_values():
    # London -> Paris ≈ 344 km
    d = haversine_km(51.5074, -0.1278, 48.8566, 2.3522)
    assert abs(d - 344) < 2
    assert haversine_km(10.0, 20.0, 10.0, 20.0) == 0.0


def test_mercator_tiles():
    # (0, 0) at z=1 is tile (1, 1); Greenwich northern hemisphere
    xt, yt = mercator_tile(np.asarray([0.0]), np.asarray([0.0]), 1)
    assert (xt[0], yt[0]) == (1, 1)
    xt, yt = mercator_tile(np.asarray([51.5]), np.asarray([-0.13]), 12)
    # London z12: x = floor((179.87/360)*4096) = 2046, y = 1362 by hand
    assert (xt[0], yt[0]) == (2046, 1362)
    lat, lon = RNG.uniform(-80, 80, 1000), RNG.uniform(-179, 179, 1000)
    xt, yt = mercator_tile(lat, lon, 9)
    r, c = tile_pixel(lat, lon, 9, xt, yt, 32)
    assert np.all((r >= 0) & (r < 32) & (c >= 0) & (c < 32))
