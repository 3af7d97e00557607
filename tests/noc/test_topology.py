"""Unit tests for the 2D-mesh topology and XY routing."""

import pytest

from repro.noc.topology import Mesh
from repro.sim.config import NocConfig


@pytest.fixture
def mesh() -> Mesh:
    return Mesh(8, 8)


def test_coords_roundtrip(mesh):
    for t in range(64):
        x, y = mesh.coords(t)
        assert mesh.tile_at(x, y) == t


def test_hops_is_manhattan(mesh):
    assert mesh.hops(0, 0) == 0
    assert mesh.hops(0, 7) == 7
    assert mesh.hops(0, 63) == 14
    assert mesh.hops(mesh.tile_at(2, 3), mesh.tile_at(5, 1)) == 3 + 2


def test_route_is_x_then_y(mesh):
    src, dst = mesh.tile_at(1, 1), mesh.tile_at(3, 4)
    route = mesh.route(src, dst)
    assert len(route) == mesh.hops(src, dst)
    # links chain from src to dst
    assert route[0][0] == src
    assert route[-1][1] == dst
    for (a, b), (c, d) in zip(route, route[1:]):
        assert b == c
    # X moves first: the first two links change only x
    xs = [mesh.coords(a)[0] for a, _ in route] + [mesh.coords(dst)[0]]
    ys = [mesh.coords(a)[1] for a, _ in route] + [mesh.coords(dst)[1]]
    assert ys[0] == ys[1] == ys[2]  # y fixed while x moves


def test_route_to_self_is_empty(mesh):
    assert mesh.route(5, 5) == ()


def test_unicast_latency_formula(mesh):
    # Table III: 2 link + 2 switch + 1 router = 5 cycles/hop, plus
    # (flits-1) serialization
    assert mesh.hop_cycles == 5
    assert mesh.unicast_latency(0, 1, flits=1) == 5
    assert mesh.unicast_latency(0, 1, flits=5) == 9
    assert mesh.unicast_latency(0, 63, flits=1) == 14 * 5
    assert mesh.unicast_latency(3, 3, flits=5) == 0


def test_neighbors(mesh):
    corner = set(mesh.neighbors(0))
    assert corner == {1, 8}
    center = set(mesh.neighbors(mesh.tile_at(3, 3)))
    assert len(center) == 4


def test_broadcast_tree_spans_chip(mesh):
    for src in (0, 27, 63):
        links, depth = mesh.broadcast_tree(src)
        assert len(links) == mesh.n_tiles - 1
        reached = {src}
        for a, b in links:
            assert a in reached  # tree property: parent reached first
            reached.add(b)
        assert reached == set(range(mesh.n_tiles))
        assert depth == max(mesh.hops(src, t) for t in range(mesh.n_tiles))


def test_broadcast_latency(mesh):
    assert mesh.broadcast_latency(0, flits=1) == 14 * 5
    center = mesh.tile_at(3, 3)
    _, depth = mesh.broadcast_tree(center)
    assert mesh.broadcast_latency(center, flits=1) == depth * 5


def test_average_distance_matches_theory(mesh):
    # Sec. V-D: theoretical average distance in a 2D mesh ~ (2/3)*sqrt(ntc)
    avg = mesh.average_distance()
    assert avg == pytest.approx((2 / 3) * 8, rel=0.05)


def test_custom_noc_constants():
    mesh = Mesh(4, 4, NocConfig(link_cycles=1, switch_cycles=1, router_cycles=1))
    assert mesh.hop_cycles == 3
    assert mesh.unicast_latency(0, 3, flits=2) == 3 * 3 + 1


def test_bounds_checked(mesh):
    with pytest.raises(ValueError):
        mesh.coords(64)
    with pytest.raises(ValueError):
        mesh.route(0, 64)
    with pytest.raises(ValueError):
        Mesh(0, 4)


def test_meshes_of_one_shape_share_one_hop_table():
    from repro.noc.network import Network

    a, b = Mesh(8, 8), Mesh(8, 8, NocConfig(link_cycles=3))
    assert a._build_hops_table() is b._build_hops_table()
    assert Network(b)._hops_flat is a._hops_table
    wide, tall = Mesh(4, 2), Mesh(2, 4)
    assert wide._build_hops_table() is not tall._build_hops_table()
    for m in (a, wide, tall):
        n = m.n_tiles
        for s in range(n):
            (sx, sy), row = m.coords(s), m._hops_table[s * n:(s + 1) * n]
            assert list(row) == [
                abs(sx - dx) + abs(sy - dy) for dx, dy in map(m.coords, range(n))
            ]
