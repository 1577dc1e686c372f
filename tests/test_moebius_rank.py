"""The stacked Moebius rank kernel equals the per-item oracle.

`cross_ratio_constancy` must give the oracle's value bit for bit or raise
its first error (class and message), `is_isothermic_5point` an equal
report and `is_ribaucour_pair` the same verdict. The nets are tori from
3^2 to 16^2, every generator kind, built nets and the reflection examples,
each also with its vertex positions moved by 1e-12 ... 1e-3. Both
stacked functions make the same number of SVD calls on small and large
tori.
"""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import liechannel as L
from liechannel import channel, liecore
from liechannel.builder import (
    channel_from_sphere_curve, make_dupin_torus, make_reflection_example, random_sphere_curve,
)
from liechannel.cellcomplex import MINUS, PLUS, QuadComplex, make_grid
from liechannel.cli import random_generator_net
from liechannel.curvature import euclidean_lifts, interior_vertex_stars, is_isothermic_5point

import moebius_oracle as oracle

KINDS = ["revolution", "cylinder", "cone"]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def outcome(fn, *args):
    """("ok", value) or (exception class, message)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the class is part of the outcome
        return type(exc), str(exc)


def moved(net, v, delta, onto=None):
    """The net with vertex v (all vertices for v = None) moved by delta, or
    given the point and normal of vertex `onto`."""
    pts = net.vertex_points()
    normals = euclidean_lifts(net)[1][:, :3]
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    if onto is not None:
        pts[v], normals[v] = pts[onto], normals[onto]
    elif v is None:
        pts = pts + delta
    else:
        pts[v] = pts[v] + delta
    return L.net_from_points_normals(net.complex, pts, normals)


def lines_of(net, direction):
    """What `cross_ratio_constancy` reads of a certificate: its direction
    and lines (any net has them, channel or not)."""
    return SimpleNamespace(direction=direction, lines=net.complex.coordinates(direction).lines)


def assert_cross_ratios_match(net):
    for d in (PLUS, MINUS):
        cert = lines_of(net, d)
        got = outcome(channel.cross_ratio_constancy, cert, net)
        want = outcome(oracle.cross_ratio_constancy, cert, net)
        assert got[0] == want[0]
        if got[0] == "ok":
            assert same_bits(got[1], want[1]) and type(got[1]) is float
        else:
            assert got[1] == want[1]


def assert_isothermic_matches(points, c):
    got = outcome(is_isothermic_5point, points, c)
    want = outcome(oracle.is_isothermic_5point, points, c)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert got[1] == want[1]
        assert list(got[1].applicable) == list(want[1].applicable)


def assert_matches(net, rng=None, scale=0.0):
    if scale:
        net = moved(net, None, scale * rng.normal(size=(net.complex.n_vertices, 3)))
    assert_cross_ratios_match(net)
    assert_isothermic_matches(net.vertex_points(), net.complex)


def built_net(seed, spheres, samples):
    """A net built from a random sphere curve (some curves are refused)."""
    sc = random_sphere_curve(np.random.default_rng(seed), spheres)
    try:
        return channel_from_sphere_curve(sc, samples_per_circle=samples).net
    except L.LieGeometryError:
        assume(False)


scales = st.one_of(st.just(0.0), st.floats(-12.0, -3.0).map(lambda e: 10.0 ** e))


@given(m=st.integers(3, 16), n=st.integers(3, 16), ratio=st.floats(0.2, 0.7),
       scale=scales, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_tori_match_oracle(m, n, ratio, scale, seed):
    assert_matches(make_dupin_torus(2.0, 2.0 * ratio, m, n), np.random.default_rng(seed), scale)


@given(kind=st.sampled_from(KINDS), net_seed=st.integers(0, 10_000), n=st.integers(2, 7),
       m=st.integers(3, 8), scale=scales, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_generators_match_oracle(kind, net_seed, n, m, scale, seed):
    net = random_generator_net(kind, net_seed, n, m)
    assert_matches(net, np.random.default_rng(seed), scale)


@given(net_seed=st.integers(0, 10_000), spheres=st.integers(4, 8), samples=st.integers(4, 10),
       scale=scales, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_built_nets_match_oracle(net_seed, spheres, samples, scale, seed):
    assert_matches(built_net(net_seed, spheres, samples), np.random.default_rng(seed), scale)


@given(kind=st.sampled_from([1, 2, 3]), net_seed=st.integers(0, 10_000), scale=scales,
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_reflection_examples_match_oracle(kind, net_seed, scale, seed):
    net = make_reflection_example(kind, seed=net_seed)
    assert_matches(net, np.random.default_rng(seed), scale)


# ---------------------------------------------------------------------------
# the first error of the stack


TORUS = make_dupin_torus(2.0, 0.8, 10, 8)


def error_after_move(direction, v, delta, onto=None):
    """The oracle's and the stack's outcome with one vertex moved, and the
    position of the first failing quadruple in the stack."""
    net = moved(TORUS, v, delta, onto)
    cert = lines_of(net, direction)
    quads = [q for group in oracle.cross_ratio_calls(cert, net) for q in group]
    first = next((k for k, q in enumerate(quads)
                  if outcome(oracle.cross_ratio, q)[0] != "ok"), None)
    return (outcome(channel.cross_ratio_constancy, cert, net),
            outcome(oracle.cross_ratio_constancy, cert, net), first, len(quads))


@pytest.mark.parametrize("direction", [PLUS, MINUS])
@pytest.mark.parametrize("delta, message", [
    (np.array([0.3, -0.2, 0.25]), "cross_ratio: points are not concircular"),
    (np.array([1e-5, 0.0, 0.0]), "cross_ratio not real ("),
])
def test_first_error_in_the_middle(direction, delta, message):
    got, want, first, count = error_after_move(direction, 45, delta)
    assert 0 < first < count - 1        # neither the first nor the last quadruple
    assert got == want and got[0] is L.LieGeometryError and got[1].startswith(message)


@pytest.mark.parametrize("direction", [PLUS, MINUS])
def test_coincident_points_in_the_middle(direction):
    line = TORUS.complex.coordinates(direction).lines[4]
    got, want, first, count = error_after_move(direction, line[3], None, onto=line[4])
    assert 0 < first < count - 1
    assert got == want == (L.LieGeometryError, "cross_ratio: coincident points")


@given(v=st.integers(0, 79), log_scale=st.floats(-12.0, -0.5), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_one_moved_vertex_matches_oracle(v, log_scale, seed):
    delta = 10.0 ** log_scale * np.random.default_rng(seed).normal(size=3)
    for direction in (PLUS, MINUS):
        got, want, _, _ = error_after_move(direction, v, delta)
        assert got[0] == want[0]
        assert same_bits(got[1], want[1]) if got[0] == "ok" else got[1] == want[1]


@given(seed=st.integers(0, 2**32 - 1), log_noise=st.floats(-12.0, 0.0),
       coincide=st.booleans())
@settings(max_examples=100, deadline=None)
def test_cross_ratio_is_a_stack_of_one(seed, log_noise, coincide):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0, 2 * np.pi, 4))
    frame = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    quad = (np.column_stack([np.cos(t), np.sin(t), np.zeros(4)]) * rng.uniform(0.1, 10)) @ frame
    quad = quad + rng.normal(size=3) + 10.0 ** log_noise * rng.normal(size=(4, 3))
    if coincide:
        quad[2] = quad[0]
    got, want = outcome(L.cross_ratio, quad), outcome(oracle.cross_ratio, quad)
    assert got[0] == want[0]
    assert same_bits(got[1], want[1]) if got[0] == "ok" else got[1] == want[1]


def test_cross_ratios_stack_errors():
    with pytest.raises(ValueError, match="four 3-points"):
        L.cross_ratio([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    with pytest.raises(ValueError, match="four 3-points"):
        channel.cross_ratios(np.zeros((2, 3, 3)))
    assert channel.cross_ratios(np.zeros((0, 4, 3))).shape == (0,)


# ---------------------------------------------------------------------------
# isothermic stars and Ribaucour pairs


def test_patches_of_different_sizes():
    """Identifying vertex 12 of a 5x5 grid with vertex 0 leaves vertex 6 a
    star whose patch has 8 vertices; the other stars keep 9."""
    grid = make_grid(5, 5)
    ren = {12: 0}
    c = QuadComplex(n_vertices=25,
                    edges=tuple((ren.get(i, i), ren.get(j, j), lab) for i, j, lab in grid.edges),
                    faces=tuple(tuple(ren.get(v, v) for v in f) for f in grid.faces))
    stars = interior_vertex_stars(c)
    assert sorted({len(s.patch) for s in stars}) == [8, 9]
    rng = np.random.default_rng(5)
    torus = make_dupin_torus(2.0, 0.8, 5, 5).vertex_points()
    for points in (torus, torus + 1e-4 * rng.normal(size=torus.shape), rng.normal(size=(25, 3))):
        assert_isothermic_matches(points, c)
        assert set(is_isothermic_5point(points, c).applicable) == {s.vertex for s in stars}


@given(seed=st.integers(0, 2**32 - 1), on=st.sampled_from(["sphere", "circle"]),
       offsets=st.lists(st.sampled_from([0.0, 1e-9, 1e-7, 1e-6, 1e-5, 1e-3, 0.1]),
                        min_size=4, max_size=4))
@settings(max_examples=80, deadline=None)
def test_five_point_spheres_match_oracle(seed, on, offsets):
    """The one star of a 3x3 grid: its vertex and diagonal neighbours on a
    sphere (or on one circle of it), each edge neighbour on the sphere and
    then moved off it by its own relative offset."""
    rng = np.random.default_rng(seed)
    units = rng.normal(size=(9, 3))
    if on == "circle":
        units[[0, 2, 4, 6, 8], 2] = 0.0
    units = units / np.linalg.norm(units, axis=1)[:, None] @ np.linalg.qr(rng.normal(size=(3, 3)))[0]
    units[[1, 3, 5, 7]] *= 1.0 + np.array(offsets)[:, None]
    points = rng.normal(size=3) + rng.uniform(0.5, 3.0) * units
    assert_isothermic_matches(points, make_grid(3, 3))


def test_concircular_star_passes():
    """Vertex and diagonal neighbours of the one star of a 3x3 grid on a
    circle, the edge neighbours off it: a sphere of the circle's pencil
    avoids them, so the star passes."""
    rng = np.random.default_rng(4)
    points = rng.normal(size=(9, 3))
    angles = np.array([0.3, 1.5, 2.6, 3.9, 5.1])
    points[[0, 2, 4, 6, 8]] = np.column_stack([np.cos(angles), np.sin(angles), np.zeros(5)])
    report = is_isothermic_5point(points, make_grid(3, 3))
    assert report.applicable == {4: True} and report.passed == {4: True}
    assert report == oracle.is_isothermic_5point(points, make_grid(3, 3))


def test_no_interior_star():
    net = random_generator_net("revolution", 0, 2, 3)
    assert interior_vertex_stars(net.complex) == []
    report = is_isothermic_5point(net.vertex_points(), net.complex)
    assert report == oracle.is_isothermic_5point(net.vertex_points(), net.complex)
    assert report.applicable == report.passed == report.diagonal_circular == {}
    assert not report.any_applicable() and not report.all_pass()


def curve_pairs(net, rng, scale):
    """Neighbouring lines of both directions as curve pairs, moved by scale."""
    for d in (PLUS, MINUS):
        for la, lb in zip(*net.complex.coordinates(d).line_pairs):
            m = min(len(la), len(lb))
            a, b = (net.vertex_points(line[:m]) for line in (la, lb))
            yield (L.DiscreteCurve3D(a + scale * rng.normal(size=a.shape)),
                   L.DiscreteCurve3D(b + scale * rng.normal(size=b.shape)))


@given(which=st.integers(0, 3), scale=scales, log_tol=st.floats(-14.0, -2.0),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_ribaucour_verdicts_match_oracle(which, scale, log_tol, seed):
    rng = np.random.default_rng(seed)
    net = [lambda: make_dupin_torus(2.0, 0.7, 8, 6),
           lambda: random_generator_net("cone", seed % 997, 5, 6),
           lambda: built_net(seed % 997, 5, 6),
           lambda: make_reflection_example(1 + seed % 3, seed=seed % 97)][which]()
    for a, b in curve_pairs(net, rng, scale):
        for tol in (None, 10.0 ** log_tol):
            assert L.is_ribaucour_pair(a, b, tol) == oracle.is_ribaucour_pair(a, b, tol)


def test_moebius_point_rank_of_a_stack():
    rng = np.random.default_rng(3)
    sets = rng.normal(size=(7, 5, 3))
    sets[2, 3] = sets[2, 0]                      # a repeated point
    sets[4] = np.column_stack([np.cos(np.arange(5.0)), np.sin(np.arange(5.0)), np.zeros(5)])
    ranks = liecore.moebius_point_rank(sets)
    assert ranks.shape == (7,)
    assert ranks.tolist() == [oracle.moebius_point_rank(s) for s in sets]
    assert ranks[4] == 3 and ranks[2] == 4
    one = liecore.moebius_point_rank(sets[4])
    assert type(one) is int and one == 3
    assert liecore.moebius_point_rank(sets.reshape(7, 1, 5, 3)).shape == (7, 1)


# ---------------------------------------------------------------------------
# stacking is real: no SVD per quadruple or per star


def svd_calls(fn, *args):
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        fn(*args)
    return svd.call_count


def test_svd_calls_do_not_grow_with_the_net():
    counts = {}
    for m in (8, 32):
        net = make_dupin_torus(2.0, 0.8, m, m)
        cert = L.full_certificate(net, PLUS)
        counts[m] = (svd_calls(channel.cross_ratio_constancy, cert, net),
                     svd_calls(is_isothermic_5point, net.vertex_points(), net.complex))
    assert counts[8] == counts[32]
    assert counts[8][0] <= 2 and counts[8][1] <= 4
