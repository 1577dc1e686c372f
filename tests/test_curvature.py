import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import liechannel as L
from liechannel import curvature
from liechannel.curvature import (
    wedge, mixed_area, gauss_mean, curvature_report, kappa_line_spread,
    is_isothermic_5point, diagonal_concircular, vessiot_classify,
    ribbon_cmc_analysis, interior_vertex_stars,
)
from liechannel.builder import random_sphere_curve
from liechannel.cellcomplex import MINUS, PLUS, QuadComplex, edge_key, face_edge_labels

from geo_helpers import revolution_net, cylinder_net, cone_net


def spatial(x, y, z):
    return np.array([x, y, z, 0.0, 0.0, 0.0])


def regular_polygon_cylinder(m=8, rho=1.5, heights=(0.0, 0.5, 1.0, 1.5)):
    prof = np.array([[rho * math.cos(2 * math.pi * k / m),
                      rho * math.sin(2 * math.pi * k / m), 0.0] for k in range(m)])
    nm = np.array([[math.cos(2 * math.pi * k / m),
                    math.sin(2 * math.pi * k / m), 0.0] for k in range(m)])
    return L.make_cylinder(prof, nm, list(heights))


class TestMixedArea:
    def test_unit_length_diagonals_square(self):
        # square whose diagonal vectors are (1,1,0)/sqrt2 and (-1,1,0)/sqrt2:
        # the operator has a single spatial 2x2 block of magnitude 1/2
        s = 1 / math.sqrt(2)
        quad = [spatial(0, 0, 0), spatial(s, 0, 0), spatial(s, s, 0), spatial(0, s, 0)]
        a = mixed_area(quad, quad)
        expected = np.zeros((6, 6))
        expected[0, 1], expected[1, 0] = 0.5, -0.5
        assert np.allclose(np.abs(a), np.abs(expected), atol=1e-12)
        assert abs(a[0, 1]) == pytest.approx(0.5)

    def test_matches_wedge_definition(self):
        # oracle: apply (x^y)(v) = (x,v)y - (y,v)x to the basis directly
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=6), rng.normal(size=6)
        m = wedge(x, y)
        for v in np.eye(6):
            direct = L.inner(x, v) * y - L.inner(y, v) * x
            assert np.allclose(m @ v, direct)

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(1)
        a = [rng.normal(size=6) for _ in range(4)]
        b = [rng.normal(size=6) for _ in range(4)]
        assert np.allclose(mixed_area(a, b), mixed_area(b, a))

    def test_degenerate_quad_vanishes(self):
        p = spatial(1, 2, 3)
        assert np.allclose(mixed_area([p] * 4, [p] * 4), 0.0)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_antisymmetric_for_metric(self, seed):
        rng = np.random.default_rng(seed)
        a = [rng.normal(size=6) for _ in range(4)]
        b = [rng.normal(size=6) for _ in range(4)]
        m = mixed_area(a, b)
        v, w = rng.normal(size=6), rng.normal(size=6)
        assert L.inner(m @ v, w) == pytest.approx(-L.inner(v, m @ w), rel=1e-9, abs=1e-9)


class TestGaussMean:
    def test_planar_face_flat(self):
        pts = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
        f = [L.lift_point(p) for p in pts]
        n = [L.lift_plane((0, 0, 1), 0.0) for _ in pts]
        k, h, res = gauss_mean(f, n)
        assert k == pytest.approx(0.0, abs=1e-12)
        assert h == pytest.approx(0.0, abs=1e-12)
        assert res < 1e-12

    def test_cylinder_face_gauss_zero(self):
        net = regular_polygon_cylinder()
        rep = curvature_report(net)
        assert max(abs(k) for k in rep.gauss) < 1e-8

    def test_cylinder_mean_is_half_kappa(self):
        # H equals the mean of the edge curvatures: (kappa_circ + 0)/2
        rho = 1.5
        net = regular_polygon_cylinder(rho=rho)
        rep = curvature_report(net)
        for h in rep.mean:
            assert h == pytest.approx(-1.0 / (2 * rho), rel=1e-9)

    def test_mean_flips_with_normal_orientation(self):
        net = regular_polygon_cylinder()
        pts = net.vertex_points()
        normals = []
        for v in range(net.complex.n_vertices):
            pl = net.element(v).plane_lift()
            normals.append((pl / pl[5])[:3])
        flipped = L.net_from_points_normals(net.complex, pts, -np.asarray(normals))
        rep = curvature_report(net)
        rep_f = curvature_report(flipped)
        assert np.allclose(rep_f.mean, -np.asarray(rep.mean))
        assert np.allclose(rep_f.gauss, rep.gauss)

    def test_torus_against_entrywise_oracle(self):
        net = L.make_dupin_torus(2.0, 1.0, 16, 16)
        from liechannel.curvature import euclidean_lifts
        face = list(net.complex.faces[20])
        f_lift, n_lift = euclidean_lifts(net)
        f, n = list(f_lift[face]), list(n_lift[face])
        k, h, res = gauss_mean(f, n)
        assert res < 1e-10
        aff = mixed_area(f, f)
        ann = mixed_area(n, n)
        anf = mixed_area(n, f)
        idx = np.unravel_index(np.argmax(np.abs(aff)), aff.shape)
        assert k == pytest.approx(ann[idx] / aff[idx], rel=1e-8)
        assert h == pytest.approx(-anf[idx] / aff[idx], rel=1e-8)

    def test_degenerate_face_rejected(self):
        p = L.lift_point((0, 0, 0))
        n = L.lift_plane((0, 0, 1), 0.0)
        with pytest.raises(L.LieGeometryError, match="degenerate face"):
            gauss_mean([p] * 4, [n] * 4)


class TestPrincipalCurvatures:
    def test_ruling_edges_flat(self):
        net = regular_polygon_cylinder()
        rep = curvature_report(net)
        for (i, j, lab), k in zip(net.complex.edges, rep.edge_kappa):
            if lab == "+":
                assert k == pytest.approx(0.0, abs=1e-12)

    def test_polygon_edges_minus_inverse_radius(self):
        rho = 1.5
        net = regular_polygon_cylinder(rho=rho)
        rep = curvature_report(net)
        for (i, j, lab), k in zip(net.complex.edges, rep.edge_kappa):
            if lab == "-":
                assert k == pytest.approx(-1.0 / rho, rel=1e-12)

    def test_constant_along_circular_lines(self):
        net = revolution_net(seed=51)
        rep = curvature_report(net)
        assert kappa_line_spread(net, rep, "+") < 1e-9

    def test_face_identity_on_generators(self):
        for net in (L.make_dupin_torus(2.0, 1.0, 12, 12),
                    revolution_net(seed=52), cylinder_net(seed=53),
                    cone_net(seed=54)):
            rep = curvature_report(net)
            assert rep.identity_max < 1e-7


class TestIsothermic:
    def test_torus_passes(self):
        net = L.make_dupin_torus(2.0, 1.0, 14, 12)
        iso = is_isothermic_5point(net.vertex_points(), net.complex)
        assert iso.any_applicable() and iso.all_pass()
        dc = diagonal_concircular(net.vertex_points(), net.complex)
        assert all(dc.values())

    def test_perturbed_net_fails(self):
        net = L.make_dupin_torus(2.0, 1.0, 14, 12)
        pts = net.vertex_points()
        rng = np.random.default_rng(3)
        pts = pts + rng.normal(scale=0.02, size=pts.shape)
        iso = is_isothermic_5point(pts, net.complex)
        assert iso.any_applicable() and not iso.all_pass()

    def test_spherical_patch_inconclusive(self):
        grid = L.make_grid(5, 5)
        pts = np.empty((25, 3))
        nms = np.empty((25, 3))
        for b in range(5):
            for a in range(5):
                th, ph = 0.3 + 0.25 * a, 0.2 + 0.25 * b
                u = np.array([math.sin(ph) * math.cos(th),
                              math.sin(ph) * math.sin(th), math.cos(ph)])
                pts[b * 5 + a] = 2.0 * u
                nms[b * 5 + a] = u
        iso = is_isothermic_5point(pts, grid)
        assert not iso.any_applicable()

    def test_boundary_vertices_skipped(self):
        net = revolution_net(seed=55, n_profile=5, m=8)
        iso = is_isothermic_5point(net.vertex_points(), net.complex)
        stars = {s.vertex for s in interior_vertex_stars(net.complex)}
        # wrapped direction: interior vertices are the non-boundary rows
        assert stars == set(iso.applicable.keys())
        assert len(stars) == 8 * 3

    def test_generic_channel_fails(self):
        rng = np.random.default_rng(57)
        sc = random_sphere_curve(rng, 6)
        res = L.channel_from_sphere_curve(sc, samples_per_circle=8)
        iso = is_isothermic_5point(res.net.vertex_points(), res.net.complex)
        assert iso.any_applicable() and not iso.all_pass()
        assert not L.is_multi_circular_net(res.net)


class TestVessiot:
    def test_generators_classify_correctly(self):
        assert vessiot_classify(L.full_certificate(revolution_net(seed=61), "+")).kind \
            == "revolution"
        assert vessiot_classify(L.full_certificate(cylinder_net(seed=62), "+")).kind \
            == "cylinder"
        assert vessiot_classify(L.full_certificate(cone_net(seed=63), "+")).kind \
            == "cone"

    def test_generic_channel_none(self):
        rng = np.random.default_rng(64)
        sc = random_sphere_curve(rng, 6)
        res = L.channel_from_sphere_curve(sc, samples_per_circle=8)
        assert vessiot_classify(res.certificate).kind == "none"

    def test_insufficient_data(self):
        net = revolution_net(seed=65, n_profile=3, m=8)
        cert = L.full_certificate(net, "+")
        assert len(cert.face_spheres) == 2
        with pytest.raises(L.LieGeometryError, match="insufficient"):
            vessiot_classify(cert)


class TestCmc:
    def test_revolution_all_equal(self):
        net = revolution_net(seed=71)
        cert = L.full_certificate(net, "+")
        rep = curvature_report(net)
        for r in ribbon_cmc_analysis(net, cert, rep):
            assert r.coinciding == len(r.kappa_minus)
            assert r.torus_type
            assert max(map(abs, r.residuals), default=0.0) < 1e-10

    def test_cylinder_mean_from_identity(self):
        net = regular_polygon_cylinder(rho=1.5)
        cert = L.full_certificate(net, "+")
        rep = curvature_report(net)
        # '-' curvatures all equal -1/rho; with the two ruling curvatures
        # zero the face identity forces H = kappa_circ/2
        for r in ribbon_cmc_analysis(net, cert, rep):
            assert np.allclose(r.kappa_minus, -1 / 1.5)
        assert np.allclose(rep.mean, -1 / 3.0)

    def test_generic_channel_nonzero_residuals(self):
        rng = np.random.default_rng(72)
        sc = random_sphere_curve(rng, 6)
        res = L.channel_from_sphere_curve(sc, samples_per_circle=9)
        rep = curvature_report(res.net)
        rows = ribbon_cmc_analysis(res.net, res.certificate, rep)
        assert any(max(map(abs, r.residuals), default=0.0) > 1e-6 for r in rows)


def test_line_spread_and_ribbon_chains_read_each_edge_and_face():
    # a generic channel surface: the curvatures vary along lines and ribbons;
    # the expected values are read through vertex pairs and face tuples
    res = L.channel_from_sphere_curve(random_sphere_curve(np.random.default_rng(72), 6),
                                      samples_per_circle=9)
    net, cert, c = res.net, res.certificate, res.net.complex
    rep = curvature_report(net)
    kappa = {edge_key(i, j): k for (i, j, _lab), k in zip(c.edges, rep.edge_kappa.tolist())}
    scale = max(max(abs(k) for k in kappa.values()), 1e-12)
    for direction in (PLUS, MINUS):
        spread = 0.0
        for line in c.coordinates(direction).lines:
            closed = len(line) > 2 and c.has_edge(line[-1], line[0])
            ks = [kappa[edge_key(a, b)] for a, b in zip(line, line[1:] + line[:1] if closed
                                                        else line[1:])]
            spread = max(spread, (max(ks) - min(ks)) / scale) if len(ks) > 1 else spread
        assert kappa_line_spread(net, rep, direction) == spread
        assert (spread > 1e-6) == (direction == MINUS)  # '+' lines are curvature lines
    rows = ribbon_cmc_analysis(net, cert, rep)
    for row, strip in zip(rows, cert.ribbons):
        chain, hs = [], [rep.mean[fi] for fi in strip]
        for fi in strip:
            ks = [kappa[edge_key(a, b)] for a, b, lab in face_edge_labels(c.faces[fi])
                  if lab == MINUS]
            chain += ks if not chain else \
                [ks[1] if abs(ks[0] - chain[-1]) < abs(ks[1] - chain[-1]) else ks[0]]
        assert row.kappa_minus == chain
        assert row.residuals == [(chain[t] - chain[t + 2]) * (0.5 * (hs[t] + hs[t + 1])
                                                              - chain[t + 1])
                                 for t in range(len(chain) - 2)]


def test_line_spread_skips_short_lines_and_nan_spreads():
    # a '+'-loop at an extra vertex is a last line of one vertex and no edge;
    # the curvatures are drawn, with NaNs, against a loop over the lines
    torus = L.make_dupin_torus(2.0, 0.8, 5, 4)
    v = torus.complex.n_vertices
    c = QuadComplex(n_vertices=v + 1, edges=torus.complex.edges + ((v, v, PLUS),),
                    faces=torus.complex.faces)
    net = L.LegendreNet(complex=c, bases=np.concatenate([torus.bases, torus.bases[:1]]))
    assert c.coordinates(PLUS).line_edges.degrees[-1] == 0
    rng = np.random.default_rng(7)
    for trial in range(6):
        kappa = rng.normal(size=len(c.edges))
        kappa[rng.integers(len(kappa), size=trial)] = np.nan
        scale = max(float(np.max(np.abs(kappa), initial=0.0)), 1e-12)
        for direction in (PLUS, MINUS):
            spread = 0.0
            for edges in c.coordinates(direction).line_edges:
                if len(edges) > 1:
                    spread = max(spread, float(np.ptp(kappa[edges])) / scale)
            report = SimpleNamespace(edge_kappa=kappa)
            assert kappa_line_spread(net, report, direction) == spread


class TestFlatness:
    def test_cylinder_and_cone_flat(self):
        for net in (cylinder_net(seed=81), cone_net(seed=82)):
            rep = curvature_report(net)
            assert max(abs(k) for k in rep.gauss) < 1e-8

    def test_multi_circular_iff_isothermic(self):
        for net, expect in (
            (revolution_net(seed=83), True),
            (cylinder_net(seed=84), True),
            (cone_net(seed=85), True),
        ):
            iso = is_isothermic_5point(net.vertex_points(), net.complex)
            assert iso.all_pass() == expect
            assert L.is_multi_circular_net(net) == expect


class TestNanFailsClosed:
    """Each cutoff of the curvature report fails on a NaN entry."""

    @pytest.fixture
    def torus(self):
        return L.make_dupin_torus(2.0, 1.0, 6, 6)

    @pytest.mark.parametrize("lift, column, message", [
        ("point_spheres", 3, "vertex 4 is a point at infinity"),
        ("plane_lifts", 5, "vertex 4 has no tangent plane lift"),
    ])
    def test_lift_normalisation(self, torus, monkeypatch, lift, column, message):
        lifts, ok = getattr(curvature, lift)(torus.bases)
        lifts[4, column] = math.nan
        monkeypatch.setattr(curvature, lift, lambda bases: (lifts, ok))
        with pytest.raises(L.LieGeometryError, match=f"^{message}$"):
            curvature.euclidean_lifts(torus)

    def test_face_area(self, torus):
        f, n = curvature.euclidean_lifts(torus)
        quads = torus.complex.face_vertices
        f_quads = f[quads]
        f_quads[3, 1, 0] = math.nan
        with pytest.raises(L.LieGeometryError, match="^degenerate face: vanishing mixed area$"):
            curvature.gauss_means(f_quads, n[quads])

    def test_edge_difference(self, torus):
        f, n = curvature.euclidean_lifts(torus)
        i, j = torus.complex.edge_vertices.T
        f_i = f[i]
        f_i[7, 2] = math.nan
        with pytest.raises(L.LieGeometryError, match=r"^principal curvature undefined: df = 0$"):
            curvature.principal_curvatures(f_i, f[j], n[i], n[j])
