import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import liechannel as L
from liechannel.liecore import subspace_distance
from liechannel import channel
from liechannel.channel import certificate_residuals, moebius_complements
from liechannel.legendre import point_spheres

from liechannel.cli import random_generator_net

from geo_helpers import cross_ratio, cylinder_net, revolution_net, unlift_moebius
from kernel_oracle import gram_reflection


@pytest.fixture(scope="module")
def torus():
    return L.make_dupin_torus(2.0, 1.0, 12, 10)


@pytest.fixture(scope="module")
def torus_cert(torus):
    cert = L.full_certificate(torus, "+")
    assert cert.ok
    return cert


class TestVerifyChannel:
    def test_revolution_passes(self):
        net = revolution_net(seed=1)
        cert = L.verify_channel(net, "+")
        assert cert.ok and cert.direction == "+"
        assert cert.constancy_residual < 1e-10

    def test_example3_fails_at_constancy(self):
        net = L.make_reflection_example(3, seed=2)
        res = L.verify_channel(net, "+")
        assert not res.ok
        assert res.check == "constancy"
        assert not res.envelopes

    def test_example2_envelopes_but_is_no_channel(self):
        # spheres are enveloped (constancy holds) yet the ribbon spheres
        # fill more than a (2,1)-plane, so no Lie cyclide congruence exists
        net = L.make_reflection_example(2, seed=2)
        res = L.verify_channel(net, "+")
        assert not res.ok
        assert res.check == "ribbon_span"
        assert res.envelopes

    def test_memory_is_linear_in_line_length(self):
        # '+' lines of 1500 vertices: a full SVD of each line's sphere stack
        # allocates a 1500 x 1500 U (18 MB)
        profile = np.array([[1.0, 0.0, 0.0], [1.3, 0.6, 0.0]])
        normals = L.propagate_profile_normals(profile, np.array([1.0, 0.0, 0.0]))
        net = L.make_cylinder(profile, normals, 0.1 * np.arange(1500))
        tracemalloc.start()
        try:
            cert = L.verify_channel(net, "+")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.ok
        assert peak < 12_000_000

    def test_degenerate_family_member_fails(self):
        # the '-' ribbons of this net are single faces, completed through
        # a face-cyclide family member, which here spans only a 2-space
        net = random_generator_net("revolution", 0, 2, 3)
        assert L.verify_channel(net, "-").ok
        member = L.DupinCyclide(dplus=L.Subspace(np.eye(6)[:2]), dminus=L.Subspace(np.eye(6)[2:5]))
        with mock.patch.object(channel, "face_cyclide_family", lambda n, f: lambda t: member):
            res = L.verify_channel(net, "-")
        assert not res.ok and (res.check, res.location) == ("ribbon_span", "ribbon 0")
        assert res.message == "degenerate face: family member of dims 2, 3"

    def test_example1_passes(self):
        net = L.make_reflection_example(1, seed=2)
        cert = L.verify_channel(net, "+")
        assert cert.ok

    def test_certificate_invariants(self, torus, torus_cert):
        res = certificate_residuals(torus_cert, torus)
        assert res["enveloping"] < 1e-12
        assert res["face_cyclide"] < 1e-12

    def test_line_spheres_in_dplus(self, torus, torus_cert):
        for ri, (la, lb) in enumerate(torus_cert.ribbon_lines):
            cy = torus_cert.cyclides[ri]
            for li in (la, lb):
                assert cy.dplus.contains(torus_cert.line_spheres[li])


class TestGeneratingCircles:
    def test_torus_parallels(self, torus, torus_cert):
        # line b lies at tube angle psi = 2 pi b / 10
        ok, centers, radii, normals = L.circles_euclidean(torus_cert, torus)
        assert ok.all()
        for li, (center, radius, normal) in enumerate(zip(centers, radii, normals)):
            psi = 2 * math.pi * li / 10
            assert np.allclose(center, (0, 0, math.sin(psi)), atol=1e-9)
            assert radius == pytest.approx(2 + math.cos(psi), abs=1e-9)
            assert abs(normal[2]) == pytest.approx(1.0, abs=1e-9)

    def test_point_spheres_orthogonal_to_p(self, torus_cert):
        for circle in torus_cert.circles:
            for v in circle.dplus.basis:
                assert L.inner(v, L.E6) == pytest.approx(0.0, abs=1e-12)

    def test_vertices_on_circles(self, torus, torus_cert):
        for li, line in enumerate(torus_cert.lines):
            space = torus_cert.circles[li].dplus
            for v in line:
                assert space.residual(point_spheres(torus.bases[[v]])[0][0]) < 1e-8

    def test_left_right_agreement(self, torus_cert):
        assert torus_cert.circle_agreement < 1e-8

    def test_point_sphere_line_rejected(self):
        # a line whose constant sphere is a point sphere admits no projection
        net = revolution_net(seed=3)
        cert = L.verify_channel(net, "+")
        cert.line_spheres[0] = L.lift_point((1, 2, 3))
        with pytest.raises(L.LieGeometryError, match="point sphere"):
            L.complete_certificate(cert, net)
        assert cert.circle_spaces is None  # a failed completion leaves the certificate

    def test_degenerate_circle_space_fails(self, torus):
        # the stack holds 3-dimensional circle spaces only: a D- basis of
        # ribbon 0 with a repeated row maps onto a 2-space, and line 0
        # bounds ribbon 0 alone
        cert = L.verify_channel(torus, "+")
        assert cert.line_ribbons[0] == [0]
        cert.dminus[0, 2] = cert.dminus[0, 1]
        with pytest.raises(L.LieGeometryError,
                           match=r"^generating circle of line 0 degenerates \(dim 2\)$"):
            L.complete_certificate(cert, torus)

    def test_nan_agreement_residual_fails_closed(self, torus):
        # line 1 is the first line that bounds two ribbons
        cert = L.verify_channel(torus, "+")
        with mock.patch.object(channel.lc, "subspace_distances",
                               lambda a, b: np.full(a.shape[:-2], math.nan)):
            with pytest.raises(L.LieGeometryError, match=r"^generating circles of line 1 disagree "
                                                         r"between ribbons \(residual nan\)$"):
                L.complete_certificate(cert, torus)

    def test_nan_membership_residual_fails_closed(self, torus):
        cert = L.verify_channel(torus, "+")
        with mock.patch.object(channel.lc, "residuals",
                               lambda bases, vectors: np.full(len(vectors), math.nan)), \
                mock.patch.object(channel, "subspace_distance", lambda a, b: 0.0):
            with pytest.raises(L.LieGeometryError,
                               match="vertex 0 does not lie on the generating circle of line 0"):
                L.complete_certificate(cert, torus)

    def test_nan_constancy_residual_fails_closed(self):
        # a NaN edge sphere in the middle of '+' line 3: its distance to the
        # line's first sphere is NaN, which must fail the line
        net = L.make_dupin_torus(2.0, 1.0, 12, 10)
        edge = net.complex.coordinates("+").line_edges[3][5]
        net.edge_spheres[edge] = np.full(6, math.nan)
        res = L.verify_channel(net, "+")
        assert not res.ok and (res.check, res.location) == ("constancy",
                                                            "line 3 (vertices [36, 37, 38, 39]...)")
        assert res.message == "curvature sphere varies along the line (residual nan)"

    def test_nan_swapping_residual_fails_closed(self):
        # neither candidate reflection of a cone's ribbons is null, so both
        # residuals are the injected NaN (a torus has one null candidate)
        net = random_generator_net("cone", 5, 5, 7)
        cert = L.full_certificate(net, "+")
        with mock.patch.object(channel.lc, "subspace_distances",
                               lambda a, b: np.full(a.shape[:-2], math.nan)):
            with pytest.raises(L.LieGeometryError, match=r"ribbon 0: no swapping reflection "
                                                         r"found \(candidate residuals nan, nan\)"):
                channel._face_quer_spheres(cert.circle_spaces, cert.face_spheres,
                                           cert.ribbon_lines, channel._ribbon_crossings(cert, net))


class TestFaceSpheres:
    def test_torus_face_sphere_matches_circle_geometry(self, torus, torus_cert):
        # independent oracle: sphere (or plane) through two coaxial circles
        ok, centers, radii, _ = L.circles_euclidean(torus_cert, torus)
        assert ok.all()
        for ri, (la, lb) in enumerate(torus_cert.ribbon_lines):
            (z1, z2), r1, r2 = centers[[la, lb], 2], radii[la], radii[lb]
            kind, w = unlift_moebius(torus_cert.face_spheres[ri])
            if abs(z1 - z2) < 1e-9:
                # coplanar circles: the common carrier is their plane
                assert kind == "plane"
                assert abs(w[2]) == pytest.approx(1.0, abs=1e-9)
                assert w[4] * w[2] == pytest.approx(z1, abs=1e-8)
                continue
            z0 = (r1 ** 2 + z1 ** 2 - r2 ** 2 - z2 ** 2) / (2 * (z1 - z2))
            rad = math.sqrt(r1 ** 2 + (z1 - z0) ** 2)
            assert kind == "sphere"
            assert np.allclose(w[:3], (0, 0, z0), atol=1e-8)
            assert abs(w[5]) == pytest.approx(rad, abs=1e-8)

    def test_face_sphere_contains_both_circles(self, torus_cert):
        for ri, (la, lb) in enumerate(torus_cert.ribbon_lines):
            sigma = torus_cert.face_spheres[ri]
            for li in (la, lb):
                for v in torus_cert.circles[li].dplus.basis:
                    assert abs(L.inner(sigma, v)) < 1e-10

    def test_cylinder_face_spheres_are_planes(self):
        net = cylinder_net(seed=4)
        cert = L.full_certificate(net, "+")
        assert cert.ok
        for fs in cert.face_spheres:
            assert unlift_moebius(fs)[0] == "plane"

    def test_square_profile_cylinder(self):
        # square with inscribed-circle normals, translated along z
        prof = np.array([[1.0, -1, 0], [1, 1, 0], [-1, 1, 0], [-1, -1, 0]])
        nm = prof / math.sqrt(2)
        net = L.make_cylinder(prof, nm, [0.0, 0.7, 1.5, 2.2])
        cert = L.full_certificate(net, "+")
        assert cert.ok
        kinds = [unlift_moebius(fs)[0] for fs in cert.face_spheres]
        assert kinds == ["plane"] * 3
        from liechannel.curvature import vessiot_classify
        assert vessiot_classify(cert).kind == "cylinder"

    def test_single_ribbon_net(self):
        net = revolution_net(seed=5, n_profile=2, m=8)
        cert = L.full_certificate(net, "+")
        assert cert.ok
        assert len(cert.face_spheres) == 1


class TestQuerSpheres:
    def test_torus_quer_orthogonal_to_tube_sphere(self, torus, torus_cert):
        # tube spheres sit on '-' edges; quer-sphere of a parallel circle
        # meets them orthogonally
        for li, line in enumerate(torus_cert.lines):
            q = torus_cert.quer_spheres[li]
            v = line[0]
            tube = None
            for e in torus.complex.vertex_edges(v):
                a, b = torus.complex.edge_ends[e].tolist()
                if torus.complex.edge_labels[e] == "-":
                    tube = torus.spheres_of(torus.complex.edge_id(a, b))
                    break
            val = abs(L.inner(q, tube)) / np.linalg.norm(tube)
            assert val < 1e-9

    def test_quer_in_pencil_and_orthogonal_to_enveloped(self, torus_cert):
        for li in range(len(torus_cert.lines)):
            q = torus_cert.quer_spheres[li]
            s = torus_cert.line_spheres[li]
            assert abs(L.inner(q, s)) / np.linalg.norm(s) < 1e-10
            pencil, rank = moebius_complements(torus_cert.circle_spaces[li, None], 4)
            assert rank[0] == 4 and L.Subspace(pencil[0]).residual(q) < 1e-9

    def test_face_quer_swaps_circles(self, torus_cert):
        for ri, (la, lb) in enumerate(torus_cert.ribbon_lines):
            m = torus_cert.face_quer_spheres[ri]
            img = L.span([gram_reflection(m, v)
                          for v in torus_cert.circles[la].dplus.basis])
            assert subspace_distance(img, torus_cert.circles[lb].dplus) < 1e-9
            assert abs(L.inner(m, torus_cert.face_spheres[ri])) < 1e-10

    def test_cylinder_face_quer_is_bisector_plane(self):
        net = cylinder_net(seed=6)
        cert = L.full_certificate(net, "+")
        pts = net.vertex_points()
        t = net.complex.grid.n_plus
        for ri, (la, lb) in enumerate(cert.ribbon_lines):
            kind, w = unlift_moebius(cert.face_quer_spheres[ri])
            assert kind == "plane"
            # the two rulings pass the profile points of lines la, lb
            pa = pts[cert.lines[la][0]]
            pb = pts[cert.lines[lb][0]]
            mid, diff = 0.5 * (pa + pb), pb - pa
            diff /= np.linalg.norm(diff)
            assert abs(abs(float(w[:3] @ diff)) - 1.0) < 1e-8
            assert float(w[:3] @ mid) == pytest.approx(w[4], abs=1e-8)


class TestDupin:
    def test_torus_is_dupin(self, torus):
        ok, cy, _info = L.is_dupin_cyclide(torus)
        assert ok
        spheres_p = torus.spheres_of(np.flatnonzero(torus.complex.edge_labels == "+"))
        assert all(cy.dplus.contains(s) for s in spheres_p)

    def test_revolution_is_not_dupin(self):
        net = revolution_net(seed=7)
        ok, _, info = L.is_dupin_cyclide(net)
        assert not ok
        assert "'-'" in info

    def test_single_face_is_dupin(self):
        f1 = L.contact_from_point_normal((1, 0, 0), (1, 0, 0))
        f2 = L.contact_from_point_normal((0, 1, 0.2), (0, 1, 0))
        f3 = L.contact_from_point_normal((-1, 0.1, 0), (-1, 0, 0))
        f4 = L.contact_from_point_normal((0.2, -1, 0), (0, -1, 0))
        c = L.make_grid(2, 2)
        # build contact elements that pairwise share spheres via a cyclide:
        # sample one torus face instead, keeping it honestly Legendre
        torus = L.make_dupin_torus(2.0, 1.0, 12, 10)
        face = torus.complex.face_vertices[0].tolist()
        sub = L.make_grid(2, 2)
        els = tuple(torus.element(v) for v in face)
        # face order (i,j,k,l) -> grid ids: i=0, j=2, k=3, l=1
        i, j, k, l = face
        net = L.LegendreNet(complex=sub, bases=torus.bases[[i, l, j, k]])
        assert L.is_legendre(net).ok
        ok, _, _ = L.is_dupin_cyclide(net)
        assert ok

    def test_nan_complementarity_residual_fails_closed(self, torus):
        with mock.patch.object(channel, "subspace_distance", lambda a, b: math.nan):
            assert L.is_dupin_cyclide(torus) == (
                False, None, "the two sphere families are not complementary")


class TestCrossRatio:
    def test_square_on_circle(self):
        pts = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]
        assert cross_ratio(pts) == pytest.approx(-1.0)

    def test_frame_invariance(self):
        rng = np.random.default_rng(8)
        base = np.array([[math.cos(t), math.sin(t), 0.0]
                         for t in (0.2, 1.1, 2.9, 4.6)])
        want = cross_ratio(base)
        for _ in range(5):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            moved = base @ q.T + rng.normal(size=3)
            assert cross_ratio(moved) == pytest.approx(want, rel=1e-9)

    def test_collinear_points(self):
        pts = [(0, 0, 0), (1, 0, 0), (3, 0, 0), (7, 0, 0)]
        # cross ratio of reals 0,1,3,7: ((0-1)(3-7))/((1-3)(7-0)) = -2/7
        assert cross_ratio(pts) == pytest.approx(4.0 / -14.0)

    def test_rejects_coincident(self):
        with pytest.raises(L.LieGeometryError, match="coincident"):
            cross_ratio([(0, 0, 0), (0, 0, 0), (1, 0, 0), (2, 0, 0)])

    def test_rejects_non_concircular(self):
        with pytest.raises(L.LieGeometryError):
            cross_ratio([(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0.3, 0.3, 1.0)])

    def test_constancy_on_channel_nets(self, torus, torus_cert):
        assert L.cross_ratio_constancy(torus_cert, torus) < 1e-10
        net = revolution_net(seed=9)
        cert = L.full_certificate(net, "+")
        assert L.cross_ratio_constancy(cert, net) < 1e-10


class TestRibaucourAndMultiCircular:
    def test_channel_minus_lines_are_ribaucour(self, torus):
        pts = torus.vertex_points()
        m = torus.complex.grid.n_plus
        c1 = L.DiscreteCurve3D(points=np.array([pts[b * m + 2] for b in range(10)]))
        c2 = L.DiscreteCurve3D(points=np.array([pts[b * m + 5] for b in range(10)]))
        assert L.is_ribaucour_pair(c1, c2)

    def test_random_curves_are_not(self):
        rng = np.random.default_rng(10)
        a = L.DiscreteCurve3D(points=rng.normal(size=(6, 3)))
        b = L.DiscreteCurve3D(points=rng.normal(size=(6, 3)))
        assert not L.is_ribaucour_pair(a, b)

    def test_circular_ribbons_multi_circular(self, torus):
        assert L.is_multi_circular(torus, "+")

    def test_multi_circular_net_on_torus(self, torus):
        assert L.is_multi_circular_net(torus)

    def test_two_correspondences(self, torus, torus_cert):
        from liechannel.builder import (
            correspondence_candidates, sphere_curve_from_certificate,
            _oriented_chain, _curve_circle_spaces,
        )
        sc = sphere_curve_from_certificate(torus_cert)
        hats = _oriented_chain(sc)
        circles = _curve_circle_spaces(sc, hats)
        cands = correspondence_candidates(circles[0], circles[1],
                                          sc.vertex_spheres[0], sc.vertex_spheres[1])
        assert len(cands) == 2
        assert subspace_distance(cands[0][2].dminus, cands[1][2].dminus) > 1e-3
