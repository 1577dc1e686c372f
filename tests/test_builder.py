import math

import numpy as np
import pytest

import liechannel as L
from liechannel import builder, io_json
from liechannel.liecore import subspace_distance, unlift_moebius
from liechannel.builder import (
    propagate_profile_normals, sphere_curve_from_certificate, check_profile_legendre,
    random_sphere_curve, blend_cyclide, _oriented_chain, _curve_circle_spaces,
)
from liechannel.channel import touching_circle_space
from geo_helpers import revolution_net, cylinder_net, cone_net, strip_family


def _moebius_match(a, b):
    return min(np.linalg.norm(a - b), np.linalg.norm(a + b))


@pytest.fixture(scope="module")
def rev_build():
    net = revolution_net(seed=17, n_profile=6, m=9)
    cert = L.full_certificate(net, "+")
    assert cert.ok
    return net, cert


class TestSphereCurveValidation:
    def test_extracted_curve_is_regular(self, rev_build):
        _net, cert = rev_build
        sc = sphere_curve_from_certificate(cert)
        diag = L.validate_sphere_curve(sc)
        assert diag.ok
        assert diag.pencil_residual < 1e-10
        assert diag.angle_residual < 1e-10
        assert all(sig == (2, 0, 0) for sig in diag.pencil_signatures)

    def test_radius_perturbation_breaks_angles(self, rev_build):
        _net, cert = rev_build
        sc = sphere_curve_from_certificate(cert)
        d0 = unlift_moebius(sc.vertex_spheres[2])
        assert d0.kind == "sphere"
        bad = sc.vertex_spheres.copy()
        bad[2] = L.moebius_sphere(d0.center, d0.radius * 1.01)
        sc_bad = L.SphereCurve(vertex_spheres=bad, edge_spheres=sc.edge_spheres,
                               closed=sc.closed)
        diag = L.validate_sphere_curve(sc_bad)
        assert not diag.ok
        assert diag.angle_residual > 1e-4

    def test_repeated_edge_sphere_degenerates_pencil(self, rev_build):
        _net, cert = rev_build
        sc = sphere_curve_from_certificate(cert)
        bad = sc.edge_spheres.copy()
        bad[1] = bad[0]
        diag = L.validate_sphere_curve(
            L.SphereCurve(vertex_spheres=sc.vertex_spheres, edge_spheres=bad,
                          closed=sc.closed))
        assert not diag.ok
        assert any("dependent" in m or "pencil" in m for m in diag.messages)

    # coordinates near 6e154, whose squares overflow, and near 5e149, whose
    # squared norm squared does (the bound on every squared inner product)
    @pytest.mark.parametrize("center", [3.4e77, 1e75])
    def test_overflowing_squares_raise_a_geometry_error(self, rev_build, center):
        _net, cert = rev_build
        sc = sphere_curve_from_certificate(cert)
        bad = sc.vertex_spheres.copy()
        bad[0] = L.moebius_sphere((center, 0.0, 0.0), 1.0)
        sc_bad = L.SphereCurve(vertex_spheres=bad, edge_spheres=sc.edge_spheres,
                               closed=sc.closed)
        for call in (L.validate_sphere_curve,
                     lambda c: L.channel_from_sphere_curve(c, samples_per_circle=6)):
            with pytest.raises(L.LieGeometryError, match="out of numerical range"):
                call(sc_bad)


class TestChannelFromSphereCurve:
    def test_roundtrip_matches_certificate(self, rev_build):
        net, cert = rev_build
        sc = sphere_curve_from_certificate(cert)
        res = L.channel_from_sphere_curve(sc, samples_per_circle=9, phase=0.25)
        assert res.certificate.ok
        assert res.discriminant_max < 1e-7
        for cy1, cy2 in zip(cert.cyclides, res.certificate.cyclides):
            assert subspace_distance(cy1.dminus, cy2.dminus) < 1e-7
        for f1, f2 in zip(cert.face_spheres, res.certificate.face_spheres):
            assert _moebius_match(f1, f2) < 1e-7
        assert L.cross_ratio_constancy(res.certificate, res.net) < 1e-8

    def test_constant_radius_collinear_centers_gives_congruent_circles(self):
        # touching equal spheres on a line: the equators become the circles
        n, rho, step = 5, 1.0, 1.2
        centers = [np.array([k * step, 0, 0]) for k in range(n)]
        vs = [L.moebius_sphere(c, rho) for c in centers]
        es = []
        for k in range(n - 1):
            mid = 0.5 * (centers[k] + centers[k + 1])
            rad = math.sqrt(rho ** 2 + (step / 2) ** 2)
            es.append(L.moebius_sphere(mid, rad))
        sc = L.SphereCurve(vertex_spheres=np.array(vs), edge_spheres=np.array(es))
        assert L.validate_sphere_curve(sc).ok
        res = L.channel_from_sphere_curve(sc, samples_per_circle=8)
        radii = []
        for circle in res.certificate.circles:
            center, radius, _ = L.circle_euclidean(circle.dplus)
            radii.append(radius)
            assert center[1] == pytest.approx(0.0, abs=1e-9)
            assert center[2] == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(radii, radii[0])

    def test_too_few_samples_rejected(self, rev_build):
        _net, cert = rev_build
        sc = sphere_curve_from_certificate(cert)
        with pytest.raises(ValueError):
            L.channel_from_sphere_curve(sc, samples_per_circle=2)

    def test_generic_curve_builds_and_verifies(self):
        rng = np.random.default_rng(23)
        sc = random_sphere_curve(rng, 6)
        res = L.channel_from_sphere_curve(sc, samples_per_circle=8, phase=0.4)
        assert res.certificate.ok
        assert res.discriminant_max < 1e-8

    def test_closed_curve_from_torus_tube_family(self):
        # the '-' certificate of a torus carries the closed family of tube
        # spheres; rebuilding from it closes up with no monodromy defect
        net = L.make_dupin_torus(2.0, 1.0, 10, 8)
        cert = L.full_certificate(net, "-")
        sc = sphere_curve_from_certificate(cert)
        assert sc.closed and len(sc) == 10
        assert L.validate_sphere_curve(sc).ok
        res = L.channel_from_sphere_curve(sc, samples_per_circle=8)
        assert res.certificate.ok
        assert res.monodromy_defect is not None
        assert res.monodromy_defect < 1e-9
        assert len(res.certificate.lines) == 10

    def test_cyclide_chain_links_through_circles(self, rev_build):
        _net, cert = rev_build
        sc = sphere_curve_from_certificate(cert)
        hats = _oriented_chain(sc)
        circles = _curve_circle_spaces(sc, hats)
        for j in range(len(sc) - 1):
            cy = blend_cyclide(circles[j], hats[j], hats[j + 1])
            line = touching_circle_space(hats[j + 1], cy.dminus)
            assert subspace_distance(line, circles[j + 1]) < 1e-9


@pytest.fixture(scope="module")
def torus_pair():
    net = L.make_dupin_torus(2.0, 1.0, 12, 8)
    cert = L.full_certificate(net, "+")
    pts = net.vertex_points()
    c1 = L.DiscreteCurve3D(points=np.array([pts[b * 12 + 0] for b in range(8)]))
    c2 = L.DiscreteCurve3D(points=np.array([pts[b * 12 + 1] for b in range(8)]))
    return net, cert, c1, c2


class TestBlend:
    def test_torus_roundtrip_recovers_circles(self, torus_pair):
        net, cert, c1, c2 = torus_pair
        f0 = net.element(0)
        # match the initial face-cyclide to the torus's own Lie cyclide
        t0 = strip_family(c1, c2, f0).parameter_of(cert.cyclides[0])
        res = L.blend_channel(c1, c2, f0, t0=t0, samples_per_circle=12)
        assert res.certificate.ok
        for li in range(8):
            assert subspace_distance(res.certificate.circles[li].dplus,
                                     cert.circles[li].dplus) < 1e-7

    def test_blend_freedom(self, torus_pair):
        net, _cert, c1, c2 = torus_pair
        rng = np.random.default_rng(31)
        built = []
        for _ in range(3):
            nvec = rng.normal(size=3)
            nvec /= np.linalg.norm(nvec)
            f0 = L.contact_from_point_normal(c1.points[0], nvec)
            t0 = rng.uniform(-1.2, 1.2)
            try:
                res = L.blend_channel(c1, c2, f0, t0=t0, samples_per_circle=8)
            except L.LieGeometryError:
                continue
            assert res.certificate.ok
            built.append(res)
        assert len(built) >= 2
        d = subspace_distance(built[0].certificate.circles[2].dplus,
                              built[1].certificate.circles[2].dplus)
        assert d > 1e-6  # genuinely different surfaces through the same curves

    def test_non_ribaucour_pair_rejected(self):
        rng = np.random.default_rng(33)
        a = L.DiscreteCurve3D(points=rng.normal(size=(5, 3)))
        b = L.DiscreteCurve3D(points=rng.normal(size=(5, 3)))
        f0 = L.contact_from_point_normal(a.points[0], (1, 0, 0))
        with pytest.raises(L.LieGeometryError, match="Ribaucour"):
            L.blend_channel(a, b, f0, t0=0.0)

    def test_parallel_lines_cylindrical_and_not(self):
        h, n, dist = 0.6, 6, 2.0
        c1 = L.DiscreteCurve3D(points=np.array([[0.0, 0, k * h] for k in range(n)]))
        c2 = L.DiscreteCurve3D(points=np.array([[dist, 0, k * h] for k in range(n)]))
        f0 = L.contact_from_point_normal([0, 0, 0], [-1.0, 0, 0])

        # the cylinder member: construct its splitting from the cross circle
        from liechannel.liecore import span, orthocomplement
        mid = np.array([dist / 2, 0, 0])
        planes = []
        for th in (0.0, 1.2, 2.3):
            nu = np.array([math.cos(th), math.sin(th), 0.0])
            p = mid + (dist / 2) * nu
            planes.append(L.lift_plane(nu, float(nu @ p)))
        dminus_cyl = span(planes)
        cyl = L.DupinCyclide(dplus=orthocomplement(dminus_cyl), dminus=dminus_cyl)
        cyl.validate()

        t_cyl = strip_family(c1, c2, f0).parameter_of(cyl)

        res_cyl = L.blend_channel(c1, c2, f0, t0=t_cyl, samples_per_circle=8)
        centers, radii = [], []
        for circle in res_cyl.certificate.circles:
            c, r, _ = L.circle_euclidean(circle.dplus)
            centers.append(c)
            radii.append(r)
        assert np.allclose(radii, radii[0], atol=1e-8)
        axis = np.array(centers)
        assert np.allclose(axis[:, 0], dist / 2, atol=1e-8)
        assert np.allclose(axis[:, 1], 0.0, atol=1e-8)
        ok, _, _ = L.is_dupin_cyclide(res_cyl.net)
        assert ok

        res_other = L.blend_channel(c1, c2, f0, t0=t_cyl + 0.8, samples_per_circle=8)
        ok2, _, _ = L.is_dupin_cyclide(res_other.net)
        assert not ok2
        assert L.vessiot_classify(res_other.certificate).kind == "none"


class TestGenerators:
    def test_dupin_torus(self):
        net = L.make_dupin_torus(2.0, 1.0, 16, 16)
        ok, _, _ = L.is_dupin_cyclide(net)
        assert ok

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            L.make_dupin_torus(1.0, 2.0, 8, 8)
        with pytest.raises(ValueError):
            L.make_revolution(np.array([[1, 0, 0], [1.2, 0, 1]]),
                              np.array([[1, 0, 0], [1, 0, 0]]), 2)

    def test_profile_touching_axis_rejected(self):
        prof = np.array([[1.0, 0, 0], [0.0, 0, 1.0]])
        nm = propagate_profile_normals(prof, np.array([1.0, 0, 0]))
        with pytest.raises(L.LieGeometryError, match="axis"):
            L.make_revolution(prof, nm, 8)

    def test_bad_normals_rejected(self):
        prof = np.array([[1.0, 0, 0], [1.3, 0, 0.7], [1.1, 0, 1.5]])
        nm = np.array([[1.0, 0, 0], [0.0, 0, 1.0], [1.0, 0, 0]])
        with pytest.raises(L.LieGeometryError, match="Legendre condition"):
            L.make_revolution(prof, nm, 8)

    def test_generators_verify(self):
        assert L.full_certificate(revolution_net(seed=41), "+").ok
        assert L.full_certificate(cylinder_net(seed=42), "+").ok
        assert L.full_certificate(cone_net(seed=43), "+").ok

    def test_cone_minus_lines_on_spheres_around_apex(self):
        net = cone_net(seed=44)
        pts = net.vertex_points()
        t = net.complex.grid.n_plus
        # each '-'-line (profile copy at one scale) lies on a sphere centered
        # at the apex
        for a in range(t):
            ray = [pts[b * t + a] for b in range(net.complex.grid.n_minus)]
            d = [np.linalg.norm(p) for p in ray]
            assert np.allclose(d, d[0])

    def test_reflection_examples(self):
        for seed in (0, 5):
            assert L.verify_channel(L.make_reflection_example(1, seed), "+").ok
            r2 = L.verify_channel(L.make_reflection_example(2, seed), "+")
            assert not r2.ok and r2.check == "ribbon_span" and r2.envelopes
            r3 = L.verify_channel(L.make_reflection_example(3, seed), "+")
            assert not r3.ok and r3.check == "constancy"

    def test_reflection_example_kind_validation(self):
        with pytest.raises(ValueError):
            L.make_reflection_example(4)


class TestPropagation:
    def test_propagate_point_double_root(self, rev_build):
        _net, cert = rev_build
        sc = sphere_curve_from_certificate(cert)
        hats = _oriented_chain(sc)
        circles = _curve_circle_spaces(sc, hats)
        cy = blend_cyclide(circles[0], hats[0], hats[1])
        from liechannel.channel import sample_circle
        for x in sample_circle(circles[0], 5, phase=0.3):
            y, disc = L.propagate_point(x, cy, hats[1])
            assert disc < 1e-9
            assert circles[1].residual(y) < 1e-9

    def test_point_off_cyclide_rejected(self, rev_build):
        _net, cert = rev_build
        sc = sphere_curve_from_certificate(cert)
        hats = _oriented_chain(sc)
        circles = _curve_circle_spaces(sc, hats)
        cy = blend_cyclide(circles[0], hats[0], hats[1])
        with pytest.raises(L.LieGeometryError):
            L.propagate_point(L.lift_point((9.0, 9.0, 9.0)), cy, hats[1])

    def test_tangent_spheres_rejected(self):
        # (a,b) inner product zero: spheres in oriented contact
        a = L.moebius_sphere((0, 0, 0), 1.0) + L.E6
        b = L.moebius_sphere((2, 0, 0), -1.0) + L.E6
        circle = L.orthocomplement(L.span([a, L.moebius_plane((0, 0, 1), 0.0), L.E6]))
        with pytest.raises(L.LieGeometryError, match="degenerat"):
            blend_cyclide(circle, a, b)


def test_degenerate_face_cyclide_member_is_named():
    # columns 7 and 8 of a 12-sphere curve built with 16 samples, at the t0
    # meant to rebuild its first ribbon's cyclide: the member of step 5 has
    # a 2-dimensional D- (as blended by scripts/output_digest.py)
    built = L.channel_from_sphere_curve(random_sphere_curve(np.random.default_rng(9), 12), 16)
    vertices = io_json.net_to_dict(built.net)["vertices"]
    c1, c2 = (L.DiscreteCurve3D(points=np.array([v["point"] for v in vertices[col::16]]))
              for col in (7, 8))
    normal = np.array(vertices[7]["normal"])
    f0 = L.contact_from_point_normal(vertices[7]["point"], normal / np.linalg.norm(normal))
    with pytest.raises(L.LieGeometryError, match=r"^degenerate face-cyclide member at step 5 "
                                                 r"\(t = 1\.5696\d+\): dims 3, 2$"):
        L.blend_channel(c1, c2, f0, 1.4808292377837171, 16)


class TestNanFailsClosed:
    """Each threshold test of the builder fails on a NaN residual."""

    @pytest.fixture
    def curve(self):
        return random_sphere_curve(np.random.default_rng(5), 6)

    def test_pencil_residual(self, curve, monkeypatch):
        assert L.validate_sphere_curve(curve).ok
        monkeypatch.setattr(L.Subspace, "residual", lambda self, v: math.nan)
        diag = L.validate_sphere_curve(curve)
        assert not diag.ok
        assert "vertex 1: sphere leaves the pencil of its edges (residual nan)" in diag.messages

    def test_cyclide_residual(self, curve, monkeypatch):
        hats = _oriented_chain(curve)
        circles = _curve_circle_spaces(curve, hats)
        blend_cyclide(circles[0], hats[0], hats[1])
        monkeypatch.setattr(L.Subspace, "residual", lambda self, v: math.nan)
        with pytest.raises(L.LieGeometryError,
                           match="^cyclide does not carry the prescribed spheres$"):
            blend_cyclide(circles[0], hats[0], hats[1])

    def test_chain_closing_residual(self, curve, monkeypatch):
        monkeypatch.setattr(builder, "subspace_distance", lambda a, b: math.nan)
        with pytest.raises(L.LieGeometryError,
                           match=r"^cyclide chain does not close at vertex 1 \(residual nan\)$"):
            L.channel_from_sphere_curve(curve, 8)

    @pytest.fixture
    def profile(self):
        # a circle in the xz-plane with its radial normals
        t = np.linspace(0.2, 1.4, 5)
        normals = np.stack([np.cos(t), 0 * t, np.sin(t)], axis=1)
        return normals * 0.5 + np.array([2.0, 0.0, 0.0]), normals

    def test_profile_normal_length(self, profile):
        points, normals = profile
        check_profile_legendre(points, normals)
        normals[2, 0] = math.nan
        with pytest.raises(L.LieGeometryError, match="^profile normals must have unit length$"):
            check_profile_legendre(points, normals)

    def test_profile_legendre_residual(self, profile):
        # coincident points: the reflected normal is 0/0
        points, normals = profile
        points[2] = points[1]
        with np.errstate(invalid="ignore"), pytest.raises(
                L.LieGeometryError,
                match="^Legendre condition violated by the supplied normals at edge 1$"):
            check_profile_legendre(points, normals)
