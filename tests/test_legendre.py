import math
from unittest import mock

import numpy as np
import pytest

import liechannel as L
from liechannel.liecore import subspace_distance
from liechannel.cellcomplex import edge_key
from liechannel.legendre import face_spheres_of

from geo_helpers import revolution_net, unlift
import kernel_oracle as oracle
from kernel_oracle import intersect, is_null, projective_distance


@pytest.fixture(scope="module")
def torus():
    return L.make_dupin_torus(2.0, 1.0, 12, 10)


class TestContactElements:
    def test_from_point_normal_origin(self):
        f = L.contact_from_point_normal((0, 0, 0), (0, 0, 1))
        assert f.contains(L.E0)
        assert f.contains(np.array([0, 0, 1.0, 0, 0, 1.0]))

    def test_requires_unit_normal(self):
        with pytest.raises(L.LieGeometryError):
            L.contact_from_point_normal((0, 0, 0), (0, 0, 2))

    def test_pencil_members_are_null(self):
        f = L.contact_from_point_normal((1, 2, 0.5), (0.6, 0, 0.8))
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.normal(size=2)
            v = a * f.basis[0] + b * f.basis[1]
            assert is_null(v)

    def test_pencil_sweep_centers_on_normal_line(self):
        x = np.array([1.0, 0.0, 2.0])
        n = np.array([0.0, 0.6, 0.8])
        point = L.lift_point(x)
        plane = L.lift_plane(n, float(n @ x))
        for mu in (-2.0, -0.5, 0.7, 3.0):
            kind, w = unlift(point + mu * plane)
            assert kind == "sphere"
            assert np.allclose(w[:3], x + mu * n, atol=1e-12)
            assert w[5] == pytest.approx(mu)

    def test_point_sphere_and_plane_lift(self):
        x, n = np.array([0.5, -1, 2.0]), np.array([1.0, 0, 0])
        f = L.contact_from_point_normal(x, n)
        (p,), ok = L.legendre.point_spheres(f.basis[None])
        assert ok[0]
        kind, w = unlift(p)
        assert kind == "point"
        assert np.allclose(w[:3], x)
        (pl,), ok = L.legendre.plane_lifts(f.basis[None])
        assert ok[0]
        kind, w = unlift(pl)
        assert kind == "plane"
        assert abs(float(w[:3] @ n)) == pytest.approx(1.0)


class TestCurvatureSphere:
    def test_unit_sphere_common(self):
        # outward-normal elements of the unit sphere: common sphere (0, -1)
        f1 = L.contact_from_point_normal((1, 0, 0), (1, 0, 0))
        f2 = L.contact_from_point_normal((0, 1, 0), (0, 1, 0))
        s = L.curvature_sphere(f1, f2)
        assert projective_distance(s, L.lift_sphere((0, 0, 0), -1.0)) < 1e-12

    def test_identical_elements_rejected(self):
        f = L.contact_from_point_normal((1, 0, 0), (1, 0, 0))
        with pytest.raises(L.IdenticalContactElementsError):
            L.curvature_sphere(f, f)

    def test_same_point_different_normals_gives_point(self):
        x = (0.3, 0.4, 1.0)
        f1 = L.contact_from_point_normal(x, (1, 0, 0))
        f2 = L.contact_from_point_normal(x, (0, 1, 0))
        s = L.curvature_sphere(f1, f2)
        assert projective_distance(s, L.lift_point(x)) < 1e-12

    def test_generic_elements_not_in_contact(self):
        f1 = L.contact_from_point_normal((0, 0, 0), (1, 0, 0))
        f2 = L.contact_from_point_normal((1, 1, 1), (0, 0.6, 0.8))
        with pytest.raises(L.NotInContactError):
            L.curvature_sphere(f1, f2)


class TestLegendreNets:
    def test_torus_is_legendre(self, torus):
        assert L.is_legendre(torus).ok

    def test_perturbed_normals_flagged(self, torus):
        rng = np.random.default_rng(5)
        pts = torus.vertex_points()
        pl, ok = L.legendre.plane_lifts(torus.bases)
        assert ok.all()
        normals = (pl / pl[:, 5:])[:, :3]
        normals += rng.normal(scale=0.05, size=normals.shape)
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        bad = L.net_from_points_normals(torus.complex, pts, normals)
        assert not L.is_legendre(bad).ok

    def test_net_from_edge_spheres_roundtrip(self, torus):
        spheres = {}
        for i, j in torus.complex.edge_ends.tolist():
            spheres[edge_key(i, j)] = torus.spheres_of(torus.complex.edge_id(i, j))
        rebuilt = L.net_from_edge_spheres(torus.complex, spheres)
        for v in range(torus.complex.n_vertices):
            assert subspace_distance(rebuilt.element(v).space,
                                     torus.element(v).space) < 1e-9

    def test_net_from_constant_sphere_fails(self):
        c = L.make_grid(3, 3)
        s = L.lift_sphere((0, 0, 0), 1.0)
        spheres = {edge_key(i, j): s for i, j in c.edge_ends.tolist()}
        with pytest.raises(L.LieGeometryError, match="vertex-star"):
            L.net_from_edge_spheres(c, spheres)

    def test_net_from_incompatible_spheres_fails(self):
        c = L.make_grid(3, 3)
        rng = np.random.default_rng(7)
        spheres = {edge_key(i, j): L.lift_sphere(rng.normal(size=3), rng.uniform(0.5, 1))
                   for i, j in c.edge_ends.tolist()}
        with pytest.raises(L.LieGeometryError, match="vertex-star"):
            L.net_from_edge_spheres(c, spheres)


def _outcome(fn, *args):
    """The bases of the net, or the class and message of the error."""
    try:
        return "ok", fn(*args)
    except (KeyError, L.LieGeometryError) as exc:
        return type(exc), str(exc)


def _torus_spheres(torus):
    return {edge_key(i, j): torus.spheres_of(e)
            for e, (i, j) in enumerate(torus.complex.edge_ends.tolist())}


def _with(spheres, **changes):
    """The spheres, the edges (a, b) named "a_b" replaced (None: dropped)."""
    out = dict(spheres)
    for name, value in changes.items():
        key = tuple(int(v) for v in name[1:].split("_"))
        out.pop(key) if value is None else out.update({key: value(spheres[key])})
    return out


@pytest.mark.parametrize("change", [
    lambda s: s,
    lambda s: _with(s, e0_1=None),                                # a missing sphere
    lambda s: _with(s, e5_6=None),                                # ... not the first
    lambda s: _with(s, e5_6=lambda x: x + 1e-3 * L.E1),          # not null
    lambda s: _with(s, e5_6=lambda x: 0.0 * x),                  # zero
    lambda s: _with(s, **{f"e{k}": lambda x: 0.0 * x for k in ("0_1", "0_11", "0_12")}),  # a star
    lambda s: _with(s, e5_6=lambda x: -3.0 * x),                 # another representative
    lambda s: _with(s, e5_6=lambda x: s[(5, 17)]),                # a '-' sphere on a '+' edge
    lambda s: _with(s, e0_12=lambda x: s[(1, 13)]),               # the next '-' line's sphere
    lambda s: dict(reversed(list(s.items()))),                    # another order
    lambda s: dict(list(s.items())[::2]),                         # half of them
])
def test_net_from_edge_spheres_matches_oracle(torus, change):
    spheres = change(_torus_spheres(torus))
    got = _outcome(lambda: L.net_from_edge_spheres(torus.complex, spheres).bases)
    want = _outcome(oracle.net_from_edge_spheres, torus.complex, spheres)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert np.array_equal(got[1].view(np.uint64), want[1].view(np.uint64))
    else:
        assert got[1] == want[1]


@pytest.mark.parametrize("seed", range(6))
def test_net_from_edge_spheres_refusals_match_oracle(seed):
    # grids with random null vectors: stars of two to four edges that fail
    c = L.make_grid(2 + seed % 3, 2 + seed // 3, wrap_plus=seed % 3 == 1)
    rng = np.random.default_rng(seed)
    spheres = {edge_key(i, j): L.lift_sphere(rng.normal(size=3), rng.uniform(0.5, 1))
               for i, j in c.edge_ends.tolist()}
    assert _outcome(lambda: L.net_from_edge_spheres(c, spheres).bases) == \
        _outcome(oracle.net_from_edge_spheres, c, spheres)


class TestNanFailsClosed:
    def test_contact_element_isotropy(self):
        with pytest.raises(L.LieGeometryError, match="not totally isotropic"):
            L.ContactElement(space=L.Subspace(basis=np.full((2, 6), math.nan)))

    def test_contact_bases_isotropy(self):
        gens = L.legendre.point_normal_generators([(0.0, 0.0, 0.0)] * 3, [(0.0, 0.0, 1.0)] * 3)[0]
        with mock.patch.object(L.legendre, "_isotropy", lambda b: np.full(len(b), math.nan)):
            with pytest.raises(L.ContactElementError, match="not totally isotropic") as err:
                L.contact_bases(gens)
        assert err.value.vertex == 0

    def test_cyclide_orthogonality(self, torus):
        cy = L.verify_channel(torus, "+").cyclides[0]
        cy.validate()
        with mock.patch.object(L.legendre.lc, "inner_matrix",
                               lambda a, b: np.full((3, 3), math.nan)):
            with pytest.raises(L.LieGeometryError, match="not orthogonal"):
                cy.validate()

    def test_edge_sphere_reproduction(self, torus):
        spheres = _torus_spheres(torus)
        with mock.patch.object(L.legendre, "meet_spheres",
                               lambda a, b: np.full((len(a), 6), math.nan)):
            with pytest.raises(L.LieGeometryError, match=r"edge sphere on \(0,1\) not reproduced"):
                L.net_from_edge_spheres(torus.complex, spheres)


class TestFaceCyclides:
    def test_sphere_pairs_orthogonal(self, torus):
        for face in torus.complex.face_vertices[:20].tolist():
            plus, minus = face_spheres_of(torus, face)
            for sp in plus:
                for sm in minus:
                    val = abs(L.inner(sp, sm))
                    val /= np.linalg.norm(sp) * np.linalg.norm(sm)
                    assert val < 1e-12

    def test_family_members_are_face_cyclides(self, torus):
        face = torus.complex.face_vertices[5].tolist()
        fam = L.face_cyclide_family(torus, face)
        for t in np.linspace(-1.5, 1.5, 9):
            cy = fam(t)
            cy.validate()
            assert L.is_face_cyclide(torus, face, cy)

    def test_family_contains_ambient_cyclide(self, torus):
        cert = L.verify_channel(torus, "+")
        assert cert.ok
        face = torus.complex.face_vertices[0].tolist()
        fam = L.face_cyclide_family(torus, face)
        t = fam.parameter_of(cert.cyclides[0])
        assert subspace_distance(fam(t).dminus, cert.cyclides[0].dminus) < 1e-9

    def test_family_dplus_intersections_recover_u(self, torus):
        fam = L.face_cyclide_family(torus, torus.complex.face_vertices[3].tolist())
        for t1, t2 in [(0.0, 0.6), (-1.2, 0.4), (0.2, 1.4)]:
            meet = intersect(fam(t1).dplus, fam(t2).dplus)
            assert meet.dim == 2
            assert subspace_distance(meet, fam.u) < 1e-9

    def test_family_swap_symmetry(self, torus):
        face = torus.complex.face_vertices[4].tolist()
        swapped = L.swapped_labels(torus.complex)
        net2 = L.LegendreNet(complex=swapped, bases=torus.bases)
        face2 = swapped.face_vertices[4].tolist()
        fam = L.face_cyclide_family(torus, face)
        fam2 = L.face_cyclide_family(net2, face2)
        # roles of the sphere pairs exchange
        assert subspace_distance(fam2.u, fam.v) < 1e-9
        assert subspace_distance(fam2.v, fam.u) < 1e-9
        t = 0.37
        cy2 = fam2(t)
        assert all(cy2.dplus.contains(s) for s in fam.v.basis)
        assert all(cy2.dminus.contains(s) for s in fam.u.basis)

    def test_cyclide_of_other_face_rejected(self):
        net = revolution_net(seed=2, n_profile=6, m=8)
        cert = L.verify_channel(net, "+")
        assert cert.ok
        faces = net.complex.face_vertices.tolist()
        # a face from a different ribbon has different curvature spheres
        assert L.is_face_cyclide(net, faces[0], cert.cyclides[0])
        other = cert.ribbons[2][0]
        assert not L.is_face_cyclide(net, faces[other], cert.cyclides[0])

    def test_degenerate_face_rejected(self):
        # all four spheres concurrent through one vertex star: build a tiny
        # net whose '+' spheres coincide, making U one-dimensional
        f1 = L.contact_from_point_normal((1, 0, 0), (1, 0, 0))
        f2 = L.contact_from_point_normal((0, 1, 0), (0, 1, 0))
        f3 = L.contact_from_point_normal((-1, 0, 0), (-1, 0, 0))
        f4 = L.contact_from_point_normal((0, -1, 0), (0, -1, 0))
        c = L.make_grid(2, 2)
        net = L.LegendreNet(complex=c, bases=np.array([f.basis for f in (f1, f2, f3, f4)]))
        assert L.is_legendre(net).ok
        with pytest.raises(L.DegenerateFaceError):
            L.face_cyclide_family(net, c.face_vertices[0].tolist())
