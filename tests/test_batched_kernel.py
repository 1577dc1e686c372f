"""The batched R^{4,2} kernel equals the scalar oracle bit for bit.

Contact element bases, edge curvature spheres, failed-edge lists,
curvature reports, vertex positions and point lifts are compared with
`kernel_oracle` on every generator kind, on tori from 3^2 to 16^2 and on the
reflection examples; error cases must raise the oracle's message for the
same vertex, edge or face.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import liechannel as L
from liechannel import builder, io_json
from liechannel.cellcomplex import QuadComplex, make_grid
from liechannel.cli import random_generator_net
from liechannel.curvature import curvature_report
from liechannel.legendre import LegendreNet, contact_from_vectors

import kernel_oracle as oracle


def same_bits(a, b) -> bool:
    """Equal float64 bit patterns (tells -0.0 from 0.0)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def generated(make, *args, **kwargs):
    """A generator's net and the points and normals it was built from."""
    with mock.patch.object(builder, "net_from_points_normals",
                           wraps=builder.net_from_points_normals) as spy:
        net = make(*args, **kwargs)
    _c, points, normals = spy.call_args.args
    return net, points, normals


def assert_matches_oracle(net, points, normals):
    bases = [oracle.contact_from_point_normal(p, n) for p, n in zip(points, normals)]
    assert same_bits(net.bases, bases)
    assert all(same_bits(net.element(v).basis, b) for v, b in enumerate(bases))

    spheres, failed = oracle.edge_spheres(bases, net.complex)
    diag = L.is_legendre(net)
    assert diag.failed_edges == failed
    assert set(net._edge_spheres) == set(spheres)
    assert all(same_bits(net._edge_spheres[k], s) for k, s in spheres.items())
    if failed:
        return

    gauss, mean, res, kappa, k_res, ident = oracle.curvature_report(bases, net.complex)
    rep = curvature_report(net)
    assert same_bits(rep.gauss, gauss) and same_bits(rep.mean, mean)
    assert same_bits(rep.face_residuals, res)
    assert same_bits(rep.identity_residuals, ident)
    assert list(rep.edge_kappa) == list(kappa)
    assert same_bits(list(rep.edge_kappa.values()), list(kappa.values()))
    assert same_bits(list(rep.edge_residuals.values()), list(k_res.values()))


@given(kind=st.sampled_from(["revolution", "cylinder", "cone"]),
       seed=st.integers(0, 10_000), n=st.integers(3, 7), m=st.integers(3, 7))
@settings(max_examples=30, deadline=None)
def test_generators_match_oracle(kind, seed, n, m):
    net, points, normals = generated(random_generator_net, kind, seed, n, m)
    assert_matches_oracle(net, points, normals)


@given(m=st.integers(3, 16), n=st.integers(3, 16),
       big=st.floats(1.5, 3.0), ratio=st.floats(0.2, 0.7))
@settings(max_examples=15, deadline=None)
def test_tori_match_oracle(m, n, big, ratio):
    net, points, normals = generated(builder.make_dupin_torus, big, big * ratio, m, n)
    assert_matches_oracle(net, points, normals)


@given(kind=st.sampled_from([1, 2, 3]), seed=st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_reflection_examples_match_oracle(kind, seed):
    net, points, normals = generated(builder.make_reflection_example, kind, seed=seed)
    assert_matches_oracle(net, points, normals)


@given(seed=st.integers(0, 10_000), scale=st.sampled_from([1e-9, 1e-6, 1e-3, 0.05]))
@settings(max_examples=25, deadline=None)
def test_perturbed_normals_fail_the_same_edges(seed, scale):
    torus, points, normals = generated(builder.make_dupin_torus, 2.0, 1.0, 6, 5)
    rng = np.random.default_rng(seed)
    normals = normals + rng.normal(scale=scale, size=normals.shape)
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    net = L.net_from_points_normals(torus.complex, points, normals)
    assert_matches_oracle(net, points, normals)


def test_identical_and_non_contact_elements_fail_the_same_edges():
    torus = L.make_dupin_torus(2.0, 1.0, 6, 5)
    elements = list(torus.elements)
    elements[1] = elements[0]                         # one edge with nullity 2
    elements[8] = L.contact_from_point_normal((9.0, 1, 2), (0.0, 0.6, 0.8))
    net = LegendreNet(complex=torus.complex, elements=tuple(elements))
    bases = [el.basis for el in elements]
    spheres, failed = oracle.edge_spheres(bases, torus.complex)
    assert {msg for _i, _j, msg in failed} == {
        "identical contact elements", "not in contact: contact elements do not intersect"}
    assert L.is_legendre(net).failed_edges == failed
    assert all(same_bits(net._edge_spheres[k], s) for k, s in spheres.items())
    with pytest.raises(L.IdenticalContactElementsError):
        L.curvature_sphere(elements[0], elements[1])


def test_loader_matches_oracle_on_both_vertex_forms():
    net, points, normals = generated(builder.make_reflection_example, 2, seed=4)
    doc = io_json.net_to_dict(net)
    for v in (0, 5, 11):                              # mixed point/normal and contact entries
        doc["vertices"][v] = {"contact": net.bases[v].tolist()}
    loaded = io_json.net_from_dict(json.loads(json.dumps(doc)))
    expected = []
    for entry in doc["vertices"]:
        if "contact" in entry:
            expected.append(oracle.contact_from_vectors(*np.asarray(entry["contact"])))
        else:
            expected.append(oracle.contact_from_point_normal(entry["point"], entry["normal"]))
    assert same_bits(loaded.bases, expected)


def error_of(fn, *args):
    try:
        fn(*args)
    except L.LieGeometryError as exc:
        return str(exc)
    return None


def test_contact_element_errors_match_oracle():
    good = (np.array([0.1, 0.2, 0.3]), np.array([0.0, 0.6, 0.8]))
    cases = [
        ((np.zeros(3), np.array([0.0, 0.0, 2.0])), "point_normal"),
        ((L.E1, L.E2), "vectors"),                    # spacelike plane
        ((L.E0, 3.0 * L.E0), "vectors"),              # rank 1
        ((np.zeros(6), np.zeros(6)), "vectors"),
    ]
    for args, form in cases:
        single = L.contact_from_point_normal if form == "point_normal" else contact_from_vectors
        scalar = (oracle.contact_from_point_normal if form == "point_normal"
                  else oracle.contact_from_vectors)
        expected = error_of(scalar, *args)
        assert expected is not None and error_of(single, *args) == expected
    # in a stack, the lowest failing vertex is reported with its message
    points = np.array([good[0]] * 5)
    normals = np.array([good[1]] * 5)
    normals[3] = (0.0, 0.0, 2.0)
    gens, bad = L.legendre.point_normal_generators(points, normals)
    gens[4] = (L.E1, L.E2)
    with pytest.raises(L.ContactElementError, match="normal must have unit length") as err:
        L.contact_bases(gens, bad)
    assert err.value.vertex == 3


def torus_with(replace):
    torus = L.make_dupin_torus(2.0, 1.0, 6, 5)
    elements = list(torus.elements)
    for v, element in replace(torus).items():
        elements[v] = element
    return LegendreNet(complex=torus.complex, elements=tuple(elements))


AT_INFINITY = (L.EINF, L.lift_plane((0.0, 0.0, 1.0), 0.5))   # <einf, plane>


@pytest.mark.parametrize("replace", [
    lambda t: {7: contact_from_vectors(*AT_INFINITY)},
    # two points at infinity: the lower vertex is named
    lambda t: {9: contact_from_vectors(*AT_INFINITY), 3: contact_from_vectors(*AT_INFINITY)},
    # vertex 1 moved onto vertex 0 with another normal: df = 0 on edge (0, 1)
    lambda t: {1: L.contact_from_point_normal(t.vertex_point(0), (0.0, 0.0, 1.0))},
])
def test_curvature_errors_match_oracle(replace):
    net = torus_with(replace)
    bases = [el.basis for el in net.elements]
    expected = error_of(oracle.curvature_report, bases, net.complex)
    assert expected is not None
    assert error_of(curvature_report, net) == expected


def test_degenerate_face_error_matches_oracle():
    # face (0, 1, 0, 1): both diagonals vanish, the edges do not
    c = QuadComplex(n_vertices=2, edges=((0, 1, "-"),), faces=((0, 1, 0, 1),))
    elements = (L.contact_from_point_normal((0, 0, 0), (0, 0, 1.0)),
                L.contact_from_point_normal((1, 0, 0), (0, 0, 1.0)))
    net = LegendreNet(complex=c, elements=elements)
    expected = error_of(oracle.curvature_report, [el.basis for el in elements], c)
    assert expected == "degenerate face: vanishing mixed area"
    assert error_of(curvature_report, net) == expected


def test_single_item_functions_are_stacks_of_one():
    f_quad = [oracle.lift_point(p) for p in [(0, 0, 0), (1, 0, 0.1), (1, 1, 0), (0, 1, 0.2)]]
    n_quad = [oracle.lift_plane(n / np.linalg.norm(n), 0.3)
              for n in np.array([(0, 0, 1.0), (0.1, 0, 1), (0, 0.1, 1), (0.1, 0.1, 1)])]
    assert same_bits(L.gauss_mean(f_quad, n_quad), oracle.gauss_mean(f_quad, n_quad))
    assert same_bits(L.principal_curvature(f_quad[0], f_quad[1], n_quad[0], n_quad[1]),
                     oracle.principal_curvature(f_quad[0], f_quad[1], n_quad[0], n_quad[1]))
    for a, b in np.random.default_rng(1).normal(size=(10, 2, 6)):
        assert same_bits(L.mixed_area([a, b, -a, b], [b, a, a, -b]),
                         oracle.mixed_area([a, b, -a, b], [b, a, a, -b]))


def test_interior_vertex_stars_use_the_vertex_face_index():
    c = make_grid(5, 4, wrap_plus=True)
    for v in range(c.n_vertices):
        assert c.vertex_faces(v) == [fi for fi, face in enumerate(c.faces) if v in face]
    # a face naming a vertex twice lists it once
    twice = QuadComplex(n_vertices=2, edges=((0, 1, "-"),), faces=((0, 1, 0, 1),))
    assert twice.vertex_faces(0) == [0]
    assert len(L.curvature.interior_vertex_stars(c)) == 5 * 2


# ---------------------------------------------------------------------------
# vertex positions and point lifts


def reading(fn, *args):
    """(value, None), or (None, (exception class, message)) if fn raises."""
    try:
        return fn(*args), None
    except L.LieGeometryError as exc:
        return None, (type(exc), str(exc))


def assert_positions_match_oracle(net, vertices=None):
    got, got_error = reading(net.vertex_points, vertices)
    want, want_error = reading(oracle.vertex_points, net, vertices)
    assert got_error == want_error
    if want_error is None:
        assert same_bits(got, want.reshape(-1, 3))
        assert same_bits(L.liecore.unit_point_lifts(got),
                         np.array([oracle.unit_point_lift(p) for p in want]).reshape(-1, 6))
        assert same_bits(L.liecore.lift_points(got),
                         np.array([oracle.lift_point(p) for p in want]).reshape(-1, 6))
        assert all(same_bits(L.lift_point(p), oracle.lift_point(p)) for p in want)


def assert_vertex_lists_match_oracle(net, data):
    assert_positions_match_oracle(net)
    n = net.complex.n_vertices
    # partial lists: any order, repeats and the empty list included
    assert_positions_match_oracle(net, data.draw(st.lists(st.integers(0, n - 1), max_size=n)))


@given(kind=st.sampled_from(["revolution", "cylinder", "cone"]),
       seed=st.integers(0, 10_000), n=st.integers(2, 7), m=st.integers(3, 7), data=st.data())
@settings(max_examples=30, deadline=None)
def test_generator_positions_match_oracle(kind, seed, n, m, data):
    assert_vertex_lists_match_oracle(random_generator_net(kind, seed, n, m), data)


@given(m=st.integers(3, 16), n=st.integers(3, 16),
       big=st.floats(1.5, 3.0), ratio=st.floats(0.2, 0.7), data=st.data())
@settings(max_examples=15, deadline=None)
def test_torus_positions_match_oracle(m, n, big, ratio, data):
    assert_vertex_lists_match_oracle(builder.make_dupin_torus(big, big * ratio, m, n), data)


@given(kind=st.sampled_from([1, 2, 3]), seed=st.integers(0, 10_000), data=st.data())
@settings(max_examples=15, deadline=None)
def test_reflection_example_positions_match_oracle(kind, seed, data):
    assert_vertex_lists_match_oracle(builder.make_reflection_example(kind, seed=seed), data)


def _raw_element(a, b):
    """Contact element of the basis (a, b), without the constructor's checks."""
    return L.legendre._elements(np.array([[a, b]], dtype=float))[0]


BAD_VERTICES = {
    7: _raw_element(L.E0, L.EINF),          # no point sphere in the pencil
    12: _raw_element(L.E1, L.E6),           # point sphere E1 is not null
    20: contact_from_vectors(*AT_INFINITY),  # point sphere at infinity
    25: _raw_element(L.lift_point((1e6, 0.0, 0.0)),  # u0 below unlift's cutoff
                     L.lift_plane((0.0, 0.0, 1.0), 0.0)),
}


@pytest.mark.filterwarnings("error")  # the oracle's unlift of vertex 25 divides by nothing
@pytest.mark.parametrize("vertices", [
    None, [0, 1, 2], [], [12, 7], [7, 12], [3, 20, 12], [25, 20], [25, 12, 7], [29, 25, 25],
])
def test_position_errors_match_oracle(vertices):
    net = torus_with(lambda t: BAD_VERTICES)
    assert_positions_match_oracle(net, vertices)
    if vertices and set(vertices) & set(BAD_VERTICES):
        assert reading(net.vertex_points, vertices)[1] is not None


def test_sphere_off_the_point_complex_matches_oracle():
    # a pencil's point sphere has u6 = 0 exactly, so unlift's radius cutoff
    # is exercised by handing both readings a proper sphere (radius 0.5)
    net = L.make_dupin_torus(2.0, 1.0, 6, 5)
    spheres, ok = L.legendre.point_spheres(net.bases)
    spheres[4] = L.lift_sphere((1.0, 2.0, 0.0), 0.5)

    def crafted(bases):
        return spheres[:len(bases)], ok[:len(bases)]

    with mock.patch.object(L.legendre, "point_spheres", crafted):
        assert reading(net.vertex_points, None)[1] == (
            L.LieGeometryError, "vertex 4 has no finite Euclidean position")
        assert_positions_match_oracle(net)


def test_error_classes():
    net = torus_with(lambda t: BAD_VERTICES)
    with pytest.raises(L.NotALieSphereError, match=r"not a Lie sphere"):
        net.vertex_points([12])
    with pytest.raises(L.LieGeometryError, match="orthogonal to the point sphere complex"):
        net.vertex_point(7)
    with pytest.raises(L.LieGeometryError, match="vertex 20 has no finite Euclidean position"):
        net.vertex_points([20, 25])
