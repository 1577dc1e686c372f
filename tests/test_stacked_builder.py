"""The builder's generating circles and the sphere curve writer read whole
curves as stacks, as the per-vertex loops did.

`builder._curve_circle_spaces` must give the circles of
`kernel_oracle.curve_circle_spaces` bit for bit, or raise its first error
(class and message), and `io_json.save_sphere_curve` must write the bytes
of `kernel_oracle.save_sphere_curve`, or raise its first error. The curves
are random regular sphere curves of 3 to 12 spheres and the closed tube
curve of a torus, each also with one sphere replaced: a repeated edge
sphere, a vertex sphere whose pencil with an edge sphere is hyperbolic, a
NaN row, a timelike row and a plane at 1e12 (no real sphere part and a
point at infinity for the writer).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import liechannel as L
from liechannel import builder, io_json

import kernel_oracle as oracle

CLOSED = builder.sphere_curve_from_certificate(
    L.full_certificate(L.make_dupin_torus(2.0, 1.0, 10, 8), "-"))
CHANGES = [None, "repeated edge", "hyperbolic vertex", "nan"]
WRITER_CHANGES = CHANGES + ["timelike", "far plane"]


def hyperbolic_partner(sigma, t):
    """Unit Moebius vector whose pencil with the unit sphere sigma has
    signature (1,1): cosh t sigma + sinh t u, u timelike unit orthogonal
    to sigma."""
    w = (L.E0 + L.EINF) / math.sqrt(2.0)
    u = w - L.inner(w, sigma) * sigma
    u = u / math.sqrt(-L.inner(u, u))
    return math.cosh(t) * sigma + math.sinh(t) * u


def changed(sc, change, k, t=0.5):
    """The curve with sphere k (taken modulo the count) replaced."""
    vs, es = sc.vertex_spheres.copy(), sc.edge_spheres.copy()
    if change == "repeated edge":
        es[(k + 1) % len(es)] = es[k % len(es)]
    elif change == "hyperbolic vertex":
        # edge min(j, E - 1) meets vertex j on an open and a closed curve
        j = k % len(vs)
        vs[j] = hyperbolic_partner(es[min(j, len(es) - 1)], t)
    elif change is not None:
        rows = vs if k % 2 else es
        rows[(k // 2) % len(rows)] = {
            "nan": np.full(6, np.nan),
            "timelike": np.array([0.0, 0.0, 0.0, 1.0, 1.0, 0.0]),
            "far plane": L.moebius_plane((0.0, 0.6, 0.8), 1e12),
        }[change]
    return L.SphereCurve(vertex_spheres=vs, edge_spheres=es, closed=sc.closed)


@st.composite
def curves(draw, changes):
    if draw(st.booleans()):
        sc = CLOSED
    else:
        sc = builder.random_sphere_curve(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                                         draw(st.integers(3, 12)))
    return changed(sc, draw(st.sampled_from(changes)), draw(st.integers(0, 63)),
                   draw(st.floats(0.1, 2.0)))


def outcome(fn, *args):
    """("ok", value) or the error's class and message."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)


def hats_of(sc):
    """The oriented lifts of the vertex spheres, unoriented where a changed
    closed curve has no consistent orientation."""
    try:
        return builder._oriented_chain(sc)
    except L.LieGeometryError:
        return list(sc.vertex_spheres + L.E6)


def circles_outcome(fn, sc):
    got = outcome(fn, sc, hats_of(sc))
    if got[0] != "ok":
        return got
    bases = np.array([c.basis for c in got[1]]) if isinstance(got[1], list) else got[1]
    return "ok", bases.shape, bases.view(np.uint64).tolist()


def assert_circles_match(sc):
    got = circles_outcome(builder._curve_circle_spaces, sc)
    assert got == circles_outcome(oracle.curve_circle_spaces, sc)
    return got


@given(sc=curves(CHANGES))
@settings(max_examples=120, deadline=None)
def test_circle_spaces_match_the_loop(sc):
    assert_circles_match(sc)


@pytest.mark.parametrize("sc, message", [
    (changed(CLOSED, None, 0), None),
    (changed(builder.random_sphere_curve(np.random.default_rng(1), 7), None, 0), None),
    (changed(builder.random_sphere_curve(np.random.default_rng(1), 7), "hyperbolic vertex", 0),
     "degenerate pencil at vertex 0 (dim 2, signature (1, 1, 0))"),
    (changed(builder.random_sphere_curve(np.random.default_rng(1), 7), "hyperbolic vertex", 3),
     "degenerate pencil at vertex 3 (dim 3, signature (2, 1, 0))"),
    (changed(CLOSED, "hyperbolic vertex", 4),
     "degenerate pencil at vertex 4 (dim 3, signature (2, 1, 0))"),
    (changed(builder.random_sphere_curve(np.random.default_rng(2), 5), "nan", 3),
     "SVD did not converge"),
])
def test_each_outcome_is_the_loops(sc, message):
    got = assert_circles_match(sc)
    assert got[0] == "ok" if message is None else got[1] == message


@given(sc=curves(WRITER_CHANGES))
@settings(max_examples=120, deadline=None)
def test_sphere_curve_file_is_the_loops(tmp_path_factory, sc):
    tmp = tmp_path_factory.mktemp("curves")
    got = outcome(io_json.save_sphere_curve, sc, tmp / "stacked.json")
    want = outcome(oracle.save_sphere_curve, sc, tmp / "loop.json")
    assert got == want
    if got[0] == "ok":
        assert (tmp / "stacked.json").read_bytes() == (tmp / "loop.json").read_bytes()


@pytest.mark.parametrize("change, k, error", [
    ("nan", 1, (L.NotALieSphereError, "not a Lie sphere: (v,v) != 0")),
    ("timelike", 4, (L.LieGeometryError, "vector has no real unoriented sphere part")),
    ("far plane", 3, (L.LieGeometryError,
                      "cannot serialize sphere vector of kind point_at_infinity")),
])
def test_writer_errors_are_the_loops(tmp_path, change, k, error):
    sc = changed(builder.random_sphere_curve(np.random.default_rng(3), 6), change, k)
    assert outcome(io_json.save_sphere_curve, sc, tmp_path / "a.json") == error
    assert outcome(oracle.save_sphere_curve, sc, tmp_path / "b.json") == error
