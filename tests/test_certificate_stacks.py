"""The stacked channel certificate equals the per-item oracle.

Every stack of a certificate (line spheres, the two cyclide bases, circle
spaces, face, quer and face-quer spheres), its agreement, both residuals
of `certificate_residuals` and its serialisation must equal `report_oracle`
bit for bit, and a failure must have the oracle's check, location, class
and message. The nets are tori from 3^2 to 16^2, every generator kind,
built nets and the reflection examples. Before the checks a drawn vertex
may be moved, or the curvature spheres of a drawn line's edges at a drawn
vertex, or a drawn ribbon's edge sphere, each by 1e-12 to 1e-3, so that
`verify_channel` fails at a drawn line or ribbon; after them a drawn line
sphere may be made a point sphere and a drawn ribbon's D- basis moved, so
that the completion fails at a drawn place.
"""

import json
from collections import Counter
from unittest import mock

import numpy as np
from hypothesis import event, given, settings, strategies as st

import liechannel as L
from liechannel import channel, io_json
from liechannel.builder import (
    channel_from_sphere_curve, make_dupin_torus, make_reflection_example, random_sphere_curve,
)
from liechannel.cellcomplex import MINUS, PLUS
from liechannel.cli import random_generator_net

import report_oracle as oracle


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def outcome(fn, *args):
    """("ok", value) or (exception class, message)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the class is part of the outcome
        return type(exc), str(exc)


def bases(subspaces):
    return np.array([s.basis for s in subspaces]).reshape(-1, 3, 6)


def assert_matches_oracle(net, data=None):
    for d in (PLUS, MINUS):
        got, want = channel.verify_channel(net, d), oracle.oracle_certificate(net, d)
        if data is not None:
            event(f"verify_channel {d}: {got.check if not got.ok else 'ok'}")
        assert got.ok == want.ok
        if not got.ok:
            assert vars(got) == vars(want)
            continue
        assert same_bits(got.line_spheres, np.array(want.line_spheres).reshape(-1, 6))
        assert same_bits(got.dplus, bases(cy.dplus for cy in want.cyclides))
        assert same_bits(got.dminus, bases(cy.dminus for cy in want.cyclides))
        assert same_bits(got.constancy_residual, want.constancy_residual)
        assert all(same_bits(a.dplus.basis, b.dplus.basis) and
                   same_bits(a.dminus.basis, b.dminus.basis)
                   for a, b in zip(got.cyclides, want.cyclides))
        residuals, wanted = float_residuals(got, net), oracle.oracle_residuals(want, net)
        assert residuals.keys() == wanted.keys()
        assert all(same_bits(residuals[k], wanted[k]) for k in wanted)
        if data is not None:
            inject(data, got, want)
        done = outcome(channel.complete_certificate, got, net)
        wanted = outcome(oracle.oracle_complete, want, net)
        if data is not None:
            event(f"completion {d}: {done[0] if done[0] == 'ok' else done[1][:20]}")
        assert done[0] == wanted[0]
        if done[0] != "ok":
            assert done[1] == wanted[1]
            assert got.circle_spaces is None
            continue
        assert same_bits(got.circle_spaces, bases(want.circles))
        assert same_bits(got.circle_agreement, want.circle_agreement)
        for name in ("face_spheres", "quer_spheres", "face_quer_spheres"):
            assert same_bits(getattr(got, name), np.array(getattr(want, name)).reshape(-1, 6))
        for circle, space in zip(got.circles, want.circles):
            assert same_bits(circle.dplus.basis, space.basis)
            assert same_bits(circle.dminus.basis, L.orthocomplement(space).basis)
        serialised = [outcome(lambda c, f=f: json.dumps(f(c, net)), cert) for f, cert in
                      ((io_json.certificate_to_dict, got), (oracle.oracle_certificate_dict, want))]
        assert serialised[0] == serialised[1]


def float_residuals(cert, net):
    """certificate_residuals, whose values must be Python floats."""
    out = channel.certificate_residuals(cert, net)
    assert all(type(v) is float for v in out.values())
    return out


SCALES = st.sampled_from([1e-12, 1e-9, 1e-7, 1e-5, 1e-3])


def moved_vertex(data, net):
    """The net with a drawn vertex moved by a drawn amount (normals kept)."""
    if not data.draw(st.booleans(), label="moved vertex"):
        return net
    v = data.draw(st.integers(0, net.complex.n_vertices - 1), label="vertex")
    points, normals = net.vertex_points(), io_json.net_to_dict(net)["vertices"]
    points[v] += data.draw(SCALES, label="vertex scale") * np.random.default_rng(v).normal(size=3)
    return L.net_from_points_normals(net.complex, points,
                                     np.array([doc["normal"] for doc in normals]))


def moved_spheres(data, net):
    """Move the curvature spheres of a drawn line's edges at a drawn vertex,
    and a drawn ribbon's edge sphere, each by a drawn amount: rows of the
    net's edge-sphere array, which `verify_channel` reads."""
    L.is_legendre(net)
    coords = net.complex.coordinates(data.draw(st.sampled_from([PLUS, MINUS]), label="label"))
    rng = np.random.default_rng(7)
    moved = []
    if coords.lines and data.draw(st.booleans(), label="moved line spheres"):
        li = data.draw(st.integers(0, len(coords.lines) - 1), label="line")
        v = data.draw(st.sampled_from(coords.lines[li]), label="line vertex")
        moved += [e for e in coords.line_edges[li] if v in net.complex.edge_ends[e]]
    if coords.ribbons and data.draw(st.booleans(), label="moved ribbon sphere"):
        ri = data.draw(st.integers(0, len(coords.ribbons) - 1), label="ribbon")
        moved.append(data.draw(st.sampled_from(coords.ribbon_edges[ri]), label="ribbon edge"))
    for e in (e for e in moved if e not in net.edge_failures):
        net.edge_spheres[e] = net.edge_spheres[e] + data.draw(SCALES, label="sphere scale") * \
            rng.normal(size=6)
    return net


def inject(data, got, want):
    """Make a drawn line sphere a point sphere and move a drawn ribbon's D-,
    in both certificates alike."""
    if data.draw(st.booleans(), label="point sphere line"):
        li = data.draw(st.integers(0, len(got.lines) - 1), label="line")
        got.line_spheres[li] = want.line_spheres[li] = L.lift_point((0.3, -0.2, 0.1))
    if data.draw(st.booleans(), label="moved ribbon"):
        ri = data.draw(st.integers(0, len(got.ribbons) - 1), label="ribbon")
        scale = data.draw(SCALES, label="scale")
        moved = got.dminus[ri] + scale * np.random.default_rng(ri).normal(size=(3, 6))
        got.dminus[ri] = moved
        cy = want.cyclides[ri]
        want.cyclides[ri] = L.DupinCyclide(dplus=cy.dplus, dminus=L.Subspace(moved.copy()))


@given(m=st.integers(3, 16), n=st.integers(3, 16), big=st.floats(1.5, 3.0),
       ratio=st.floats(0.2, 0.7), data=st.data())
@settings(max_examples=20, deadline=None)
def test_tori_match_oracle(m, n, big, ratio, data):
    net = moved_vertex(data, make_dupin_torus(big, big * ratio, m, n))
    assert_matches_oracle(moved_spheres(data, net), data)


@given(kind=st.sampled_from(["revolution", "cylinder", "cone"]), seed=st.integers(0, 10_000),
       n=st.integers(2, 7), m=st.integers(3, 7), data=st.data())
@settings(max_examples=30, deadline=None)
def test_generators_match_oracle(kind, seed, n, m, data):
    net = moved_vertex(data, random_generator_net(kind, seed, n, m))
    assert_matches_oracle(moved_spheres(data, net), data)


@given(seed=st.integers(0, 10_000), spheres=st.integers(4, 9), samples=st.integers(4, 10),
       data=st.data())
@settings(max_examples=15, deadline=None)
def test_built_nets_match_oracle(seed, spheres, samples, data):
    try:
        built = channel_from_sphere_curve(
            random_sphere_curve(np.random.default_rng(seed), spheres), samples)
    except L.LieGeometryError:
        return
    assert_matches_oracle(moved_spheres(data, built.net), data)


@given(kind=st.sampled_from([1, 2, 3]), seed=st.integers(0, 10_000), data=st.data())
@settings(max_examples=15, deadline=None)
def test_reflection_examples_match_oracle(kind, seed, data):
    assert_matches_oracle(moved_spheres(data, make_reflection_example(kind, seed=seed)), data)


def test_completion_failures_match_oracle():
    # '-' ribbons of one face each, whose circles disagree on a shared line
    net = random_generator_net("revolution", 0, 2, 3)
    assert_matches_oracle(net)
    assert outcome(L.full_certificate, net, MINUS)[0] is L.LieGeometryError


def test_membership_error_precedes_a_later_line():
    # line 0 of an open revolution net bounds one ribbon: moving that
    # ribbon's D- moves line 0's circle off its vertices, and line 1's two
    # circles disagree; the loop meets vertex 0 of line 0 first
    net = random_generator_net("revolution", 3, 5, 6)
    got, want = channel.verify_channel(net, PLUS), oracle.oracle_certificate(net, PLUS)
    assert len(got.line_ribbons[0]) == 1
    ri = got.line_ribbons[0][0]
    got.dminus[ri] = got.dminus[ri] + 1e-5 * np.arange(18).reshape(3, 6)
    want.cyclides[ri] = L.DupinCyclide(dplus=want.cyclides[ri].dplus,
                                       dminus=L.Subspace(got.dminus[ri].copy()))
    done = outcome(channel.complete_certificate, got, net)
    assert done == outcome(oracle.oracle_complete, want, net)
    assert done[1].startswith(f"vertex {got.lines[0][0]} does not lie on the generating circle "
                              "of line 0")


def test_residuals_make_no_per_vector_call():
    net = make_dupin_torus(2.0, 0.8, 8, 8)
    cert = L.full_certificate(net, PLUS)
    with mock.patch.object(L.Subspace, "residual", side_effect=AssertionError):
        channel.certificate_residuals(cert, net)


def completion_svds(n):
    net = make_dupin_torus(2.0, 0.8, n, n)
    cert = L.verify_channel(net, PLUS)
    counts = Counter()
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    with mock.patch.object(np.linalg, "svd", counted):
        channel.complete_certificate(cert, net)
        channel.certificate_residuals(cert, net)
    return counts["svd"], len(cert.lines), len(cert.ribbons)


def test_completion_svds_do_not_grow_with_the_net():
    # one batched SVD per stage: the touching spans, the face sphere's span
    # and orthocomplement, the quer pencil's two, the face-quer sphere's
    # circle normals (span and orthocomplement) and candidate images
    counts = {n: completion_svds(n) for n in (8, 32)}
    assert {n: (lines, ribbons) for n, (_, lines, ribbons) in counts.items()} == {
        8: (8, 7), 32: (32, 31)}
    assert counts[8][0] == counts[32][0] == 8
