import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import liechannel as L
from liechannel.liecore import inner_rows, moebius_part, oriented_representative, subspace_distance

import kernel_oracle
from geo_helpers import unlift, unlift_moebius
from kernel_oracle import in_oriented_contact, is_null


coord = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
radius = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False).filter(
    lambda r: abs(r) > 1e-3)
point3 = st.tuples(coord, coord, coord)


def sphere_inner_oracle(c1, r1, c2, r2):
    d = np.asarray(c1) - np.asarray(c2)
    return -0.5 * float(d @ d) + 0.5 * (r1 - r2) ** 2


class TestInner:
    def test_gram_convention(self):
        assert L.inner(L.E0, L.EINF) == -1.0
        assert L.inner(L.E0, L.E0) == 0.0
        assert L.inner(L.EINF, L.EINF) == 0.0
        assert L.inner(L.E6, L.E6) == -1.0
        for e in (L.E1, L.E2, L.E3):
            assert L.inner(e, e) == 1.0
            assert L.inner(e, L.E0) == L.inner(e, L.EINF) == L.inner(e, L.E6) == 0.0

    def test_sphere_pair_values(self):
        s1 = L.lift_sphere((0, 0, 0), 1.0)
        assert L.inner(s1, L.lift_sphere((2, 0, 0), -1.0)) == pytest.approx(0.0, abs=1e-14)
        assert L.inner(s1, L.lift_sphere((3, 0, 0), 1.0)) == pytest.approx(-4.5)

    @given(point3, radius, point3, radius)
    @settings(max_examples=200)
    def test_matches_oracle(self, c1, r1, c2, r2):
        got = L.inner(L.lift_sphere(c1, r1), L.lift_sphere(c2, r2))
        assert got == pytest.approx(sphere_inner_oracle(c1, r1, c2, r2), abs=1e-9)


class TestLifts:
    def test_point_origin_is_e0(self):
        assert np.allclose(L.lift_point((0, 0, 0)), L.E0)

    def test_unit_sphere_coordinates(self):
        assert np.allclose(L.lift_sphere((0, 0, 0), 1.0), [0, 0, 0, 1, -0.5, 1])

    def test_plane_coordinates_and_incidence(self):
        p = L.lift_plane((0, 0, 1), 2.0)
        assert np.allclose(p, [0, 0, 1, 0, 2, 1])
        assert L.inner(p, L.lift_point((0, 0, 2))) == pytest.approx(0.0)
        assert L.inner(p, L.lift_point((1, 5, 2))) == pytest.approx(0.0)

    def test_plane_needs_unit_normal(self):
        with pytest.raises(L.LieGeometryError):
            L.lift_plane((0, 0, 2), 1.0)

    @given(point3, radius)
    def test_sphere_lift_null(self, c, r):
        assert is_null(L.lift_sphere(c, r))

    @given(point3)
    def test_point_lift_null_and_orthogonal_to_p(self, x):
        p = L.lift_point(x)
        assert is_null(p)
        assert L.inner(p, L.E6) == 0.0


class TestUnlift:
    def test_unit_sphere(self):
        kind, w = unlift(np.array([0, 0, 0, 1.0, -0.5, 1.0]))
        assert kind == "sphere"
        assert np.allclose(w[:3], 0) and w[5] == pytest.approx(1.0)

    def test_point_at_infinity(self):
        assert unlift(L.EINF)[0] == "point_at_infinity"

    def test_plane(self):
        kind, w = unlift(L.E1 + 2 * L.EINF + L.E6)
        assert kind == "plane"
        assert np.allclose(w[:3], (1, 0, 0)) and w[4] == pytest.approx(2.0)

    def test_rejects_non_null(self):
        assert unlift(L.E1)[0] == -1

    @given(point3, radius)
    def test_roundtrip_sphere(self, c, r):
        kind, w = unlift(3.7 * L.lift_sphere(c, r))
        assert kind == "sphere"
        assert np.allclose(w[:3], c, atol=1e-10 * (1 + np.linalg.norm(c)))
        assert w[5] == pytest.approx(r, rel=1e-10)

    @given(point3)
    def test_roundtrip_point(self, x):
        kind, w = unlift(L.lift_point(x))
        assert kind == "point"
        assert np.allclose(w[:3], x, atol=1e-10 * (1 + np.linalg.norm(x)))

    def test_roundtrip_plane(self):
        kind, w = unlift(-2.0 * L.lift_plane((0.6, 0.8, 0), -1.25))
        assert kind == "plane"
        assert np.allclose(w[:3], (0.6, 0.8, 0)) and w[4] == pytest.approx(-1.25)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [(1e5, 0, 0), (0, -3e5, 4e5), (1e6, 1e6, 1e6), (1e50, 0, 0)])
    def test_far_point_is_point_at_infinity(self, x):
        # |u0| and u6 vanish under the null cutoff while the spatial part
        # does not: no division by u6 = 0, no plane of non-finite normal
        assert unlift(L.lift_point(x))[0] == "point_at_infinity"

    @pytest.mark.filterwarnings("error")
    def test_near_point_and_steep_plane_unchanged(self):
        kind, w = unlift(L.lift_point((1e4, 0, 0)))
        assert kind == "point" and w[0] == pytest.approx(1e4)
        kind, w = unlift(L.lift_plane((1.0, 0, 0), 1e5))
        assert kind == "plane" and w[4] == pytest.approx(1e5)


    @pytest.mark.filterwarnings("error")
    @given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-9, 1.0, 1e9]))
    @settings(max_examples=40, deadline=None)
    def test_stack_equals_the_one_vector_oracle(self, seed, scale):
        rng = np.random.default_rng(seed)
        c, n = rng.normal(size=(4, 3)), rng.normal(size=(2, 3))
        rows = [L.lift_point(c[0]), L.lift_sphere(c[1], 0.7), L.lift_sphere(c[2], -1e-12),
                L.lift_plane(n[0] / np.linalg.norm(n[0]), 0.4), L.lift_point(1e6 * c[3]),
                L.lift_plane(n[1] / np.linalg.norm(n[1]), 1e10), rng.normal(size=6), np.zeros(6)]
        stack = scale * np.array(rows)
        kind, w = L.liecore.unlifts(stack)
        for k, v, row in zip(kind.tolist(), stack, w):
            try:
                want = kernel_oracle.unlift(v)
            except L.LieGeometryError as exc:
                assert (k, str(exc)) in ((-1, L.liecore.NOT_A_LIE_SPHERE),
                                         (-2, "cannot normalize the zero vector"))
                continue
            assert L.liecore.KINDS[k] == want[0]
            got = {"plane": (row[:3], row[4]), "sphere": (row[:3], row[5]),
                   "point": (row[:3],), "point_at_infinity": ()}[want[0]]
            expected = [x for x in want[1:] if x is not None]
            assert all(np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))
                       for a, b in zip(got, expected))


class TestOrientedContact:
    def test_examples(self):
        s0 = L.lift_sphere((0, 0, 0), 1.0)
        assert in_oriented_contact(s0, L.lift_sphere((2, 0, 0), -1.0))
        assert not in_oriented_contact(s0, L.lift_sphere((2, 0, 0), 1.0))
        assert in_oriented_contact(s0, s0)

    @given(point3, radius, point3, radius)
    @settings(max_examples=300)
    def test_iff_tangency_equation(self, c1, r1, c2, r2):
        d = np.asarray(c1, dtype=float) - np.asarray(c2)
        lhs, rhs = float(d @ d), (r1 - r2) ** 2
        expected = abs(lhs - rhs) <= 1e-9 * max(1.0, lhs, rhs)
        got = in_oriented_contact(L.lift_sphere(c1, r1), L.lift_sphere(c2, r2))
        if abs(lhs - rhs) > 1e-7 * max(1.0, lhs, rhs) or expected:
            assert got == expected


class TestSubspaces:
    def test_signature_examples(self):
        assert L.signature(L.span([L.E1, L.E2, L.E6])).triple == (2, 1, 0)
        assert L.signature(L.span([L.E1, L.E2, L.EINF])).triple == (2, 0, 1)
        moebius = L.orthocomplement(L.span([L.E6]))
        assert L.signature(moebius).triple == (4, 1, 0)

    def test_ambient_signature(self):
        full = L.span([L.E1, L.E2, L.E3, L.E0, L.EINF, L.E6])
        assert L.signature(full).triple == (4, 2, 0)

    def test_complement_dimensions_and_involution(self):
        rng = np.random.default_rng(0)
        for k in (1, 2, 3, 4, 5):
            s = L.span(rng.normal(size=(k, 6)))
            comp = L.orthocomplement(s)
            assert s.dim + comp.dim == 6
            assert subspace_distance(L.orthocomplement(comp), s) < 1e-10

    def test_complement_signature_rule(self):
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 25:
            k = int(rng.integers(1, 6))
            s = L.span(rng.normal(size=(k, 6)))
            sig = L.signature(s)
            if sig.n_null:
                continue
            comp_sig = L.signature(L.orthocomplement(s))
            assert comp_sig.n_plus == 4 - sig.n_plus
            assert comp_sig.n_minus == 2 - sig.n_minus
            checked += 1

    def test_projection_is_gram_orthogonal(self):
        rng = np.random.default_rng(2)
        s = L.span([L.lift_sphere((1, 0, 0), 0.5), L.lift_sphere((0, 1, 0), -0.5),
                    L.E3])
        for _ in range(10):
            v = rng.normal(size=6)
            pr = L.project_onto(v, s)
            for b in s.basis:
                assert L.inner(v - pr, b) == pytest.approx(0.0, abs=1e-9)

    def test_projection_onto_degenerate_fails(self):
        with pytest.raises(L.DegenerateGramError, match="degenerate Gram form"):
            L.project_onto(L.E1, L.span([L.EINF]))

    def test_span_of_zero_fails(self):
        with pytest.raises(L.LieGeometryError):
            L.span([np.zeros(6)])

    def test_projection_of_a_stack_is_rowwise(self):
        rng = np.random.default_rng(4)
        s = L.span([L.lift_sphere((1, 0, 0), 0.5), L.lift_sphere((0, 1, 0), -0.5), L.E3])
        stack = rng.normal(size=(7, 6))
        rows = np.array([L.project_onto(v, s) for v in stack])
        assert np.array_equal(L.project_onto(stack, s).view(np.uint64), rows.view(np.uint64))

    def test_inner_rows_equals_inner(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(9, 6)), rng.normal(size=(9, 6))
        assert inner_rows(a, b).tolist() == [L.inner(x, y) for x, y in zip(a, b)]

    @given(dim=st.integers(0, 6), scale=st.sampled_from([1e-6, 1.0, 1e6]),
           near=st.sampled_from([0.0, 1e-12, 1e-6, 1.0]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_residuals_equal_the_one_vector_oracle(self, dim, scale, near, seed):
        rng = np.random.default_rng(seed)
        bases = np.array([np.linalg.svd(rng.normal(size=(6, 6)))[2][:dim] for _ in range(5)])
        # vectors near each subspace, far from it, and the zero vector
        vectors = scale * (rng.normal(size=(5, 4, dim)) @ bases
                           + near * rng.normal(size=(5, 4, 6)))
        vectors[:, 0] = 0.0
        want = np.array([[kernel_oracle.subspace_residual(b, v) for v in vs]
                         for b, vs in zip(bases, vectors)])
        got = L.liecore.residuals(bases[:, None], vectors)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert all(L.Subspace(bases[k]).residual(vectors[k, j]) == want[k, j]
                   for k in range(5) for j in range(4))

    @given(dim=st.integers(1, 4), near=st.sampled_from([0.0, 1e-12, 1e-6, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_stacked_spans_equal_one_by_one(self, dim, near, seed):
        rng = np.random.default_rng(seed)
        a = np.array([np.linalg.svd(rng.normal(size=(6, 6)))[2][:dim] for _ in range(5)])
        b = np.array([np.linalg.svd(x + near * rng.normal(size=x.shape))[2][:dim] for x in a])
        got = L.liecore.subspace_distances(a, b)
        want = [max(max(kernel_oracle.subspace_residual(y, v) for v in x),
                    max(kernel_oracle.subspace_residual(x, v) for v in y)) for x, y in zip(a, b)]
        assert got.tolist() == want
        stacks = rng.normal(size=(5, dim + 1, 6))
        stacks[0, -1] = stacks[0, 0]
        vt, rank = L.liecore.spans(stacks)
        for k, m in enumerate(stacks):
            assert np.array_equal(vt[k, :rank[k]], L.span(m).basis)
            assert np.array_equal(L.liecore.orthocomplements(vt[k, None, :rank[k]])[0],
                                  L.orthocomplement(L.span(m)).basis)
        eig, n_plus, n_minus = L.liecore.signatures(b)
        assert [(p, m) for p, m in zip(n_plus.tolist(), n_minus.tolist())] == \
            [L.signature(L.Subspace(x)).triple[:2] for x in b]

    def test_span_memory_is_linear_in_rows(self):
        # a full SVD of a (4096, 6) stack allocates a 4096 x 4096 U (134 MB)
        stack = np.random.default_rng(6).normal(size=(4096, 6))
        tracemalloc.start()
        try:
            basis = L.span(stack).basis
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert basis.shape == (6, 6)
        assert peak < 1_000_000


class TestMoebiusHelpers:
    def test_moebius_part_kills_e6(self):
        v = L.lift_sphere((1, 2, 3), 0.7)
        assert moebius_part(v)[5] == pytest.approx(0.0)
        assert L.inner(moebius_part(v), L.E6) == pytest.approx(0.0)

    def test_unit_sphere_vector(self):
        s = L.moebius_sphere((1, 0, 0), 2.0)
        assert L.inner(s, s) == pytest.approx(1.0)
        assert np.allclose(L.moebius_sphere((1, 0, 0), -2.0), -s)

    def test_oriented_representative(self):
        v = 3.1 * L.lift_sphere((1, 1, 0), -0.8)
        w = oriented_representative(v)
        assert L.inner(w, L.E6) == pytest.approx(-1.0)
        with pytest.raises(L.LieGeometryError):
            oriented_representative(L.lift_point((1, 2, 3)))

    def test_unlift_moebius(self):
        kind, w = unlift_moebius(L.moebius_plane((1, 0, 0), 0.5))
        assert kind == "plane" and w[4] == pytest.approx(0.5)

    def test_concircular_and_cospherical(self):
        circ = [(math.cos(t), math.sin(t), 0.0) for t in (0.1, 1.0, 2.2, 4.0)]
        assert L.points_concircular(circ)
        assert L.liecore.moebius_point_rank(circ + [(0, 0, 1)]) <= 4  # cospherical
        assert not L.points_concircular(circ[:3] + [(0.3, 0.4, 0.8)])
