"""Linear algebra of the hexaspherical model R^{4,2}.

Vectors are numpy arrays of six coordinates ``(x1, x2, x3, u0, uinf, u6)``
in the fixed basis ``(e1, e2, e3, e0, einf, e6)`` with Gram matrix

    (ei, ej) = delta_ij      for i, j in {1, 2, 3}
    (e0, e0) = (einf, einf) = 0,   (e0, einf) = -1
    (e6, e6) = -1
    all other pairs 0,

so the overall signature is (4,2). Null directions represent oriented
2-spheres (the Lie quadric); totally isotropic 2-planes represent contact
elements.

Lifts, with signed radius r and unit plane normal n:

    sphere(c, r)  ->  e0 + c + (|c|^2 - r^2)/2 * einf + r * e6
    plane(n, d)   ->  n + d * einf + e6
    point(x)      ->  e0 + x + |x|^2/2 * einf

The orientation convention these lifts realize: the normal field of the
oriented sphere ``(c, r)`` is ``N(x) = (c - x)/r`` and the plane ``(n, d)``
has normal ``n``; two lifts are orthogonal exactly when the spheres are in
oriented contact, for sphere pairs ``(S1, S2) = -|c1-c2|^2/2 + (r1-r2)^2/2``.

The point sphere complex is fixed as ``p = e6`` and the Euclidean space
form vector as ``q = einf``; vectors orthogonal to ``p`` form the Moebius
subgeometry (their u6 coordinate vanishes).

Being indefinite, the metric cannot be used for rank decisions; ranks and
containment use the auxiliary Euclidean norm on coordinates, while
signatures come from eigenvalues of the restricted Gram form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .config import TOL

LieVec = np.ndarray  # shape (6,), float

# Gram matrix of the fixed basis.
GRAM = np.array(
    [
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, -1.0],
    ]
)

E1 = np.array([1.0, 0, 0, 0, 0, 0])
E2 = np.array([0, 1.0, 0, 0, 0, 0])
E3 = np.array([0, 0, 1.0, 0, 0, 0])
E0 = np.array([0, 0, 0, 1.0, 0, 0])
EINF = np.array([0, 0, 0, 0, 1.0, 0])
E6 = np.array([0, 0, 0, 0, 0, 1.0])

POINT_COMPLEX = E6   # p: lifts orthogonal to it are point spheres
SPACE_FORM = EINF    # q: Euclidean space form
NOT_A_LIE_SPHERE = "not a Lie sphere: (v,v) != 0"  # unlift off the Lie quadric


class LieGeometryError(ValueError):
    """Base class for geometric failures of this kernel."""


class NotALieSphereError(LieGeometryError):
    pass


class DegenerateGramError(LieGeometryError):
    pass


def inner(a: LieVec, b: LieVec) -> float:
    """Bilinear form of signature (4,2) on coordinate vectors."""
    return float(a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
                 - a[3] * b[4] - a[4] * b[3] - a[5] * b[5])


def inner_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`inner` of the rows of two stacks (..., 6), broadcast against each
    other, summed column by column in the order of `inner` (so bit for bit
    equal to it)."""
    return (a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]
            - a[..., 3] * b[..., 4] - a[..., 4] * b[..., 3] - a[..., 5] * b[..., 5])


def inner_matrix(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Pairwise Gram products of two stacks of vectors, shape (m, n)."""
    return rows @ GRAM @ cols.T


def aux_norm(v: LieVec) -> float:
    return float(np.linalg.norm(v))


def normalized(v: LieVec) -> LieVec:
    n = aux_norm(v)
    if n == 0.0:
        raise LieGeometryError("cannot normalize the zero vector")
    return v / n


def canonical_sign(v: LieVec) -> LieVec:
    """Flip sign so the largest-magnitude coordinate is positive; a stack
    (..., 6) is flipped row by row."""
    i = np.expand_dims(np.argmax(np.abs(v), axis=-1), -1)
    return np.where(np.take_along_axis(v, i, axis=-1) < 0, -v, v)


def dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two stacks (..., n) as batched matmul, which
    rounds exactly as ``a[k] @ b[k]`` does (einsum does not)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def first_failure(checks) -> Optional[Tuple[int, object]]:
    """Lowest index flagged by any of the (mask, message) checks, with the
    message of the first check flagging it: a str, in which "{}" is filled
    with the index, or a function of the index. None when nothing is
    flagged. This is the error a loop over the indices running the checks
    in order would raise."""
    first = None
    for bad, message in checks:
        hits = np.flatnonzero(bad)
        if hits.size and (first is None or hits[0] < first[0]):
            first = (int(hits[0]), message)
    if first is None:
        return None
    k, message = first
    return k, message(k) if callable(message) else message.format(k)


def raise_first(checks) -> None:
    """Raise the `first_failure` of the checks, if any: a message that is
    an exception as it is, a string as LieGeometryError."""
    failure = first_failure(checks)
    if failure is not None:
        raise failure[1] if isinstance(failure[1], Exception) else LieGeometryError(failure[1])


def projective_distance(a: LieVec, b: LieVec) -> float:
    """1 - |<a^, b^>| on auxiliary-normalized representatives; 0 iff parallel."""
    an, bn = normalized(a), normalized(b)
    return float(1.0 - abs(np.dot(an, bn)))


def is_null(v: LieVec, tol: Optional[float] = None) -> bool:
    t = TOL.null if tol is None else tol
    n = aux_norm(v)
    if n == 0.0:
        return True
    return abs(inner(v, v)) <= t * n * n


# ---------------------------------------------------------------------------
# lifts and their inverse


def lift_sphere(center: Sequence[float], radius: float) -> LieVec:
    c = np.asarray(center, dtype=float)
    return np.array([c[0], c[1], c[2], 1.0, 0.5 * (c @ c - radius * radius), radius])


def lift_plane(normal: Sequence[float], offset: float) -> LieVec:
    n = np.asarray(normal, dtype=float)
    if abs(np.linalg.norm(n) - 1.0) > 1e-9:
        raise LieGeometryError("plane normal must have unit length")
    return np.array([n[0], n[1], n[2], 0.0, float(offset), 1.0])


def lift_points(x: np.ndarray) -> np.ndarray:
    """Point lifts (n, 6) of a stack (n, 3) of Euclidean points."""
    p = np.asarray(x, dtype=float)
    if p.ndim != 2 or p.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) stack of points, got shape {p.shape}")
    return np.column_stack([p, np.ones(len(p)), 0.5 * dots(p, p), np.zeros(len(p))])


def lift_point(x: Sequence[float]) -> LieVec:
    return lift_points([x])[0]


def unit_point_lifts(x: np.ndarray) -> np.ndarray:
    """lift_points(x), each row `normalized` (u0 = 1, so none vanishes)."""
    lifts = lift_points(x)
    return lifts / np.sqrt(dots(lifts, lifts))[:, None]


@dataclass(frozen=True)
class SphereDescriptor:
    """Euclidean reading of a null vector: point, sphere, plane or infinity."""

    kind: str  # "point" | "sphere" | "plane" | "point_at_infinity"
    center: Optional[np.ndarray] = None
    radius: Optional[float] = None
    normal: Optional[np.ndarray] = None
    offset: Optional[float] = None


KINDS = ("point", "sphere", "plane", "point_at_infinity")  # the codes of `unlifts`


def unlifts(vectors: np.ndarray, tol: Optional[float] = None) -> Tuple[np.ndarray, np.ndarray]:
    """`unlift` of each row of a stack (..., 6): the index into KINDS of its
    kind (-1 off the Lie quadric, -2 for a zero row: both refused by
    `unlift`) and the row scaled to u0 = 1 (points and spheres) or u6 = 1
    (planes), whose coordinates are the center and radius or the normal
    and offset. Each row is `unlift` of it alone, bit for bit."""
    t = TOL.null if tol is None else tol
    v = np.asarray(vectors, dtype=float)
    norm = np.sqrt(dots(v, v))
    with np.errstate(divide="ignore", invalid="ignore"):
        n = v / norm[..., None]
        nn = np.sqrt(dots(n, n))
        null = np.abs(inner_rows(n, n)) <= t * nn * nn
        # a null unit n with |u0| <= t has |spatial|^2 <= u6^2 + 3t, so a
        # vanishing u6 leaves only the point at infinity
        at_infinity = np.abs(n[..., 3]) <= t
        w = n / np.where(at_infinity, n[..., 5], n[..., 3])[..., None]
        center = w[..., :3]
        point = np.abs(w[..., 5]) <= t * (1.0 + np.sqrt(dots(center, center)))
    kind = np.where(at_infinity, np.where(np.abs(n[..., 5]) <= t, 3, 2), np.where(point, 0, 1))
    return np.where(norm == 0.0, -2, np.where(null, kind, -1)), w


def unlift(v: LieVec, tol: Optional[float] = None) -> SphereDescriptor:
    """Classify a null vector; inverse of the lifts up to projective scale."""
    kind, w = unlifts(np.asarray(v, dtype=float)[None], tol)
    raise_first([(kind == -2, "cannot normalize the zero vector"),
                 (kind == -1, lambda _: NotALieSphereError(NOT_A_LIE_SPHERE))])
    k, w = KINDS[kind[0]], w[0].copy()
    return SphereDescriptor(kind=k, center=w[:3] if k in ("point", "sphere") else None,
                            radius=float(w[5]) if k == "sphere" else None,
                            normal=w[:3] if k == "plane" else None,
                            offset=float(w[4]) if k == "plane" else None)


def in_oriented_contact(a: LieVec, b: LieVec, tol: Optional[float] = None) -> bool:
    """Orthogonality of two null vectors, scale-invariant."""
    t = TOL.contact if tol is None else tol
    for v in (a, b):
        if not is_null(v):
            raise NotALieSphereError("in_oriented_contact expects null vectors")
    return abs(inner(a, b)) <= t * aux_norm(a) * aux_norm(b)


# ---------------------------------------------------------------------------
# subspaces


@dataclass(frozen=True)
class SignatureReport:
    n_plus: int
    n_minus: int
    n_null: int
    eigenvalues: np.ndarray = field(repr=False)

    @property
    def triple(self) -> tuple:
        return (self.n_plus, self.n_minus, self.n_null)


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of R^{4,2}, stored as auxiliary-orthonormal rows."""

    basis: np.ndarray  # (k, 6)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains(self, v: LieVec, tol: Optional[float] = None) -> bool:
        return self.residual(v) <= (TOL.membership if tol is None else tol)

    def residual(self, v: LieVec) -> float:
        """Relative distance of v from the subspace (`residuals` of one)."""
        return float(residuals(self.basis, np.asarray(v, dtype=float)))

    def restricted_gram(self) -> np.ndarray:
        return self.basis @ GRAM @ self.basis.T


def residuals(bases: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Relative distances (...) of vectors (..., 6) from the subspaces of the
    auxiliary-orthonormal bases (..., k, 6), broadcast against each other;
    0 for a zero vector. Each is the one-vector value bit for bit."""
    v = vectors[..., None]
    d = (v - np.swapaxes(bases, -1, -2) @ (bases @ v))[..., 0]
    n = np.sqrt(dots(vectors, vectors))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(n == 0.0, 0.0, np.sqrt(dots(d, d)) / n)


def spans(stacks: np.ndarray, tol: Optional[float] = None) -> Tuple[np.ndarray, np.ndarray]:
    """`span` of each stack of a (..., n, 6) array by one batched SVD: the
    right singular vectors (..., min(n, 6) or 6, 6), whose first rank rows
    are the basis, and the ranks (...), 0 where `span` refuses."""
    t = TOL.rank if tol is None else tol
    # a full U of a tall stack is n x n and thrown away; at most 6 rows keep
    # the full factorisation, whose row signs the reports were written with
    _, sv, vt = np.linalg.svd(stacks, full_matrices=stacks.shape[-2] <= 6)
    return vt, np.sum(sv > t * sv[..., :1], axis=-1)


def span(vectors: Sequence[LieVec], tol: Optional[float] = None) -> Subspace:
    """Subspace spanned by the vectors; rank via SVD with relative cutoff."""
    m = np.atleast_2d(np.asarray(vectors, dtype=float))
    if m.size == 0:
        raise LieGeometryError("span of zero vectors")
    vt, rank = spans(m, tol)
    if rank == 0:
        raise LieGeometryError("span of zero vectors")
    return Subspace(basis=vt[:rank].copy())


def signatures(bases: np.ndarray, tol: Optional[float] = None
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Restricted-form eigenvalues (..., k) and `signature` counts n_plus,
    n_minus (...) of each basis of a (..., k, 6) stack, one batched eigvalsh."""
    t = TOL.signature if tol is None else tol
    eig = np.linalg.eigvalsh(bases @ GRAM @ np.swapaxes(bases, -1, -2))
    cutoff = t * np.maximum(1e-300, np.max(np.abs(eig), axis=-1, initial=0.0))[..., None]
    return eig, np.sum(eig > cutoff, axis=-1), np.sum(eig < -cutoff, axis=-1)


def signature(s: Subspace, tol: Optional[float] = None) -> SignatureReport:
    eig, n_plus, n_minus = signatures(s.basis, tol)
    return SignatureReport(n_plus=int(n_plus), n_minus=int(n_minus),
                           n_null=s.dim - int(n_plus) - int(n_minus), eigenvalues=eig)


def orthocomplements(bases: np.ndarray) -> np.ndarray:
    """Gram-orthogonal complements (..., 6 - k, 6) of the bases of a
    (..., k, 6) stack, one batched SVD."""
    return np.linalg.svd(bases @ GRAM, full_matrices=True)[2][..., bases.shape[-2]:, :]


def orthocomplement(s: Subspace) -> Subspace:
    """Gram-orthogonal complement; dim(S) + dim(S^perp) = 6 always."""
    return Subspace(basis=orthocomplements(s.basis).copy())


def project_onto(v: np.ndarray, s: Subspace, tol: Optional[float] = None) -> np.ndarray:
    """Gram-orthogonal projection of a vector or of each row of a stack
    (..., 6); requires a nondegenerate restricted form. Each row is solved
    on its own, so a row projects bit for bit as the vector alone does."""
    t = TOL.signature if tol is None else tol
    g = s.restricted_gram()
    eig = np.abs(np.linalg.eigvalsh(g))
    if np.min(eig) <= t * max(1e-300, float(np.max(eig))):
        raise DegenerateGramError("degenerate Gram form")
    rhs = s.basis @ GRAM @ np.asarray(v, dtype=float)[..., None]
    coeff = np.linalg.solve(g, rhs)
    return (s.basis.T @ coeff)[..., 0]


def subspace_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`subspace_distance` (...) of each pair of aux-orthonormal bases of
    two (..., k, 6) stacks of one dimension k."""
    return np.maximum(residuals(b[..., None, :, :], a).max(axis=-1),
                      residuals(a[..., None, :, :], b).max(axis=-1))


def subspace_distance(a: Subspace, b: Subspace) -> float:
    """Max containment residual in both directions (0 iff equal subspaces)."""
    if a.dim != b.dim:
        return 1.0
    return float(subspace_distances(a.basis, b.basis))


def intersect(a: Subspace, b: Subspace, tol: Optional[float] = None) -> Subspace:
    """Intersection of two subspaces via the joint nullspace."""
    t = TOL.rank if tol is None else tol
    m = np.vstack([a.basis, -b.basis]).T  # (6, ka+kb)
    u, sv, vt = np.linalg.svd(m)
    cutoff = t * (sv[0] if sv.size else 0.0)
    null = vt[np.sum(sv > cutoff):]
    vecs = [a.basis.T @ x[: a.dim] for x in null]
    if not vecs:
        return Subspace(basis=np.zeros((0, 6)))
    return span(vecs, tol=t)


# ---------------------------------------------------------------------------
# Moebius subgeometry helpers (vectors orthogonal to the point sphere complex)


def moebius_part(v: LieVec) -> LieVec:
    """Component of v (or of each row of a stack) orthogonal to the point
    sphere complex (kills e6)."""
    return v + inner_rows(v, POINT_COMPLEX)[..., None] * POINT_COMPLEX


def unit_moebius_spheres(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """`unit_moebius_sphere` of each row of a stack (..., 6), and the mask
    of rows that have a real unoriented sphere part (elsewhere undefined)."""
    s = moebius_part(v)
    q = inner_rows(s, s)
    with np.errstate(divide="ignore", invalid="ignore"):
        return s / np.sqrt(q)[..., None], ~(q <= 0.0)


def unit_moebius_sphere(v: LieVec) -> LieVec:
    """Moebius part normalized to (s,s) = +1 (real, unoriented sphere)."""
    s, ok = unit_moebius_spheres(np.asarray(v, dtype=float)[None])
    if not ok[0]:
        raise LieGeometryError("vector has no real unoriented sphere part")
    return s[0]


def oriented_representative(v: LieVec) -> LieVec:
    """Rescale a null vector so (v, p) = -1; unique for non-point spheres."""
    ip = inner(v, POINT_COMPLEX)
    if abs(ip) <= 1e-14 * aux_norm(v):
        raise LieGeometryError("point sphere has no oriented representative with (v,p) = -1")
    return v / (-ip)


def moebius_sphere(center: Sequence[float], radius: float) -> LieVec:
    """Unit Moebius vector of a sphere; the sign of the radius is kept as
    orientation data (flipping it flips the vector)."""
    if radius == 0.0:
        raise LieGeometryError("Moebius sphere vector needs nonzero radius")
    v = lift_sphere(center, radius)
    v[5] = 0.0
    return v / radius


def moebius_plane(normal: Sequence[float], offset: float) -> LieVec:
    """Unit Moebius vector of an oriented plane."""
    v = lift_plane(normal, offset)
    v[5] = 0.0
    return v


def unlift_moebius(v: LieVec, tol: Optional[float] = None) -> SphereDescriptor:
    """Euclidean reading of a unit Moebius sphere vector (one orientation)."""
    u = unit_moebius_sphere(v)
    return unlift(u + E6, tol)


def unit_lift_rank(lifts: np.ndarray, tol: Optional[float] = None) -> np.ndarray:
    """Ranks (...) of a stack (..., k, 6) of unit lifts, one batched SVD:
    the count of singular values above tol times the largest."""
    sv = np.linalg.svd(lifts, compute_uv=False)
    return np.sum(sv > (TOL.rank if tol is None else tol) * sv[..., :1], axis=-1)


def moebius_point_rank(points: Sequence[Sequence[float]],
                       tol: Optional[float] = None) -> int | np.ndarray:
    """`unit_lift_rank` of the point lifts of a set (k, 3) of Euclidean
    points, an int, or of each set of a stack (..., k, 3), an int array
    (...); every point is lifted once."""
    p = np.asarray(points, dtype=float)
    rank = unit_lift_rank(unit_point_lifts(p.reshape(-1, 3)).reshape(p.shape[:-1] + (6,)), tol)
    return int(rank) if p.ndim == 2 else rank


def points_concircular(points: Sequence[Sequence[float]], tol: Optional[float] = None) -> bool:
    """Four or more points lie on a common circle (or line)."""
    return moebius_point_rank(points, tol) <= 3


def points_cospherical(points: Sequence[Sequence[float]], tol: Optional[float] = None) -> bool:
    """Points lie on a common sphere (or plane)."""
    return moebius_point_rank(points, tol) <= 4


def gram_reflection(m: LieVec, v: LieVec) -> LieVec:
    """Reflection in the hyperplane orthogonal to m (m non-null)."""
    mm = inner(m, m)
    if abs(mm) <= 1e-14 * aux_norm(m) ** 2:
        raise DegenerateGramError("cannot reflect in a null vector")
    return v - 2.0 * inner(v, m) / mm * m
