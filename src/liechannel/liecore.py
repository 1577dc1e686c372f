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


def first_failure(checks) -> Optional[Tuple[int, str]]:
    """Lowest index flagged by any of the (mask, message) checks, with the
    message of the first check flagging it ("{}" is filled with the index);
    None when nothing is flagged. This is the error a loop over the indices
    running the checks in order would raise."""
    first = None
    for bad, message in checks:
        hits = np.flatnonzero(bad)
        if hits.size and (first is None or hits[0] < first[0]):
            first = (int(hits[0]), message)
    return None if first is None else (first[0], first[1].format(first[0]))


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


def lift_point(x: Sequence[float]) -> LieVec:
    p = np.asarray(x, dtype=float)
    return np.array([p[0], p[1], p[2], 1.0, 0.5 * (p @ p), 0.0])


@dataclass(frozen=True)
class SphereDescriptor:
    """Euclidean reading of a null vector: point, sphere, plane or infinity."""

    kind: str  # "point" | "sphere" | "plane" | "point_at_infinity"
    center: Optional[np.ndarray] = None
    radius: Optional[float] = None
    normal: Optional[np.ndarray] = None
    offset: Optional[float] = None


def unlift(v: LieVec, tol: Optional[float] = None) -> SphereDescriptor:
    """Classify a null vector; inverse of the lifts up to projective scale."""
    t = TOL.null if tol is None else tol
    n = normalized(v)
    if not is_null(n, t):
        raise NotALieSphereError("not a Lie sphere: (v,v) != 0")
    u0 = n[3]
    if abs(u0) <= t:
        spatial = n[:3]
        if np.linalg.norm(spatial) <= t and abs(n[5]) <= t:
            return SphereDescriptor(kind="point_at_infinity")
        # null with u0 = 0 forces |spatial| = |u6| != 0
        w = n / n[5]
        return SphereDescriptor(kind="plane", normal=w[:3].copy(), offset=float(w[4]))
    w = n / u0
    center = w[:3].copy()
    radius = float(w[5])
    if abs(radius) <= t * (1.0 + np.linalg.norm(center)):
        return SphereDescriptor(kind="point", center=center)
    return SphereDescriptor(kind="sphere", center=center, radius=radius)


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

    def aux_project(self, v: LieVec) -> LieVec:
        """Euclidean projection onto the subspace (for containment tests)."""
        return self.basis.T @ (self.basis @ v)

    def contains(self, v: LieVec, tol: Optional[float] = None) -> bool:
        return self.residual(v) <= (TOL.membership if tol is None else tol)

    def residual(self, v: LieVec) -> float:
        """Relative distance of v from the subspace."""
        n = aux_norm(v)
        if n == 0.0:
            return 0.0
        return float(np.linalg.norm(v - self.aux_project(v)) / n)

    def restricted_gram(self) -> np.ndarray:
        return self.basis @ GRAM @ self.basis.T


def span(vectors: Sequence[LieVec], tol: Optional[float] = None) -> Subspace:
    """Subspace spanned by the vectors; rank via SVD with relative cutoff."""
    t = TOL.rank if tol is None else tol
    m = np.atleast_2d(np.asarray(vectors, dtype=float))
    if m.size == 0:
        raise LieGeometryError("span of zero vectors")
    _, sv, vt = np.linalg.svd(m)
    if sv[0] == 0.0:
        raise LieGeometryError("span of zero vectors")
    rank = int(np.sum(sv > t * sv[0]))
    return Subspace(basis=vt[:rank].copy())


def signature(s: Subspace, tol: Optional[float] = None) -> SignatureReport:
    t = TOL.signature if tol is None else tol
    eig = np.linalg.eigvalsh(s.restricted_gram())
    cutoff = t * max(1e-300, float(np.max(np.abs(eig)))) if eig.size else 0.0
    n_plus = int(np.sum(eig > cutoff))
    n_minus = int(np.sum(eig < -cutoff))
    return SignatureReport(n_plus=n_plus, n_minus=n_minus,
                           n_null=s.dim - n_plus - n_minus, eigenvalues=eig)


def orthocomplement(s: Subspace) -> Subspace:
    """Gram-orthogonal complement; dim(S) + dim(S^perp) = 6 always."""
    m = s.basis @ GRAM
    _, _, vt = np.linalg.svd(m, full_matrices=True)
    return Subspace(basis=vt[s.dim:].copy())


def project_onto(v: LieVec, s: Subspace, tol: Optional[float] = None) -> LieVec:
    """Gram-orthogonal projection; requires a nondegenerate restricted form."""
    t = TOL.signature if tol is None else tol
    g = s.restricted_gram()
    eig = np.abs(np.linalg.eigvalsh(g))
    if np.min(eig) <= t * max(1e-300, float(np.max(eig))):
        raise DegenerateGramError("degenerate Gram form")
    rhs = s.basis @ GRAM @ v
    coeff = np.linalg.solve(g, rhs)
    return s.basis.T @ coeff


def subspace_distance(a: Subspace, b: Subspace) -> float:
    """Max containment residual in both directions (0 iff equal subspaces)."""
    if a.dim != b.dim:
        return 1.0
    ra = max(b.residual(v) for v in a.basis)
    rb = max(a.residual(v) for v in b.basis)
    return max(ra, rb)


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
    """Component of v orthogonal to the point sphere complex (kills e6)."""
    return v + inner(v, POINT_COMPLEX) * POINT_COMPLEX


def unit_moebius_sphere(v: LieVec) -> LieVec:
    """Moebius part normalized to (s,s) = +1 (real, unoriented sphere)."""
    s = moebius_part(v)
    q = inner(s, s)
    if q <= 0.0:
        raise LieGeometryError("vector has no real unoriented sphere part")
    return s / np.sqrt(q)


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


def moebius_point_rank(points: Sequence[Sequence[float]], tol: Optional[float] = None) -> int:
    """Rank of the normalized Moebius lifts of Euclidean points."""
    t = TOL.rank if tol is None else tol
    lifts = np.array([normalized(lift_point(p)) for p in points])
    sv = np.linalg.svd(lifts, compute_uv=False)
    return int(np.sum(sv > t * sv[0]))


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
