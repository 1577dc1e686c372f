"""Discrete Legendre maps and face-cyclide families.

A contact element is a totally isotropic 2-plane of R^{4,2}; a discrete
Legendre map assigns one to every vertex of a labelled quad complex so that
adjacent elements meet in a line, the curvature sphere of the edge.

A Dupin cyclide is an orthogonal splitting of R^{4,2} into two
(2,1)-planes; the null cones of the two components are its two curvature
sphere families. A face-cyclide of a face carries the face's two '+'
curvature spheres in one component and the two '-' spheres in the other.
For a nondegenerate face these constraints leave a 1-parameter family:
with U = span(s+ pair), V = span(s- pair), the complement W = (U + V)^perp
is positive definite of dimension 2, and the family is

    t  ->  ( U + <cos t w1 + sin t w2>,  V + <-sin t w1 + cos t w2> )

for an orthonormal basis (w1, w2) of W. The parameter is periodic with
period pi; every member is a valid Dupin cyclide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import TOL
from . import liecore as lc
from .liecore import (
    GRAM, LieVec, LieGeometryError, Subspace, inner, canonical_sign,
    orthocomplement, signature, span,
)
from .cellcomplex import QuadComplex


class NotInContactError(LieGeometryError):
    pass


class IdenticalContactElementsError(LieGeometryError):
    pass


class DegenerateFaceError(LieGeometryError):
    pass


class ContactElementError(LieGeometryError):
    """Data of one vertex of a stack that defines no contact element."""

    def __init__(self, vertex: int, message: str):
        super().__init__(message)
        self.vertex = vertex


_NOT_2D = "contact element must be 2-dimensional"
_NOT_ISOTROPIC = "contact element plane is not totally isotropic"
NO_POINT_SPHERE = "contact element orthogonal to the point sphere complex"
NO_PLANE_LIFT = "contact element has no plane representative"


def _isotropy(bases: np.ndarray) -> np.ndarray:
    """Largest restricted Gram entry of each basis of a (V, 2, 6) stack."""
    g = bases @ GRAM @ bases.transpose(0, 2, 1)
    return np.max(np.abs(g), axis=(1, 2))


def _pencil_members(bases: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Unit member with vanishing coordinate k of each pencil of a (V, 2, 6)
    stack, canonically signed, and the mask of pencils where it is defined."""
    b1, b2 = bases[:, 0], bases[:, 1]
    v = b2[:, k, None] * b1 - b1[:, k, None] * b2
    n = np.sqrt(lc.dots(v, v))
    with np.errstate(divide="ignore", invalid="ignore"):
        return canonical_sign(v / n[:, None]), n > TOL.membership


def point_spheres(bases: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Point sphere of each contact element (u6 = 0) and where it exists."""
    return _pencil_members(bases, 5)


def plane_lifts(bases: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Tangent plane lift of each contact element (u0 = 0) and where it exists."""
    return _pencil_members(bases, 3)


@dataclass(frozen=True)
class ContactElement:
    """Totally isotropic 2-plane, stored with an aux-orthonormal basis."""

    space: Subspace

    def __post_init__(self):
        if self.space.dim != 2:
            raise LieGeometryError(_NOT_2D)
        if not _isotropy(self.space.basis[None])[0] <= TOL.membership:
            raise LieGeometryError(_NOT_ISOTROPIC)

    @property
    def basis(self) -> np.ndarray:
        return self.space.basis

    def contains(self, v: LieVec, tol: Optional[float] = None) -> bool:
        return self.space.contains(v, tol)

    def point_sphere(self) -> LieVec:
        """The unique direction orthogonal to the point sphere complex."""
        p, ok = point_spheres(self.basis[None])
        if not ok[0]:
            raise LieGeometryError(NO_POINT_SPHERE)
        return p[0]

    def plane_lift(self) -> LieVec:
        """The unique direction with vanishing e0 coordinate (tangent plane lift)."""
        pl, ok = plane_lifts(self.basis[None])
        if not ok[0]:
            raise LieGeometryError(NO_PLANE_LIFT)
        return pl[0]


def point_normal_generators(points: np.ndarray, normals: np.ndarray
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """(V, 2, 6) point and tangent plane lifts of points with normals, and
    the mask of normals that are not of unit length."""
    x = np.asarray(points, dtype=float)
    n = np.asarray(normals, dtype=float)
    gens = np.zeros((len(x), 2, 6))
    with np.errstate(over="ignore", invalid="ignore"):
        gens[:, 0] = lc.lift_points(x)
        gens[:, 1, :3] = n
        gens[:, 1, 4] = lc.dots(n, x)
        gens[:, 1, 5] = 1.0
        return gens, np.abs(np.sqrt(lc.dots(n, n)) - 1.0) > 1e-9


def contact_bases(generators: np.ndarray,
                  bad_normals: Optional[np.ndarray] = None) -> np.ndarray:
    """Aux-orthonormal bases (V, 2, 6) of the planes spanned by a (V, 2, 6)
    stack of generator pairs, with one batched SVD.

    Raises ContactElementError for the first vertex whose generators are
    not finite, whose normal is flagged in ``bad_normals``, or whose span
    is not a totally isotropic 2-plane (rank cutoff sv > TOL.rank * sv[0]
    as in ``span``).
    """
    gens = np.asarray(generators, dtype=float)
    finite = np.isfinite(gens).all(axis=(1, 2))
    if not finite.all():
        gens = np.where(finite[:, None, None], gens, 0.0)
    _, sv, vt = np.linalg.svd(gens)
    bases = np.ascontiguousarray(vt[:, :2])
    failure = lc.first_failure([
        (~finite, "non-finite coordinate"),
        (np.zeros(len(gens), bool) if bad_normals is None else bad_normals,
         "normal must have unit length"),
        (sv[:, 0] == 0.0, "span of zero vectors"),
        (np.sum(sv > TOL.rank * sv[:, :1], axis=1) != 2, _NOT_2D),
        (~(_isotropy(bases) <= TOL.membership), _NOT_ISOTROPIC),
    ])
    if failure is not None:
        raise ContactElementError(*failure)
    return bases


def _element(basis: np.ndarray) -> ContactElement:
    """Contact element of a basis that contact_bases has validated; the
    check of the constructor is not run again."""
    el = object.__new__(ContactElement)
    object.__setattr__(el, "space", Subspace(basis=basis))
    return el


def contact_from_point_normal(x: Sequence[float], n: Sequence[float]) -> ContactElement:
    """Contact element of a point with unit normal: <point lift, tangent plane lift>."""
    return _element(contact_bases(*point_normal_generators([x], [n]))[0])


def contact_from_vectors(a: LieVec, b: LieVec) -> ContactElement:
    return _element(contact_bases(np.array([[a, b]], dtype=float))[0])


def curvature_spheres(a: np.ndarray, b: np.ndarray
                      ) -> Tuple[np.ndarray, Dict[int, LieGeometryError]]:
    """Common null directions of the contact element pairs (a[e], b[e]).

    a and b are (E, 2, 6) basis stacks. The meets come from one batched SVD
    of the (E, 6, 4) stack [a_e | -b_e]^T with nullity counted by the cutoff
    sv > TOL.rank * sv[0], and are normalised by a batched SVD of (E, 1, 6);
    the result is canonically signed. Returns the (E, 6) spheres and, in
    pair order, the error of every pair that does not meet in a line (its
    row is undefined).
    """
    m = np.concatenate([a, -b], axis=1).transpose(0, 2, 1)
    _, sv, vt = np.linalg.svd(m)
    nullity = 4 - np.sum(sv > TOL.rank * sv[:, :1], axis=1)
    meet = (a.transpose(0, 2, 1) @ vt[:, 3, :2, None])[:, :, 0]
    _, msv, mvt = np.linalg.svd(meet[:, None, :])
    failures: Dict[int, LieGeometryError] = {}
    for e in np.flatnonzero((nullity != 1) | (msv[:, 0] == 0.0)).tolist():
        if nullity[e] >= 2:
            failures[e] = IdenticalContactElementsError("identical contact elements")
        elif nullity[e] == 0:
            failures[e] = NotInContactError("not in contact: contact elements do not intersect")
        else:
            failures[e] = LieGeometryError("span of zero vectors")
    return canonical_sign(mvt[:, 0]), failures


def curvature_sphere(f_i: ContactElement, f_j: ContactElement) -> LieVec:
    """Common null direction of two contact elements (projective representative)."""
    spheres, failures = curvature_spheres(f_i.basis[None], f_j.basis[None])
    if failures:
        raise failures[0]
    return spheres[0]


@dataclass
class LegendreNet:
    """Contact element bases (V, 2, 6), one per vertex of a quad complex.

    The curvature spheres of the edges are computed once, on first use, by
    one `curvature_spheres` call: each as the meet of the elements of its
    (smaller, larger) vertex pair, in the order of the complex's edges.
    """

    complex: QuadComplex
    bases: np.ndarray

    @cached_property
    def _meets(self) -> Tuple[np.ndarray, Dict[int, LieGeometryError]]:
        ends = self.complex.edge_vertices
        return curvature_spheres(self.bases[ends[:, 0]], self.bases[ends[:, 1]])

    @property
    def edge_spheres(self) -> np.ndarray:
        """(E, 6) curvature sphere of each edge; rows of failed edges are undefined."""
        return self._meets[0]

    @property
    def edge_failures(self) -> Dict[int, LieGeometryError]:
        """Error of each edge whose elements do not meet in a line, by edge id."""
        return self._meets[1]

    def spheres_of(self, edges) -> np.ndarray:
        """Rows of `edge_spheres` of an edge id or an array of them; raises
        the error of the first failed edge among them."""
        failed = [e for e in np.ravel(edges).tolist() if e in self.edge_failures]
        if failed:
            raise self.edge_failures[failed[0]]
        return self.edge_spheres[edges]

    def edge_sphere(self, i: int, j: int) -> LieVec:
        return self.spheres_of(self.complex.edge_id(i, j))

    def element(self, v: int) -> ContactElement:
        return _element(self.bases[v])

    def vertex_point(self, v: int) -> np.ndarray:
        """Euclidean position of the vertex point sphere."""
        return self.vertex_points([v])[0]

    def vertex_points(self, vertices: Optional[Sequence[int]] = None) -> np.ndarray:
        """Positions (n, 3) of the vertex point spheres (all by default), read by unlift."""
        vs = list(range(self.complex.n_vertices) if vertices is None else vertices)
        s, ok = point_spheres(self.bases[vs])
        kind, w = lc.unlifts(s)
        lc.raise_first([(~ok, NO_POINT_SPHERE),
                        (kind == -1, lambda _: lc.NotALieSphereError(lc.NOT_A_LIE_SPHERE)),
                        (kind != 0, lambda k: f"vertex {vs[k]} has no finite Euclidean position")])
        return w[:, :3].copy()


@dataclass
class LegendreDiagnostics:
    ok: bool
    failed_edges: List[Tuple[int, int, str]]


def is_legendre(net: LegendreNet) -> LegendreDiagnostics:
    """Check every edge for a shared curvature sphere (`LegendreNet.edge_spheres`)."""
    failed = [(*net.complex.edges[e][:2], str(exc)) for e, exc in net.edge_failures.items()]
    return LegendreDiagnostics(ok=not failed, failed_edges=failed)


def net_from_edge_spheres(c: QuadComplex, spheres: Dict[Tuple[int, int], LieVec]) -> LegendreNet:
    """Reconstruct a Legendre net from null vectors on the edges, keyed by
    (smaller, larger) vertex.

    The spheres of each vertex star must span a contact element. The stars
    are spanned by one batched SVD per star size; the errors are those of a
    loop over the vertices and then over the given spheres.
    """
    keys = list(spheres)
    given = np.array([spheres[k] for k in keys], dtype=float).reshape(-1, 6)
    norm = np.sqrt(lc.dots(given, given))
    null = (norm == 0.0) | (np.abs(lc.inner_rows(given, given)) <= TOL.null * norm * norm)
    lc.raise_first([(~null, lambda k: f"edge sphere on {keys[k]} is not null")])

    pairs = [tuple(ij) for ij in c.edge_vertices.tolist()]
    known = np.array([ij in spheres for ij in pairs], dtype=bool)
    rows = np.array([spheres.get(ij, np.zeros(6)) for ij in pairs], dtype=float).reshape(-1, 6)
    stars = c.vertex_edges_csr
    rank, bases = np.zeros(c.n_vertices, dtype=int), np.zeros((c.n_vertices, 2, 6))
    for group, at in stars.by_length():
        if at.shape[1] >= 2:
            vt, rank[group] = lc.spans(rows[stars.ids[at]])
            bases[group] = vt[:, :2]
    message = "vertex-star does not span a contact element (vertex {})"
    lc.raise_first([
        (np.bincount(stars.group[~known[stars.ids]], minlength=c.n_vertices) > 0,
         lambda v: KeyError(pairs[next(e for e in stars.row(v) if not known[e])])),
        (stars.degrees < 2, message),
        (rank == 0, "span of zero vectors"),
        (rank != 2, message),
        (~(_isotropy(bases) <= TOL.membership), lambda v: f"{message.format(v)}: {_NOT_ISOTROPIC}"),
    ])

    net = LegendreNet(complex=c, bases=bases)
    ids = c.edge_ids(*np.array(keys, dtype=int).reshape(-1, 2).T)
    got, failures = net.edge_spheres[ids], net.edge_failures
    with np.errstate(divide="ignore", invalid="ignore"):  # `projective_distance` of each
        d = 1.0 - np.abs(lc.dots(got / np.sqrt(lc.dots(got, got))[:, None], given / norm[:, None]))
    lc.raise_first([
        (np.isin(ids, list(failures)), lambda k: failures[ids[k]]),
        (norm == 0.0, "cannot normalize the zero vector"),
        (~(d <= math.sqrt(TOL.membership)),
         lambda k: f"edge sphere on ({keys[k][0]},{keys[k][1]}) not reproduced by the net"),
    ])
    return net


def net_from_points_normals(c: QuadComplex, points: np.ndarray, normals: np.ndarray) -> LegendreNet:
    return LegendreNet(complex=c, bases=contact_bases(*point_normal_generators(points, normals)))


# ---------------------------------------------------------------------------
# Dupin cyclides and face-cyclide families


@dataclass(frozen=True)
class DupinCyclide:
    """Orthogonal (2,1)+(2,1) splitting of R^{4,2}."""

    dplus: Subspace
    dminus: Subspace

    def validate(self, tol: Optional[float] = None) -> None:
        t = TOL.membership if tol is None else tol
        if self.dplus.dim != 3 or self.dminus.dim != 3:
            raise LieGeometryError("Dupin cyclide components must be 3-dimensional")
        for s in (self.dplus, self.dminus):
            if signature(s).triple != (2, 1, 0):
                raise LieGeometryError("Dupin cyclide components must have signature (2,1)")
        g = lc.inner_matrix(self.dplus.basis, self.dminus.basis)
        if not float(np.max(np.abs(g))) <= t:
            raise LieGeometryError("Dupin cyclide components are not orthogonal")

    def swapped(self) -> "DupinCyclide":
        return DupinCyclide(dplus=self.dminus, dminus=self.dplus)


def face_spheres_of(net: LegendreNet, face: Sequence[int]) -> Tuple[List[LieVec], List[LieVec]]:
    """([s+ on (j,k), s+ on (l,i)], [s- on (i,j), s- on (k,l)]) of a face."""
    i, j, k, l = face
    s = net.spheres_of(net.complex.edge_ids([i, j, k, l], [j, k, l, i]))
    return list(s[1::2]), list(s[::2])


@dataclass(frozen=True)
class FaceCyclideFamily:
    """All Dupin cyclides sharing the four curvature spheres of one face.

    Calling the family at a parameter value returns one member; the
    parameter is periodic with period pi.
    """

    u: Subspace   # span of the two '+' curvature spheres, signature (1,1)
    v: Subspace   # span of the two '-' curvature spheres, signature (1,1)
    w1: LieVec    # spacelike unit
    w2: LieVec    # spacelike unit, orthogonal to w1

    @classmethod
    def from_spheres(cls, plus: Sequence[LieVec], minus: Sequence[LieVec]) -> "FaceCyclideFamily":
        """Family of a face with '+' curvature spheres `plus` and '-' ones
        `minus` (two each); DegenerateFaceError unless both pairs span
        (1,1)-planes with a positive definite complement."""
        u = span(plus)
        v = span(minus)
        if u.dim != 2 or signature(u).triple != (1, 1, 0):
            raise DegenerateFaceError("degenerate face: '+' spheres do not span a (1,1)-plane")
        if v.dim != 2 or signature(v).triple != (1, 1, 0):
            raise DegenerateFaceError("degenerate face: '-' spheres do not span a (1,1)-plane")
        w = orthocomplement(span(list(u.basis) + list(v.basis)))
        if w.dim != 2 or signature(w).triple != (2, 0, 0):
            raise DegenerateFaceError(
                "degenerate face: complement of the sphere spans is not definite")
        eig, vecs = np.linalg.eigh(w.restricted_gram())
        return cls(u=u, v=v, w1=w.basis.T @ vecs[:, 0] / math.sqrt(eig[0]),
                   w2=w.basis.T @ vecs[:, 1] / math.sqrt(eig[1]))

    def __call__(self, t: float) -> DupinCyclide:
        a = math.cos(t) * self.w1 + math.sin(t) * self.w2
        b = -math.sin(t) * self.w1 + math.cos(t) * self.w2
        return DupinCyclide(
            dplus=span(list(self.u.basis) + [a]),
            dminus=span(list(self.v.basis) + [b]),
        )

    def parameter_of(self, cy: DupinCyclide) -> float:
        """Parameter whose member matches the given cyclide (mod pi)."""
        best = None
        for vec in cy.dplus.basis:
            # w1, w2 are spacelike unit and orthogonal, so the Gram projection
            # onto their plane has coefficients (vec, w1), (vec, w2)
            c1, c2 = inner(vec, self.w1), inner(vec, self.w2)
            amp = math.hypot(c1, c2)
            if best is None or amp > best[0]:
                best = (amp, math.atan2(c2, c1))
        if best is None or best[0] <= TOL.membership:
            raise LieGeometryError("cyclide has no component in the family plane")
        return best[1] % math.pi


def face_cyclide_family(net: LegendreNet, face: Sequence[int]) -> FaceCyclideFamily:
    return FaceCyclideFamily.from_spheres(*face_spheres_of(net, face))


def is_face_cyclide(net: LegendreNet, face: Sequence[int], cy: DupinCyclide,
                    tol: Optional[float] = None) -> bool:
    """True iff the face's s+ spheres lie in dplus and s- spheres in dminus."""
    t = TOL.membership if tol is None else tol
    plus, minus = face_spheres_of(net, face)
    return all(cy.dplus.contains(s, t) for s in plus) and \
        all(cy.dminus.contains(s, t) for s in minus)
