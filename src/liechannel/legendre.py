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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import TOL
from . import liecore as lc
from .liecore import (
    GRAM, LieVec, LieGeometryError, Subspace, inner, canonical_sign,
    orthocomplement, signature, span,
)
from .cellcomplex import QuadComplex, edge_key, face_edge_labels, PLUS


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
        if _isotropy(self.space.basis[None])[0] > TOL.membership:
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
        gens[:, 0, :3] = x
        gens[:, 0, 3] = 1.0
        gens[:, 0, 4] = 0.5 * lc.dots(x, x)
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
        (_isotropy(bases) > TOL.membership, _NOT_ISOTROPIC),
    ])
    if failure is not None:
        raise ContactElementError(*failure)
    return bases


def _elements(bases: np.ndarray) -> Tuple[ContactElement, ...]:
    """Contact elements of a stack that contact_bases has validated; the
    per-element check of the constructor is not run again."""
    out = []
    for b in bases:
        el = object.__new__(ContactElement)
        object.__setattr__(el, "space", Subspace(basis=b))
        out.append(el)
    return tuple(out)


def contact_from_point_normal(x: Sequence[float], n: Sequence[float]) -> ContactElement:
    """Contact element of a point with unit normal: <point lift, tangent plane lift>."""
    return _elements(contact_bases(*point_normal_generators([x], [n])))[0]


def contact_from_vectors(a: LieVec, b: LieVec) -> ContactElement:
    return _elements(contact_bases(np.array([[a, b]], dtype=float)))[0]


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
    """Contact element per vertex of a quad complex; edge spheres cached.

    ``bases`` stacks the element bases into one (V, 2, 6) array.
    """

    complex: QuadComplex
    elements: Tuple[ContactElement, ...]
    bases: np.ndarray = field(init=False, repr=False, compare=False)
    _edge_spheres: Dict[Tuple[int, int], LieVec] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.bases = np.array([el.basis for el in self.elements], dtype=float).reshape(-1, 2, 6)

    def element(self, v: int) -> ContactElement:
        return self.elements[v]

    def edge_sphere(self, i: int, j: int) -> LieVec:
        k = edge_key(i, j)
        s = self._edge_spheres.get(k)
        if s is None:
            s = curvature_sphere(self.elements[k[0]], self.elements[k[1]])
            self._edge_spheres[k] = s
        return s

    def vertex_point(self, v: int) -> np.ndarray:
        """Euclidean position of the vertex point sphere."""
        return self.vertex_points([v])[0]

    def vertex_points(self, vertices: Optional[Sequence[int]] = None) -> np.ndarray:
        """Euclidean positions of the vertex point spheres (all by default)."""
        vs = range(self.complex.n_vertices) if vertices is None else vertices
        spheres, ok = point_spheres(self.bases[list(vs)])
        out = []
        for v, s, has_point in zip(vs, spheres, ok):
            if not has_point:
                raise LieGeometryError(NO_POINT_SPHERE)
            d = lc.unlift(s)
            if d.kind != "point":
                raise LieGeometryError(f"vertex {v} has no finite Euclidean position")
            out.append(d.center)
        return np.array(out)


def net_from_bases(c: QuadComplex, bases: np.ndarray) -> LegendreNet:
    """Net of a (V, 2, 6) stack returned by contact_bases."""
    return LegendreNet(complex=c, elements=_elements(bases))


@dataclass
class LegendreDiagnostics:
    ok: bool
    failed_edges: List[Tuple[int, int, str]]


def is_legendre(net: LegendreNet) -> LegendreDiagnostics:
    """Check every edge for a shared curvature sphere; caches the spheres.

    All uncached edges are computed by one `curvature_spheres` call, each
    as the meet of the elements of its (smaller, larger) vertex pair.
    """
    keys = [edge_key(i, j) for i, j, _lab in net.complex.edges]
    todo = [k for k in keys if k not in net._edge_spheres]
    errors: Dict[Tuple[int, int], str] = {}
    if todo:
        ij = np.array(todo)
        spheres, failures = curvature_spheres(net.bases[ij[:, 0]], net.bases[ij[:, 1]])
        net._edge_spheres.update(zip(todo, spheres))
        for e, exc in failures.items():
            errors[todo[e]] = str(exc)
            net._edge_spheres.pop(todo[e], None)
    failed = [(i, j, errors[k]) for (i, j, _lab), k in zip(net.complex.edges, keys)
              if k in errors]
    return LegendreDiagnostics(ok=not failed, failed_edges=failed)


def net_from_edge_spheres(c: QuadComplex, spheres: Dict[Tuple[int, int], LieVec]) -> LegendreNet:
    """Reconstruct a Legendre net from null vectors on edges.

    The spheres of each vertex star must span a contact element.
    """
    for k, s in spheres.items():
        if not lc.is_null(s):
            raise LieGeometryError(f"edge sphere on {k} is not null")
    elements: List[ContactElement] = []
    for v in range(c.n_vertices):
        star = [spheres[e] for e in c.vertex_edges(v)]
        if len(star) < 2:
            raise LieGeometryError(f"vertex-star does not span a contact element (vertex {v})")
        sp = span(star)
        if sp.dim != 2:
            raise LieGeometryError(f"vertex-star does not span a contact element (vertex {v})")
        try:
            elements.append(ContactElement(space=sp))
        except LieGeometryError as exc:
            raise LieGeometryError(
                f"vertex-star does not span a contact element (vertex {v}): {exc}"
            ) from exc
    net = LegendreNet(complex=c, elements=tuple(elements))
    for (i, j), s in spheres.items():
        got = net.edge_sphere(i, j)
        if lc.projective_distance(got, s) > math.sqrt(TOL.membership):
            raise LieGeometryError(f"edge sphere on ({i},{j}) not reproduced by the net")
    return net


def net_from_points_normals(c: QuadComplex, points: np.ndarray, normals: np.ndarray) -> LegendreNet:
    return net_from_bases(c, contact_bases(*point_normal_generators(points, normals)))


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
        if float(np.max(np.abs(g))) > t:
            raise LieGeometryError("Dupin cyclide components are not orthogonal")

    def swapped(self) -> "DupinCyclide":
        return DupinCyclide(dplus=self.dminus, dminus=self.dplus)


def face_spheres_of(net: LegendreNet, face: Sequence[int]) -> Tuple[List[LieVec], List[LieVec]]:
    """([s+ on (j,k), s+ on (l,i)], [s- on (i,j), s- on (k,l)]) of a face."""
    plus, minus = [], []
    for a, b, lab in face_edge_labels(face):
        s = net.edge_sphere(a, b)
        (plus if lab == PLUS else minus).append(s)
    return plus, minus


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
    plus, minus = face_spheres_of(net, face)
    u = span(plus)
    v = span(minus)
    if u.dim != 2 or signature(u).triple != (1, 1, 0):
        raise DegenerateFaceError("degenerate face: '+' spheres do not span a (1,1)-plane")
    if v.dim != 2 or signature(v).triple != (1, 1, 0):
        raise DegenerateFaceError("degenerate face: '-' spheres do not span a (1,1)-plane")
    w = orthocomplement(span(list(u.basis) + list(v.basis)))
    if w.dim != 2 or signature(w).triple != (2, 0, 0):
        raise DegenerateFaceError("degenerate face: complement of the sphere spans is not definite")
    g = w.restricted_gram()
    eig, vecs = np.linalg.eigh(g)
    w1 = w.basis.T @ vecs[:, 0] / math.sqrt(eig[0])
    w2 = w.basis.T @ vecs[:, 1] / math.sqrt(eig[1])
    return FaceCyclideFamily(u=u, v=v, w1=w1, w2=w2)


def is_face_cyclide(net: LegendreNet, face: Sequence[int], cy: DupinCyclide,
                    tol: Optional[float] = None) -> bool:
    """True iff the face's s+ spheres lie in dplus and s- spheres in dminus."""
    t = TOL.membership if tol is None else tol
    plus, minus = face_spheres_of(net, face)
    return all(cy.dplus.contains(s, t) for s in plus) and \
        all(cy.dminus.contains(s, t) for s in minus)
