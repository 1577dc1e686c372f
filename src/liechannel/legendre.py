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


def contact_failures(a: np.ndarray, b: np.ndarray) -> Dict[int, LieGeometryError]:
    """Error, in pair order, of every pair (a[e], b[e]) of contact elements
    that does not meet in a line, decided in closed form.

    a and b are (E, 2, 6) stacks of aux-orthonormal bases (as `contact_bases`
    and `ContactElement` hold them). For the principal angles
    theta_1 <= theta_2 of the two planes, the singular values of
    [a_e | -b_e]^T are sqrt(1 +- cos theta_i); the pair meets in a line when
    exactly one of them is at most TOL.rank times the largest (the rank
    cutoff sv > TOL.rank * sv[0] of `span`), is identical when two are and
    is not in contact when none is. The sines are those of the residual rows
    R = b - (b a^T) a: sin theta_2 = sigma_max(R), and
    sin theta_1 = r11 r22 / sigma_max(R) from a Gram-Schmidt of the rows of
    R, longer first, both to an absolute error of a few eps (the determinant
    of R R^T would lose half the digits, about TOL.rank, to cancellation).
    A pair with a non-finite coordinate is not in contact.
    """
    r = b - (b @ a.transpose(0, 2, 1)) @ a
    g11, g22, g12 = *lc.dots(r, r).T, lc.dots(r[:, 0], r[:, 1])
    swap = (g22 > g11)[:, None]
    _, _, r11, _, r22 = lc.gram_schmidt2(np.where(swap, r[:, 1], r[:, 0]),
                                         np.where(swap, r[:, 0], r[:, 1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        sin_max = np.sqrt(0.5 * (g11 + g22) + np.hypot(0.5 * (g11 - g22), g12))
        sin_min = np.where(sin_max == 0.0, 0.0, r11 * r22 / sin_max)
    sines = np.stack([sin_min, sin_max], axis=1)
    # sqrt(1 + cos theta_i), and sqrt(1 - cos theta_i) = sin theta_i / sqrt(1 + cos theta_i)
    plus = np.sqrt(1.0 + np.sqrt(np.maximum(1.0 - sines * sines, 0.0)))
    nullity = np.sum(sines / plus <= TOL.rank * plus[:, :1], axis=1)
    return {e: IdenticalContactElementsError("identical contact elements") if nullity[e] == 2
            else NotInContactError("not in contact: contact elements do not intersect")
            for e in np.flatnonzero(nullity != 1).tolist()}


def meet_spheres(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Common null direction (E, 6) of each pair (a[e], b[e]) of (E, 2, 6)
    aux-orthonormal bases, unit and canonically signed; the row of a pair
    that does not meet in a line (`contact_failures`) is undefined.

    The meet is read in a_e, in closed form, as the principal vector of
    the smallest principal angle: the residual rows R = a - (a b^T) b of
    a_e off the plane of b_e are parallel where the planes meet in a line.
    With r1 the longer row (a1 its row of a), r2 the other and
    r11, r12, r22 their Gram-Schmidt (`liecore.gram_schmidt2`), the member
    alpha a1 - a2 with alpha = r12 / r11 leaves the residual r22 of r2
    against r1; the principal vector takes alpha / (1 - r22^2 / s^2), with
    s the larger singular value of R, which differs from it only where the
    planes do not quite meet. A pair with a non-finite coordinate is zeroed
    first.
    """
    finite = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(b).all(axis=(1, 2))
    if not finite.all():
        a, b = (np.where(finite[:, None, None], x, 0.0) for x in (a, b))
    r = a - (a @ b.transpose(0, 2, 1)) @ b
    swap = (lc.dots(r[:, 1], r[:, 1]) > lc.dots(r[:, 0], r[:, 0]))[:, None]
    (a1, a2), (r1, r2) = ((np.where(swap, x[:, 1], x[:, 0]), np.where(swap, x[:, 0], x[:, 1]))
                          for x in (a, r))
    _, _, r11, r12, r22 = lc.gram_schmidt2(r1, r2)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = r11 * r11 + r12 * r12 + r22 * r22  # s^2 + (r11 r22 / s)^2
        s2 = 0.5 * (t + np.sqrt(np.maximum(t * t - 4.0 * (r11 * r22) ** 2, 0.0)))
        meet = (r12 / r11 / (1.0 - r22 * r22 / s2))[:, None] * a1 - a2
        return canonical_sign(meet / np.sqrt(lc.dots(meet, meet))[:, None])


def curvature_spheres(a: np.ndarray, b: np.ndarray
                      ) -> Tuple[np.ndarray, Dict[int, LieGeometryError]]:
    """Common null directions of the contact element pairs (a[e], b[e]) of
    two (E, 2, 6) stacks of aux-orthonormal bases: the (E, 6) spheres of
    `meet_spheres` and, in pair order, the error of every pair that does not
    meet in a line (`contact_failures`; its row is undefined).
    """
    return meet_spheres(a, b), contact_failures(a, b)


def curvature_sphere(f_i: ContactElement, f_j: ContactElement) -> LieVec:
    """Common null direction of two contact elements (projective representative)."""
    spheres, failures = curvature_spheres(f_i.basis[None], f_j.basis[None])
    if failures:
        raise failures[0]
    return spheres[0]


@dataclass
class LegendreNet:
    """Contact element bases (V, 2, 6), one per vertex of a quad complex,
    each aux-orthonormal (as `contact_bases` makes them).

    The edges' facts are computed once, on first use, each for the
    elements of the edge's (smaller, larger) vertex pair in the order of
    the complex's edges: which edges fail to meet in a line by one
    `contact_failures` (`is_legendre`, run when a net is loaded), and their
    curvature spheres by one `meet_spheres` (run only for a command that
    reads them).
    """

    complex: QuadComplex
    bases: np.ndarray

    def _edge_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        ends = self.complex.edge_vertices
        return self.bases[ends[:, 0]], self.bases[ends[:, 1]]

    @cached_property
    def edge_spheres(self) -> np.ndarray:
        """(E, 6) curvature sphere of each edge; rows of failed edges are undefined."""
        return meet_spheres(*self._edge_pairs())

    @cached_property
    def edge_failures(self) -> Dict[int, LieGeometryError]:
        """Error of each edge whose elements do not meet in a line, by edge id."""
        return contact_failures(*self._edge_pairs())

    def spheres_of(self, edges) -> np.ndarray:
        """Rows of `edge_spheres` of an edge id or an array of them; raises
        the error of the first failed edge among them."""
        failed = [e for e in np.ravel(edges).tolist() if e in self.edge_failures]
        if failed:
            raise self.edge_failures[failed[0]]
        return self.edge_spheres[edges]

    def element(self, v: int) -> ContactElement:
        return _element(self.bases[v])

    def vertex_points(self, vertices: Optional[Sequence[int]] = None) -> np.ndarray:
        """Positions (n, 3) of the vertex point spheres (all by default), read by `unlifts`."""
        if vertices is None:
            return self._all_points.copy()
        vs = list(vertices)
        s, ok = point_spheres(self.bases[vs])
        kind, w = lc.unlifts(s)
        lc.raise_first([(~ok, NO_POINT_SPHERE),
                        (kind == -1, lambda _: lc.NotALieSphereError(lc.NOT_A_LIE_SPHERE)),
                        (kind != 0, lambda k: f"vertex {vs[k]} has no finite Euclidean position")])
        return w[:, :3].copy()

    @cached_property
    def _all_points(self) -> np.ndarray:
        """`vertex_points` of all vertices, computed once and read-only; a
        net with a vertex that has no position raises on every read."""
        points = self.vertex_points(range(self.complex.n_vertices))
        points.flags.writeable = False
        return points


@dataclass
class LegendreDiagnostics:
    ok: bool
    failed_edges: List[Tuple[int, int, str]]


def is_legendre(net: LegendreNet) -> LegendreDiagnostics:
    """Check every edge for a shared curvature sphere (`LegendreNet.edge_failures`)."""
    ends = net.complex.edge_ends
    failed = [(*ends[e].tolist(), str(exc)) for e, exc in net.edge_failures.items()]
    return LegendreDiagnostics(ok=not failed, failed_edges=failed)


def net_from_edge_spheres(c: QuadComplex, spheres: Dict[Tuple[int, int], LieVec]) -> LegendreNet:
    """Reconstruct a Legendre net from null vectors on the edges, keyed by
    (smaller, larger) vertex.

    The spheres of each vertex star must span a contact element. The stars
    are spanned by one batched SVD per star size, whose right singular
    vectors are the aux-orthonormal bases; the errors are those of a loop
    over the vertices and then over the given spheres.
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
    with np.errstate(divide="ignore", invalid="ignore"):  # 1 - |cos| of the unit spheres
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
    parameter is periodic with period pi, and its frame (w1, w2) is fixed by
    their canonical signs.
    """

    u: Subspace   # span of the two '+' curvature spheres, signature (1,1)
    v: Subspace   # span of the two '-' curvature spheres, signature (1,1)
    w1: LieVec    # spacelike unit
    w2: LieVec    # spacelike unit, orthogonal to w1

    def __post_init__(self):
        # the parameter's frame: each of w1, w2 canonically signed, so that a
        # parameter names the same member whichever signs `eigh` chose
        object.__setattr__(self, "w1", canonical_sign(self.w1))
        object.__setattr__(self, "w2", canonical_sign(self.w2))

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
