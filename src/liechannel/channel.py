"""Channel-surface verification and derived sphere geometry.

A Legendre net is a discrete channel surface with circular direction '+'
exactly when

  (a) the curvature spheres on '+' edges are projectively constant along
      every '+'-coordinate line, and
  (b) within every '+'-ribbon the '-' curvature spheres span a 3-space of
      signature (2,1).

The span in (b) is the D- component of the ribbon's Lie cyclide, its
orthocomplement the D+ component; this cyclide is unique. From the
certificate the rest of the structure follows:

  generating circles    point-sphere 3-space phi(D-) per line, where
                        phi(y) = y + (y,p) s and s is the line's constant
                        sphere rescaled to (s,p) = -1;
  face-spheres          the unique Moebius sphere containing the two
                        bounding circles of a ribbon;
  quer-spheres          the sphere through a circle orthogonal to the
                        enveloped sphere of its line;
  face-quer-spheres     the real sphere whose reflection exchanges the two
                        bounding circles of a ribbon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import TOL
from . import liecore as lc
from .liecore import (
    LieVec, LieGeometryError, Subspace, POINT_COMPLEX, inner, normalized,
    canonical_sign, span, signature, orthocomplement, subspace_distance,
    gram_reflection, unit_moebius_sphere, oriented_representative,
)
from .cellcomplex import PLUS, MINUS, face_edge_labels
from .legendre import (
    NO_POINT_SPHERE, LegendreNet, DupinCyclide, is_legendre, face_cyclide_family,
    point_spheres, DegenerateFaceError,
)


@dataclass(frozen=True)
class DiscreteCurve3D:
    points: np.ndarray  # (n, 3)
    closed: bool = False

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
            raise ValueError("DiscreteCurve3D needs at least two 3-points")
        d = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        if np.any(d == 0.0):
            raise ValueError("consecutive curve vertices must be distinct")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


# ---------------------------------------------------------------------------
# certificate


@dataclass
class ChannelCertificate:
    """Per-line and per-ribbon data of a verified channel surface, as stacks.

    lines, ribbons, ribbon_lines and line_ribbons are the complex's shared
    `Coordinates` of the direction and must not be mutated. The stacks after
    constancy_residual are set by `complete_certificate`.
    """

    direction: str
    lines: List[List[int]]                 # dir-coordinate lines (vertex paths)
    ribbons: List[List[int]]               # dir-ribbons (face index strips)
    ribbon_lines: List[Tuple[int, int]]    # bounding line ids per ribbon
    line_ribbons: Dict[int, List[int]]     # two-line ribbons of each line
    line_spheres: np.ndarray               # (L, 6) constant enveloped sphere per line
    dplus: np.ndarray                      # (R, 3, 6) Lie cyclide per ribbon,
    dminus: np.ndarray                     # (R, 3, 6)   as two basis stacks
    constancy_residual: float
    circle_spaces: Optional[np.ndarray] = None      # (L, 3, 6) point spheres of each circle
    circle_agreement: Optional[float] = None
    face_spheres: Optional[np.ndarray] = None       # (R, 6) Moebius unit
    quer_spheres: Optional[np.ndarray] = None       # (L, 6) Moebius unit
    face_quer_spheres: Optional[np.ndarray] = None  # (R, 6) Moebius unit

    ok = True

    @property
    def cyclides(self) -> List[DupinCyclide]:
        """Lie cyclide per ribbon."""
        return [DupinCyclide(dplus=Subspace(p), dminus=Subspace(m))
                for p, m in zip(self.dplus, self.dminus)]

    @property
    def circles(self) -> List[DupinCyclide]:
        """Generating circle per line, as a cyclide whose dplus holds the points."""
        return [DupinCyclide(dplus=Subspace(c), dminus=orthocomplement(Subspace(c)))
                for c in self.circle_spaces]


@dataclass
class ChannelFailure:
    direction: str
    check: str                  # "legendre" | "constancy" | "ribbon_span" | "underdetermined"
    location: Optional[str]
    message: str
    envelopes: bool             # whether check (a) held

    ok = False


def verify_channel(net: LegendreNet, direction: str = PLUS):
    """Check the channel conditions; return a certificate or failure report.

    The certificate carries the constant sphere of every dir-line and the
    unique Lie cyclide of every dir-ribbon. Single-face ribbons leave a
    1-parameter choice of cyclide; the face-cyclide family member at
    parameter 0 is taken.
    """
    diag = is_legendre(net)
    if not diag.ok:
        return ChannelFailure(direction=direction, check="legendre",
                              location=f"edges {diag.failed_edges[:3]}",
                              message="net is not a Legendre map", envelopes=False)

    coords = net.complex.coordinates(direction)

    # (a) projective constancy of the dir-labelled curvature spheres per line
    line_spheres = np.empty((len(coords.lines), 6))
    worst = 0.0
    for li, line in enumerate(coords.lines):
        spheres = [net.edge_sphere(i, j) for i, j in coords.line_edges[li]]
        rep = normalized(spheres[0])
        for s in spheres[1:]:
            d = lc.projective_distance(rep, s)
            worst = max(worst, d)
            if not d <= TOL.constancy:
                return ChannelFailure(
                    direction=direction, check="constancy",
                    location=f"line {li} (vertices {line[:4]}...)",
                    message=f"curvature sphere varies along the line (residual {d:.3e})",
                    envelopes=False)
        # stable representative: dominant singular direction of the stack
        stack = np.array([np.sign(np.dot(normalized(s), rep)) * normalized(s) for s in spheres])
        _, _, vt = np.linalg.svd(stack, full_matrices=len(stack) <= 6)  # as in `span`
        line_spheres[li] = canonical_sign(vt[0])

    # (b) the opposite-label spheres of each ribbon span a (2,1)-plane
    def ribbon_span(message: str) -> ChannelFailure:
        return ChannelFailure(direction=direction, check="ribbon_span",
                              location=f"ribbon {ri}", message=message, envelopes=True)

    dplus, dminus = np.empty((2, len(coords.ribbons), 3, 6))
    for ri, strip in enumerate(coords.ribbons):
        bounds = coords.ribbon_lines[ri]
        if len(bounds) != 2:
            return ribbon_span(f"ribbon bounded by {len(bounds)} lines")
        sp = span([net.edge_sphere(i, j) for i, j in coords.ribbon_edges[ri]])
        if sp.dim == 2 and signature(sp).triple == (1, 1, 0):
            # underdetermined ribbon (single face, or all spheres in one
            # pencil): complete through the first face's cyclide family
            try:
                cy = face_cyclide_family(net, net.complex.faces[strip[0]])(0.0)
            except DegenerateFaceError as exc:
                return ribbon_span(str(exc))
            if cy.dplus.dim != 3 or cy.dminus.dim != 3:
                return ribbon_span(f"degenerate face: family member of dims "
                                   f"{cy.dplus.dim}, {cy.dminus.dim}")
            if direction == MINUS:
                cy = cy.swapped()
        elif sp.dim == 3 and signature(sp).triple == (2, 1, 0):
            cy = DupinCyclide(dplus=orthocomplement(sp), dminus=sp)
        else:
            return ribbon_span(f"opposite curvature spheres span dim {sp.dim} of signature "
                               f"{signature(sp).triple}, expected a (2,1)-plane")
        dplus[ri], dminus[ri] = cy.dplus.basis, cy.dminus.basis

    return ChannelCertificate(
        direction=direction, lines=coords.lines, ribbons=coords.ribbons,
        ribbon_lines=coords.ribbon_lines, line_ribbons=coords.line_ribbons,
        line_spheres=line_spheres, dplus=dplus, dminus=dminus, constancy_residual=worst)


def _flatten(groups: List[List[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """The items of all groups (lines or ribbons) in order, and the group of each."""
    return (np.array([i for group in groups for i in group], dtype=int),
            np.repeat(np.arange(len(groups)), [len(group) for group in groups]))


def certificate_residuals(cert: ChannelCertificate, net: LegendreNet) -> Dict[str, float]:
    """Assertable invariants of a certificate (all should be ~ 0): the
    constant sphere of each line against every contact element on the line,
    and the curvature spheres of every face against its ribbon's cyclide."""
    vertices, line = _flatten(cert.lines)
    s, gens = cert.line_spheres[line, None], net.bases[vertices]
    env = np.abs(lc.inner_rows(s, gens)) / (np.sqrt(lc.dots(s, s)) * np.sqrt(lc.dots(gens, gens)))
    # face spheres in `face_edge_labels` order: '-', '+', '-', '+'
    faces, ribbon = _flatten(cert.ribbons)
    spheres = np.array([net.edge_sphere(a, b) for fi in faces
                        for a, b, _ in face_edge_labels(net.complex.faces[fi])]).reshape(-1, 4, 6)
    plus, minus = (cert.dplus, cert.dminus) if cert.direction == PLUS else (cert.dminus, cert.dplus)
    fc = [lc.residuals(plus[ribbon, None], spheres[:, 1::2]),
          lc.residuals(minus[ribbon, None], spheres[:, ::2])]
    # running maxima, which a NaN residual never raises
    return {"enveloping": float(np.fmax.reduce(env, axis=None, initial=0.0)),
            "face_cyclide": float(np.fmax.reduce(np.concatenate(fc), axis=None, initial=0.0))}


# ---------------------------------------------------------------------------
# generating circles and the sphere families attached to them


def touching_circle_space(sphere: LieVec, dminus: Subspace) -> Subspace:
    """Point-sphere 3-space of the cyclide curvature line enveloping `sphere`.

    `sphere` must be a null vector with (sphere, p) != 0, orthogonal to
    dminus; the map y -> y + (y,p) s with (s,p) = -1 is an isometry of
    dminus onto the circle's space.
    """
    s = oriented_representative(sphere)
    imgs = [y + inner(y, POINT_COMPLEX) * s for y in dminus.basis]
    return span(imgs)


def _circle_spaces(cert: ChannelCertificate, net: LegendreNet) -> Tuple[np.ndarray, float]:
    """Point-sphere 3-space (L, 3, 6) of the generating circle of each line.

    When a line bounds two ribbons the circle is computed from both Lie
    cyclides and the two results must agree; the worst agreement residual
    is returned too. Every vertex of a line must lie on its circle. Errors
    are those of a loop over the lines that checks each line's circle and
    then its vertices.
    """
    spaces = np.empty((len(cert.lines), 3, 6))
    agreement, error, done = 0.0, None, len(cert.lines)
    for li, s in enumerate(cert.line_spheres):
        if abs(inner(s, POINT_COMPLEX)) <= TOL.membership * lc.aux_norm(s):
            error = f"curvature sphere of line {li} is a point sphere - no admissible projection"
        elif li not in cert.line_ribbons:
            error = f"line {li} belongs to no ribbon"
        else:
            touching = [touching_circle_space(s, Subspace(cert.dminus[ri]))
                        for ri in cert.line_ribbons[li]]
            d = subspace_distance(*touching) if len(touching) == 2 else 0.0
            agreement = max(agreement, d)
            if not d <= TOL.agreement:
                error = (f"generating circles of line {li} disagree between ribbons "
                         f"(residual {d:.3e})")
            elif touching[0].dim != 3:
                error = f"generating circle of line {li} degenerates (dim {touching[0].dim})"
        if error is not None:
            done = li
            break
        spaces[li] = touching[0].basis
    # every vertex point sphere of the lines checked so far lies on its circle
    vertices, line = _flatten(cert.lines[:done])
    point_sphere, has_point = point_spheres(net.bases[vertices])
    r = lc.residuals(spaces[line], point_sphere)
    failure = lc.first_failure([(~has_point, NO_POINT_SPHERE), (~(r <= TOL.agreement), "")])
    if failure is not None:
        k, message = failure
        error = message or (f"vertex {vertices[k]} does not lie on the generating circle of "
                            f"line {line[k]} (residual {r[k]:.3e})")
    if error is not None:
        raise LieGeometryError(error)
    return spaces, agreement


def _face_spheres(circles: np.ndarray, ribbon_lines) -> np.ndarray:
    """Per ribbon: the unique Moebius sphere containing both bounding circles."""
    out = np.empty((len(ribbon_lines), 6))
    for ri, (la, lb) in enumerate(ribbon_lines):
        comp = orthocomplement(span(np.vstack([circles[la], circles[lb], POINT_COMPLEX])))
        if comp.dim != 1:
            raise LieGeometryError(
                f"ribbon {ri}: bounding circles are not cospherical "
                f"(complement dim {comp.dim}) - certificate corrupt")
        out[ri] = canonical_sign(unit_moebius_sphere(comp.basis[0]))
    return out


def sphere_pencil(circle_space: Subspace) -> Subspace:
    """2-space of Moebius sphere vectors containing the circle."""
    return orthocomplement(span(list(circle_space.basis) + [POINT_COMPLEX]))


def _quer_spheres(circles: np.ndarray, line_spheres: np.ndarray) -> np.ndarray:
    """Per line: sphere through the circle orthogonal to the enveloped sphere."""
    out = np.empty_like(line_spheres)
    for li, s in enumerate(line_spheres):
        q1, q2 = sphere_pencil(Subspace(circles[li])).basis
        v = inner(q2, s) * q1 - inner(q1, s) * q2
        if np.linalg.norm(v) <= TOL.membership:
            raise LieGeometryError(f"line {li}: enveloped sphere orthogonal to the whole pencil")
        out[li] = canonical_sign(unit_moebius_sphere(v))
    return out


def _face_quer_spheres(circles: np.ndarray, face_spheres: np.ndarray, ribbon_lines) -> np.ndarray:
    """Per ribbon: real sphere whose reflection swaps the bounding circles.

    Orthogonal to the face-sphere by construction. Both algebraic
    candidates are tried; failure reports their residuals.
    """
    out = np.empty_like(face_spheres)
    for ri, (la, lb) in enumerate(ribbon_lines):
        sigma = face_spheres[ri]
        na = orthocomplement(span(np.vstack([circles[la], sigma, POINT_COMPLEX])))
        nb = orthocomplement(span(np.vstack([circles[lb], sigma, POINT_COMPLEX])))
        if na.dim != 1 or nb.dim != 1:
            raise LieGeometryError(f"ribbon {ri}: degenerate circle normals")
        a = na.basis[0] / math.sqrt(abs(inner(na.basis[0], na.basis[0])))
        b = nb.basis[0] / math.sqrt(abs(inner(nb.basis[0], nb.basis[0])))
        if inner(a, b) < 0:
            b = -b
        candidates = []
        for m in (a - b, a + b):
            if inner(m, m) <= TOL.membership:
                candidates.append((math.inf, m))
                continue
            img = span([gram_reflection(m, v) for v in circles[la]])
            candidates.append((subspace_distance(img, Subspace(circles[lb])), m))
        candidates.sort(key=lambda t: t[0])
        if not candidates[0][0] <= TOL.agreement:
            raise LieGeometryError(
                f"ribbon {ri}: no swapping reflection found "
                f"(candidate residuals {candidates[0][0]:.3e}, {candidates[1][0]:.3e})")
        out[ri] = canonical_sign(unit_moebius_sphere(candidates[0][1]))
    return out


def complete_certificate(res, net: LegendreNet):
    """Add the generating circles and the face, quer and face-quer spheres
    to a verify_channel certificate, in place; a failure report is returned
    unchanged, and a certificate that fails to complete is left as it was."""
    if res.ok:
        circles, agreement = _circle_spaces(res, net)
        faces = _face_spheres(circles, res.ribbon_lines)
        quer = _quer_spheres(circles, res.line_spheres)
        face_quer = _face_quer_spheres(circles, faces, res.ribbon_lines)
        res.circle_spaces, res.circle_agreement = circles, agreement
        res.face_spheres, res.quer_spheres, res.face_quer_spheres = faces, quer, face_quer
    return res


def full_certificate(net: LegendreNet, direction: str = PLUS):
    """verify_channel plus circles and all derived sphere families."""
    return complete_certificate(verify_channel(net, direction), net)


def underdetermined(direction: str, exc: LieGeometryError) -> ChannelFailure:
    """Failure of a certificate that verify_channel returns but that cannot be
    completed: a ribbon of one face (or of one sphere pencil) leaves a
    1-parameter family of cyclides, and the member verify_channel picks need
    not agree with the neighbouring ribbons on their shared line."""
    return ChannelFailure(direction=direction, check="underdetermined", location=None,
                          message=str(exc), envelopes=True)


def first_full_certificate(net: LegendreNet):
    """full_certificate of the first direction, '+' before '-', whose
    certificate completes; otherwise the failure of '-', where a certificate
    that cannot be completed fails as `underdetermined`."""
    for direction in (PLUS, MINUS):
        res = verify_channel(net, direction)
        try:
            complete_certificate(res, net)
        except LieGeometryError as exc:
            res = underdetermined(direction, exc)
        if res.ok:
            return res
    return res


# ---------------------------------------------------------------------------
# Dupin cyclide test


def is_dupin_cyclide(net: LegendreNet):
    """Channel in both directions; returns (ok, constant cyclide or None, info)."""
    return dupin_verdict(net, verify_channel(net, PLUS), verify_channel(net, MINUS))


def dupin_verdict(net: LegendreNet, res_p, res_m):
    """is_dupin_cyclide from the verify_channel results of both directions."""
    if not res_p.ok:
        return False, None, f"'+' direction fails: {res_p.message}"
    if not res_m.ok:
        return False, None, f"'-' direction fails: {res_m.message}"
    s_plus = [net.edge_sphere(i, j) for i, j, lab in net.complex.edges if lab == PLUS]
    s_minus = [net.edge_sphere(i, j) for i, j, lab in net.complex.edges if lab == MINUS]
    sp = span(s_plus)
    sm = span(s_minus)
    if sp.dim == 3 and sm.dim == 3:
        if signature(sp).triple != (2, 1, 0):
            return False, None, "curvature spheres not confined to a (2,1)-plane"
        cy = DupinCyclide(dplus=sp, dminus=orthocomplement(sp))
        if not subspace_distance(cy.dminus, sm) <= TOL.membership:
            return False, None, "the two sphere families are not complementary"
    else:
        # tiny nets: complete the splitting through one face's family
        cy = DupinCyclide(dplus=Subspace(res_p.dplus[0]), dminus=Subspace(res_p.dminus[0]))
        if not all(cy.dplus.contains(s) for s in s_plus) or \
                not all(cy.dminus.contains(s) for s in s_minus):
            return False, None, "curvature spheres not confined to a fixed splitting"
    # subspace_distance of cy.dminus to each ribbon's D-, all dimension 3
    spread = np.max([lc.residuals(res_p.dminus[:, None], cy.dminus.basis),
                     lc.residuals(cy.dminus.basis, res_p.dminus)], initial=0.0)
    return True, cy, f"lie cyclide spread {spread:.3e}"


# ---------------------------------------------------------------------------
# cross-ratio


def cross_ratio(points: Sequence[Sequence[float]], tol: Optional[float] = None) -> float:
    """Real cross-ratio of four concircular points (`cross_ratios` of one)."""
    return float(cross_ratios(np.asarray(points, dtype=float)[None], tol)[0])


def cross_ratios(points: np.ndarray, tol: Optional[float] = None) -> np.ndarray:
    """Real cross-ratios (Q,) of a stack (Q, 4, 3) of concircular quadruples.

    A circle's plane is identified with the complex numbers through an
    orthonormal in-plane frame; ((z1-z2)(z3-z4))/((z2-z3)(z4-z1)) is then
    frame-independent and real. The first quadruple that fails raises its
    error: coincident points, Moebius rank above 3 at cutoff sqrt(tol), or a
    value that is not real, checked in that order.
    """
    t = TOL.agreement if tol is None else tol
    ps = np.asarray(points, dtype=float)
    if ps.ndim != 3 or ps.shape[1:] != (4, 3):
        raise ValueError("cross_ratio expects four 3-points")
    d = ps[:, [0, 0, 0, 1, 1, 2]] - ps[:, [1, 2, 3, 2, 3, 3]]
    coincident = np.any(lc.dots(d, d) == 0.0, axis=1)
    concircular = lc.moebius_point_rank(ps, math.sqrt(t)) <= 3
    centered = ps - ps.mean(axis=1, keepdims=True)
    vt = np.linalg.svd(centered)[2]
    z = (centered @ vt[:, 0, :, None] + 1j * (centered @ vt[:, 1, :, None]))[..., 0]
    a, b = z[:, :2] - z[:, 1:3], z[:, 2:] - z[:, [3, 0]]  # (z1-z2, z2-z3), (z3-z4, z4-z1)
    # products in real parts, rounded as numpy rounds complex scalars (its
    # array product fuses multiply-adds; its array quotient does not differ)
    num, den = np.stack([a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real],
                        axis=-1).view(complex)[..., 0].T
    with np.errstate(divide="ignore", invalid="ignore"):
        cr = num / den
        unreal = np.abs(cr.imag) > 1e-6 * np.fmax(1.0, np.hypot(cr.real, cr.imag))
    bad = np.flatnonzero(coincident | ~concircular | unreal)
    if bad.size:
        q = bad[0]
        raise LieGeometryError(
            "cross_ratio: coincident points" if coincident[q] else
            "cross_ratio: points are not concircular" if not concircular[q] else
            f"cross_ratio not real ({cr[q]}); points not concircular")
    return cr.real


def cross_ratio_constancy(cert: ChannelCertificate, net: LegendreNet) -> float:
    """Max relative spread of cross-ratios over consecutive quadruples of
    non-circular lines, evaluated on every generating circle: one
    `cross_ratios` stack, quadruple by quadruple, of every circle that
    meets the quadruple's lines once each."""
    crossings = net.complex.coordinates(cert.direction).crossings
    # order the crossing lines consistently along one circle
    order = list(crossings[0]) if crossings else []
    if len(order) < 4:
        raise LieGeometryError("need at least four non-circular lines for cross-ratios")
    first = cert.lines[0]
    on_lines = [v for line in cert.lines for v in line]
    pts = np.full((net.complex.n_vertices, 3), np.nan)
    pts[on_lines] = net.vertex_points(on_lines)
    wrap = len(first) > 2 and net.complex.has_edge(first[-1], first[0])
    n = len(order)
    # the one vertex of each circle on each line of `order`, -1 where none
    hits = np.array([[hit[0] if len(hit) == 1 else -1
                      for hit in (crossing.get(oi, ()) for oi in order)]
                     for crossing in crossings])
    ids = (np.arange(n if wrap else n - 3)[:, None] + np.arange(4)) % n
    quads = hits[:, ids].transpose(1, 0, 2)  # (quadruple, circle, 4)
    met = np.all(quads >= 0, axis=2)
    values = np.full(met.shape, np.nan)
    values[met] = cross_ratios(pts[quads[met]])
    hi = np.where(met, values, -np.inf).max(axis=1)
    lo = np.where(met, values, np.inf).min(axis=1)
    spread = (hi - lo) / np.maximum(np.where(met, np.abs(values), -np.inf).max(axis=1), 1e-30)
    # the running maximum of the spreads, which a NaN spread never raises
    return float(np.fmax.reduce(spread[met.sum(axis=1) >= 2], initial=0.0))


# ---------------------------------------------------------------------------
# Ribaucour pairs and multi-circular tests


def is_ribaucour_pair(a: DiscreteCurve3D, b: DiscreteCurve3D,
                      tol: Optional[float] = None) -> bool:
    """Adjacent pairs of corresponding points are concircular."""
    if len(a) != len(b):
        raise ValueError("Ribaucour pair needs curves of equal length")
    quads = np.stack([a.points[:-1], a.points[1:], b.points[1:], b.points[:-1]], axis=1)
    return bool(np.all(lc.moebius_point_rank(quads, TOL.membership if tol is None else tol) <= 3))


# Rounding allowance of the concurrent-lines accept, relative to the unit
# lifts: it keeps the accept sound when t approaches machine precision.
_ROUNDING = 64 * np.finfo(float).eps


def _planes_concurrent(x: np.ndarray, y: np.ndarray, t: float) -> bool:
    """Sound accept: every plane <x_a, y_a> passes within t/3 of one z.

    z is the unit vector minimising the summed squared distances to the
    planes. With w_a = alpha_a x_a + beta_a y_a the projection of z and
    eps >= |z - w_a| (rounding allowance included) for every a, the
    quadrilateral matrix M = [x_s, x_u, y_u, y_s] maps
    c = (alpha_s, -alpha_u, -beta_u, beta_s) to w_s - w_u, so
    |M^T c| <= 2 eps while |c| >= 1 - eps; with unit rows sigma_1 >= 1, hence
    sigma_4 / sigma_1 <= 2 eps / (1 - eps) < t for eps <= t/3 and t < 1
    (for t >= 1 the cutoff passes every quadrilateral anyway).
    """
    # non-finite input is left to the fallback, which fails as the
    # per-quadrilateral SVD does (eigh would raise its own error first)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        return False
    q, r = np.linalg.qr(np.stack([x, y], axis=2))
    flat = q.transpose(1, 0, 2).reshape(6, -1)
    _, vecs = np.linalg.eigh(flat @ flat.T)
    z = vecs[:, -1]
    c = np.einsum("aij,i->aj", q, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = c[:, 1] / r[:, 1, 1]
        alpha = (c[:, 0] - r[:, 0, 1] * beta) / r[:, 0, 0]
        res = np.linalg.norm(z - alpha[:, None] * x - beta[:, None] * y, axis=1)
        eps = res + _ROUNDING * (1.0 + np.abs(alpha) + np.abs(beta))
    return bool(np.max(eps) <= t / 3)


def _quads_circular(x: np.ndarray, y: np.ndarray, t: float) -> bool:
    """Every quadrilateral [x_s, x_u, y_u, y_s], s < u, has rank <= 3.

    x and y are aligned (n, 6) stacks of unit Moebius lifts, the crossings
    of two lines with a family of transversal lines. All quadrilaterals are
    circular exactly when the lines <x_a, y_a> of projective space meet
    pairwise, i.e. (classical lemma) are all concurrent or all coplanar.
    The concurrent case is accepted in O(n) by `_planes_concurrent`; any
    other input is decided by the rank test of `liecore.points_concircular`
    (`liecore.unit_lift_rank` with cutoff t) of the C(n, 2) quadrilaterals.
    """
    n = x.shape[0]
    if n < 2 or _planes_concurrent(x, y, t):
        return True
    s, u = np.triu_indices(n, 1)
    return bool(np.all(lc.unit_lift_rank(np.stack([x[s], x[u], y[u], y[s]], axis=1), t) <= 3))


def is_multi_circular(net: LegendreNet, direction: str, tol: Optional[float] = None) -> bool:
    """Within each dir-ribbon, every coordinate quadrilateral is circular.

    A dir-ribbon is bounded by two dir-lines; the quadrilaterals pair any
    two crossings of those lines, including non-elementary ones. Each
    ribbon costs O(n) when the lines joining corresponding crossings are
    concurrent to within tol/3 (`_planes_concurrent`); otherwise its
    C(n, 2) quadrilaterals are rank-tested exactly as by
    `liecore.points_concircular` with cutoff `tol`.
    """
    t = TOL.membership if tol is None else tol
    lifts = lc.unit_point_lifts(net.vertex_points())
    for la, lb in net.complex.coordinates(direction).line_pairs:
        m = min(len(la), len(lb))
        if not _quads_circular(lifts[la[:m]], lifts[lb[:m]], t):
            return False
    return True


def circle_basis(space: Subspace) -> Tuple[LieVec, LieVec, LieVec]:
    """Pseudo-orthonormal basis (g1, g2 spacelike, g3 timelike) of a (2,1)-space."""
    g = space.restricted_gram()
    eig, vecs = np.linalg.eigh(g)
    if not (eig[0] < 0 < eig[1]):
        raise LieGeometryError("circle space must have signature (2,1)")
    g3 = space.basis.T @ vecs[:, 0] / math.sqrt(-eig[0])
    g1 = space.basis.T @ vecs[:, 1] / math.sqrt(eig[1])
    g2 = space.basis.T @ vecs[:, 2] / math.sqrt(eig[2])
    return g1, g2, g3


def circle_point(space: Subspace, theta: float) -> LieVec:
    """Null direction of the circle space at chart angle theta."""
    g1, g2, g3 = circle_basis(space)
    return g3 + math.cos(theta) * g1 + math.sin(theta) * g2


def sample_circle(space: Subspace, m: int, phase: float = 0.0) -> List[LieVec]:
    """m point spheres at equal chart angles, offset by phase."""
    g1, g2, g3 = circle_basis(space)
    return [g3 + math.cos(phase + 2 * math.pi * k / m) * g1
            + math.sin(phase + 2 * math.pi * k / m) * g2 for k in range(m)]


def circle_chart_angle(space: Subspace, point_sphere: LieVec) -> float:
    """Chart angle of a point sphere lying on the circle."""
    g1, g2, g3 = circle_basis(space)
    alpha = -inner(point_sphere, g3)
    if abs(alpha) <= 1e-13 * lc.aux_norm(point_sphere):
        raise LieGeometryError("point sphere has no timelike component in the circle chart")
    x = point_sphere / alpha
    return math.atan2(inner(x, g2), inner(x, g1))


def circle_euclidean(space: Subspace, n_probe: int = 12):
    """Euclidean (center, radius, plane normal) of a circle space.

    Fails if the circle passes through the point at infinity (a line).
    """
    pts = []
    for p in sample_circle(space, n_probe):
        d = lc.unlift(p)
        if d.kind != "point":
            raise LieGeometryError("circle passes through the point at infinity")
        pts.append(d.center)
    pts = np.array(pts)
    centroid = pts.mean(axis=0)
    _, sv, vt = np.linalg.svd(pts - centroid)
    normal = vt[2]
    u, v = vt[0], vt[1]
    xy = np.stack([(pts - centroid) @ u, (pts - centroid) @ v], axis=1)
    # least squares circle in the plane: |q|^2 - 2 q.c0 = const
    a = np.hstack([2 * xy, np.ones((n_probe, 1))])
    b = (xy ** 2).sum(axis=1)
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    c0, r = sol[:2], math.sqrt(max(sol[2] + sol[:2] @ sol[:2], 0.0))
    center = centroid + c0[0] * u + c0[1] * v
    return center, r, normal


def is_multi_circular_net(net: LegendreNet, tol: Optional[float] = None) -> bool:
    """Every coordinate quadrilateral of every span, in both directions.

    The quadrilaterals of two '+'-lines are those of their crossings with
    the '-'-lines both meet, so each pair of '+'-lines is one call of
    `_quads_circular`: O(n) when the lines joining corresponding crossings
    are concurrent to within tol/3, and otherwise the exact
    per-quadrilateral rank test with cutoff `tol`. Total cost is
    O(lines^2 * n) on a multi-circular net instead of O(lines^2 * n^2).
    """
    t = TOL.membership if tol is None else tol
    crossings = net.complex.coordinates(PLUS).crossings
    n_minus = len(net.complex.coordinates(MINUS).lines)
    # vertices indexed by (plus-line, minus-line) crossing, -1 where none;
    # a pair of lines crossing more than once keeps its last crossing
    grid = np.full((len(crossings), n_minus), -1)
    for pi, crossing in enumerate(crossings):
        for mi, vertices in crossing.items():
            grid[pi, mi] = vertices[-1]
    lifts = lc.unit_point_lifts(net.vertex_points())
    for p1 in range(len(grid)):
        for p2 in range(p1 + 1, len(grid)):
            both = (grid[p1] >= 0) & (grid[p2] >= 0)
            if not _quads_circular(lifts[grid[p1, both]], lifts[grid[p2, both]], t):
                return False
    return True
