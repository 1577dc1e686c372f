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
    LieVec, LieGeometryError, DegenerateGramError, Subspace, POINT_COMPLEX, inner,
    canonical_sign, span, signature, orthocomplement, subspace_distance, oriented_representative,
)
from .cellcomplex import PLUS, MINUS, Incidence
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
    `Coordinates` of the direction. The stacks after constancy_residual are
    set by `complete_certificate`.
    """

    direction: str
    lines: Incidence                       # dir-coordinate lines (vertex paths)
    ribbons: Incidence                     # dir-ribbons (face index strips)
    ribbon_lines: List[Tuple[int, int]]    # bounding line ids per ribbon
    line_ribbons: Incidence                # two-line ribbons of each line
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
    parameter 0 is taken. Each check runs on all lines or ribbons at once,
    grouped by length or rank, and fails as a loop over them would.
    """
    diag = is_legendre(net)
    if not diag.ok:
        return ChannelFailure(direction, "legendre", f"edges {diag.failed_edges[:3]}",
                              "net is not a Legendre map", False)
    coords = net.complex.coordinates(direction)

    # (a) projective constancy of the dir-labelled curvature spheres per line:
    # `projective_distance` of each edge sphere to the line's first one
    spheres, line = net.edge_spheres[coords.line_edges.ids], coords.line_edges.group
    unit = spheres / np.sqrt(lc.dots(spheres, spheres))[:, None]
    first = np.r_[True, line[1:] != line[:-1]][:len(line)]
    rep, rest = unit[first], line[~first]
    d = 1.0 - np.abs(lc.dots((rep / np.sqrt(lc.dots(rep, rep))[:, None])[rest], unit[~first]))
    bad = np.flatnonzero(~(d <= TOL.constancy))
    if bad.size:
        li = int(rest[bad[0]])
        return ChannelFailure(
            direction, "constancy", f"line {li} (vertices {coords.lines[li][:4]}...)",
            f"curvature sphere varies along the line (residual {d[bad[0]]:.3e})", False)
    # stable representative: dominant singular direction of each line's stack
    stack = np.sign(lc.dots(unit, rep[line]))[:, None] * unit
    line_spheres = np.empty((len(coords.lines), 6))
    for ids, rows in coords.line_edges.by_length():
        vt = np.linalg.svd(stack[rows], full_matrices=rows.shape[1] <= 6)[2]  # as in `span`
        line_spheres[ids] = canonical_sign(vt[:, 0])

    # (b) the opposite-label spheres of each ribbon span a (2,1)-plane
    spheres = net.edge_spheres[coords.ribbon_edges.ids]
    dims, n_plus, n_minus = np.zeros((3, len(coords.ribbons)), dtype=int)
    dplus, dminus = np.empty((2, len(coords.ribbons), 3, 6))
    for ids, rows in coords.ribbon_edges.by_length():
        vt, dims[ids] = lc.spans(spheres[rows])
        for r in np.unique(dims[ids][dims[ids] > 0]):
            group = dims[ids] == r
            _, n_plus[ids[group]], n_minus[ids[group]] = lc.signatures(vt[group, :r])
            dminus[ids[group]] = vt[group, :3]
    plane = (dims == 3) & (n_plus == 2) & (n_minus == 1)
    dplus[plane] = lc.orthocomplements(dminus[plane])
    # underdetermined ribbon (single face, or all spheres in one pencil)
    under = (dims == 2) & (n_plus == 1) & (n_minus == 1)
    bounds = coords.ribbon_bounds.degrees
    stop = int(np.argmax(np.r_[(bounds != 2) | ~(plane | under), True]))

    def ribbon_span(ri, message: str) -> ChannelFailure:
        return ChannelFailure(direction, "ribbon_span", f"ribbon {ri}", message, True)

    # the underdetermined ribbons before the first failure, one by one,
    # through their first face's cyclide family
    for ri in np.flatnonzero(under[:stop]).tolist():
        try:
            cy = face_cyclide_family(net, net.complex.faces[coords.ribbons[ri][0]])(0.0)
        except DegenerateFaceError as exc:
            return ribbon_span(ri, str(exc))
        if cy.dplus.dim != 3 or cy.dminus.dim != 3:
            return ribbon_span(ri, f"degenerate face: family member of dims "
                                   f"{cy.dplus.dim}, {cy.dminus.dim}")
        cy = cy.swapped() if direction == MINUS else cy
        dplus[ri], dminus[ri] = cy.dplus.basis, cy.dminus.basis
    if stop < len(bounds) and bounds[stop] != 2:
        return ribbon_span(stop, f"ribbon bounded by {bounds[stop]} lines")
    if stop < len(bounds):
        triple = tuple(int(k) for k in (n_plus[stop], n_minus[stop],
                                        dims[stop] - n_plus[stop] - n_minus[stop]))
        return ribbon_span(stop, f"opposite curvature spheres span dim {dims[stop]} of "
                                 f"signature {triple}, expected a (2,1)-plane")
    return ChannelCertificate(
        direction=direction, lines=coords.lines, ribbons=coords.ribbons,
        ribbon_lines=coords.ribbon_lines, line_ribbons=coords.line_ribbons,
        line_spheres=line_spheres, dplus=dplus, dminus=dminus,
        constancy_residual=float(np.max(d, initial=0.0)))


def certificate_residuals(cert: ChannelCertificate, net: LegendreNet) -> Dict[str, float]:
    """Assertable invariants of a certificate (all should be ~ 0): the
    constant sphere of each line against every contact element on the line,
    and the curvature spheres of every face against its ribbon's cyclide."""
    vertices, line = cert.lines.ids, cert.lines.group
    s, gens = cert.line_spheres[line, None], net.bases[vertices]
    env = np.abs(lc.inner_rows(s, gens)) / (np.sqrt(lc.dots(s, s)) * np.sqrt(lc.dots(gens, gens)))
    # face spheres in `face_edge_labels` order: '-', '+', '-', '+'
    faces, ribbon = cert.ribbons.ids, cert.ribbons.group
    spheres = net.edge_spheres[net.complex.face_edge_ids[faces]]
    plus, minus = (cert.dplus, cert.dminus) if cert.direction == PLUS else (cert.dminus, cert.dplus)
    fc = [lc.residuals(plus[ribbon, None], spheres[:, 1::2]),
          lc.residuals(minus[ribbon, None], spheres[:, ::2])]
    # running maxima, which a NaN residual never raises
    return {"enveloping": float(np.fmax.reduce(env, axis=None, initial=0.0)),
            "face_cyclide": float(np.fmax.reduce(np.concatenate(fc), axis=None, initial=0.0))}


# ---------------------------------------------------------------------------
# generating circles and the sphere families attached to them


def touching_circle_spaces(spheres: np.ndarray, dminus: np.ndarray
                           ) -> Tuple[np.ndarray, np.ndarray]:
    """`touching_circle_space` of each sphere (P, 6) and D- basis (P, 3, 6),
    as `spans` of the images: (P, 3, 6) rows and ranks (P,)."""
    s = spheres / -lc.inner_rows(spheres, POINT_COMPLEX)[:, None]  # oriented_representative
    vt, rank = lc.spans(dminus + lc.inner_rows(dminus, POINT_COMPLEX)[..., None] * s[:, None])
    return vt[:, :3], rank


def touching_circle_space(sphere: LieVec, dminus: Subspace) -> Subspace:
    """Point-sphere 3-space of the cyclide curvature line enveloping `sphere`.

    `sphere` must be a null vector with (sphere, p) != 0, orthogonal to
    dminus; the map y -> y + (y,p) s with (s,p) = -1 is an isometry of
    dminus onto the circle's space.
    """
    s = oriented_representative(sphere)
    return span(dminus.basis + lc.inner_rows(dminus.basis, POINT_COMPLEX)[:, None] * s)


def _circle_spaces(cert: ChannelCertificate, net: LegendreNet) -> Tuple[np.ndarray, float]:
    """Point-sphere 3-space (L, 3, 6) of the generating circle of each line.

    When a line bounds two ribbons the circle is computed from both Lie
    cyclides and the two results must agree; the worst agreement residual
    is returned too. Every vertex of a line must lie on its circle. Errors
    are those of a loop over the lines that checks each line's circle and
    then its vertices.
    """
    n_lines, s = len(cert.lines), cert.line_spheres
    point = np.abs(lc.inner_rows(s, POINT_COMPLEX)) <= TOL.membership * np.sqrt(lc.dots(s, s))
    # (line, ribbon) pairs by line
    ribbon, line, count = cert.line_ribbons.ids, cert.line_ribbons.group, cert.line_ribbons.degrees
    first = cert.line_ribbons.offsets[:-1]  # pair of each line's first ribbon
    live = ~point[line]  # a point sphere has no oriented representative
    # one zero row past the pairs, for the lines that bound no ribbon
    vt, rank = np.zeros((len(line) + 1, 3, 6)), np.zeros(len(line) + 1, dtype=int)
    vt[:-1][live], rank[:-1][live] = touching_circle_spaces(s[line[live]],
                                                            cert.dminus[ribbon[live]])
    # the two circles of a line that bounds two ribbons must agree
    two = np.flatnonzero(count == 2)
    a, b = first[two], first[two] + 1
    d = np.zeros(n_lines)
    d[two] = np.where(rank[a] == rank[b], 0.0, 1.0)
    for r in np.unique(rank[a][(rank[a] == rank[b]) & (rank[a] > 0)]):
        same = (rank[a] == r) & (rank[b] == r)
        d[two[same]] = lc.subspace_distances(vt[a[same], :r], vt[b[same], :r])
    checks = [
        (point, "curvature sphere of line {} is a point sphere - no admissible projection"),
        (count == 0, "line {} belongs to no ribbon"),
        (~(d <= TOL.agreement), lambda li: f"generating circles of line {li} disagree between "
                                           f"ribbons (residual {d[li]:.3e})"),
        (rank[first] != 3, lambda li: f"generating circle of line {li} degenerates "
                                      f"(dim {rank[first][li]})")]
    failure = lc.first_failure(checks)
    # every vertex point sphere of the lines checked so far lies on its circle
    stop = cert.lines.offsets[n_lines if failure is None else failure[0]]
    vertices, on = cert.lines.ids[:stop], cert.lines.group[:stop]
    point_sphere, has_point = point_spheres(net.bases[vertices])
    r = lc.residuals(vt[first][on], point_sphere)
    lc.raise_first([(~has_point, NO_POINT_SPHERE), (~(r <= TOL.agreement), lambda k: (
        f"vertex {vertices[k]} does not lie on the generating circle of line {on[k]} "
        f"(residual {r[k]:.3e})"))])
    lc.raise_first(checks)
    return vt[first], float(np.max(d, initial=0.0))


def moebius_complements(rows: np.ndarray, rank: int) -> Tuple[np.ndarray, np.ndarray]:
    """Moebius vectors (..., 5 - rank, 6) Gram-orthogonal to each stack of
    rows (..., n, 6), from the complement of its span with the point sphere
    complex, and the ranks of those spans (...); zero where not `rank`."""
    p = np.broadcast_to(POINT_COMPLEX, rows.shape[:-2] + (1, 6))
    vt, ranks = lc.spans(np.concatenate([rows, p], axis=-2))
    out = np.zeros(rows.shape[:-2] + (6 - rank, 6))
    out[ranks == rank] = lc.orthocomplements(vt[ranks == rank, :rank])
    return out, ranks


def _unit_spheres(v: np.ndarray, checks) -> np.ndarray:
    """Canonically signed unit Moebius spheres of the rows of v; raises the
    first error of the (mask, message) checks and `unit_moebius_sphere`."""
    units, ok = lc.unit_moebius_spheres(v)
    lc.raise_first([*checks, (~ok, "vector has no real unoriented sphere part")])
    return canonical_sign(units)


def _face_spheres(circles: np.ndarray, ribbon_lines) -> np.ndarray:
    """Per ribbon: the unique Moebius sphere containing both bounding circles."""
    la, lb = np.array(ribbon_lines, dtype=int).reshape(-1, 2).T
    comp, rank = moebius_complements(np.concatenate([circles[la], circles[lb]], axis=1), 5)
    return _unit_spheres(comp[:, 0], [(rank != 5, lambda ri: (
        f"ribbon {ri}: bounding circles are not cospherical (complement dim {6 - rank[ri]}) "
        f"- certificate corrupt"))])


def _quer_spheres(circles: np.ndarray, line_spheres: np.ndarray) -> np.ndarray:
    """Per line: sphere through the circle orthogonal to the enveloped sphere."""
    pencils, rank = moebius_complements(circles, 4)
    q1, q2 = pencils[:, 0], pencils[:, 1]
    v = (lc.inner_rows(q2, line_spheres)[:, None] * q1
         - lc.inner_rows(q1, line_spheres)[:, None] * q2)
    return _unit_spheres(v, [(rank != 4, "line {}: circle spans no sphere pencil"),
                             (np.sqrt(lc.dots(v, v)) <= TOL.membership,
                              "line {}: enveloped sphere orthogonal to the whole pencil")])


def _face_quer_spheres(circles: np.ndarray, face_spheres: np.ndarray, ribbon_lines) -> np.ndarray:
    """Per ribbon: real sphere whose reflection swaps the bounding circles.

    Orthogonal to the face-sphere by construction. Both algebraic
    candidates are tried; failure reports their residuals.
    """
    la, lb = np.array(ribbon_lines, dtype=int).reshape(-1, 2).T
    n, sigma = len(la), face_spheres[:, None, None]
    # the sphere through each bounding circle orthogonal to the face-sphere
    normals, rank = moebius_complements(np.concatenate([np.stack(
        [circles[la], circles[lb]], axis=1), np.broadcast_to(sigma, (n, 2, 1, 6))], axis=2), 5)
    sound = np.all(rank == 5, axis=1)
    normals = np.where(sound[:, None, None], normals[:, :, 0], lc.E1)
    normals /= np.sqrt(np.abs(lc.inner_rows(normals, normals)))[..., None]
    a, b = normals[:, 0], normals[:, 1]
    b = np.where(lc.inner_rows(a, b)[:, None] < 0, -b, b)
    m = np.stack([a - b, a + b], axis=1)  # the two candidates
    mm = lc.inner_rows(m, m)
    live = sound[:, None] & ~(mm <= TOL.membership)
    null = live & (np.abs(mm) <= 1e-14 * np.sqrt(lc.dots(m, m)) ** 2)  # `gram_reflection` refuses
    live &= ~null
    # circle la reflected in each live candidate, against circle lb
    rows, cols = np.nonzero(live)
    v, mv = circles[la[rows]], m[rows, cols, None]
    vt, rank = lc.spans(v - (2.0 * lc.inner_rows(v, mv) / mm[rows, cols, None])[..., None] * mv)
    residual = np.full((n, 2), math.inf)  # 1 for spaces of different dimensions
    residual[live] = np.where(rank == 3, lc.subspace_distances(vt[:, :3], circles[lb[rows]]), 1.0)
    # the better candidate first, the first one on a tie (a stable sort)
    best = (residual[:, 1] < residual[:, 0]).astype(int)
    ranked = np.take_along_axis(residual, np.stack([best, 1 - best], axis=1), axis=1)
    return _unit_spheres(m[np.arange(n), best], [
        (~sound, "ribbon {}: degenerate circle normals"),
        (null.any(axis=1), lambda _: DegenerateGramError("cannot reflect in a null vector")),
        (~(ranked[:, 0] <= TOL.agreement), lambda ri: (
            f"ribbon {ri}: no swapping reflection found "
            f"(candidate residuals {ranked[ri, 0]:.3e}, {ranked[ri, 1]:.3e})"))])


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


def certified(net: LegendreNet, direction: str):
    """`full_certificate` of one direction, where a certificate that
    verify_channel returns but that cannot be completed fails as
    `underdetermined`: a ribbon of one face (or of one sphere pencil) leaves
    a 1-parameter family of cyclides, and the member verify_channel picks
    need not agree with the neighbouring ribbons on their shared line."""
    res = verify_channel(net, direction)
    try:
        return complete_certificate(res, net)
    except LieGeometryError as exc:
        return ChannelFailure(direction, "underdetermined", None, str(exc), True)


def first_full_certificate(net: LegendreNet):
    """The `certified` result of the first direction, '+' before '-', that
    is a certificate; otherwise the failure of '-'."""
    res = certified(net, PLUS)
    return res if res.ok else certified(net, MINUS)


# ---------------------------------------------------------------------------
# Dupin cyclide test


def is_dupin_cyclide(net: LegendreNet):
    """Channel in both directions, each certificate completed; returns
    (ok, constant cyclide or None, info)."""
    return dupin_verdict(net, certified(net, PLUS), certified(net, MINUS))


def dupin_verdict(net: LegendreNet, res_p, res_m):
    """is_dupin_cyclide from the `certified` results of both directions."""
    if not res_p.ok:
        return False, None, f"'+' direction fails: {res_p.message}"
    if not res_m.ok:
        return False, None, f"'-' direction fails: {res_m.message}"
    labels = net.complex.edge_labels
    s_plus, s_minus = (net.edge_spheres[labels == lab] for lab in (PLUS, MINUS))
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
        if not np.all(lc.residuals(cy.dplus.basis, s_plus) <= TOL.membership) or \
                not np.all(lc.residuals(cy.dminus.basis, s_minus) <= TOL.membership):
            return False, None, "curvature spheres not confined to a fixed splitting"
    spread = np.max(lc.subspace_distances(
        res_p.dminus, np.broadcast_to(cy.dminus.basis, res_p.dminus.shape)), initial=0.0)
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
    vertices, other = net.complex.coordinates(cert.direction).crossings
    # order the crossing lines consistently along one circle
    crossed, at = np.unique(other.ids[other.group == 0], return_index=True)
    order = crossed[np.argsort(at)]
    if len(order) < 4:
        raise LieGeometryError("need at least four non-circular lines for cross-ratios")
    pts = np.full((net.complex.n_vertices, 3), np.nan)
    pts[cert.lines.ids] = net.vertex_points(cert.lines.ids)
    # line 0 is closed when it has as many edges as vertices
    wrap = cert.lines.degrees[0] == net.complex.coordinates(cert.direction).line_edges.degrees[0]
    n = len(order)
    # the one vertex of each circle on each line of `order`, -1 where none;
    # the other lines go to a spare last column
    slot = np.full(other.ids.max() + 1, n)
    slot[order] = np.arange(n)
    cells, at, count = np.unique(other.group * (n + 1) + slot[other.ids], return_index=True,
                                 return_counts=True)
    hits = np.full((len(other), n + 1), -1)
    hits.flat[cells[count == 1]] = vertices.ids[at[count == 1]]
    hits = hits[:, :n]
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
# Crossings per batch of `is_multi_circular_net`, whose crossings of line
# pairs grow as V^1.5: batches keep its memory linear in V. A 128^2 Dupin
# torus verified in both directions peaks at 123 MB, 562 MB in one batch;
# at 64^2 batches of 2^13 add nothing to the peak of loading the net,
# 2^15 add 11 MB, and neither is faster.
_BATCH = 1 << 13


def _planes_concurrent(x: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
    """Sound accept of each pair of aligned stacks (P, n, 6) of unit lifts:
    every plane <x_a, y_a> of the pair passes within t/3 of one z.

    z is the unit vector minimising the summed squared distances to the
    planes. With w_a = alpha_a x_a + beta_a y_a the projection of z and
    eps >= |z - w_a| (rounding allowance included) for every a, the
    quadrilateral matrix M = [x_s, x_u, y_u, y_s] maps
    c = (alpha_s, -alpha_u, -beta_u, beta_s) to w_s - w_u, so
    |M^T c| <= 2 eps while |c| >= 1 - eps; with unit rows sigma_1 >= 1, hence
    sigma_4 / sigma_1 <= 2 eps / (1 - eps) < t for eps <= t/3 and t < 1
    (for t >= 1 the cutoff passes every quadrilateral anyway). Non-finite
    pairs are refused: the exact test fails them as the SVD does.
    """
    accept = np.zeros(len(x), dtype=bool)
    finite = np.isfinite(x).all(axis=(1, 2)) & np.isfinite(y).all(axis=(1, 2))
    x, y = x[finite], y[finite]
    q, r = np.linalg.qr(np.stack([x, y], axis=3))
    flat = q.transpose(0, 2, 1, 3).reshape(len(q), 6, 2 * q.shape[1])
    z = np.linalg.eigh(flat @ flat.transpose(0, 2, 1))[1][..., -1]
    c = (np.swapaxes(q, -1, -2) @ z[:, None, :, None])[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = c[..., 1] / r[..., 1, 1]
        alpha = (c[..., 0] - r[..., 0, 1] * beta) / r[..., 0, 0]
        w = z[:, None] - alpha[..., None] * x - beta[..., None] * y
        eps = np.sqrt(lc.dots(w, w)) + _ROUNDING * (1.0 + np.abs(alpha) + np.abs(beta))
    accept[finite] = np.max(eps, axis=1) <= t / 3
    return accept


def _all_circular(lifts: np.ndarray, groups, t: float) -> bool:
    """Every quadrilateral [x_s, x_u, y_u, y_s], s < u, of every pair is
    circular; each of the `groups` holds pair ids (P,) and index rows
    xs, ys (P, n) of one length n into the unit lifts, the crossings of
    two lines with transversal lines. All quadrilaterals of a pair are
    circular exactly when the lines <x_a, y_a> of projective space meet
    pairwise, i.e. (classical lemma) are all concurrent or all coplanar.
    The concurrent case is accepted for all pairs of a group at once by
    `_planes_concurrent`; the refused pairs, in id order, take the exact
    rank test of `liecore.points_concircular` with cutoff t.
    """
    refused = []
    for ids, xs, ys in groups:
        if xs.shape[1] >= 2:
            bad = ~_planes_concurrent(lifts[xs], lifts[ys], t)
            refused += zip(ids[bad], xs[bad], ys[bad])
    for _, xs, ys in sorted(refused, key=lambda pair: pair[0]):
        x, y, (s, u) = lifts[xs], lifts[ys], np.triu_indices(len(xs), 1)
        if not np.all(lc.unit_lift_rank(np.stack([x[s], x[u], y[u], y[s]], axis=1), t) <= 3):
            return False
    return True


def is_multi_circular(net: LegendreNet, direction: str, tol: Optional[float] = None) -> bool:
    """Within each dir-ribbon, every coordinate quadrilateral is circular.

    A dir-ribbon is bounded by two dir-lines; the quadrilaterals pair any
    two crossings of those lines, including non-elementary ones. A ribbon
    costs O(n) when the lines joining corresponding crossings are
    concurrent to within tol/3, and O(n^2) rank tests otherwise
    (`_all_circular`).
    """
    first, second = net.complex.coordinates(direction).line_pairs
    n = np.minimum(first.degrees, second.degrees)
    groups = [(ids, first.ids[a], second.ids[b])
              for (ids, a), (_, b) in zip(first.by_length(n), second.by_length(n))]
    return _all_circular(lc.unit_point_lifts(net.vertex_points()), groups,
                         TOL.membership if tol is None else tol)


def is_multi_circular_net(net: LegendreNet, tol: Optional[float] = None) -> bool:
    """Every coordinate quadrilateral of every span, in both directions.

    The quadrilaterals of two '+'-lines are those of their crossings with
    the '-'-lines both meet, so each pair of '+'-lines that shares a
    '-'-line is one pair of `_all_circular`, its crossings by ascending
    '-'-line: a '-'-line crossed by k '+'-lines adds C(k, 2) pairs, and a
    multi-circular net costs O(pairs * n) instead of O(pairs * n^2). Two
    lines crossing more than once keep their last crossing along the
    '+'-line. The pairs go to `_all_circular` in ascending order, in
    batches of about `_BATCH` crossings.
    """
    vertices, minus = net.complex.coordinates(PLUS).crossings
    n_plus, n_minus = len(minus), len(net.complex.coordinates(MINUS).lines)
    keys, last = np.unique((minus.group * n_minus + minus.ids)[::-1], return_index=True)
    (plus, line), vertex = np.divmod(keys, n_minus), vertices.ids[::-1][last]
    # the crossings on each '-'-line, by ascending '+'-line
    on_line = Incidence.grouped(line, np.arange(len(keys)), n_minus)
    # batches of '+'-lines by the crossings gathered for them
    batch = np.cumsum(np.bincount(plus, on_line.degrees[line], minlength=n_plus)) // _BATCH
    bounds = np.searchsorted(plus, np.r_[np.flatnonzero(np.diff(batch, prepend=-1)), n_plus])

    def groups():
        for a, b in zip(bounds[:-1], bounds[1:]):
            # each crossing with the later '+'-lines' crossings on its '-'-line
            y, at = on_line.gather(line[a:b])
            later = plus[y] > plus[at + a]
            x, y = at[later] + a, y[later]
            pair = plus[x] * n_plus + plus[y]
            order = np.argsort(pair, kind="stable")
            pair, x, y = pair[order], vertex[x[order]], vertex[y[order]]
            start = np.flatnonzero(np.diff(pair, prepend=-1))
            for rows, at in Incidence(np.append(start, len(pair)), x).by_length():
                yield pair[start[rows]], x[at], y[at]

    return _all_circular(lc.unit_point_lifts(net.vertex_points()), groups(),
                         TOL.membership if tol is None else tol)


def circle_bases(spaces: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`circle_basis` (g1, g2, g3) of each space of a stack (L, 3, 6), and
    the mask of the spaces of signature (2,1) (elsewhere undefined)."""
    eig, vecs = np.linalg.eigh(spaces @ lc.GRAM @ np.swapaxes(spaces, -1, -2))
    with np.errstate(invalid="ignore"):
        g3, g1, g2 = ((np.swapaxes(spaces, -1, -2) @ vecs[:, :, k, None])[..., 0]
                      / np.sqrt(sign * eig[:, k, None]) for k, sign in ((0, -1), (1, 1), (2, 1)))
    return g1, g2, g3, (eig[:, 0] < 0) & (0 < eig[:, 1])


def circle_basis(space: Subspace) -> Tuple[LieVec, LieVec, LieVec]:
    """Pseudo-orthonormal basis (g1, g2 spacelike, g3 timelike) of a (2,1)-space."""
    g1, g2, g3, ok = circle_bases(space.basis[None])
    if not ok[0]:
        raise LieGeometryError("circle space must have signature (2,1)")
    return g1[0], g2[0], g3[0]


def circle_point(space: Subspace, theta: float) -> LieVec:
    """Null direction of the circle space at chart angle theta."""
    g1, g2, g3 = circle_basis(space)
    return g3 + math.cos(theta) * g1 + math.sin(theta) * g2


def circle_points(g1: np.ndarray, g2: np.ndarray, g3: np.ndarray, m: int,
                  phase: float = 0.0) -> np.ndarray:
    """m points (..., m, 6) at equal chart angles, offset by phase, of the
    circle bases (g1, g2, g3), each (..., 6)."""
    angles = [phase + 2 * math.pi * k / m for k in range(m)]
    cos, sin = (np.array([f(a) for a in angles])[:, None] for f in (math.cos, math.sin))
    return g3[..., None, :] + cos * g1[..., None, :] + sin * g2[..., None, :]


def sample_circle(space: Subspace, m: int, phase: float = 0.0) -> List[LieVec]:
    """m point spheres at equal chart angles, offset by phase."""
    return list(circle_points(*circle_basis(space), m, phase))


def circle_chart_angle(space: Subspace, point_sphere: LieVec) -> float:
    """Chart angle of a point sphere lying on the circle."""
    g1, g2, g3 = circle_basis(space)
    alpha = -inner(point_sphere, g3)
    if abs(alpha) <= 1e-13 * lc.aux_norm(point_sphere):
        raise LieGeometryError("point sphere has no timelike component in the circle chart")
    x = point_sphere / alpha
    return math.atan2(inner(x, g2), inner(x, g1))


def circles_euclidean(spaces: np.ndarray, n_probe: int = 12):
    """(ok, center, radius, plane normal): the mask (L,) of the circle
    spaces of a stack (L, 3, 6) that are Euclidean circles, the others
    passing through the point at infinity (lines) or being no circle, and
    the center, radius and normal of each of those. Their n_probe samples
    are read by one `liecore.unlifts` and fitted by one batched plane SVD
    and one least-squares circle per circle.
    """
    g1, g2, g3, ok = circle_bases(spaces)
    kind, w = lc.unlifts(circle_points(g1, g2, g3, n_probe))
    ok &= np.all(kind == 0, axis=1)
    pts = w[ok, :, :3]
    centroid = pts.mean(axis=1)
    vt = np.linalg.svd(pts - centroid[:, None])[2]
    u, v = vt[:, 0, :, None], vt[:, 1, :, None]
    xy = np.concatenate([(pts - centroid[:, None]) @ u, (pts - centroid[:, None]) @ v], axis=-1)
    # least squares circle in the plane: |q|^2 - 2 q.c0 = const
    a = np.concatenate([2 * xy, np.ones(xy.shape[:-1] + (1,))], axis=-1)
    sol = np.array([np.linalg.lstsq(ak, bk, rcond=None)[0]
                    for ak, bk in zip(a, (xy ** 2).sum(axis=-1))]).reshape(-1, 3)
    r2 = sol[:, 2] + lc.dots(sol[:, :2], sol[:, :2])
    center = centroid + sol[:, :1] * u[..., 0] + sol[:, 1:2] * v[..., 0]
    return ok, center, np.sqrt(np.where(0.0 > r2, 0.0, r2)), vt[:, 2]


def circle_euclidean(space: Subspace, n_probe: int = 12):
    """Euclidean (center, radius, plane normal) of a circle space.

    Fails if the circle passes through the point at infinity (a line).
    """
    ok, center, radius, normal = circles_euclidean(space.basis[None], n_probe)
    if not ok[0]:
        circle_basis(space)  # a space that is no circle fails as such
        raise LieGeometryError("circle passes through the point at infinity")
    return center[0], float(radius[0]), normal[0]
