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
from typing import Dict, List, Optional, Tuple

import numpy as np

from .config import TOL
from . import liecore as lc
from .liecore import (
    LieGeometryError, DegenerateGramError, Subspace, POINT_COMPLEX, canonical_sign, span,
    signature, orthocomplement, subspace_distance,
)
from .cellcomplex import PLUS, MINUS, SLOTS, Incidence
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
    # 1 - |cos| of each unit edge sphere against the line's first one
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
            cy = face_cyclide_family(net, net.complex.face_vertices[coords.ribbons[ri][0]])(0.0)
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
    """Point-sphere 3-space of the cyclide curvature line enveloping each
    sphere (P, 6), given the cyclide's D- basis (P, 3, 6): the `spans` of
    the images, (P, 3, 6) rows whose first rank rows are the basis, and the
    ranks (P,).

    Each sphere must be a null vector with (sphere, p) != 0, orthogonal to
    its D-; the map y -> y + (y,p) s with s the sphere rescaled to
    (s,p) = -1 is an isometry of D- onto the circle's space.
    """
    s = spheres / -lc.inner_rows(spheres, POINT_COMPLEX)[:, None]  # oriented_representative
    vt, rank = lc.spans(dminus + lc.inner_rows(dminus, POINT_COMPLEX)[..., None] * s[:, None])
    return vt[:, :3], rank


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
    """Unit Moebius spheres of the rows of v, each signed so that a sphere
    has positive radius (u0 > 0) and a plane (|u0| <= TOL.null, as
    `liecore.unlifts` reads it) is canonically signed; raises the first
    error of the (mask, message) checks and of a row that has no real
    unoriented sphere part."""
    units, ok = lc.unit_moebius_spheres(v)
    lc.raise_first([*checks, (~ok, "vector has no real unoriented sphere part")])
    u0 = units[..., 3] / np.sqrt(lc.dots(units, units))
    return np.where((np.abs(u0) <= TOL.null)[..., None], canonical_sign(units),
                    np.where((u0 < 0.0)[..., None], -units, units))


def _face_spheres(circles: np.ndarray, ribbon_lines) -> np.ndarray:
    """Per ribbon: the unique Moebius sphere containing both bounding circles."""
    la, lb = np.array(ribbon_lines, dtype=int).reshape(-1, 2).T
    comp, rank = moebius_complements(np.concatenate([circles[la], circles[lb]], axis=1), 5)
    return _unit_spheres(comp[:, 0], [(rank != 5, lambda ri: (
        f"ribbon {ri}: bounding circles are not cospherical (complement dim {6 - rank[ri]}) "
        f"- certificate corrupt"))])


def _quer_spheres(circles: np.ndarray, line_spheres: np.ndarray, sides: np.ndarray) -> np.ndarray:
    """Per line: sphere through the circle orthogonal to the enveloped
    sphere, oriented so that its normal points to the side of the point
    lift in `sides` (signed as `_unit_spheres` signs it where that point is
    missing or on the sphere)."""
    pencils, rank = moebius_complements(circles, 4)
    q1, q2 = pencils[:, 0], pencils[:, 1]
    v = (lc.inner_rows(q2, line_spheres)[:, None] * q1
         - lc.inner_rows(q1, line_spheres)[:, None] * q2)
    units = _unit_spheres(v, [(rank != 4, "line {}: circle spans no sphere pencil"),
                              (np.sqrt(lc.dots(v, v)) <= TOL.membership,
                               "line {}: enveloped sphere orthogonal to the whole pencil")])
    return np.where(lc.inner_rows(units, sides)[:, None] < 0.0, -units, units)


def _line_sides(cert: ChannelCertificate, net: LegendreNet) -> np.ndarray:
    """Point lift (L, 6) of the side vertex of each line: the neighbour of
    smallest id, across an edge of the other label, of the line's first
    vertex; NaN where it has none or no finite position. The surface
    crosses a quer sphere there, so the vertex lies off it."""
    c = net.complex
    heads = cert.lines.ids[cert.lines.offsets[:-1]]
    edges, at = c.vertex_edges_csr.gather(heads)
    across = c.edge_labels[edges] != cert.direction
    side = np.full(len(heads), c.n_vertices)
    np.minimum.at(side, at[across], c.edge_vertices[edges[across]].sum(axis=1) - heads[at[across]])
    lifts, has = np.full((len(heads), 6), np.nan), side < c.n_vertices
    lifts[has] = _point_lifts(net, side[has])
    return lifts


def _ribbon_crossings(cert: ChannelCertificate, net: LegendreNet) -> np.ndarray:
    """Point lifts (R, 2, 6) of the ends of each ribbon's crossing edge: the
    first edge of the other label of its first face; NaN where an end has
    no finite position."""
    slot = SLOTS[MINUS if cert.direction == PLUS else PLUS][0]
    face = net.complex.face_vertices[cert.ribbons.ids[cert.ribbons.offsets[:-1]]]
    return _point_lifts(net, face[:, [slot, (slot + 1) % 4]].ravel()).reshape(-1, 2, 6)


def _positions(net: LegendreNet, vertices: np.ndarray) -> np.ndarray:
    """Euclidean positions (n, 3) of the vertices, NaN for a vertex with none."""
    s, ok = point_spheres(net.bases[vertices])
    kind, w = lc.unlifts(s)
    return np.where((ok & (kind == 0))[:, None], w[:, :3], np.nan)


def _point_lifts(net: LegendreNet, vertices: np.ndarray) -> np.ndarray:
    """Point lifts (n, 6) of the vertices' positions, NaN for a vertex with none."""
    with np.errstate(invalid="ignore"):
        return lc.lift_points(_positions(net, vertices))


def _face_quer_spheres(circles: np.ndarray, face_spheres: np.ndarray, ribbon_lines,
                       crossings: np.ndarray) -> np.ndarray:
    """Per ribbon: real sphere whose reflection swaps the bounding circles.

    Orthogonal to the face-sphere by construction. Both algebraic
    candidates are tried; failure reports their residuals. Bounding circles
    that meet are swapped by both (the two bisectors), and the one taken
    separates the point lifts (R, 2, 6) of the ribbon's crossing edge in
    `crossings`: its reflection maps the ribbon's vertices on one line to
    those on the other.
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
    null = live & (np.abs(mm) <= 1e-14 * np.sqrt(lc.dots(m, m)) ** 2)  # no reflection in a null m
    live &= ~null
    # circle la reflected in each live candidate, against circle lb
    rows, cols = np.nonzero(live)
    v, mv = circles[la[rows]], m[rows, cols, None]
    vt, rank = lc.spans(v - (2.0 * lc.inner_rows(v, mv) / mm[rows, cols, None])[..., None] * mv)
    residual = np.full((n, 2), math.inf)  # 1 for spaces of different dimensions
    residual[live] = np.where(rank == 3, lc.subspace_distances(vt[:, :3], circles[lb[rows]]), 1.0)
    # a swapping candidate that separates the crossing edge first, then the
    # better one, the first one on a tie
    sides = lc.inner_rows(m[:, :, None], crossings[:, None])
    rank = np.where(residual <= TOL.agreement, np.where(sides[..., 0] * sides[..., 1] < 0.0, 0, 1), 2)
    best = ((rank[:, 1] < rank[:, 0])
            | ((rank[:, 1] == rank[:, 0]) & (residual[:, 1] < residual[:, 0]))).astype(int)
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
        quer = _quer_spheres(circles, res.line_spheres, _line_sides(res, net))
        face_quer = _face_quer_spheres(circles, faces, res.ribbon_lines, _ribbon_crossings(res, net))
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
    (for t >= 1 the cutoff passes every quadrilateral anyway). The planes
    are factored by `liecore.gram_schmidt2`; where x_a is parallel to y_a,
    beta_a is NaN and the pair is refused. Non-finite pairs are refused: the
    exact test fails them as the SVD does.
    """
    accept = np.zeros(len(x), dtype=bool)
    finite = np.isfinite(x).all(axis=(1, 2)) & np.isfinite(y).all(axis=(1, 2))
    x, y = x[finite], y[finite]
    q1, q2, r11, r12, r22 = lc.gram_schmidt2(x, y)
    # z: top eigenvector of the summed projectors onto the planes
    z = np.linalg.eigh(np.swapaxes(q1, 1, 2) @ q1 + np.swapaxes(q2, 1, 2) @ q2)[1][..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = lc.dots(q2, z[:, None]) / r22
        alpha = (lc.dots(q1, z[:, None]) - r12 * beta) / r11
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
    """Pseudo-orthonormal basis (g1, g2 spacelike, g3 timelike) of each
    space of a stack (L, 3, 6), and the mask of the spaces of signature
    (2,1) (elsewhere undefined)."""
    eig, vecs = np.linalg.eigh(spaces @ lc.GRAM @ np.swapaxes(spaces, -1, -2))
    with np.errstate(invalid="ignore"):
        g3, g1, g2 = ((np.swapaxes(spaces, -1, -2) @ vecs[:, :, k, None])[..., 0]
                      / np.sqrt(sign * eig[:, k, None]) for k, sign in ((0, -1), (1, 1), (2, 1)))
    return g1, g2, g3, (eig[:, 0] < 0) & (0 < eig[:, 1])


def equal_angles(m: int, phase: float = 0.0) -> List[float]:
    """m equal chart angles 2 pi k / m, offset by phase."""
    return [phase + 2 * math.pi * k / m for k in range(m)]


def circle_points(g1: np.ndarray, g2: np.ndarray, g3: np.ndarray, angles) -> np.ndarray:
    """Null directions (..., m, 6) at the chart angles of the circle bases
    (g1, g2, g3), each (..., 6): the same m angles for every circle, or a
    stack (..., m) of angles per circle."""
    a = np.asarray(angles, dtype=float)
    cos, sin = (np.vectorize(f, otypes=[float])(a)[..., None] for f in (math.cos, math.sin))
    return g3[..., None, :] + cos * g1[..., None, :] + sin * g2[..., None, :]


def circle_chart_angles(spaces: np.ndarray, point_spheres: np.ndarray) -> np.ndarray:
    """Chart angles (L, k) of point spheres (L, k, 6) lying on the circles
    of a stack of spaces (L, 3, 6), in the charts of `circle_bases`."""
    g1, g2, g3, ok = circle_bases(spaces)
    alpha = -lc.inner_rows(point_spheres, g3[:, None])
    flat = np.abs(alpha) <= 1e-13 * np.sqrt(lc.dots(point_spheres, point_spheres))
    lc.raise_first([(~ok, "circle space must have signature (2,1)"),
                    (flat.any(axis=1), "point sphere has no timelike component in the circle chart")])
    x = point_spheres / alpha[..., None]
    return np.arctan2(lc.inner_rows(x, g2[:, None]), lc.inner_rows(x, g1[:, None]))


def _line_heads(cert: ChannelCertificate) -> Tuple[np.ndarray, np.ndarray]:
    """The first three vertices (L, 3) of each line in line order, and the
    mask (L,) of the lines of two vertices, whose third is their first."""
    lines, at = cert.lines, cert.lines.offsets[:-1, None] + np.arange(3)
    two = lines.degrees == 2
    at[two, 2] = at[two, 0]
    return lines.ids[at], two


def circle_starts(cert: ChannelCertificate, net: LegendreNet) -> Tuple[np.ndarray, np.ndarray]:
    """Chart angle (L,) of the first vertex of each line on its generating
    circle, and the sign (L,) of the chart direction in which the line's
    first three vertices run (a line of two vertices takes the point of
    the circle opposite its first vertex as the third)."""
    heads, two = _line_heads(cert)
    theta = circle_chart_angles(cert.circle_spaces,
                                point_spheres(net.bases[heads.ravel()])[0].reshape(-1, 3, 6))
    theta[two, 2] = theta[two, 0] + math.pi
    turn = (theta[:, 1:] - theta[:, :1]) % (2 * math.pi)
    return theta[:, 0], np.where(turn[:, 0] < turn[:, 1], 1.0, -1.0)


def circles_euclidean(cert: ChannelCertificate, net: LegendreNet):
    """(ok, center, radius, plane normal) of the generating circle of each
    line of a completed certificate, in closed form from the pencil W of
    spheres through it: with k the products of a basis of W with the
    point at infinity and G its Gram matrix, the curvature is
    sqrt(k^T G^-1 k), the member G^-1 k of W is the smallest sphere through
    the circle (its center) and the member orthogonal to it the circle's
    plane.

    ok masks the circles (L,); the others are no circle of signature (2,1)
    or read as lines: their curvature times the diagonal of the bounding box
    of the net's finite vertices is below TOL.rank, the relative cutoff of
    the rank decisions. The plane normal is
    oriented by the right-hand rule of the line's first three vertices in
    line order (a line of two vertices takes the point of the circle
    opposite its first vertex as the third).
    """
    spaces = cert.circle_spaces
    *_, ok = circle_bases(spaces)
    pencils, rank = moebius_complements(spaces, 4)
    w1, w2 = pencils[:, 0], pencils[:, 1]
    k1, k2 = -w1[:, 3], -w2[:, 3]  # (w, einf)
    g11, g22, g12 = lc.inner_rows(w1, w1), lc.inner_rows(w2, w2), lc.inner_rows(w1, w2)
    with np.errstate(divide="ignore", invalid="ignore"):
        c1, c2 = g22 * k1 - g12 * k2, g11 * k2 - g12 * k1  # det(G) G^-1 k
        kappa = np.sqrt((c1 * k1 + c2 * k2) / (g11 * g22 - g12 * g12))
        p = c1[:, None] * w1 + c2[:, None] * w2
        center = p[:, :3] / p[:, 3:4]
        normal = k2[:, None] * w1[:, :3] - k1[:, None] * w2[:, :3]
        normal /= np.sqrt(lc.dots(normal, normal))[:, None]
    points = _positions(net, np.arange(net.complex.n_vertices))
    box = np.fmax.reduce(points, axis=0, initial=-np.inf) - np.fmin.reduce(points, axis=0,
                                                                           initial=np.inf)
    with np.errstate(invalid="ignore"):
        ok &= (rank == 4) & (kappa * np.sqrt(box @ box) >= TOL.rank)
    heads, two = _line_heads(cert)
    p0, p1, p2 = _positions(net, heads.T.ravel()).reshape(3, -1, 3)
    p2[two] = 2.0 * center[two] - p0[two]
    with np.errstate(invalid="ignore"):
        flip = lc.dots(normal, np.cross(p1 - p0, p2 - p0)) < 0.0
    normal = np.where(flip[:, None], -normal, normal)
    return ok, center[ok], 1.0 / kappa[ok], normal[ok]
