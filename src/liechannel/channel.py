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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import TOL
from . import liecore as lc
from .liecore import (
    LieVec, LieGeometryError, Subspace, POINT_COMPLEX, inner, normalized,
    canonical_sign, span, signature, orthocomplement, subspace_distance,
    points_concircular, gram_reflection, unit_moebius_sphere,
    oriented_representative,
)
from .cellcomplex import (
    QuadComplex, PLUS, MINUS, edge_key, face_edge_labels,
    plus_lines, minus_lines, plus_ribbons, minus_ribbons,
)
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
    """Per-line and per-ribbon data of a verified channel surface."""

    direction: str
    lines: List[List[int]]                 # dir-coordinate lines (vertex paths)
    ribbons: List[List[int]]               # dir-ribbons (face index strips)
    ribbon_lines: List[Tuple[int, int]]    # bounding line ids per ribbon
    line_spheres: List[LieVec]             # constant enveloped sphere per line
    cyclides: List[DupinCyclide]           # Lie cyclide per ribbon
    constancy_residual: float
    line_ribbons: Dict[int, List[int]] = field(default_factory=dict)
    circles: Optional[List[DupinCyclide]] = None        # per line
    circle_agreement: Optional[float] = None
    face_spheres: Optional[List[LieVec]] = None         # per ribbon, Moebius unit
    quer_spheres: Optional[List[LieVec]] = None         # per line, Moebius unit
    face_quer_spheres: Optional[List[LieVec]] = None    # per ribbon, Moebius unit

    ok = True


@dataclass
class ChannelFailure:
    direction: str
    check: str                  # "legendre" | "constancy" | "ribbon_span" | "underdetermined"
    location: Optional[str]
    message: str
    envelopes: bool             # whether check (a) held

    ok = False


def _direction_structures(c: QuadComplex, direction: str):
    if direction == PLUS:
        return plus_lines(c), plus_ribbons(c)
    if direction == MINUS:
        return minus_lines(c), minus_ribbons(c)
    raise ValueError("direction must be '+' or '-'")


def _line_edges(line: List[int], c: QuadComplex) -> List[Tuple[int, int]]:
    out = [(line[t], line[t + 1]) for t in range(len(line) - 1)]
    if len(line) > 2 and c.has_edge(line[-1], line[0]):
        out.append((line[-1], line[0]))
    return out


def _ribbon_minus_label(direction: str) -> str:
    return MINUS if direction == PLUS else PLUS


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

    c = net.complex
    lines, ribbons = _direction_structures(c, direction)
    opp = _ribbon_minus_label(direction)

    # (a) projective constancy of the dir-labelled curvature spheres per line
    line_spheres: List[LieVec] = []
    worst = 0.0
    for li, line in enumerate(lines):
        spheres = [net.edge_sphere(i, j) for i, j in _line_edges(line, c)]
        rep = normalized(spheres[0])
        for s in spheres[1:]:
            d = lc.projective_distance(rep, s)
            worst = max(worst, d)
            if d > TOL.constancy:
                return ChannelFailure(
                    direction=direction, check="constancy",
                    location=f"line {li} (vertices {line[:4]}...)",
                    message=f"curvature sphere varies along the line (residual {d:.3e})",
                    envelopes=False)
        # stable representative: dominant singular direction of the stack
        stack = np.array([np.sign(np.dot(normalized(s), rep)) * normalized(s) for s in spheres])
        _, _, vt = np.linalg.svd(stack)
        line_spheres.append(canonical_sign(vt[0]))

    # map each dir-edge to its line id, to recover ribbon boundaries
    edge_line: Dict[Tuple[int, int], int] = {}
    for li, line in enumerate(lines):
        for e in _line_edges(line, c):
            edge_line[edge_key(*e)] = li

    # (b) the opposite-label spheres of each ribbon span a (2,1)-plane
    cyclides: List[DupinCyclide] = []
    ribbon_lines: List[Tuple[int, int]] = []
    for ri, strip in enumerate(ribbons):
        seen = set()
        minus_spheres = []
        bounds = set()
        for fi in strip:
            for a, b, lab in face_edge_labels(net.complex.faces[fi]):
                k = edge_key(a, b)
                if lab == opp and k not in seen:
                    seen.add(k)
                    minus_spheres.append(net.edge_sphere(a, b))
                if lab != opp:
                    bounds.add(edge_line[k])
        if len(bounds) != 2:
            return ChannelFailure(direction=direction, check="ribbon_span",
                                  location=f"ribbon {ri}",
                                  message=f"ribbon bounded by {len(bounds)} lines",
                                  envelopes=True)
        sp = span(minus_spheres)
        if sp.dim == 2 and signature(sp).triple == (1, 1, 0):
            # underdetermined ribbon (single face, or all spheres in one
            # pencil): complete through the first face's cyclide family
            try:
                cy = face_cyclide_family(net, net.complex.faces[strip[0]])(0.0)
            except DegenerateFaceError as exc:
                return ChannelFailure(direction=direction, check="ribbon_span",
                                      location=f"ribbon {ri}", message=str(exc),
                                      envelopes=True)
            if direction == MINUS:
                cy = cy.swapped()
        elif sp.dim == 3 and signature(sp).triple == (2, 1, 0):
            cy = DupinCyclide(dplus=orthocomplement(sp), dminus=sp)
        else:
            return ChannelFailure(
                direction=direction, check="ribbon_span",
                location=f"ribbon {ri}",
                message=(f"opposite curvature spheres span dim {sp.dim} of signature "
                         f"{signature(sp).triple}, expected a (2,1)-plane"),
                envelopes=True)
        cyclides.append(cy)
        ribbon_lines.append(tuple(sorted(bounds)))

    cert = ChannelCertificate(
        direction=direction, lines=lines, ribbons=ribbons,
        ribbon_lines=ribbon_lines, line_spheres=line_spheres,
        cyclides=cyclides, constancy_residual=worst)
    for ri, (la, lb) in enumerate(ribbon_lines):
        cert.line_ribbons.setdefault(la, []).append(ri)
        cert.line_ribbons.setdefault(lb, []).append(ri)
    return cert


def certificate_residuals(cert: ChannelCertificate, net: LegendreNet) -> Dict[str, float]:
    """Assertable invariants of a certificate (all should be ~ 0)."""
    out = {}
    # constant sphere of each line lies in every contact element on the line
    env = 0.0
    for li, line in enumerate(cert.lines):
        s = cert.line_spheres[li]
        for v in line:
            f = net.element(v)
            for gen in f.basis:
                env = max(env, abs(inner(s, gen)) / (lc.aux_norm(s) * lc.aux_norm(gen)))
    out["enveloping"] = env
    # the Lie cyclide is a face-cyclide of every face of its ribbon
    fc = 0.0
    for ri, strip in enumerate(cert.ribbons):
        cy = cert.cyclides[ri] if cert.direction == PLUS else cert.cyclides[ri].swapped()
        for fi in strip:
            plusv, minusv = [], []
            for a, b, lab in face_edge_labels(net.complex.faces[fi]):
                (plusv if lab == PLUS else minusv).append(net.edge_sphere(a, b))
            for s in plusv:
                fc = max(fc, cy.dplus.residual(s))
            for s in minusv:
                fc = max(fc, cy.dminus.residual(s))
    out["face_cyclide"] = fc
    return out


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


def generating_circles(cert: ChannelCertificate, net: LegendreNet) -> List[DupinCyclide]:
    """Generating circle per line, as a cyclide whose dplus holds the points.

    When a line bounds two ribbons the circle is computed from both Lie
    cyclides and the two results must agree; the certificate keeps the
    agreement residual.
    """
    circles: List[Optional[DupinCyclide]] = [None] * len(cert.lines)
    agreement = 0.0
    point_sphere, has_point = point_spheres(net.bases)
    for li, line in enumerate(cert.lines):
        s = cert.line_spheres[li]
        if abs(inner(s, POINT_COMPLEX)) <= TOL.membership * lc.aux_norm(s):
            raise LieGeometryError(
                f"curvature sphere of line {li} is a point sphere - no admissible projection")
        spaces = []
        for ri in cert.line_ribbons.get(li, []):
            spaces.append(touching_circle_space(s, cert.cyclides[ri].dminus))
        if not spaces:
            raise LieGeometryError(f"line {li} belongs to no ribbon")
        if len(spaces) == 2:
            d = subspace_distance(spaces[0], spaces[1])
            agreement = max(agreement, d)
            if d > TOL.agreement:
                raise LieGeometryError(
                    f"generating circles of line {li} disagree between ribbons "
                    f"(residual {d:.3e})")
        cspace = spaces[0]
        # every vertex point sphere of the line lies on the circle
        for v in line:
            if not has_point[v]:
                raise LieGeometryError(NO_POINT_SPHERE)
            r = cspace.residual(point_sphere[v])
            if r > TOL.agreement:
                raise LieGeometryError(
                    f"vertex {v} does not lie on the generating circle of line {li} "
                    f"(residual {r:.3e})")
        circles[li] = DupinCyclide(dplus=cspace, dminus=orthocomplement(cspace))
    cert.circles = circles
    cert.circle_agreement = agreement
    return circles


def face_spheres(cert: ChannelCertificate) -> List[LieVec]:
    """Per ribbon: the unique Moebius sphere containing both bounding circles."""
    if cert.circles is None:
        raise LieGeometryError("compute generating_circles first")
    out: List[LieVec] = []
    for ri, (la, lb) in enumerate(cert.ribbon_lines):
        ca = cert.circles[la].dplus
        cb = cert.circles[lb].dplus
        joint = span(list(ca.basis) + list(cb.basis) + [POINT_COMPLEX])
        comp = orthocomplement(joint)
        if comp.dim != 1:
            raise LieGeometryError(
                f"ribbon {ri}: bounding circles are not cospherical "
                f"(complement dim {comp.dim}) - certificate corrupt")
        sigma = unit_moebius_sphere(comp.basis[0])
        out.append(canonical_sign(sigma))
    cert.face_spheres = out
    return out


def sphere_pencil(circle_space: Subspace) -> Subspace:
    """2-space of Moebius sphere vectors containing the circle."""
    return orthocomplement(span(list(circle_space.basis) + [POINT_COMPLEX]))


def quer_spheres(cert: ChannelCertificate) -> List[LieVec]:
    """Per line: sphere through the circle orthogonal to the enveloped sphere."""
    if cert.circles is None:
        raise LieGeometryError("compute generating_circles first")
    out: List[LieVec] = []
    for li in range(len(cert.lines)):
        pencil = sphere_pencil(cert.circles[li].dplus)
        s = cert.line_spheres[li]
        q1, q2 = pencil.basis
        a, b = inner(q1, s), inner(q2, s)
        v = b * q1 - a * q2
        if np.linalg.norm(v) <= TOL.membership:
            raise LieGeometryError(f"line {li}: enveloped sphere orthogonal to the whole pencil")
        out.append(canonical_sign(unit_moebius_sphere(v)))
    cert.quer_spheres = out
    return out


def face_quer_spheres(cert: ChannelCertificate) -> List[LieVec]:
    """Per ribbon: real sphere whose reflection swaps the bounding circles.

    Orthogonal to the face-sphere by construction. Both algebraic
    candidates are tried; failure reports their residuals.
    """
    if cert.face_spheres is None:
        raise LieGeometryError("compute face_spheres first")
    out: List[LieVec] = []
    for ri, (la, lb) in enumerate(cert.ribbon_lines):
        sigma = cert.face_spheres[ri]
        ca = cert.circles[la].dplus
        cb = cert.circles[lb].dplus
        na = orthocomplement(span(list(ca.basis) + [sigma, POINT_COMPLEX]))
        nb = orthocomplement(span(list(cb.basis) + [sigma, POINT_COMPLEX]))
        if na.dim != 1 or nb.dim != 1:
            raise LieGeometryError(f"ribbon {ri}: degenerate circle normals")
        a = na.basis[0] / math.sqrt(abs(inner(na.basis[0], na.basis[0])))
        b = nb.basis[0] / math.sqrt(abs(inner(nb.basis[0], nb.basis[0])))
        if inner(a, b) < 0:
            b = -b
        candidates = []
        for m in (a - b, a + b):
            mm = inner(m, m)
            if mm <= TOL.membership:
                candidates.append((math.inf, m))
                continue
            img = span([gram_reflection(m, v) for v in ca.basis])
            candidates.append((subspace_distance(img, cb), m))
        candidates.sort(key=lambda t: t[0])
        res, m = candidates[0]
        if res > TOL.agreement:
            raise LieGeometryError(
                f"ribbon {ri}: no swapping reflection found "
                f"(candidate residuals {candidates[0][0]:.3e}, {candidates[1][0]:.3e})")
        out.append(canonical_sign(unit_moebius_sphere(m)))
    cert.face_quer_spheres = out
    return out


def full_certificate(net: LegendreNet, direction: str = PLUS):
    """verify_channel plus circles and all derived sphere families."""
    res = verify_channel(net, direction)
    if not res.ok:
        return res
    generating_circles(res, net)
    face_spheres(res)
    quer_spheres(res)
    face_quer_spheres(res)
    return res


# ---------------------------------------------------------------------------
# Dupin cyclide test


def is_dupin_cyclide(net: LegendreNet):
    """Channel in both directions; returns (ok, constant cyclide or None, info)."""
    res_p = verify_channel(net, PLUS)
    if not res_p.ok:
        return False, None, f"'+' direction fails: {res_p.message}"
    res_m = verify_channel(net, MINUS)
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
        if subspace_distance(cy.dminus, sm) > TOL.membership:
            return False, None, "the two sphere families are not complementary"
    else:
        # tiny nets: complete the splitting through one face's family
        cy = res_p.cyclides[0]
        if not all(cy.dplus.contains(s) for s in s_plus) or \
                not all(cy.dminus.contains(s) for s in s_minus):
            return False, None, "curvature spheres not confined to a fixed splitting"
    spread = max(
        (subspace_distance(cy.dminus, other.dminus) for other in res_p.cyclides),
        default=0.0,
    )
    return True, cy, f"lie cyclide spread {spread:.3e}"


# ---------------------------------------------------------------------------
# cross-ratio


def cross_ratio(points: Sequence[Sequence[float]], tol: Optional[float] = None) -> float:
    """Real cross-ratio of four concircular points.

    The circle's plane is identified with the complex numbers through an
    orthonormal in-plane frame; the value ((z1-z2)(z3-z4))/((z2-z3)(z4-z1))
    is frame-independent and real for concircular input.
    """
    t = TOL.agreement if tol is None else tol
    ps = np.asarray(points, dtype=float)
    if ps.shape != (4, 3):
        raise ValueError("cross_ratio expects four 3-points")
    for i in range(4):
        for j in range(i + 1, 4):
            if np.linalg.norm(ps[i] - ps[j]) == 0.0:
                raise LieGeometryError("cross_ratio: coincident points")
    if not points_concircular(ps, math.sqrt(t)):
        raise LieGeometryError("cross_ratio: points are not concircular")
    centered = ps - ps.mean(axis=0)
    _, _, vt = np.linalg.svd(centered)
    u, v = vt[0], vt[1]
    z = centered @ u + 1j * (centered @ v)
    cr = (z[0] - z[1]) * (z[2] - z[3]) / ((z[1] - z[2]) * (z[3] - z[0]))
    if abs(cr.imag) > 1e-6 * max(1.0, abs(cr)):
        raise LieGeometryError(f"cross_ratio not real ({cr}); points not concircular")
    return float(cr.real)


def cross_ratio_constancy(cert: ChannelCertificate, net: LegendreNet) -> float:
    """Max relative spread of cross-ratios over consecutive quadruples of
    non-circular lines, evaluated on every generating circle."""
    other_lines, _ = _direction_structures(net.complex, _ribbon_minus_label(cert.direction))
    pos: Dict[int, Dict[int, int]] = {}
    for oi, oline in enumerate(other_lines):
        for v in oline:
            pos.setdefault(v, {})[oi] = True
    # order the crossing lines consistently along one circle
    first = cert.lines[0]
    order = []
    for v in first:
        for oi in pos.get(v, {}):
            if oi not in order:
                order.append(oi)
    if len(order) < 4:
        raise LieGeometryError("need at least four non-circular lines for cross-ratios")
    on_lines = [v for line in cert.lines for v in line]
    pts = dict(zip(on_lines, net.vertex_points(on_lines)))
    line_vertex = [set(other_lines[oi]) for oi in range(len(other_lines))]

    wrap = len(first) > 2 and net.complex.has_edge(first[-1], first[0])
    n = len(order)
    quad_count = n if wrap else n - 3
    worst = 0.0
    for q in range(quad_count):
        ids = [order[(q + k) % n] for k in range(4)]
        values = []
        for line in cert.lines:
            quad = []
            for oi in ids:
                hit = [v for v in line if v in line_vertex[oi]]
                if len(hit) != 1:
                    break
                quad.append(pts[hit[0]])
            if len(quad) == 4:
                values.append(cross_ratio(quad))
        if len(values) < 2:
            continue
        arr = np.array(values)
        spread = float((arr.max() - arr.min()) / max(np.abs(arr).max(), 1e-30))
        worst = max(worst, spread)
    return worst


# ---------------------------------------------------------------------------
# Ribaucour pairs and multi-circular tests


def is_ribaucour_pair(a: DiscreteCurve3D, b: DiscreteCurve3D,
                      tol: Optional[float] = None) -> bool:
    """Adjacent pairs of corresponding points are concircular."""
    if len(a) != len(b):
        raise ValueError("Ribaucour pair needs curves of equal length")
    t = TOL.membership if tol is None else tol
    for k in range(len(a) - 1):
        quad = [a.points[k], a.points[k + 1], b.points[k + 1], b.points[k]]
        if not points_concircular(quad, t):
            return False
    return True


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
    other input is decided by the per-quadrilateral rank test of
    `liecore.points_concircular` (same lifts, SVD and cutoff sv > t*sv[0]),
    batched over the C(n, 2) quadrilaterals.
    """
    n = x.shape[0]
    if n < 2 or _planes_concurrent(x, y, t):
        return True
    s, u = np.triu_indices(n, 1)
    sv = np.linalg.svd(np.stack([x[s], x[u], y[u], y[s]], axis=1), compute_uv=False)
    return bool(np.all(np.sum(sv > t * sv[:, :1], axis=1) <= 3))


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
    lifts: Dict[int, LieVec] = {}

    def lifted(vertices) -> np.ndarray:
        new = [v for v in dict.fromkeys(vertices) if v not in lifts]
        for v, p in zip(new, net.vertex_points(new)):
            lifts[v] = normalized(lc.lift_point(p))
        return np.array([lifts[v] for v in vertices]).reshape(-1, 6)

    for la, lb in ribbon_line_pairs(net, direction):
        m = min(len(la), len(lb))
        if not _quads_circular(lifted(la[:m]), lifted(lb[:m]), t):
            return False
    return True


def ribbon_line_pairs(net: LegendreNet, direction: str):
    """Pairs of bounding lines of each dir-ribbon, vertex order aligned."""
    c = net.complex
    lines, ribbons = _direction_structures(c, direction)
    edge_line: Dict[Tuple[int, int], int] = {}
    for li, line in enumerate(lines):
        for e in _line_edges(line, c):
            edge_line[edge_key(*e)] = li
    opp = _ribbon_minus_label(direction)
    pairs = []
    for strip in ribbons:
        bounds = set()
        for fi in strip:
            for a, b, lab in face_edge_labels(c.faces[fi]):
                if lab != opp:
                    bounds.add(edge_line[edge_key(a, b)])
        if len(bounds) != 2:
            continue
        la, lb = sorted(bounds)
        line_a, line_b = lines[la], lines[lb]
        # align: order line_b so corresponding vertices share an opp-edge
        aligned = []
        for v in line_a:
            mate = [w for w in line_b if c.has_edge(v, w) and c.label(v, w) == opp]
            if len(mate) == 1:
                aligned.append(mate[0])
        if len(aligned) == len(line_a):
            pairs.append((line_a, aligned))
        else:
            pairs.append((line_a, line_b))
    return pairs


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
    plines = plus_lines(net.complex)
    mlines = minus_lines(net.complex)
    # vertices indexed by (plus-line, minus-line) crossing, -1 where none
    on_m = {}
    for mi, ml in enumerate(mlines):
        for v in ml:
            on_m[v] = mi
    grid = np.full((len(plines), len(mlines)), -1)
    for pi, pl in enumerate(plines):
        for v in pl:
            grid[pi, on_m[v]] = v
    lifts = np.array([normalized(lc.lift_point(p)) for p in net.vertex_points()]).reshape(-1, 6)
    for p1 in range(len(plines)):
        for p2 in range(p1 + 1, len(plines)):
            both = (grid[p1] >= 0) & (grid[p2] >= 0)
            if not _quads_circular(lifts[grid[p1, both]], lifts[grid[p2, both]], t):
                return False
    return True
