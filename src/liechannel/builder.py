"""Synthesis of discrete channel surfaces.

Three routes are provided:

* ``channel_from_sphere_curve`` builds the unique channel surface (up to
  subdivision in the circular direction) from a regular discrete sphere
  curve: unit Moebius sphere vectors ``s`` on the vertices and ``sigma``
  on the edges of a path, with three consecutive spheres spanning an
  elliptic pencil and consecutive ``s`` meeting each ``sigma`` at equal
  unoriented angle.

* ``blend_channel`` builds channel surfaces through a prescribed Ribaucour
  pair of discrete curves, with an initial contact element (two degrees of
  freedom) and an initial face-cyclide parameter (one more).

* ``make_revolution`` / ``make_cylinder`` / ``make_cone`` /
  ``make_dupin_torus`` / ``make_reflection_example`` generate reference
  nets directly from Euclidean data.

The core constructions: given a circle (point-sphere space C) carrying an
oriented sphere lift a with (a,p) = -1, and the next oriented sphere lift
b, the unique Dupin cyclide touching the surface along the circle with a
and b as curvature spheres is

    D- = { tau - (tau,b)/(a,b) * a : tau in C },   D+ = D-^perp,

and a point sphere X on a cyclide propagates along its curvature line to
the next circle as the double root of {Y in C_next null, (Y, X-) = 0},
which closed-form equals X- + (X-, p) * b with X- the D- component of X.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .config import TOL
from . import liecore as lc
from .liecore import (
    LieVec, LieGeometryError, Subspace, POINT_COMPLEX, E6, inner, inner_rows,
    normalized, canonical_sign, span, signature, orthocomplement,
    subspace_distance, project_onto, oriented_representative, moebius_part,
)
from .cellcomplex import make_grid, PLUS
from .legendre import (
    ContactElement, LegendreNet, DupinCyclide, DegenerateFaceError, FaceCyclideFamily,
    contact_bases, contact_from_vectors, curvature_spheres,
    net_from_points_normals,
)
from .channel import (
    ChannelCertificate, DiscreteCurve3D, full_certificate, is_ribaucour_pair,
    touching_circle_space, sample_circle, circle_chart_angle, circle_point,
)


# ---------------------------------------------------------------------------
# sphere curves


@dataclass
class SphereCurve:
    """Unit Moebius sphere vectors on the vertices and edges of a path."""

    vertex_spheres: np.ndarray  # (n, 6), (s,s) = 1, orthogonal to e6
    edge_spheres: np.ndarray    # (n-1, 6) or (n, 6) when closed
    closed: bool = False

    def __post_init__(self):
        vs = np.asarray(self.vertex_spheres, dtype=float)
        es = np.asarray(self.edge_spheres, dtype=float)
        n = vs.shape[0]
        expected = n if self.closed else n - 1
        if es.shape[0] != expected:
            raise ValueError(f"expected {expected} edge spheres, got {es.shape[0]}")
        object.__setattr__(self, "vertex_spheres", vs)
        object.__setattr__(self, "edge_spheres", es)

    def __len__(self) -> int:
        return self.vertex_spheres.shape[0]

    def edge_indices(self) -> List[Tuple[int, int]]:
        n = len(self)
        out = [(j, j + 1) for j in range(n - 1)]
        if self.closed:
            out.append((n - 1, 0))
        return out


@dataclass
class SphereCurveDiagnostics:
    ok: bool
    unit_residual: float
    pencil_residual: float          # condition (i): s_j in <sigma_ij, sigma_jk>
    pencil_signatures: List[Tuple[int, int, int]]
    angle_residual: float           # condition (ii): equal unoriented angles
    messages: List[str]


def validate_sphere_curve(sc: SphereCurve) -> SphereCurveDiagnostics:
    """Conditions (i) and (ii) of a regular sphere curve, with residuals.
    Raises LieGeometryError on data whose squared inner products overflow."""
    spheres = np.concatenate([sc.vertex_spheres, sc.edge_spheres])
    with np.errstate(over="ignore", invalid="ignore"):
        norms2 = lc.dots(spheres, spheres)
        # |(s, t)|^2 <= |s|^2 |t|^2, so every squared product below is finite
        if not np.isfinite(norms2 * norms2).all():
            raise LieGeometryError("sphere curve: input values out of numerical range")
    msgs: List[str] = []
    unit = 0.0
    for name, arr in (("vertex", sc.vertex_spheres), ("edge", sc.edge_spheres)):
        for k, v in enumerate(arr):
            unit = max(unit, abs(inner(v, v) - 1.0), abs(v[5]))
            if abs(inner(v, v) - 1.0) > 1e-8 or abs(v[5]) > 1e-12:
                msgs.append(f"{name} sphere {k} is not a unit Moebius vector")

    edges = sc.edge_indices()
    pencil = 0.0
    sigs: List[Tuple[int, int, int]] = []
    for j in range(len(sc)):
        incident = [e for e in range(len(edges)) if j in edges[e]]
        if len(incident) < 2:
            continue
        sp = span([sc.edge_spheres[e] for e in incident])
        sigs.append(signature(sp).triple)
        if sp.dim != 2:
            msgs.append(f"vertex {j}: consecutive edge spheres are dependent")
            pencil = max(pencil, 1.0)
            continue
        if signature(sp).triple != (2, 0, 0):
            msgs.append(f"vertex {j}: pencil is not elliptic (signature {signature(sp).triple})")
        r = sp.residual(sc.vertex_spheres[j])
        pencil = max(pencil, r)
        if not r <= TOL.membership:
            msgs.append(f"vertex {j}: sphere leaves the pencil of its edges (residual {r:.3e})")

    angle = 0.0
    for e, (i, j) in enumerate(edges):
        ai = inner(sc.vertex_spheres[i], sc.edge_spheres[e]) ** 2
        aj = inner(sc.vertex_spheres[j], sc.edge_spheres[e]) ** 2
        r = abs(ai - aj) / max(ai, aj, 1e-30)
        angle = max(angle, r)
        if r > math.sqrt(TOL.agreement):
            msgs.append(f"edge {e}: unequal intersection angles (residual {r:.3e})")

    return SphereCurveDiagnostics(ok=not msgs, unit_residual=unit,
                                  pencil_residual=pencil, pencil_signatures=sigs,
                                  angle_residual=angle, messages=msgs)


def random_sphere_curve(rng: np.random.Generator, n: int,
                        angle_range: Tuple[float, float] = (0.25, 0.7),
                        turn_range: Tuple[float, float] = (0.35, 0.9)) -> SphereCurve:
    """Generic regular sphere curve: each vertex sphere makes a random angle
    with the previous face-sphere, each next face-sphere is drawn from the
    elliptic pencil of the previous pair."""
    def random_spacelike_unit(orth: List[LieVec]) -> LieVec:
        while True:
            v = rng.normal(size=6)
            v[5] = 0.0
            for q in orth:
                v = v - inner(v, q) / inner(q, q) * q
            if inner(v, v) > 0.2:
                return v / math.sqrt(inner(v, v))

    s0 = random_spacelike_unit([])
    c = math.cos(rng.uniform(*angle_range))
    sigma0 = c * s0 + math.sqrt(1 - c * c) * random_spacelike_unit([s0])
    vs, es = [s0], [sigma0]
    for _ in range(n - 1):
        sigma = es[-1]
        c_prev = inner(vs[-1], sigma)
        w = random_spacelike_unit([sigma])
        s_new = c_prev * sigma + math.sqrt(max(1 - c_prev * c_prev, 0.0)) * w
        vs.append(s_new)
        if len(vs) == n:
            break
        # next face-sphere from the elliptic pencil of (sigma, s_new)
        u2 = s_new - inner(s_new, sigma) * sigma
        u2 = u2 / math.sqrt(inner(u2, u2))
        while True:
            t = rng.uniform(*turn_range) * rng.choice([-1.0, 1.0])
            cand = math.cos(t) * sigma + math.sin(t) * u2
            if abs(inner(s_new, cand)) < 0.93:
                break
        es.append(cand)
    return SphereCurve(vertex_spheres=np.array(vs), edge_spheres=np.array(es),
                       closed=False)


# ---------------------------------------------------------------------------
# cyclide construction and point propagation

OFF_CYCLIDE = "point does not lie on the cyclide"


def blend_cyclide(circle_space: Subspace, a_hat: LieVec, b_hat: LieVec) -> DupinCyclide:
    """Unique Dupin cyclide touching the circle, with oriented curvature
    spheres a_hat (enveloped along the circle) and b_hat."""
    ab = inner(a_hat, b_hat)
    if abs(ab) <= TOL.membership * lc.aux_norm(a_hat) * lc.aux_norm(b_hat):
        raise LieGeometryError("tangent spheres: Ribaucour correspondence degenerates")
    dminus = span([tau - inner(tau, b_hat) / ab * a_hat for tau in circle_space.basis])
    dplus = orthocomplement(dminus)
    cy = DupinCyclide(dplus=dplus, dminus=dminus)
    cy.validate()
    for s in (a_hat, b_hat):
        if not dplus.residual(s) <= TOL.membership:
            raise LieGeometryError("cyclide does not carry the prescribed spheres")
    return cy


def correspondence_candidates(circle_i: Subspace, circle_j: Subspace,
                              s_i: LieVec, s_j: LieVec) -> List[Tuple[int, int, DupinCyclide]]:
    """Admissible oriented cyclides linking two cospherical circles.

    Tries all four orientation combinations of the unoriented sphere data;
    a combination is admissible when the constructed cyclide's curvature
    line at the second sphere is the second circle. Exactly two survive for
    disjoint cospherical circles.
    """
    out = []
    for ei in (1, -1):
        for ej in (1, -1):
            a = ei * s_i + E6
            b = ej * s_j + E6
            try:
                cy = blend_cyclide(circle_i, a, b)
            except LieGeometryError:
                continue
            if subspace_distance(touching_circle_space(b, cy.dminus), circle_j) <= TOL.agreement:
                out.append((ei, ej, cy))
    return out


def propagate_point(x: np.ndarray, cy: DupinCyclide, next_sphere_hat: LieVec):
    """Follow the cyclide curvature lines through the point spheres x, the
    (m, 6) samples of one circle or a single (6,) vector, to the circle
    enveloping the next sphere.

    Returns the new point spheres and the relative discriminants of their
    propagation quadratics (0 for exact tangency), stacked as x; a vector
    gives a (vector, float) pair. The next circle's space is computed once
    per call. A failing sample raises the error that a pass over the
    samples in order, each through all checks, would meet first; every
    threshold test fails on NaN.
    """
    single = np.ndim(x) == 1
    xs = np.atleast_2d(np.asarray(x, dtype=float))
    xm = project_onto(xs, cy.dminus)
    xp = xs - xm
    # np.float_power rounds as Python's float ** 2 does, `** 2` does not
    tol = 1e-6 * np.float_power(np.sqrt(lc.dots(xs, xs)), 2)
    off = ~((np.abs(inner_rows(xm, xm)) <= tol) & (np.abs(inner_rows(xp, xp)) <= tol))
    if off[0]:
        raise LieGeometryError(OFF_CYCLIDE)
    c_next = touching_circle_space(next_sphere_hat, cy.dminus)
    if c_next.dim != 3:
        raise LieGeometryError(f"circle of the next sphere degenerates (dim {c_next.dim})")

    # quadratic: null vectors of {Y in C_next : (Y, X-) = 0}
    cond = inner_rows(c_next.basis, xm[:, None])  # (m, 3)
    degenerate = ~(np.sqrt(lc.dots(cond, cond)) > 1e-12 * np.sqrt(lc.dots(xm, xm)))
    cond[off | degenerate] = 1.0  # these samples fail already; keep NaN out of LAPACK
    _, _, vt = np.linalg.svd(cond[:, None, :])
    plane = c_next.basis.T @ vt[:, 1:].transpose(0, 2, 1)  # (m, 6, 2)
    eig, vecs = np.linalg.eigh(plane.transpose(0, 2, 1) @ lc.GRAM @ plane)
    k = np.arange(len(xs))
    root = (np.abs(eig[:, 1]) < np.abs(eig[:, 0])).astype(int)  # smaller |eigenvalue|
    disc = np.abs(eig[k, root]) / np.maximum(np.abs(eig[k, 1 - root]), 1e-300)
    y_quad = (plane @ vecs[k, :, root][..., None])[..., 0]

    y = xm + inner_rows(xm, POINT_COMPLEX)[:, None] * oriented_representative(next_sphere_hat)
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero y fails the roots test
        y_unit = y / np.sqrt(lc.dots(y, y))[:, None]
        distance = 1.0 - np.abs(lc.dots(y_unit, y_quad / np.sqrt(lc.dots(y_quad, y_quad))[:, None]))
    lc.raise_first([
        (off, OFF_CYCLIDE),
        (degenerate, "propagation condition degenerates"),
        (~(distance <= 1e-5), "propagation roots disagree with the tangency direction"),
    ])
    return (y_unit[0], float(disc[0])) if single else (y_unit, disc)


# ---------------------------------------------------------------------------
# channel surface from a sphere curve


@dataclass
class BuildResult:
    net: LegendreNet
    certificate: ChannelCertificate
    cyclides: List[DupinCyclide]
    circle_spaces: List[Subspace]
    line_sphere_lifts: List[LieVec]
    discriminant_max: float
    monodromy_defect: Optional[float] = None


def _oriented_chain(sc: SphereCurve) -> List[LieVec]:
    """Oriented lifts s_j + e6 with signs chained so that consecutive
    spheres meet each edge sphere at equal signed angle."""
    n = len(sc)
    eps = [1.0] * n
    for e, (i, j) in enumerate(sc.edge_indices()):
        if j == 0 and sc.closed:
            alpha = eps[i] * inner(sc.vertex_spheres[i], sc.edge_spheres[e])
            beta = eps[0] * inner(sc.vertex_spheres[0], sc.edge_spheres[e])
            if alpha * beta < 0:
                raise LieGeometryError("orientation monodromy: closed sphere curve "
                                       "cannot be consistently oriented")
            continue
        alpha = eps[i] * inner(sc.vertex_spheres[i], sc.edge_spheres[e])
        beta = inner(sc.vertex_spheres[j], sc.edge_spheres[e])
        eps[j] = eps[i] if alpha * beta >= 0 else -eps[i]
    return [eps[j] * sc.vertex_spheres[j] + E6 for j in range(n)]


def _curve_circle_spaces(sc: SphereCurve, hats: List[LieVec]) -> List[Subspace]:
    """Point-sphere space of the generating circle at every curve vertex."""
    edges = sc.edge_indices()
    out = []
    for j in range(len(sc)):
        vecs = [moebius_part(hats[j])]
        for e, (a, b) in enumerate(edges):
            if j in (a, b):
                vecs.append(sc.edge_spheres[e])
        pencil = span(vecs)
        if pencil.dim != 2 or signature(pencil).triple != (2, 0, 0):
            raise LieGeometryError(
                f"degenerate pencil at vertex {j} (dim {pencil.dim}, "
                f"signature {signature(pencil).triple})")
        c = orthocomplement(span(list(pencil.basis) + [POINT_COMPLEX]))
        if signature(c).triple != (2, 1, 0):
            raise LieGeometryError(f"degenerate circle at vertex {j}")
        out.append(c)
    return out


def _assemble_channel_net(circle_spaces: List[Subspace], hats: List[LieVec],
                          cyclides: List[DupinCyclide], row0: List[LieVec],
                          closed_curve: bool) -> BuildResult:
    """Propagate a sampled first circle through a cyclide chain and build
    the net; rows follow the curve, columns wrap around the circles."""
    rows = [np.array(row0, dtype=float)]
    disc_max = 0.0
    for t, cy in enumerate(cyclides):
        row, disc = propagate_point(rows[t], cy, hats[(t + 1) % len(hats)])
        disc_max = max(disc_max, float(np.max(disc)))
        rows.append(row)

    monodromy = None
    if closed_curve:
        # final propagated row revisits the first circle
        last, first = rows[-1], rows[0]
        cosines = lc.dots(last / np.sqrt(lc.dots(last, last))[:, None],
                          first / np.sqrt(lc.dots(first, first))[:, None])
        monodromy = max(0.0, float(np.max(1.0 - np.abs(cosines))))
        rows = rows[:-1] if len(rows) > len(circle_spaces) else rows

    points = np.array(rows)  # (rows, m, 6)
    lines = np.array([hats[b % len(hats)] for b in range(len(rows))])
    gens = np.stack([points, np.broadcast_to(lines[:, None], points.shape)], axis=2)
    grid = make_grid(points.shape[1], len(rows), wrap_plus=True)
    net = LegendreNet(complex=grid, bases=contact_bases(gens.reshape(-1, 2, 6)))
    cert = full_certificate(net, PLUS)
    if not cert.ok:
        raise LieGeometryError(f"constructed net fails verification: {cert.message}")
    return BuildResult(net=net, certificate=cert, cyclides=cyclides,
                       circle_spaces=circle_spaces, line_sphere_lifts=hats,
                       discriminant_max=disc_max, monodromy_defect=monodromy)


def channel_from_sphere_curve(sc: SphereCurve, samples_per_circle: int,
                              phase: float = 0.0) -> BuildResult:
    """Channel surface enveloping the vertex spheres with the edge spheres
    as face-spheres; unique up to the sampling of the first circle."""
    if samples_per_circle < 3:
        raise ValueError("samples_per_circle must be at least 3")
    diag = validate_sphere_curve(sc)
    if not diag.ok:
        raise LieGeometryError("not a regular sphere curve: " + "; ".join(diag.messages[:3]))

    hats = _oriented_chain(sc)
    circles = _curve_circle_spaces(sc, hats)
    cyclides = []
    for e, (i, j) in enumerate(sc.edge_indices()):
        cy = blend_cyclide(circles[i], hats[i], hats[j])
        link = subspace_distance(touching_circle_space(hats[j], cy.dminus), circles[j])
        if not link <= TOL.agreement:
            raise LieGeometryError(f"cyclide chain does not close at vertex {j} "
                                   f"(residual {link:.3e})")
        cyclides.append(cy)

    row0 = sample_circle(circles[0], samples_per_circle, phase)
    return _assemble_channel_net(circles, hats, cyclides, row0, sc.closed)


def sphere_curve_from_certificate(cert: ChannelCertificate) -> SphereCurve:
    """Extract (s, sigma) data from a channel certificate.

    Vertex spheres keep the orientation of the enveloped family; edge
    spheres are the face-spheres of the ribbons between consecutive lines.
    """
    n_lines = len(cert.lines)
    # order lines along the ribbon adjacency
    if not cert.ribbon_lines:
        raise LieGeometryError("certificate has no ribbons")
    ends = np.flatnonzero(cert.line_ribbons.degrees == 1).tolist()
    closed = not ends
    start = min(ends) if ends else 0
    order = [start]
    ribbons_seq: List[int] = []
    prev = None
    while True:
        # the other bounding line of each ribbon of the line, but the one it came from
        ns = [(other, ri) for ri in cert.line_ribbons[order[-1]]
              if (other := sum(cert.ribbon_lines[ri]) - order[-1]) != prev]
        if not ns:
            break
        nxt, ri = ns[0]
        prev = order[-1]
        ribbons_seq.append(ri)
        if nxt == start:
            break
        order.append(nxt)
        if len(order) == n_lines and not closed:
            break

    vs = []
    for li in order:
        hat = oriented_representative(cert.line_spheres[li])
        vs.append(moebius_part(hat))
    return SphereCurve(vertex_spheres=np.array(vs), edge_spheres=cert.face_spheres[ribbons_seq],
                       closed=closed)


# ---------------------------------------------------------------------------
# blending from a Ribaucour pair of curves


def _extend_element(f: ContactElement, x_new: LieVec) -> Tuple[ContactElement, LieVec]:
    """Next contact element along a curve: the pencil member of f through
    the new point is the shared curvature sphere."""
    a, b = f.basis
    s = inner(b, x_new) * a - inner(a, x_new) * b
    if np.linalg.norm(s) <= TOL.membership:
        raise LieGeometryError("contact element propagation degenerates "
                               "(next point orthogonal to the whole pencil)")
    s = canonical_sign(s / np.linalg.norm(s))
    return contact_from_vectors(x_new, s), s


def _family_parameter_solve(family: FaceCyclideFamily, sphere_hat: LieVec,
                            target_circle: Subspace) -> float:
    """Member of the family whose curvature line at sphere_hat is the target."""
    s = oriented_representative(sphere_hat)
    comp = orthocomplement(span(list(target_circle.basis) + [POINT_COMPLEX]))

    def psi(y: LieVec) -> LieVec:
        return y + inner(y, POINT_COMPLEX) * s

    rows = []
    for q in comp.basis:
        a_r = inner(psi(family.w1), q)
        b_r = inner(psi(family.w2), q)
        rows.append((b_r, -a_r))
    m = np.array(rows)
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[0] <= 1e-13:
        raise LieGeometryError("no continuation parameter: family condition degenerates")
    if sv[-1] / sv[0] > 1e-6:
        raise LieGeometryError("no continuation parameter: conditions are incompatible")
    _, _, vt = np.linalg.svd(m)
    x, y = vt[-1]
    return math.atan2(y, x)


def blend_channel(c1: DiscreteCurve3D, c2: DiscreteCurve3D, f0: ContactElement,
                  t0: float, samples_per_circle: int = 8) -> BuildResult:
    """Channel surfaces through a Ribaucour pair of curves.

    f0 is the contact element at the first vertex of c1 (two degrees of
    freedom), t0 the face-cyclide parameter on the first face (one more);
    distinct choices give distinct channel surfaces all containing c1 and
    c2 as non-circular curvature lines.
    """
    if len(c1) != len(c2):
        raise ValueError("curves must have equal length")
    if samples_per_circle < 3:
        raise ValueError("samples_per_circle must be at least 3")
    if not is_ribaucour_pair(c1, c2):
        raise LieGeometryError("not a Ribaucour pair: adjacent corresponding "
                               "points are not concircular")
    n = len(c1)
    x1 = lc.lift_points(c1.points)
    x2 = lc.lift_points(c2.points)
    if not f0.contains(x1[0]):
        raise LieGeometryError("initial contact element does not contain the "
                               "first point of c1")

    f_row1, f_row2 = [f0], []
    s1_edges, s2_edges = [], []
    for t in range(n - 1):
        f, s = _extend_element(f_row1[t], x1[t + 1])
        f_row1.append(f)
        s1_edges.append(s)
    f, _ = _extend_element(f_row1[0], x2[0])
    f_row2.append(f)
    for t in range(n - 1):
        f, s = _extend_element(f_row2[t], x2[t + 1])
        f_row2.append(f)
        s2_edges.append(s)
        f_alt, _ = _extend_element(f_row1[t + 1], x2[t + 1])
        if subspace_distance(f.space, f_alt.space) > math.sqrt(TOL.agreement):
            raise LieGeometryError(f"inconsistent quad propagation at step {t + 1}")

    spheres, failures = curvature_spheres(np.array([f.basis for f in f_row1]),
                                          np.array([f.basis for f in f_row2]))
    if failures:
        raise next(iter(failures.values()))
    cross = [oriented_representative(s) for s in spheres]

    # face-cyclide chain along the prescribed strip
    cyclides: List[DupinCyclide] = []
    circles: List[Subspace] = []
    for t in range(n - 1):
        try:
            fam = FaceCyclideFamily.from_spheres([cross[t], cross[t + 1]],
                                                 [s1_edges[t], s2_edges[t]])
        except DegenerateFaceError as exc:
            raise LieGeometryError(f"degenerate strip face at step {t}") from exc
        if t > 0:
            circles.append(touching_circle_space(cross[t], cyclides[-1].dminus))
        param = _family_parameter_solve(fam, cross[t], circles[-1]) if t > 0 else t0
        cy = fam(param)
        if cy.dplus.dim != 3 or cy.dminus.dim != 3:
            raise LieGeometryError(f"degenerate face-cyclide member at step {t} "
                                   f"(t = {param!r}): dims {cy.dplus.dim}, {cy.dminus.dim}")
        cyclides.append(cy)
    circles = [touching_circle_space(cross[0], cyclides[0].dminus), *circles,
               touching_circle_space(cross[-1], cyclides[-1].dminus)]

    # sample the first circle, keeping the two prescribed points as vertices
    th1 = circle_chart_angle(circles[0], x1[0])
    th2 = circle_chart_angle(circles[0], x2[0])
    arc1 = (th2 - th1) % (2 * math.pi)
    free = samples_per_circle - 2
    n1 = min(max(int(round(free * arc1 / (2 * math.pi))), 0), free)
    n2 = free - n1
    thetas = [th1]
    thetas += [th1 + arc1 * (k + 1) / (n1 + 1) for k in range(n1)]
    thetas.append(th2)
    thetas += [th2 + (2 * math.pi - arc1) * (k + 1) / (n2 + 1) for k in range(n2)]
    row0 = [circle_point(circles[0], th) for th in thetas]
    row0[0] = normalized(x1[0])
    row0[n1 + 1] = normalized(x2[0])

    result = _assemble_channel_net(circles, cross, cyclides, row0, closed_curve=False)

    # the prescribed curves must be columns of the net
    pts = result.net.vertex_points()
    m = samples_per_circle
    i2 = n1 + 1
    for t in range(n):
        if np.linalg.norm(pts[t * m + 0] - c1.points[t]) > 1e-7 * (1 + np.linalg.norm(c1.points[t])):
            raise LieGeometryError(f"curve c1 not reproduced at step {t}")
        if np.linalg.norm(pts[t * m + i2] - c2.points[t]) > 1e-7 * (1 + np.linalg.norm(c2.points[t])):
            raise LieGeometryError(f"curve c2 not reproduced at step {t}")
    return result


# ---------------------------------------------------------------------------
# Euclidean generators


def propagate_profile_normals(points: np.ndarray, n0: Sequence[float]) -> np.ndarray:
    """Unit normals along a polyline satisfying the Legendre condition:
    each step reflects the normal in the edge's perpendicular bisector."""
    pts = np.asarray(points, dtype=float)
    n = np.asarray(n0, dtype=float)
    if abs(np.linalg.norm(n) - 1.0) > 1e-9:
        raise LieGeometryError("initial normal must have unit length")
    out = [n]
    for a in range(len(pts) - 1):
        d = pts[a] - pts[a + 1]
        nd = out[-1] - 2.0 * (d @ out[-1]) / (d @ d) * d
        out.append(nd / np.linalg.norm(nd))
    return np.array(out)


def check_profile_legendre(points: np.ndarray, normals: np.ndarray,
                           tol: float = 1e-8) -> None:
    pts = np.asarray(points, dtype=float)
    nms = np.asarray(normals, dtype=float)
    if not np.max(np.abs(np.linalg.norm(nms, axis=1) - 1.0)) <= 1e-8:
        raise LieGeometryError("profile normals must have unit length")
    for a in range(len(pts) - 1):
        d = pts[a] - pts[a + 1]
        expected = nms[a] - 2.0 * (d @ nms[a]) / (d @ d) * d
        if not np.linalg.norm(nms[a + 1] - expected) <= tol:
            raise LieGeometryError(
                f"Legendre condition violated by the supplied normals at edge {a}")


def make_revolution(profile: np.ndarray, normals: np.ndarray, m: int) -> LegendreNet:
    """Revolve a planar profile (xz-plane, in-plane normals) about the z-axis.

    The rotational direction is the circular one.
    """
    if m < 3:
        raise ValueError("revolution needs m >= 3 samples around")
    pts = np.asarray(profile, dtype=float)
    nms = np.asarray(normals, dtype=float)
    if np.max(np.abs(pts[:, 1])) > 1e-12 or np.max(np.abs(nms[:, 1])) > 1e-12:
        raise LieGeometryError("profile and normals must lie in the xz-plane")
    if np.min(np.abs(pts[:, 0])) < 1e-9:
        raise LieGeometryError("profile touches the axis of revolution")
    check_profile_legendre(pts, nms)
    n = len(pts)
    grid = make_grid(m, n, wrap_plus=True)
    positions = np.empty((m * n, 3))
    normals3 = np.empty((m * n, 3))
    for b in range(n):
        for a in range(m):
            th = 2 * math.pi * a / m
            c, s = math.cos(th), math.sin(th)
            positions[b * m + a] = (pts[b, 0] * c, pts[b, 0] * s, pts[b, 2])
            normals3[b * m + a] = (nms[b, 0] * c, nms[b, 0] * s, nms[b, 2])
    return net_from_points_normals(grid, positions, normals3)


def make_cylinder(profile: np.ndarray, normals: np.ndarray,
                  offsets: Sequence[float]) -> LegendreNet:
    """Translate a planar profile (z = 0, in-plane normals) along the z-axis.

    The rulings are the circular direction (lines are circles through the
    point at infinity).
    """
    offs = list(offsets)
    if len(offs) < 2:
        raise ValueError("cylinder needs at least two offsets")
    if len(set(offs)) != len(offs):
        raise ValueError("offsets must be distinct")
    pts = np.asarray(profile, dtype=float)
    nms = np.asarray(normals, dtype=float)
    if np.max(np.abs(pts[:, 2])) > 1e-12 or np.max(np.abs(nms[:, 2])) > 1e-12:
        raise LieGeometryError("profile and normals must lie in the z = 0 plane")
    check_profile_legendre(pts, nms)
    n = len(pts)
    t = len(offs)
    grid = make_grid(t, n, wrap_plus=False)
    positions = np.empty((t * n, 3))
    normals3 = np.empty((t * n, 3))
    for b in range(n):
        for a in range(t):
            positions[b * t + a] = (pts[b, 0], pts[b, 1], offs[a])
            normals3[b * t + a] = nms[b]
    return net_from_points_normals(grid, positions, normals3)


def make_cone(profile: np.ndarray, normals: np.ndarray,
              scales: Sequence[float]) -> LegendreNet:
    """Scale a spherical profile from the origin; rulings are the circular
    direction, the apex is the origin."""
    sc = list(scales)
    if len(sc) < 2:
        raise ValueError("cone needs at least two scales")
    if min(sc) <= 0:
        raise ValueError("scales must be positive")
    pts = np.asarray(profile, dtype=float)
    nms = np.asarray(normals, dtype=float)
    if np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) > 1e-9:
        raise LieGeometryError("cone profile must lie on the unit sphere")
    if np.max(np.abs(np.einsum("ij,ij->i", pts, nms))) > 1e-9:
        raise LieGeometryError("cone normals must be orthogonal to the rays")
    check_profile_legendre(pts, nms)
    n = len(pts)
    t = len(sc)
    grid = make_grid(t, n, wrap_plus=False)
    positions = np.empty((t * n, 3))
    normals3 = np.empty((t * n, 3))
    for b in range(n):
        for a in range(t):
            positions[b * t + a] = sc[a] * pts[b]
            normals3[b * t + a] = nms[b]
    return net_from_points_normals(grid, positions, normals3)


def make_dupin_torus(big_radius: float, small_radius: float, m: int, n: int) -> LegendreNet:
    """Torus of revolution sampled along its curvature lines."""
    if not big_radius > small_radius > 0:
        raise ValueError("torus needs R > r > 0")
    if m < 3 or n < 3:
        raise ValueError("torus needs m >= 3 and n >= 3")
    grid = make_grid(m, n, wrap_plus=True)
    positions = np.empty((m * n, 3))
    normals3 = np.empty((m * n, 3))
    for b in range(n):
        psi = 2 * math.pi * b / n
        for a in range(m):
            phi = 2 * math.pi * a / m
            rad = big_radius + small_radius * math.cos(psi)
            positions[b * m + a] = (rad * math.cos(phi), rad * math.sin(phi),
                                    small_radius * math.sin(psi))
            normals3[b * m + a] = (math.cos(psi) * math.cos(phi),
                                   math.cos(psi) * math.sin(phi), math.sin(psi))
    return net_from_points_normals(grid, positions, normals3)


def _reflect_points(points: np.ndarray, nu: np.ndarray, d: float) -> np.ndarray:
    return points - 2.0 * ((points @ nu) - d)[:, None] * nu[None, :]


def _reflect_normals(normals: np.ndarray, nu: np.ndarray) -> np.ndarray:
    return normals - 2.0 * (normals @ nu)[:, None] * nu[None, :]


def make_reflection_example(kind: int, seed: int = 0, m: int = 7,
                            n_rows: int = 5) -> LegendreNet:
    """Nets built by repeated reflection of an initial curve in planes.

    kind 1: circular curve, concurrent normals, random planes.
    kind 2: spherical non-circular curve, radial normals, random planes.
    kind 3: circular curve, non-concurrent normals, parallel planes.
    """
    if kind not in (1, 2, 3):
        raise ValueError("kind must be 1, 2 or 3")
    rng = np.random.default_rng(seed)

    def unit(v):
        return v / np.linalg.norm(v)

    center = rng.uniform(-0.5, 0.5, 3)
    if kind in (1, 3):
        rho = 2.0 + rng.uniform(0, 0.5)
        u = unit(rng.normal(size=3))
        v = unit(np.cross(u, rng.normal(size=3)))
        u = np.cross(v, unit(np.cross(u, v)))  # orthonormal in-plane pair
        w = np.cross(u, v)
        angles = np.linspace(0.3, 0.3 + 1.4 * math.pi, m)
        points = np.array([center + rho * (math.cos(t) * u + math.sin(t) * v)
                           for t in angles])
        if kind == 1:
            normals = np.array([(p - center) / rho for p in points])
        else:
            # a tangential tilt moves the enveloped sphere centers off the
            # axis, so the edge curvature spheres are not concurrent
            radial = unit(points[0] - center)
            tangent = unit(np.cross(w, radial))
            n0 = unit(radial + 0.4 * tangent + 0.25 * w)
            normals = propagate_profile_normals(points, n0)
    else:
        rho = 2.0 + rng.uniform(0, 0.5)
        directions = [unit(rng.normal(size=3))]
        for _ in range(m - 1):
            step = unit(directions[-1] + 0.45 * rng.normal(size=3))
            directions.append(step)
        points = np.array([center + rho * d for d in directions])
        normals = np.array(directions)

    rows_p = [points]
    rows_n = [normals]
    if kind == 3:
        nu = unit(rng.normal(size=3))
    for i in range(n_rows - 1):
        if kind == 3:
            d = float(nu @ rows_p[-1].mean(axis=0) + 1.0 + 0.4 * rng.uniform())
        else:
            nu = unit(rng.normal(size=3))
            d = float(nu @ rows_p[-1].mean(axis=0) + 1.0 + 0.4 * rng.uniform())
        rows_p.append(_reflect_points(rows_p[-1], nu, d))
        rows_n.append(_reflect_normals(rows_n[-1], nu))

    grid = make_grid(m, n_rows, wrap_plus=False)
    positions = np.vstack(rows_p)
    normals3 = np.vstack(rows_n)
    return net_from_points_normals(grid, positions, normals3)
