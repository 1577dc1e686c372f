"""Per-item Moebius rank tests: one SVD per quadruple, star or quadrilateral.

These are `cross_ratio`, `cross_ratio_constancy`, `is_isothermic_5point`
and `is_ribaucour_pair` as the kernel computed them before it stacked
them: each point set lifted and rank-tested on its own, each cross-ratio's
product and quotient on complex scalars. The stacked kernel must give the
same values bit for bit, the same verdicts and the same first error.
"""

import math

import numpy as np

from liechannel.config import TOL
from liechannel.curvature import IsothermicReport, interior_vertex_stars
from liechannel.liecore import (
    POINT_COMPLEX, LieGeometryError, inner, normalized, orthocomplement, span,
)

from complex_oracle import crossing_dicts
from kernel_oracle import unit_point_lift


def moebius_point_rank(points, tol=None):
    t = TOL.rank if tol is None else tol
    sv = np.linalg.svd(np.array([unit_point_lift(p) for p in points]), compute_uv=False)
    return int(np.sum(sv > t * sv[0]))


def points_concircular(points, tol=None):
    return moebius_point_rank(points, tol) <= 3


def cross_ratio(points, tol=None):
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


def cross_ratio_calls(cert, net):
    """The quadruples `cross_ratio_constancy` passes to `cross_ratio`, in
    call order, grouped by consecutive quadruple of lines."""
    crossings = crossing_dicts(*net.complex.coordinates(cert.direction).crossings)
    order = list(crossings[0]) if crossings else []
    if len(order) < 4:
        raise LieGeometryError("need at least four non-circular lines for cross-ratios")
    lines = cert.lines.tolist()
    first = lines[0]
    on_lines = [v for line in lines for v in line]
    pts = dict(zip(on_lines, net.vertex_points(on_lines)))
    wrap = len(first) > 2 and net.complex.has_edge(first[-1], first[0])
    n = len(order)
    groups = []
    for q in range(n if wrap else n - 3):
        ids = [order[(q + k) % n] for k in range(4)]
        quads = []
        for crossing in crossings:
            quad = []
            for oi in ids:
                hit = crossing.get(oi, [])
                if len(hit) != 1:
                    break
                quad.append(pts[hit[0]])
            if len(quad) == 4:
                quads.append(quad)
        groups.append(quads)
    return groups


def cross_ratio_constancy(cert, net):
    worst = 0.0
    for quads in cross_ratio_calls(cert, net):
        values = [cross_ratio(quad) for quad in quads]
        if len(values) < 2:
            continue
        arr = np.array(values)
        spread = float((arr.max() - arr.min()) / max(np.abs(arr).max(), 1e-30))
        worst = max(worst, spread)
    return worst


def is_isothermic_5point(points, c):
    lifts = np.array([unit_point_lift(p) for p in points])
    applicable, passed, diag_circ = {}, {}, {}
    for star in interior_vertex_stars(c):
        v = star.vertex
        sv = np.linalg.svd(lifts[star.patch], compute_uv=False)
        applicable[v] = not sv[4] / sv[0] <= TOL.cosphericity
        passed[v] = False
        dsv = np.linalg.svd(lifts[star.diagonal_neighbors], compute_uv=False)
        diag_circ[v] = int(np.sum(dsv > TOL.rank * dsv[0])) <= 3
        if not applicable[v]:
            continue
        sp = span(lifts[[v] + star.diagonal_neighbors])
        if sp.dim <= 3:
            # a circle (or less): some sphere through it avoids an edge
            # neighbour exactly when one lies off it; the distance is the
            # largest over the unit members of the spheres through it
            comp = orthocomplement(span(list(sp.basis) + [POINT_COMPLEX])).basis
            off = [math.sqrt(sum(inner(lifts[e], q) * inner(lifts[e], q) for q in comp))
                   for e in star.edge_neighbors]
            passed[v] = len(comp) == 5 - sp.dim and max(off) > 0.1 * TOL.cosphericity
        elif sp.dim <= 4:
            comp = orthocomplement(sp)
            c1, c2 = comp.basis[0], comp.basis[1]
            sphere = c2[5] * c1 - c1[5] * c2
            if np.linalg.norm(sphere) > TOL.membership:
                off = [abs(inner(lifts[e], normalized(sphere))) for e in star.edge_neighbors]
                passed[v] = max(off) > 0.1 * TOL.cosphericity
    return IsothermicReport(applicable=applicable, passed=passed, diagonal_circular=diag_circ)


def is_ribaucour_pair(a, b, tol=None):
    if len(a) != len(b):
        raise ValueError("Ribaucour pair needs curves of equal length")
    t = TOL.membership if tol is None else tol
    for k in range(len(a) - 1):
        quad = [a.points[k], a.points[k + 1], b.points[k + 1], b.points[k]]
        if not points_concircular(quad, t):
            return False
    return True
