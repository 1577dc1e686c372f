"""Face curvatures, edge principal curvatures, isothermic tests and the
classification of isothermic channel surfaces.

The Euclidean projection of a Legendre net provides, per vertex, a point
lift f with (f,p) = 0, (f,q) = -1 and a tangent plane lift n with
(n,q) = 0, (n,p) = -1. With the mixed area of two quads

    A(a,b)_ijkl = 1/4 (da_ik ^ db_jl + db_ik ^ da_jl),
    (x ^ y)(v) = (x,v) y - (y,v) x,    da_ik = a_i - a_k,

Gauss and mean curvature of a face are the operator ratios

    K = A(n,n) / A(f,f),        H = -A(n,f) / A(f,f),

computed here as least-squares scalars with an explicit collinearity
residual, and edge principal curvatures come from dn = -kappa df.

A channel certificate is classified by the span V of its face-sphere
vectors inside the Moebius subgeometry:

    signature (2,1)            spheres orthogonal to a fixed line: revolution
    signature (3,0)            planes through a fixed point: cone
    signature (2,0) + radical  planes orthogonal to a fixed plane: cylinder
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .config import TOL
from . import liecore as lc
from .liecore import LieVec, LieGeometryError, Subspace, GRAM, span, signature
from .cellcomplex import Incidence, QuadComplex, PLUS, MINUS, SLOTS
from .legendre import (
    NO_PLANE_LIFT, NO_POINT_SPHERE, LegendreNet, plane_lifts, point_spheres,
)
from .channel import ChannelCertificate


def wedge(x: LieVec, y: LieVec) -> np.ndarray:
    """Matrix of v -> (x,v) y - (y,v) x; stacks (..., 6) give (..., 6, 6)."""
    gx, gy = (GRAM @ x[..., None])[..., 0], (GRAM @ y[..., None])[..., 0]
    return y[..., :, None] * gx[..., None, :] - x[..., :, None] * gy[..., None, :]


def mixed_area(a: Sequence[LieVec], b: Sequence[LieVec]) -> np.ndarray:
    """Mixed area operator of two quads indexed (i, j, k, l); stacks of
    quads (..., 4, 6) give (..., 6, 6)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    da_ik, da_jl = a[..., 0, :] - a[..., 2, :], a[..., 1, :] - a[..., 3, :]
    db_ik, db_jl = b[..., 0, :] - b[..., 2, :], b[..., 1, :] - b[..., 3, :]
    return 0.25 * (wedge(da_ik, db_jl) + wedge(db_ik, da_jl))


def _operator_ratios(num: np.ndarray, den: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Least-squares scalars num ~ k * den of (F, 6, 6) stacks plus the
    relative collinearity residuals; k and the residual are 0 where num = 0."""
    num, den = num.reshape(-1, 36), den.reshape(-1, 36)
    k = np.sum(num * den, axis=1) / np.sum(den * den, axis=1)
    nn = np.sum(num * num, axis=1)
    r = num - k[:, None] * den
    with np.errstate(divide="ignore", invalid="ignore"):
        res = np.sqrt(lc.dots(r, r)) / np.sqrt(nn)
    zero = nn == 0.0
    return np.where(zero, 0.0, k), np.where(zero, 0.0, res)


def euclidean_lifts(net: LegendreNet) -> Tuple[np.ndarray, np.ndarray]:
    """(V, 6) point lifts f normalized to (f,q) = -1 (Euclidean positions)
    and tangent plane lifts n normalized to (n,p) = -1.

    Raises for the first vertex without a point lift, then for the first
    without a plane lift.
    """
    p, has_point = point_spheres(net.bases)
    lc.raise_first([(~has_point, NO_POINT_SPHERE),
                    (~(np.abs(p[:, 3]) > 1e-13), "vertex {} is a point at infinity")])
    n, has_plane = plane_lifts(net.bases)
    lc.raise_first([(~has_plane, NO_PLANE_LIFT),
                    (~(np.abs(n[:, 5]) > 1e-13), "vertex {} has no tangent plane lift")])
    return p / p[:, 3:4], n / n[:, 5:6]


def gauss_means(f_quads: np.ndarray, n_quads: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(K, H, collinearity residual) of a stack of faces from their
    (F, 4, 6) point and normal lifts."""
    aff = mixed_area(f_quads, f_quads)
    if not np.all(np.max(np.abs(aff).reshape(-1, 36), axis=1) > 1e-14):
        raise LieGeometryError("degenerate face: vanishing mixed area")
    k, r1 = _operator_ratios(mixed_area(n_quads, n_quads), aff)
    h_neg, r2 = _operator_ratios(mixed_area(n_quads, f_quads), aff)
    return k, -h_neg, np.where(r2 > r1, r2, r1)


def principal_curvatures(f_i: np.ndarray, f_j: np.ndarray, n_i: np.ndarray,
                         n_j: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Edge principal curvatures from dn = -kappa df, least squares, and
    their residuals, for (E, 6) stacks of endpoint lifts."""
    df = f_i - f_j
    dn = n_i - n_j
    dd = lc.dots(df, df)
    if not np.all(dd > 1e-26):
        raise LieGeometryError("principal curvature undefined: df = 0")
    kappa = -lc.dots(dn, df) / dd
    nn = lc.dots(dn, dn)
    r = dn + kappa[:, None] * df
    with np.errstate(divide="ignore", invalid="ignore"):
        res = np.where(nn == 0.0, 0.0, np.sqrt(lc.dots(r, r)) / np.sqrt(nn))
    return kappa, res


@dataclass
class CurvatureReport:
    gauss: List[float]
    mean: List[float]
    face_residuals: List[float]
    edge_kappa: np.ndarray        # (E,) per edge id
    edge_residuals: np.ndarray    # (E,)
    identity_residuals: List[float]

    @property
    def identity_max(self) -> float:
        return max(self.identity_residuals, default=0.0)


def curvature_report(net: LegendreNet) -> CurvatureReport:
    """Per-face K, H and per-edge principal curvatures of the Euclidean
    projection, with the face identity
    (k_ij - k_il - k_jk + k_kl) H = k_jk k_li - k_ij k_kl checked per face.

    Vertices, edges and faces are each one stacked computation; errors are
    raised for the first offending vertex (point lifts before plane
    lifts), then edge, then face.
    """
    c = net.complex
    f_lift, n_lift = euclidean_lifts(net)
    # dn = -kappa df reads the same from either end of an edge
    i, j = c.edge_vertices.T
    kappa, k_res = principal_curvatures(f_lift[i], f_lift[j], n_lift[i], n_lift[j])

    faces = c.face_vertices
    gauss, mean, res = gauss_means(f_lift[faces], n_lift[faces])
    # kappa per face edge (i,j), (j,k), (k,l), (l,i)
    kij, kjk, kkl, kli = kappa[c.face_edge_ids].T
    # with dn = -kappa df and H = -A(n,f)/A(f,f) taken literally, H is
    # the mean of the edge curvatures and the face identity reads
    lhs = (kij - kli - kjk + kkl) * mean
    rhs = kij * kkl - kjk * kli
    scale = np.max([np.abs(lhs), np.abs(rhs), np.abs(kij * kkl), np.abs(kjk * kli),
                    np.full(len(faces), 1e-12)], axis=0)
    ident = np.abs(lhs - rhs) / scale
    return CurvatureReport(gauss=gauss.tolist(), mean=mean.tolist(),
                           face_residuals=res.tolist(), edge_kappa=kappa, edge_residuals=k_res,
                           identity_residuals=ident.tolist())


def kappa_line_spread(net: LegendreNet, report: CurvatureReport, direction: str) -> float:
    """Max spread of principal curvatures along dir-coordinate lines,
    relative to the largest curvature magnitude of the net."""
    kappa = report.edge_kappa
    scale = max(float(np.max(np.abs(kappa), initial=0.0)), 1e-12)
    lines, worst = net.complex.coordinates(direction).line_edges, 0.0
    # the running maximum over lines of two or more edges, which a NaN spread never raises
    for _, at in lines.by_length():
        if at.shape[1] > 1:
            worst = np.fmax.reduce(np.ptp(kappa[lines.ids[at]], axis=1) / scale, initial=worst)
    return float(worst)


# ---------------------------------------------------------------------------
# isothermic tests


def interior_vertex_stars(c: QuadComplex
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Incidence]:
    """Degree-4 interior vertices (S,), their edge neighbours (S, 4) and
    diagonal neighbours (S, 4), and their patches: the ascending distinct
    vertices of the four faces at each."""
    star_edges, star_faces = c.vertex_edges_csr, c.vertex_faces_csr
    v = np.flatnonzero((star_edges.degrees == 4) & (star_faces.degrees == 4))
    ends = c.edge_vertices[star_edges.gather(v)[0]].reshape(-1, 4, 2)
    edge_neighbors = np.where(ends[..., 1] == v[:, None], ends[..., 0], ends[..., 1])
    faces = c.face_vertices[star_faces.gather(v)[0]].reshape(-1, 4, 4)
    # the corner opposite the first place of v in each face
    at = np.argmax(faces == v[:, None, None], axis=2)
    diagonal = np.take_along_axis(faces, ((at + 2) % 4)[..., None], axis=2)[..., 0]
    corners = np.sort(faces.reshape(-1, 16), axis=1)
    distinct = np.diff(corners, axis=1, prepend=-1) != 0
    return (v, edge_neighbors, diagonal,
            Incidence(np.concatenate(([0], np.cumsum(distinct.sum(axis=1)))), corners[distinct]))


@dataclass
class IsothermicReport:
    applicable: Dict[int, bool]       # nowhere-spherical patch per vertex
    passed: Dict[int, bool]           # 5-point sphere condition per vertex
    diagonal_circular: Dict[int, bool]

    def all_pass(self) -> bool:
        keys = [v for v, a in self.applicable.items() if a]
        return bool(keys) and all(self.passed[v] for v in keys)

    def any_applicable(self) -> bool:
        return any(self.applicable.values())


def is_isothermic_5point(points: np.ndarray, c: QuadComplex) -> IsothermicReport:
    """5-point sphere test at every interior degree-4 vertex.

    A vertex passes when it is cospherical with its four diagonal
    neighbours on a sphere avoiding at least one edge neighbour; vertices
    whose 9-point patch is cospherical are reported not applicable. Each
    step is one stacked call over all stars (per patch size or span rank).
    """
    pts = np.asarray(points, dtype=float)
    lifts = lc.unit_point_lifts(pts)
    vertices, edge_neighbors, diagonal, patches = interior_vertex_stars(c)
    five = np.column_stack((vertices, diagonal))
    applicable, passed = np.zeros((2, len(vertices)), dtype=bool)
    for group, at in patches.by_length():
        # point lifts have no e6 component, so rank <= 5 always; cospherical
        # patches drop to rank <= 4
        sv = np.linalg.svd(lifts[patches.ids[at]], compute_uv=False)
        applicable[group] = ~(sv[:, 4] / sv[:, 0] <= TOL.cosphericity)
    # the spheres through the vertex and its diagonals are the Moebius
    # complement of their span: one sphere at rank 4, the pencil of their
    # circle at rank 3; p, Euclidean-orthogonal to point lifts, adds 1 to the rank
    p = np.broadcast_to(lc.POINT_COMPLEX, (int(applicable.sum()), 1, 6))
    vt, rank = lc.spans(np.concatenate([lifts[five[applicable]], p], axis=1))
    for r in np.unique(rank[rank <= 5]):
        group = np.flatnonzero(applicable)[rank == r]
        # an edge neighbour's largest distance from the unit spheres through
        # the points: the norm of its products with the orthonormal complement
        ip = lc.inner_rows(lifts[edge_neighbors[group]][:, :, None],
                           lc.orthocomplements(vt[rank == r, :r])[:, None])
        # a patch that passed the nowhere-spherical gate keeps its edge neighbours
        # off the 5-point sphere by at least the order of the gate cutoff
        passed[group] = np.sqrt(lc.dots(ip, ip)).max(axis=1) > 0.1 * TOL.cosphericity
    diagonal_circular = lc.moebius_point_rank(pts[five[:, 1:]]) <= 3
    return IsothermicReport(*(dict(zip(five[:, 0].tolist(), verdicts.tolist()))
                              for verdicts in (applicable, passed, diagonal_circular)))


# ---------------------------------------------------------------------------
# classification of isothermic channel surfaces


@dataclass
class VessiotClass:
    kind: str  # "revolution" | "cylinder" | "cone" | "none"
    witness: Subspace
    signature: Tuple[int, int, int]


def vessiot_classify(cert: ChannelCertificate) -> VessiotClass:
    """Classify from the span of the face-sphere vectors.

    Spheres orthogonal to a line span a (2,1)-space (revolution), planes
    through a point a definite 3-space (cone), planes orthogonal to a plane
    a degenerate (2,0,1)-space (cylinder).
    """
    if len(cert.face_spheres) < 3:
        raise LieGeometryError("insufficient data: need at least 3 face-spheres")
    v = span(cert.face_spheres)
    sig = signature(v).triple
    if v.dim <= 3 and sig == (2, 1, 0):
        kind = "revolution"
    elif v.dim <= 3 and sig == (3, 0, 0):
        kind = "cone"
    elif v.dim <= 3 and sig == (2, 0, 1):
        kind = "cylinder"
    else:
        kind = "none"
    return VessiotClass(kind=kind, witness=v, signature=sig)


# ---------------------------------------------------------------------------
# constant mean curvature analysis along ribbons


@dataclass
class RibbonCmcReport:
    ribbon: int
    kappa_minus: List[float]          # '-' curvature chain along the ribbon
    residuals: List[float]            # (k_i - k_k)(k_j + H) per face pair
    coinciding: int                   # count of equal consecutive kappa pairs
    torus_type: bool                  # at least three equal kappa minus


def ribbon_cmc_analysis(net: LegendreNet, cert: ChannelCertificate,
                        report: CurvatureReport) -> List[RibbonCmcReport]:
    """Per circular ribbon: the alternative (equal '-' curvatures) or
    (H = -kappa) that constant mean curvature forces on adjacent faces."""
    opp = MINUS if cert.direction == PLUS else PLUS
    # the two opposite-label curvatures of each face
    face_kappa = report.edge_kappa[net.complex.face_edge_ids[:, SLOTS[opp]]].tolist()
    out = []
    for ri, strip in enumerate(cert.ribbons):
        chain: List[float] = []
        hs: List[float] = []
        for fi in strip:
            ks = face_kappa[fi]
            if not chain:
                chain.extend(ks)
            else:
                # faces of a strip share one opposite-label edge
                chain.append(ks[1] if abs(ks[0] - chain[-1]) < abs(ks[1] - chain[-1]) else ks[0])
            hs.append(report.mean[fi])
        residuals = []
        for t in range(len(chain) - 2):
            # constant mean curvature forces, per adjacent face pair, either
            # equal outer '-' curvatures or H = kappa of the shared edge
            h = 0.5 * (hs[t] + hs[t + 1])
            residuals.append((chain[t] - chain[t + 2]) * (h - chain[t + 1]))
        scale = max(max((abs(k) for k in chain), default=1.0), 1e-12)
        coinciding = 0
        for t in range(len(chain)):
            cnt = sum(1 for u in range(len(chain))
                      if abs(chain[u] - chain[t]) <= 1e-7 * scale)
            coinciding = max(coinciding, cnt)
        out.append(RibbonCmcReport(ribbon=ri, kappa_minus=chain,
                                   residuals=residuals, coinciding=coinciding,
                                   torus_type=coinciding >= 3))
    return out
