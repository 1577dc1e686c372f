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
from .liecore import (
    LieVec, LieGeometryError, Subspace, GRAM, inner, span, signature,
    orthocomplement, normalized,
)
from .cellcomplex import QuadComplex, PLUS, MINUS, edge_key, face_edges, face_edge_labels
from .legendre import (
    NO_PLANE_LIFT, NO_POINT_SPHERE, LegendreNet, plane_lifts, point_spheres,
)
from .channel import ChannelCertificate, _direction_structures, _line_edges


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
    _raise_first([(~has_point, NO_POINT_SPHERE),
                  (np.abs(p[:, 3]) <= 1e-13, "vertex {} is a point at infinity")])
    n, has_plane = plane_lifts(net.bases)
    _raise_first([(~has_plane, NO_PLANE_LIFT),
                  (np.abs(n[:, 5]) <= 1e-13, "vertex {} has no tangent plane lift")])
    return p / p[:, 3:4], n / n[:, 5:6]


def _raise_first(checks) -> None:
    failure = lc.first_failure(checks)
    if failure is not None:
        raise LieGeometryError(failure[1])


def gauss_means(f_quads: np.ndarray, n_quads: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(K, H, collinearity residual) of a stack of faces from their
    (F, 4, 6) point and normal lifts."""
    aff = mixed_area(f_quads, f_quads)
    if np.any(np.max(np.abs(aff).reshape(-1, 36), axis=1) <= 1e-14):
        raise LieGeometryError("degenerate face: vanishing mixed area")
    k, r1 = _operator_ratios(mixed_area(n_quads, n_quads), aff)
    h_neg, r2 = _operator_ratios(mixed_area(n_quads, f_quads), aff)
    return k, -h_neg, np.where(r2 > r1, r2, r1)


def gauss_mean(f_quad: Sequence[LieVec], n_quad: Sequence[LieVec]
               ) -> Tuple[float, float, float]:
    """(K, H, collinearity residual) of one face from its lifts."""
    k, h, r = gauss_means(np.asarray(f_quad, dtype=float)[None],
                          np.asarray(n_quad, dtype=float)[None])
    return float(k[0]), float(h[0]), float(r[0])


def principal_curvatures(f_i: np.ndarray, f_j: np.ndarray, n_i: np.ndarray,
                         n_j: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Edge principal curvatures from dn = -kappa df, least squares, and
    their residuals, for (E, 6) stacks of endpoint lifts."""
    df = f_i - f_j
    dn = n_i - n_j
    dd = lc.dots(df, df)
    if np.any(dd <= 1e-26):
        raise LieGeometryError("principal curvature undefined: df = 0")
    kappa = -lc.dots(dn, df) / dd
    nn = lc.dots(dn, dn)
    r = dn + kappa[:, None] * df
    with np.errstate(divide="ignore", invalid="ignore"):
        res = np.where(nn == 0.0, 0.0, np.sqrt(lc.dots(r, r)) / np.sqrt(nn))
    return kappa, res


def principal_curvature(f_i: LieVec, f_j: LieVec, n_i: LieVec, n_j: LieVec
                        ) -> Tuple[float, float]:
    """Edge principal curvature from dn = -kappa df, least squares."""
    kappa, res = principal_curvatures(*(np.asarray(x, dtype=float)[None]
                                        for x in (f_i, f_j, n_i, n_j)))
    return float(kappa[0]), float(res[0])


@dataclass
class CurvatureReport:
    faces: List[Tuple[int, int, int, int]]
    gauss: List[float]
    mean: List[float]
    face_residuals: List[float]
    edge_kappa: Dict[Tuple[int, int], float]
    edge_residuals: Dict[Tuple[int, int], float]
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
    ij = np.array([(i, j) for i, j, _lab in c.edges], dtype=int).reshape(-1, 2)
    kappa, k_res = principal_curvatures(f_lift[ij[:, 0]], f_lift[ij[:, 1]],
                                        n_lift[ij[:, 0]], n_lift[ij[:, 1]])
    keys = [edge_key(i, j) for i, j in ij.tolist()]

    faces = np.array(c.faces, dtype=int).reshape(-1, 4)
    gauss, mean, res = gauss_means(f_lift[faces], n_lift[faces])
    # kappa per face edge (i,j), (j,k), (k,l), (l,i); a repeated edge keeps
    # its last value, as in the per-edge dictionaries
    slot = {k: e for e, k in enumerate(keys)}
    fe = np.array([[slot[edge_key(a, b)] for a, b in face_edges(face)] for face in c.faces],
                  dtype=int).reshape(-1, 4)
    kij, kjk, kkl, kli = (kappa[fe[:, t]] for t in range(4))
    # with dn = -kappa df and H = -A(n,f)/A(f,f) taken literally, H is
    # the mean of the edge curvatures and the face identity reads
    lhs = (kij - kli - kjk + kkl) * mean
    rhs = kij * kkl - kjk * kli
    scale = np.max([np.abs(lhs), np.abs(rhs), np.abs(kij * kkl), np.abs(kjk * kli),
                    np.full(len(faces), 1e-12)], axis=0)
    ident = np.abs(lhs - rhs) / scale
    return CurvatureReport(faces=list(c.faces), gauss=gauss.tolist(), mean=mean.tolist(),
                           face_residuals=res.tolist(),
                           edge_kappa=dict(zip(keys, kappa.tolist())),
                           edge_residuals=dict(zip(keys, k_res.tolist())),
                           identity_residuals=ident.tolist())


def kappa_line_spread(net: LegendreNet, report: CurvatureReport, direction: str) -> float:
    """Max spread of principal curvatures along dir-coordinate lines,
    relative to the largest curvature magnitude of the net."""
    lines, _ = _direction_structures(net.complex, direction)
    scale = max(max((abs(k) for k in report.edge_kappa.values()), default=1.0), 1e-12)
    worst = 0.0
    for line in lines:
        ks = [report.edge_kappa[edge_key(*e)] for e in _line_edges(line, net.complex)]
        if len(ks) > 1:
            worst = max(worst, (max(ks) - min(ks)) / scale)
    return worst


# ---------------------------------------------------------------------------
# isothermic tests


@dataclass
class VertexStar:
    vertex: int
    edge_neighbors: List[int]
    diagonal_neighbors: List[int]
    patch: List[int]  # nine vertices of the four adjacent faces


def interior_vertex_stars(c: QuadComplex) -> List[VertexStar]:
    """Degree-4 interior vertices with their edge and diagonal neighbours."""
    out = []
    for v in range(c.n_vertices):
        edges = c.vertex_edges(v)
        if len(edges) != 4:
            continue
        faces = c.vertex_faces(v)
        if len(faces) != 4:
            continue
        diagonals = []
        patch = {v}
        for fi in faces:
            face = c.faces[fi]
            pos = face.index(v)
            diagonals.append(face[(pos + 2) % 4])
            patch.update(face)
        nbrs = [a if b == v else b for a, b in edges]
        out.append(VertexStar(vertex=v, edge_neighbors=nbrs,
                              diagonal_neighbors=diagonals, patch=sorted(patch)))
    return out


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


def _patch_spherical(points: np.ndarray, tol: float) -> bool:
    # point lifts have no e6 component, so rank <= 5 always; cospherical
    # patches drop to rank <= 4
    lifts = np.array([normalized(lc.lift_point(p)) for p in points])
    sv = np.linalg.svd(lifts, compute_uv=False)
    return sv[4] / sv[0] <= tol


def is_isothermic_5point(points: np.ndarray, c: QuadComplex) -> IsothermicReport:
    """5-point sphere test at every interior degree-4 vertex.

    A vertex passes when it is cospherical with its four diagonal
    neighbours on a sphere avoiding at least one edge neighbour; vertices
    whose 9-point patch is cospherical are reported not applicable.
    """
    pts = np.asarray(points, dtype=float)
    applicable: Dict[int, bool] = {}
    passed: Dict[int, bool] = {}
    diag_circ: Dict[int, bool] = {}
    for star in interior_vertex_stars(c):
        v = star.vertex
        if _patch_spherical(pts[star.patch], TOL.cosphericity):
            applicable[v] = False
            passed[v] = False
            diag_circ[v] = lc.points_concircular(pts[star.diagonal_neighbors])
            continue
        applicable[v] = True
        five = [pts[v]] + [pts[d] for d in star.diagonal_neighbors]
        sp = span([normalized(lc.lift_point(p)) for p in five])
        ok = False
        if sp.dim <= 4:
            comp = orthocomplement(sp)  # contains the point sphere complex
            c1, c2 = comp.basis[0], comp.basis[1]
            sphere = c2[5] * c1 - c1[5] * c2  # the Moebius direction of comp
            if np.linalg.norm(sphere) > TOL.membership:
                off = [abs(inner(normalized(lc.lift_point(pts[e])), normalized(sphere)))
                       for e in star.edge_neighbors]
                # a patch that passed the nowhere-spherical gate keeps its
                # edge neighbours off the 5-point sphere by at least the
                # order of the gate cutoff
                ok = max(off) > 0.1 * TOL.cosphericity
        passed[v] = ok
        diag_circ[v] = lc.points_concircular(pts[star.diagonal_neighbors])
    return IsothermicReport(applicable=applicable, passed=passed,
                            diagonal_circular=diag_circ)


def diagonal_concircular(points: np.ndarray, c: QuadComplex) -> Dict[int, bool]:
    """Concircularity of the four diagonal neighbours per interior vertex."""
    pts = np.asarray(points, dtype=float)
    return {star.vertex: lc.points_concircular(pts[star.diagonal_neighbors])
            for star in interior_vertex_stars(c)}


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
    if cert.face_spheres is None or len(cert.face_spheres) < 3:
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
    face_index = {tuple(f): i for i, f in enumerate(net.complex.faces)}
    out = []
    for ri, strip in enumerate(cert.ribbons):
        chain: List[float] = []
        hs: List[float] = []
        for fi in strip:
            face = net.complex.faces[fi]
            ks = [report.edge_kappa[edge_key(a, b)]
                  for a, b, lab in face_edge_labels(face) if lab == opp]
            if not chain:
                chain.extend(ks)
            else:
                # faces of a strip share one opposite-label edge
                chain.append(ks[1] if abs(ks[0] - chain[-1]) < abs(ks[1] - chain[-1]) else ks[0])
            hs.append(report.mean[face_index[tuple(face)]])
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
