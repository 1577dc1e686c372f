"""Scalar reference for the batched R^{4,2} kernel.

One contact element, one edge sphere, one vertex star, one edge curvature,
one face, one vertex position, one subspace residual and one propagated
circle sample at a time, written as the kernel computed them before it
worked on stacks: two SVDs per span, three per edge meet, 6x6 operators
per face, one `unlift` per vertex, one projection per residual, one next
circle per sample. The batched kernel must reproduce these values bit for
bit and raise the same errors. Ragged groups (lines, ribbons) are lists of
lists, flattened and split by length as the kernel did before it kept
them as `cellcomplex.Incidence` rows.
"""

import math

import numpy as np

from liechannel import legendre, liecore
from liechannel.cellcomplex import edge_key
from liechannel.channel import touching_circle_space
from liechannel.config import TOL
from liechannel.liecore import (
    GRAM, POINT_COMPLEX, DegenerateGramError, LieGeometryError, aux_norm, inner, is_null,
    normalized, oriented_representative, projective_distance, unlift,
)


def canonical_sign(v):
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


def span(vectors, tol=None):
    t = TOL.rank if tol is None else tol
    m = np.atleast_2d(np.asarray(vectors, dtype=float))
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        raise LieGeometryError("span of zero vectors")
    rank = int(np.sum(sv > t * sv[0]))
    _, _, vt = np.linalg.svd(m)
    return vt[:rank].copy()


def subspace_residual(basis, v):
    """Relative distance of v from the span of an aux-orthonormal basis."""
    n = aux_norm(v)
    if n == 0.0:
        return 0.0
    return float(np.linalg.norm(v - basis.T @ (basis @ v)) / n)


def contact_element(basis):
    """The basis, after the checks of a contact element."""
    if basis.shape[0] != 2:
        raise LieGeometryError("contact element must be 2-dimensional")
    if float(np.max(np.abs(basis @ GRAM @ basis.T))) > TOL.membership:
        raise LieGeometryError("contact element plane is not totally isotropic")
    return basis


def lift_point(x):
    p = np.asarray(x, dtype=float)
    return np.array([p[0], p[1], p[2], 1.0, 0.5 * (p @ p), 0.0])


def unit_point_lift(x):
    """normalized(lift_point(x)), as the rank tests lifted each point."""
    v = lift_point(x)
    return v / float(np.linalg.norm(v))


def vertex_points(net, vertices=None):
    """Positions of the vertex point spheres, one `unlift` per vertex."""
    vs = range(net.complex.n_vertices) if vertices is None else vertices
    spheres, ok = legendre.point_spheres(net.bases[list(vs)])
    out = []
    for v, s, has_point in zip(vs, spheres, ok):
        if not has_point:
            raise LieGeometryError("contact element orthogonal to the point sphere complex")
        d = unlift(s)
        if d.kind != "point":
            raise LieGeometryError(f"vertex {v} has no finite Euclidean position")
        out.append(d.center)
    return np.array(out)


def lift_plane(n, offset):
    n = np.asarray(n, dtype=float)
    return np.array([n[0], n[1], n[2], 0.0, float(offset), 1.0])


def contact_from_point_normal(x, n):
    nv = np.asarray(n, dtype=float)
    if abs(np.linalg.norm(nv) - 1.0) > 1e-9:
        raise LieGeometryError("normal must have unit length")
    xv = np.asarray(x, dtype=float)
    return contact_element(span([lift_point(xv), lift_plane(nv, float(nv @ xv))]))


def contact_from_vectors(a, b):
    return contact_element(span([a, b]))


def curvature_sphere(a, b):
    """Meet of two contact element bases; raises as the scalar kernel did."""
    t = TOL.rank
    m = np.vstack([a, -b]).T
    _, sv, vt = np.linalg.svd(m)
    null = vt[np.sum(sv > t * (sv[0] if sv.size else 0.0)):]
    vecs = [a.T @ x[: a.shape[0]] for x in null]
    meet = span(vecs, tol=t) if vecs else np.zeros((0, 6))
    if meet.shape[0] >= 2:
        raise LieGeometryError("identical contact elements")
    if meet.shape[0] == 0:
        raise LieGeometryError("not in contact: contact elements do not intersect")
    return canonical_sign(meet[0].copy())


def edge_spheres(bases, complex_):
    """(spheres by edge key, failed edges) as the per-edge loop found them."""
    spheres, failed = {}, []
    for i, j, _lab in complex_.edges:
        k = edge_key(i, j)
        if k in spheres:
            continue
        try:
            spheres[k] = curvature_sphere(bases[k[0]], bases[k[1]])
        except LieGeometryError as exc:
            failed.append((i, j, str(exc)))
    return spheres, failed


def net_from_edge_spheres(c, spheres):
    """Bases (V, 2, 6) spanned by the vertex stars of edge spheres keyed by
    (smaller, larger) vertex, one star and then one given sphere at a time,
    raising as that loop did."""
    for k, s in spheres.items():
        if not is_null(s):
            raise LieGeometryError(f"edge sphere on {k} is not null")
    bases = []
    for v in range(c.n_vertices):
        star = [spheres[edge_key(*c.edges[e][:2])] for e in c.vertex_edges(v)]
        message = f"vertex-star does not span a contact element (vertex {v})"
        if len(star) < 2:
            raise LieGeometryError(message)
        sp = liecore.span(star)
        if sp.dim != 2:
            raise LieGeometryError(message)
        try:
            bases.append(contact_element(sp.basis))
        except LieGeometryError as exc:
            raise LieGeometryError(f"{message}: {exc}") from exc
    for (i, j), s in spheres.items():
        k = edge_key(i, j)
        if projective_distance(curvature_sphere(bases[k[0]], bases[k[1]]), s) > \
                math.sqrt(TOL.membership):
            raise LieGeometryError(f"edge sphere on ({i},{j}) not reproduced by the net")
    return np.array(bases).reshape(-1, 2, 6)


def _pencil_member(basis, k, message):
    b1, b2 = basis
    v = b2[k] * b1 - b1[k] * b2
    n = np.linalg.norm(v)
    if n <= TOL.membership:
        raise LieGeometryError(message)
    return canonical_sign(v / n)


def point_sphere(basis):
    return _pencil_member(basis, 5, "contact element orthogonal to the point sphere complex")


def plane_lift(basis):
    return _pencil_member(basis, 3, "contact element has no plane representative")


def wedge(x, y):
    gx, gy = GRAM @ x, GRAM @ y
    return np.outer(y, gx) - np.outer(x, gy)


def mixed_area(a, b):
    da_ik, da_jl = a[0] - a[2], a[1] - a[3]
    db_ik, db_jl = b[0] - b[2], b[1] - b[3]
    return 0.25 * (wedge(da_ik, db_jl) + wedge(db_ik, da_jl))


def _operator_ratio(num, den):
    dd = float(np.sum(den * den))
    if dd == 0.0:
        raise LieGeometryError("degenerate face: vanishing mixed area")
    k = float(np.sum(num * den) / dd)
    nn = float(np.sum(num * num))
    if nn == 0.0:
        return 0.0, 0.0
    return k, float(np.linalg.norm(num - k * den) / math.sqrt(nn))


def gauss_mean(f_quad, n_quad):
    aff = mixed_area(f_quad, f_quad)
    if float(np.max(np.abs(aff))) <= 1e-14:
        raise LieGeometryError("degenerate face: vanishing mixed area")
    k, r1 = _operator_ratio(mixed_area(n_quad, n_quad), aff)
    h_neg, r2 = _operator_ratio(mixed_area(n_quad, f_quad), aff)
    return k, -h_neg, max(r1, r2)


def principal_curvature(f_i, f_j, n_i, n_j):
    df = f_i - f_j
    dn = n_i - n_j
    dd = float(df @ df)
    if dd <= 1e-26:
        raise LieGeometryError("principal curvature undefined: df = 0")
    kappa = -float(dn @ df) / dd
    nn = float(dn @ dn)
    res = 0.0 if nn == 0.0 else float(np.linalg.norm(dn + kappa * df) / math.sqrt(nn))
    return kappa, res


def curvature_report(bases, c):
    """(gauss, mean, face residuals, edge kappa, edge residuals, identity
    residuals) of the per-vertex, per-edge and per-face loops."""
    f_lift, n_lift = {}, {}
    for v in range(c.n_vertices):
        p = point_sphere(bases[v])
        if abs(p[3]) <= 1e-13:
            raise LieGeometryError(f"vertex {v} is a point at infinity")
        f_lift[v] = p / p[3]
    for v in range(c.n_vertices):
        n = plane_lift(bases[v])
        if abs(n[5]) <= 1e-13:
            raise LieGeometryError(f"vertex {v} has no tangent plane lift")
        n_lift[v] = n / n[5]
    kappa, k_res = {}, {}
    for i, j, _lab in c.edges:
        k, r = principal_curvature(f_lift[i], f_lift[j], n_lift[i], n_lift[j])
        kappa[edge_key(i, j)] = k
        k_res[edge_key(i, j)] = r
    gauss, mean, res, ident = [], [], [], []
    for face in c.faces:
        i, j, k, l = face
        kk, hh, rr = gauss_mean([f_lift[v] for v in face], [n_lift[v] for v in face])
        gauss.append(kk)
        mean.append(hh)
        res.append(rr)
        kij, kjk = kappa[edge_key(i, j)], kappa[edge_key(j, k)]
        kkl, kli = kappa[edge_key(k, l)], kappa[edge_key(l, i)]
        lhs = (kij - kli - kjk + kkl) * hh
        rhs = kij * kkl - kjk * kli
        scale = max(abs(lhs), abs(rhs), abs(kij * kkl), abs(kjk * kli), 1e-12)
        ident.append(abs(lhs - rhs) / scale)
    return gauss, mean, res, kappa, k_res, ident


def project_onto(v, s):
    """Gram-orthogonal projection of one vector."""
    g = s.restricted_gram()
    eig = np.abs(np.linalg.eigvalsh(g))
    if np.min(eig) <= TOL.signature * max(1e-300, float(np.max(eig))):
        raise DegenerateGramError("degenerate Gram form")
    return s.basis.T @ np.linalg.solve(g, s.basis @ GRAM @ v)


def propagate_point(x, cy, next_sphere_hat):
    """One circle sample along the cyclide to the next circle, (y, disc);
    each threshold test fails on NaN."""
    xm = project_onto(x, cy.dminus)
    xp = x - xm
    tol = 1e-6 * aux_norm(x) ** 2
    if not (abs(inner(xm, xm)) <= tol and abs(inner(xp, xp)) <= tol):
        raise LieGeometryError("point does not lie on the cyclide")
    c_next = touching_circle_space(next_sphere_hat, cy.dminus)
    if c_next.dim != 3:
        raise LieGeometryError(f"circle of the next sphere degenerates (dim {c_next.dim})")
    cond = np.array([inner(bv, xm) for bv in c_next.basis])
    if not np.linalg.norm(cond) > 1e-12 * aux_norm(xm):
        raise LieGeometryError("propagation condition degenerates")
    _, _, vt = np.linalg.svd(cond[None, :])
    plane = c_next.basis.T @ vt[1:].T
    eig, vecs = np.linalg.eigh(plane.T @ GRAM @ plane)
    order = np.argsort(np.abs(eig))
    disc = float(abs(eig[order[0]]) / max(abs(eig[order[1]]), 1e-300))
    y_quad = plane @ vecs[:, order[0]]
    y = xm + inner(xm, POINT_COMPLEX) * oriented_representative(next_sphere_hat)
    if not projective_distance(y, y_quad) <= 1e-5:
        raise LieGeometryError("propagation roots disagree with the tangency direction")
    return normalized(y), disc


def propagate_row(xs, cy, next_sphere_hat):
    """`propagate_point` of each sample in order: stacked (ys, discs)."""
    out = [propagate_point(x, cy, next_sphere_hat) for x in xs]
    return np.array([y for y, _ in out]), np.array([d for _, d in out])


def flatten(groups):
    """The items of all groups (lines or ribbons) in order, and the group of each."""
    return (np.array([i for group in groups for i in group], dtype=int),
            np.repeat(np.arange(len(groups)), [len(group) for group in groups]))


def by_length(groups):
    """Per length n: the ids (k,) of the groups of that length and the
    positions (k, n) of their items in `flatten` order."""
    counts = np.array([len(group) for group in groups], dtype=int)
    return [(ids, (np.cumsum(counts) - counts)[ids, None] + np.arange(n))
            for n in np.unique(counts) for ids in [np.flatnonzero(counts == n)]]
