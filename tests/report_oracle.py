"""Verify report assembled from independent computations.

The channel certificate is built here as the kernel built it before it
stored stacks: per-line and per-ribbon lists of vectors and `Subspace`s,
a `Subspace.residual` per vertex, face sphere and circle membership, and
the derived sphere families one item at a time (`oracle_certificate`,
`oracle_complete`, `oracle_residuals`). The other parts of the report come
from their own public functions: `cross_ratio_constancy`,
`is_multi_circular`, `is_multi_circular_net`, `is_isothermic_5point` and
`is_dupin_cyclide` (which completes both directions once more). The
certificate is serialised vector by vector, through the scalar `unlift`
and circle fit below. `io_json.verify_report` must give the same bytes
from one certificate per direction.
"""

import math
from types import SimpleNamespace

import numpy as np

from liechannel import liecore as lc
from liechannel.cellcomplex import MINUS, PLUS
from liechannel.channel import (
    ChannelFailure, cross_ratio_constancy, is_dupin_cyclide, is_multi_circular,
    is_multi_circular_net, touching_circle_space,
)
from liechannel.config import TOL
from liechannel.curvature import is_isothermic_5point
from liechannel.legendre import (
    NO_POINT_SPHERE, DegenerateFaceError, DupinCyclide, face_cyclide_family, face_spheres_of,
    is_legendre, point_spheres,
)
from liechannel.liecore import (
    POINT_COMPLEX, LieGeometryError, canonical_sign, gram_reflection, inner, normalized,
    orthocomplement, signature, span, subspace_distance, unit_moebius_sphere,
)


def unlift(v, tol=None):
    """`liecore.unlift` of one vector: (kind, center, radius, normal, offset)."""
    t = TOL.null if tol is None else tol
    n = normalized(v)
    if not lc.is_null(n, t):
        raise lc.NotALieSphereError(lc.NOT_A_LIE_SPHERE)
    u0 = n[3]
    if abs(u0) <= t:
        if abs(n[5]) <= t:
            return "point_at_infinity", None, None, None, None
        w = n / n[5]
        return "plane", None, None, w[:3].copy(), float(w[4])
    w = n / u0
    center, radius = w[:3].copy(), float(w[5])
    if abs(radius) <= t * (1.0 + np.linalg.norm(center)):
        return "point", center, None, None, None
    return "sphere", center, radius, None, None


def lie_descriptor(v):
    kind, center, radius, normal, offset = unlift(v)
    if kind == "plane":
        return {"kind": "plane", "normal": list(normal), "offset": offset}
    if kind == "sphere":
        return {"kind": "sphere", "center": list(center), "radius": radius}
    if kind == "point":
        return {"kind": "point", "center": list(center)}
    return {"kind": "point_at_infinity"}


def moebius_descriptor(v):
    try:
        kind, center, radius, normal, offset = unlift(unit_moebius_sphere(v) + lc.E6)
    except LieGeometryError:
        return {"kind": "unrepresentable"}
    if kind == "plane":
        return {"kind": "plane", "normal": list(normal), "offset": offset}
    return {"kind": "sphere", "center": list(center), "radius": radius}


def circle_euclidean(basis, n_probe=12):
    """Circle (center, radius, plane normal) of a circle space basis, from
    n_probe samples unlifted one by one and a plane and circle fit."""
    eig, vecs = np.linalg.eigh(basis @ lc.GRAM @ basis.T)
    if not (eig[0] < 0 < eig[1]):
        raise LieGeometryError("circle space must have signature (2,1)")
    g3 = basis.T @ vecs[:, 0] / math.sqrt(-eig[0])
    g1 = basis.T @ vecs[:, 1] / math.sqrt(eig[1])
    g2 = basis.T @ vecs[:, 2] / math.sqrt(eig[2])
    pts = []
    for k in range(n_probe):
        p = g3 + math.cos(2 * math.pi * k / n_probe) * g1 + math.sin(2 * math.pi * k / n_probe) * g2
        kind, center, *_ = unlift(p)
        if kind != "point":
            raise LieGeometryError("circle passes through the point at infinity")
        pts.append(center)
    pts = np.array(pts)
    centroid = pts.mean(axis=0)
    _, _, vt = np.linalg.svd(pts - centroid)
    normal, u, v = vt[2], vt[0], vt[1]
    xy = np.stack([(pts - centroid) @ u, (pts - centroid) @ v], axis=1)
    a = np.hstack([2 * xy, np.ones((n_probe, 1))])
    b = (xy ** 2).sum(axis=1)
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    c0, r = sol[:2], math.sqrt(max(sol[2] + sol[:2] @ sol[:2], 0.0))
    return centroid + c0[0] * u + c0[1] * v, r, normal


def circle_descriptor(basis):
    try:
        center, radius, normal = circle_euclidean(basis)
    except LieGeometryError:
        return {"kind": "line"}
    return {"kind": "circle", "center": list(center), "radius": radius,
            "plane_normal": list(normal)}


def oracle_certificate(net, direction):
    """verify_channel: a certificate of lists, or the ChannelFailure."""
    diag = is_legendre(net)
    if not diag.ok:
        return ChannelFailure(direction=direction, check="legendre",
                              location=f"edges {diag.failed_edges[:3]}",
                              message="net is not a Legendre map", envelopes=False)
    coords = net.complex.coordinates(direction)
    lines, line_edges, ribbons, ribbon_edges = (getattr(coords, name).tolist() for name in (
        "lines", "line_edges", "ribbons", "ribbon_edges"))
    line_ribbons = {li: rs for li, rs in enumerate(coords.line_ribbons) if rs}
    line_spheres = []
    worst = 0.0
    for li, line in enumerate(lines):
        spheres = [net.edge_sphere(*net.complex.edges[e][:2]) for e in line_edges[li]]
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
        stack = np.array([np.sign(np.dot(normalized(s), rep)) * normalized(s) for s in spheres])
        _, _, vt = np.linalg.svd(stack, full_matrices=len(stack) <= 6)
        line_spheres.append(canonical_sign(vt[0]))
    cyclides = []
    for ri, strip in enumerate(ribbons):
        bounds = coords.ribbon_lines[ri]
        if len(bounds) != 2:
            return ChannelFailure(direction=direction, check="ribbon_span",
                                  location=f"ribbon {ri}",
                                  message=f"ribbon bounded by {len(bounds)} lines",
                                  envelopes=True)
        sp = span([net.edge_sphere(*net.complex.edges[e][:2]) for e in ribbon_edges[ri]])
        if sp.dim == 2 and signature(sp).triple == (1, 1, 0):
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
                direction=direction, check="ribbon_span", location=f"ribbon {ri}",
                message=(f"opposite curvature spheres span dim {sp.dim} of signature "
                         f"{signature(sp).triple}, expected a (2,1)-plane"),
                envelopes=True)
        cyclides.append(cy)
    return SimpleNamespace(
        ok=True, direction=direction, lines=coords.lines, ribbons=ribbons,
        ribbon_lines=coords.ribbon_lines, line_ribbons=line_ribbons,
        line_spheres=line_spheres, cyclides=cyclides, constancy_residual=worst)


def oracle_residuals(cert, net):
    """certificate_residuals, one `Subspace.residual` per face sphere."""
    env = 0.0
    for li, line in enumerate(cert.lines):
        s = cert.line_spheres[li]
        for v in line:
            for gen in net.element(v).basis:
                env = max(env, abs(inner(s, gen)) / (lc.aux_norm(s) * lc.aux_norm(gen)))
    fc = 0.0
    for ri, strip in enumerate(cert.ribbons):
        cy = cert.cyclides[ri] if cert.direction == PLUS else cert.cyclides[ri].swapped()
        for fi in strip:
            plusv, minusv = face_spheres_of(net, net.complex.faces[fi])
            for s in plusv:
                fc = max(fc, cy.dplus.residual(s))
            for s in minusv:
                fc = max(fc, cy.dminus.residual(s))
    return {"enveloping": env, "face_cyclide": fc}


def oracle_circles(cert, net):
    """Generating circle spaces per line, line by line and vertex by vertex;
    returns (circles, agreement)."""
    circles = []
    agreement = 0.0
    point_sphere, has_point = point_spheres(net.bases)
    for li, line in enumerate(cert.lines):
        s = cert.line_spheres[li]
        if abs(inner(s, POINT_COMPLEX)) <= TOL.membership * lc.aux_norm(s):
            raise LieGeometryError(
                f"curvature sphere of line {li} is a point sphere - no admissible projection")
        spaces = [touching_circle_space(s, cert.cyclides[ri].dminus)
                  for ri in cert.line_ribbons.get(li, [])]
        if not spaces:
            raise LieGeometryError(f"line {li} belongs to no ribbon")
        if len(spaces) == 2:
            d = subspace_distance(spaces[0], spaces[1])
            agreement = max(agreement, d)
            if not d <= TOL.agreement:
                raise LieGeometryError(
                    f"generating circles of line {li} disagree between ribbons "
                    f"(residual {d:.3e})")
        for v in line:
            if not has_point[v]:
                raise LieGeometryError(NO_POINT_SPHERE)
            r = spaces[0].residual(point_sphere[v])
            if not r <= TOL.agreement:
                raise LieGeometryError(
                    f"vertex {v} does not lie on the generating circle of line {li} "
                    f"(residual {r:.3e})")
        circles.append(spaces[0])
    return circles, agreement


def oracle_complete(cert, net):
    """Circles and the face, quer and face-quer spheres, in place."""
    circles, cert.circle_agreement = oracle_circles(cert, net)
    cert.circles = circles
    cert.face_spheres = []
    for ri, (la, lb) in enumerate(cert.ribbon_lines):
        comp = orthocomplement(span(list(circles[la].basis) + list(circles[lb].basis)
                                    + [POINT_COMPLEX]))
        if comp.dim != 1:
            raise LieGeometryError(
                f"ribbon {ri}: bounding circles are not cospherical "
                f"(complement dim {comp.dim}) - certificate corrupt")
        cert.face_spheres.append(canonical_sign(unit_moebius_sphere(comp.basis[0])))
    cert.quer_spheres = []
    for li in range(len(cert.lines)):
        q1, q2 = orthocomplement(span(list(circles[li].basis) + [POINT_COMPLEX])).basis
        s = cert.line_spheres[li]
        v = inner(q2, s) * q1 - inner(q1, s) * q2
        if np.linalg.norm(v) <= TOL.membership:
            raise LieGeometryError(f"line {li}: enveloped sphere orthogonal to the whole pencil")
        cert.quer_spheres.append(canonical_sign(unit_moebius_sphere(v)))
    cert.face_quer_spheres = []
    for ri, (la, lb) in enumerate(cert.ribbon_lines):
        sigma, ca, cb = cert.face_spheres[ri], circles[la], circles[lb]
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
            if inner(m, m) <= TOL.membership:
                candidates.append((math.inf, m))
                continue
            img = span([gram_reflection(m, v) for v in ca.basis])
            candidates.append((subspace_distance(img, cb), m))
        candidates.sort(key=lambda t: t[0])
        if not candidates[0][0] <= TOL.agreement:
            raise LieGeometryError(
                f"ribbon {ri}: no swapping reflection found "
                f"(candidate residuals {candidates[0][0]:.3e}, {candidates[1][0]:.3e})")
        cert.face_quer_spheres.append(canonical_sign(unit_moebius_sphere(candidates[0][1])))
    return cert


def oracle_certificate_dict(cert) -> dict:
    """certificate_to_dict of a completed oracle certificate."""
    return {
        "direction": cert.direction,
        "lines": [list(line) for line in cert.lines],
        "ribbons": [list(r) for r in cert.ribbons],
        "ribbon_lines": [list(rl) for rl in cert.ribbon_lines],
        "enveloped_spheres": [lie_descriptor(s) for s in cert.line_spheres],
        "circles": [circle_descriptor(c.basis) for c in cert.circles],
        "face_spheres": [moebius_descriptor(s) for s in cert.face_spheres],
        "quer_spheres": [moebius_descriptor(s) for s in cert.quer_spheres],
        "face_quer_spheres": [moebius_descriptor(s) for s in cert.face_quer_spheres],
    }


def oracle_verify_report(net, directions=(PLUS, MINUS)) -> dict:
    diag = is_legendre(net)
    report: dict = {
        "format": "liechannel-verify-report", "version": 1,
        "legendre": {"ok": diag.ok,
                     "failed_edges": [[i, j, msg] for i, j, msg in diag.failed_edges]},
        "directions": {},
    }
    any_channel = False
    for d in directions:
        entry: dict = {}
        res = cert = oracle_certificate(net, d)
        if res.ok:
            try:
                oracle_complete(cert, net)
                residuals = oracle_residuals(cert, net)
            except LieGeometryError as exc:
                res = ChannelFailure(direction=d, check="underdetermined", location=None,
                                     message=str(exc), envelopes=True)
        if res.ok:
            entry.update({
                "channel": True, "envelopes": True,
                "failed_check": None, "failure_location": None,
                "constancy_residual": cert.constancy_residual,
                "circle_agreement": cert.circle_agreement,
                "enveloping_residual": residuals["enveloping"],
                "face_cyclide_residual": residuals["face_cyclide"],
                "n_lines": len(cert.lines), "n_ribbons": len(cert.ribbons),
            })
            try:
                entry["cross_ratio_spread"] = cross_ratio_constancy(cert, net)
            except LieGeometryError as exc:
                entry["cross_ratio_spread"] = None
                entry["cross_ratio_note"] = str(exc)
            try:
                entry["multi_circular_ribbons"] = is_multi_circular(net, d)
            except LieGeometryError:
                entry["multi_circular_ribbons"] = None
            entry["certificate"] = oracle_certificate_dict(cert)
            any_channel = True
        else:
            entry.update({
                "channel": False, "envelopes": res.envelopes,
                "failed_check": res.check, "failure_location": res.location,
                "message": res.message,
            })
        report["directions"][d] = entry

    report["circular_lines"] = any_channel
    try:
        report["multi_circular_net"] = is_multi_circular_net(net)
    except LieGeometryError:
        report["multi_circular_net"] = None
    try:
        iso = is_isothermic_5point(net.vertex_points(), net.complex)
        applicable = [v for v, a in iso.applicable.items() if a]
        report["isothermic"] = {
            "applicable": bool(applicable),
            "all_pass": iso.all_pass(),
            "fraction": (sum(iso.passed[v] for v in applicable) / len(applicable))
            if applicable else 0.0,
        }
    except LieGeometryError as exc:
        report["isothermic"] = {"applicable": False, "all_pass": False, "note": str(exc)}
    ok_dupin, _, _ = is_dupin_cyclide(net)
    report["dupin_cyclide"] = ok_dupin
    return report
