"""Verify report assembled from independent computations.

The channel certificate is built here as the kernel built it before it
stored stacks: per-line and per-ribbon lists of vectors and `Subspace`s,
a `Subspace.residual` per vertex, face sphere and circle membership, and
the derived sphere families one item at a time (`oracle_certificate`,
`oracle_complete`, `oracle_residuals`). The other parts of the report come
from their own public functions: `cross_ratio_constancy`,
`is_multi_circular`, `is_multi_circular_net`, `is_isothermic_5point` and
`is_dupin_cyclide` (which completes both directions once more). The
certificate is serialised vector by vector, through the scalar
`kernel_oracle.unlift` and the closed-form circles below, each oriented by
the rules of docs/schema.md. `io_json.verify_report` must give the same
bytes from one certificate per direction.
"""

import math
from types import SimpleNamespace

import numpy as np

from liechannel import liecore as lc
from liechannel.cellcomplex import MINUS, PLUS, face_edge_labels
from liechannel.channel import (
    ChannelFailure, cross_ratio_constancy, is_dupin_cyclide, is_multi_circular,
    is_multi_circular_net,
)
from liechannel.config import TOL
from liechannel.curvature import is_isothermic_5point
from liechannel.legendre import (
    NO_POINT_SPHERE, DegenerateFaceError, DupinCyclide, face_cyclide_family, face_spheres_of,
    is_legendre, point_spheres,
)
from liechannel.liecore import (
    POINT_COMPLEX, LieGeometryError, canonical_sign, inner, normalized, orthocomplement,
    signature, span, subspace_distance,
)

from kernel_oracle import (
    gram_reflection, lift_point, projective_distance, touching_circle_space, unit_moebius_sphere,
    unlift,
)


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


def position(net, v):
    """Euclidean position of vertex v, one `unlift`; None where it has none."""
    s, ok = point_spheres(net.bases[[v]])
    try:
        kind, center, *_ = unlift(s[0])
    except LieGeometryError:
        return None
    return center if ok[0] and kind == "point" else None


def net_size(net):
    """Diagonal of the bounding box of the vertices with a position."""
    points = [p for p in (position(net, v) for v in range(net.complex.n_vertices))
              if p is not None]
    box = np.max(points, axis=0) - np.min(points, axis=0)
    return math.sqrt(box @ box)


def circle_descriptor(cert, net, li):
    """Circle (center, radius, plane normal) of line li's circle space, in
    closed form from the pencil of spheres through it; "line" below the
    TOL.rank cutoff. The normal follows the right-hand rule of the line's
    first three vertices (the point opposite the first for a line of two)."""
    basis = cert.circles[li].basis
    eig = np.linalg.eigvalsh(basis @ lc.GRAM @ basis.T)
    pencil = orthocomplement(span(list(basis) + [POINT_COMPLEX]))
    if not (eig[0] < 0 < eig[1]) or pencil.dim != 2:
        return {"kind": "line"}
    w1, w2 = pencil.basis
    k1, k2 = -w1[3], -w2[3]
    g11, g22, g12 = inner(w1, w1), inner(w2, w2), inner(w1, w2)
    c1, c2 = g22 * k1 - g12 * k2, g11 * k2 - g12 * k1
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.sqrt((c1 * k1 + c2 * k2) / (g11 * g22 - g12 * g12))
    if not kappa * net_size(net) >= TOL.rank:
        return {"kind": "line"}
    p = c1 * w1 + c2 * w2
    center = p[:3] / p[3]
    normal = k2 * w1[:3] - k1 * w2[:3]
    normal = normal / np.sqrt(normal @ normal)
    line = cert.lines[li]
    p0, p1 = position(net, line[0]), position(net, line[1])
    p2 = position(net, line[2]) if len(line) > 2 else 2.0 * center - p0
    if normal @ np.cross(p1 - p0, p2 - p0) < 0.0:
        normal = -normal
    return {"kind": "circle", "center": list(center), "radius": 1.0 / kappa,
            "plane_normal": list(normal)}


def crossing_edge(face, direction):
    """The ends of the first edge of a face whose label is not direction."""
    for i, j, label in face_edge_labels(face):
        if label != direction:
            return i, j


def side_point(net, direction, v):
    """Point lift of the neighbour of smallest id of vertex v across an
    edge of the other label, or None."""
    c = net.complex
    others = [sum(c.edge_vertices[e].tolist()) - v for e in c.vertex_edges(v)
              if c.edge_labels[e] != direction]
    q = position(net, min(others)) if others else None
    return None if q is None else lift_point(q)


def oriented(unit):
    """A unit Moebius sphere with positive radius; a plane canonically signed."""
    u0 = unit[3] / np.linalg.norm(unit)
    return canonical_sign(unit) if abs(u0) <= TOL.null else -unit if u0 < 0.0 else unit


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
        spheres = [net.spheres_of(e) for e in line_edges[li]]
        rep = normalized(spheres[0])
        for s in spheres[1:]:
            d = projective_distance(rep, s)
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
        sp = span([net.spheres_of(e) for e in ribbon_edges[ri]])
        if sp.dim == 2 and signature(sp).triple == (1, 1, 0):
            try:
                cy = face_cyclide_family(net, net.complex.face_vertices[strip[0]].tolist())(0.0)
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
            plusv, minusv = face_spheres_of(net, net.complex.face_vertices[fi].tolist())
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
        cert.face_spheres.append(oriented(unit_moebius_sphere(comp.basis[0])))
    cert.quer_spheres = []
    for li in range(len(cert.lines)):
        q1, q2 = orthocomplement(span(list(circles[li].basis) + [POINT_COMPLEX])).basis
        s = cert.line_spheres[li]
        v = inner(q2, s) * q1 - inner(q1, s) * q2
        if np.linalg.norm(v) <= TOL.membership:
            raise LieGeometryError(f"line {li}: enveloped sphere orthogonal to the whole pencil")
        unit, side = oriented(unit_moebius_sphere(v)), side_point(net, cert.direction,
                                                                       cert.lines[li][0])
        cert.quer_spheres.append(-unit if side is not None and inner(unit, side) < 0 else unit)
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
        face = net.complex.face_vertices[cert.ribbons[ri][0]].tolist()
        ends = [position(net, v) for v in crossing_edge(face, cert.direction)]
        candidates = []
        for m in (a - b, a + b):
            if inner(m, m) <= TOL.membership:
                candidates.append((2, math.inf, m))
                continue
            img = span([gram_reflection(m, v) for v in ca.basis])
            residual = subspace_distance(img, cb)
            sides = [inner(m, lift_point(p)) for p in ends if p is not None]
            candidates.append((0 if len(sides) == 2 and sides[0] * sides[1] < 0.0 else 1, residual, m)
                              if residual <= TOL.agreement else (2, residual, m))
        # a swapping candidate that separates the crossing edge, then the better one
        candidates = [(r, m) for _, r, m in sorted(candidates, key=lambda t: t[:2])]
        if not candidates[0][0] <= TOL.agreement:
            raise LieGeometryError(
                f"ribbon {ri}: no swapping reflection found "
                f"(candidate residuals {candidates[0][0]:.3e}, {candidates[1][0]:.3e})")
        cert.face_quer_spheres.append(oriented(unit_moebius_sphere(candidates[0][1])))
    return cert


def oracle_certificate_dict(cert, net) -> dict:
    """certificate_to_dict of a completed oracle certificate of the net."""
    return {
        "direction": cert.direction,
        "lines": [list(line) for line in cert.lines],
        "ribbons": [list(r) for r in cert.ribbons],
        "ribbon_lines": [list(rl) for rl in cert.ribbon_lines],
        "enveloped_spheres": [lie_descriptor(s) for s in cert.line_spheres],
        "circles": [circle_descriptor(cert, net, li) for li in range(len(cert.circles))],
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
            entry["certificate"] = oracle_certificate_dict(cert, net)
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
