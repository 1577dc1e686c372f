"""JSON file formats, report generation and OBJ export.

Formats are documented in docs/schema.md. Floats are serialized with
Python's shortest round-trip representation (at most 17 significant
digits), so save/load is lossless.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import List, Sequence, Union

import numpy as np

from . import liecore as lc
from .liecore import LieGeometryError, unlift_moebius
from .cellcomplex import QuadComplex, make_grid, validate, PLUS, MINUS
from .legendre import (
    NO_PLANE_LIFT, NO_POINT_SPHERE, ContactElementError, LegendreNet, contact_bases,
    is_legendre, plane_lifts, point_normal_generators, point_spheres,
)
from .channel import (
    DiscreteCurve3D, certified, first_full_certificate, certificate_residuals,
    cross_ratio_constancy, is_multi_circular, is_multi_circular_net, dupin_verdict,
    circle_bases, circle_points, circles_euclidean,
)
from .builder import SphereCurve
from .curvature import curvature_report, kappa_line_spread, is_isothermic_5point


class FormatError(ValueError):
    """Malformed input file."""


def _dump(payload: dict, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def _load(path: Union[str, Path]) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: not JSON or not UTF-8; RecursionError: nested too deeply
        raise FormatError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError(f"{path}: expected a JSON object")
    return data


# ---------------------------------------------------------------------------
# nets


def net_to_dict(net: LegendreNet, form: str = "auto") -> dict:
    c = net.complex
    if c.grid is not None:
        complex_doc: dict = {"n_plus": c.grid.n_plus, "n_minus": c.grid.n_minus,
                             "wrap_plus": c.grid.wrap_plus}
    else:
        complex_doc = {
            "n_vertices": c.n_vertices,
            "edges": [[i, j, lab] for i, j, lab in c.edges],
            "faces": [list(f) for f in c.faces],
        }
    euclidean = np.zeros(c.n_vertices, dtype=bool)
    if form in ("auto", "euclidean"):
        p, has_point = point_spheres(net.bases)
        pl, has_plane = plane_lifts(net.bases)
        checks = [(~has_point, NO_POINT_SPHERE),
                  (~has_plane, NO_PLANE_LIFT),
                  ((np.abs(p[:, 3]) <= 1e-13) | (np.abs(pl[:, 5]) <= 1e-13),
                   "vertex {} has no Euclidean representative")]
        failure = lc.first_failure(checks)
        if form == "euclidean" and failure is not None:
            raise LieGeometryError(failure[1])
        euclidean = ~np.any([bad for bad, _ in checks], axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            points = (p[:, :3] / p[:, 3:4]).tolist()
            normals = (pl[:, :3] / pl[:, 5:6]).tolist()
    vertices: List[dict] = []
    for v in range(c.n_vertices):
        if euclidean[v]:
            vertices.append({"point": points[v], "normal": normals[v]})
        else:
            vertices.append({"contact": net.bases[v].tolist()})
    return {"format": "liechannel-net", "version": 1,
            "complex": complex_doc, "vertices": vertices}


def save_net(net: LegendreNet, path: Union[str, Path], form: str = "auto") -> None:
    _dump(net_to_dict(net, form), path)


def _vertex_count(doc: dict) -> int:
    """Vertex count a complex spec declares, read without building it."""
    if not isinstance(doc, dict):
        raise FormatError("bad complex spec: expected a JSON object")
    grid = "n_plus" in doc
    try:
        return math.prod(int(_numbers(doc[key], (), f"{key} must be an integer", integral=True))
                         for key in (("n_plus", "n_minus") if grid else ("n_vertices",)))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad {'grid' if grid else 'complex'} spec: {exc}") from exc


def complex_from_dict(doc: dict) -> QuadComplex:
    """Complex of a spec. A grid is valid by construction; an explicit
    complex must have faces, '+'/'-' edge labels, faces that follow the
    label convention, each edge listed once, and at most two edges of one
    label per vertex. Counts and vertex indices are JSON integers, and
    `wrap_plus` is a JSON boolean."""
    n = _vertex_count(doc)
    if "n_plus" in doc:
        try:
            wrap = doc.get("wrap_plus", False)
            if not isinstance(wrap, bool):
                raise ValueError("wrap_plus must be true or false")
            return make_grid(int(doc["n_plus"]), int(doc["n_minus"]), wrap)
        except ValueError as exc:
            raise FormatError(f"bad grid spec: {exc}") from exc
    try:
        edges, faces = [(i, j, str(lab)) for i, j, lab in doc["edges"]], doc["faces"]
        # an empty list is read as numbers of no shape
        ends = _numbers([e[:2] for e in edges] or np.empty((0, 2), dtype=int), (-1, 2),
                        "edge vertices must be integers", integral=True)
        corners = _numbers(faces or np.empty((0, 4), dtype=int), (-1, 4),
                           "faces must be lists of 4 integers", integral=True)
        c = QuadComplex(n_vertices=n, edges=tuple(zip(*ends.T.tolist(), (e[2] for e in edges))),
                        faces=tuple(zip(*corners.T.tolist())))
        unknown = [lab for _i, _j, lab in edges if lab not in (PLUS, MINUS)]
        bad_faces = validate(c).bad_faces
        if not faces:
            raise ValueError("no faces")
        if unknown:
            raise ValueError(f"edge label {unknown[0]!r} is not '+' or '-'")
        if bad_faces:
            raise ValueError(f"faces with inconsistent edge labels: {bad_faces[:5]}")
        # the first listing of a pair listed again is not the one it indexes
        twice = np.flatnonzero(c.edge_ids(*c.edge_vertices.T) != np.arange(len(c.edges)))
        if twice.size:
            raise ValueError(f"edge {c.edge_vertices[twice[0]].tolist()} listed more than once")
        for label in (PLUS, MINUS):
            c.coordinates(label)  # lines need at most two edges of a label per vertex
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad complex spec: {exc}") from exc
    return c


def net_from_dict(data: dict) -> LegendreNet:
    """Net of a liechannel-net document.

    The vertex count is compared with the complex spec before anything is
    built; all contact elements are then computed as one stack
    (`legendre.contact_bases`) and all edge spheres by one `is_legendre`.
    """
    if data.get("format") != "liechannel-net":
        raise FormatError("not a liechannel-net document")
    cdoc = data.get("complex", {})
    n = _vertex_count(cdoc)
    vdocs = data.get("vertices")
    if not isinstance(vdocs, list) or len(vdocs) != n:
        raise FormatError(f"expected {n} vertex entries")
    c = complex_from_dict(cdoc)
    gens = np.empty((n, 2, 6))
    points, normals, euclidean = np.empty((n, 3)), np.empty((n, 3)), np.zeros(n, dtype=bool)
    for v, doc in enumerate(vdocs):
        try:
            if "contact" in doc:
                gens[v] = _numbers(doc["contact"], (2, 6), "contact must be 2 x 6 numbers")
            else:
                points[v] = _numbers(doc["point"], (3,), "point must be 3 numbers")
                normals[v] = _numbers(doc["normal"], (3,), "normal must be 3 numbers")
                euclidean[v] = True
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"vertex {v}: {exc}") from exc
    lifts, bad_normals = point_normal_generators(points[euclidean], normals[euclidean])
    gens[euclidean] = lifts
    flagged = np.zeros(n, dtype=bool)
    flagged[euclidean] = bad_normals
    try:
        net = LegendreNet(complex=c, bases=contact_bases(gens, flagged))
    except ContactElementError as exc:
        raise FormatError(f"vertex {exc.vertex}: {exc}") from exc
    diag = is_legendre(net)
    if not diag.ok:
        raise FormatError(
            f"vertex data does not form a Legendre map; failing edges: "
            f"{diag.failed_edges[:5]}")
    return net


def load_net(path: Union[str, Path]) -> LegendreNet:
    return net_from_dict(_load(path))


# ---------------------------------------------------------------------------
# sphere curves and plain curves


def _sphere_entry(v: np.ndarray) -> dict:
    d = unlift_moebius(v)
    if d.kind == "plane":
        return {"normal": list(d.normal), "offset": d.offset}
    if d.kind == "sphere":
        return {"center": list(d.center), "radius": d.radius}
    raise LieGeometryError(f"cannot serialize sphere vector of kind {d.kind}")


def _numbers(value, shape: tuple, message: str, integral: bool = False) -> np.ndarray:
    """JSON numbers of the given shape (-1: any length; at most 2 axes) as
    floats, or with `integral` JSON integers (within int64) as int64.
    Anything else, a boolean among numbers too, raises ValueError(message);
    non-finite numbers raise ValueError as well."""
    try:
        a = np.asarray(value)
    except ValueError:  # ragged lists
        raise ValueError(message) from None
    # the numbers one by one, as numpy reads a boolean among numbers as 0 or 1
    flat = [value] if a.ndim == 0 else [x for row in value for x in row] if a.ndim == 2 else value
    if a.dtype.kind not in ("i" if integral else "iuf") or a.ndim != len(shape) or \
            bool in map(type, flat) or (a.shape != shape and any(
                want not in (-1, got) for want, got in zip(shape, a.shape))):
        raise ValueError(message)
    if not all(map(math.isfinite, flat)):
        raise ValueError("non-finite coordinate")
    return a.astype(np.int64 if integral else float, copy=False)


def _sphere_vector(doc: dict, where: str) -> np.ndarray:
    try:
        if not isinstance(doc, dict):
            raise ValueError("expected a JSON object")
        with np.errstate(over="ignore", invalid="ignore"):
            if "normal" in doc:
                v = lc.moebius_plane(_numbers(doc["normal"], (3,), "normal must be 3 numbers"),
                                     float(_numbers(doc["offset"], (), "offset must be a number")))
            else:
                v = lc.moebius_sphere(_numbers(doc["center"], (3,), "center must be 3 numbers"),
                                      float(_numbers(doc["radius"], (), "radius must be a number")))
        if not np.isfinite(v).all():  # finite data whose lift overflows
            raise ValueError("non-finite coordinate")
        return v
    except (KeyError, TypeError, ValueError, LieGeometryError) as exc:
        raise FormatError(f"{where}: {exc}") from exc


def save_sphere_curve(sc: SphereCurve, path: Union[str, Path]) -> None:
    payload = {
        "format": "liechannel-sphere-curve", "version": 1,
        "closed": sc.closed,
        "vertex_spheres": [_sphere_entry(v) for v in sc.vertex_spheres],
        "edge_spheres": [_sphere_entry(v) for v in sc.edge_spheres],
    }
    _dump(payload, path)


def load_sphere_curve(path: Union[str, Path]) -> SphereCurve:
    data = _load(path)
    if data.get("format") != "liechannel-sphere-curve":
        raise FormatError("not a liechannel-sphere-curve document")
    docs = {key: data.get(key, []) for key in ("vertex_spheres", "edge_spheres")}
    for key, entries in docs.items():
        if not isinstance(entries, list):
            raise FormatError(f"{key} must be a list")
    vs = [_sphere_vector(d, f"vertex sphere {k}") for k, d in enumerate(docs["vertex_spheres"])]
    es = [_sphere_vector(d, f"edge sphere {k}") for k, d in enumerate(docs["edge_spheres"])]
    if len(vs) < 2:
        raise FormatError("sphere curve needs at least two vertex spheres")
    try:
        return SphereCurve(vertex_spheres=np.array(vs), edge_spheres=np.array(es),
                           closed=bool(data.get("closed", False)))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def save_curve(curve: DiscreteCurve3D, path: Union[str, Path]) -> None:
    _dump({"format": "liechannel-curve", "version": 1,
           "closed": curve.closed, "points": [list(p) for p in curve.points]}, path)


def load_curve(path: Union[str, Path]) -> DiscreteCurve3D:
    data = _load(path)
    if data.get("format") != "liechannel-curve":
        raise FormatError("not a liechannel-curve document")
    try:
        points = _numbers(data["points"], (-1, 3), "points must be a list of 3-number lists")
        with np.errstate(over="ignore"):
            if not np.isfinite(lc.lift_points(points)).all():  # finite points whose lift overflows
                raise ValueError("non-finite coordinate")
        return DiscreteCurve3D(points=points, closed=bool(data.get("closed", False)))
    except (KeyError, ValueError) as exc:
        raise FormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# reports


def _lie_descriptors(vectors: np.ndarray) -> List[dict]:
    """Euclidean reading of each null vector of a stack (`unlift`)."""
    kind, w = lc.unlifts(vectors)
    lc.raise_first([(kind == -2, "cannot normalize the zero vector"),
                    (kind == -1, lambda _: lc.NotALieSphereError(lc.NOT_A_LIE_SPHERE))])
    return [_descriptor(lc.KINDS[k], row) for k, row in zip(kind.tolist(), w.tolist())]


def _descriptor(kind: str, w: list) -> dict:
    """Descriptor of an `unlifts` row w of the given kind."""
    if kind == "plane":
        return {"kind": "plane", "normal": w[:3], "offset": w[4]}
    if kind == "sphere":
        return {"kind": "sphere", "center": w[:3], "radius": w[5]}
    if kind == "point":
        return {"kind": "point", "center": w[:3]}
    return {"kind": "point_at_infinity"}


def _moebius_descriptors(vectors: np.ndarray) -> List[dict]:
    """Euclidean reading of each Moebius sphere vector of a stack
    (`unlift_moebius`, one orientation), a point as a sphere of radius
    null; "unrepresentable" where it fails."""
    units, ok = lc.unit_moebius_spheres(vectors)
    kind, w = lc.unlifts(units + lc.E6)
    return [{"kind": "unrepresentable"} if not good or k not in (0, 1, 2) else
            _descriptor("plane", row) if k == 2 else
            {"kind": "sphere", "center": row[:3], "radius": row[5] if k == 1 else None}
            for good, k, row in zip(ok.tolist(), kind.tolist(), w.tolist())]


def _circle_descriptors(spaces: np.ndarray) -> List[dict]:
    """Circle (center, radius, plane normal) of each circle space of a
    stack, or "line" where the circle passes through infinity."""
    ok, *circle = circles_euclidean(spaces)
    found = zip(*(x.tolist() for x in circle))
    return [{"kind": "circle", **dict(zip(("center", "radius", "plane_normal"), next(found)))}
            if good else {"kind": "line"} for good in ok.tolist()]


def certificate_to_dict(cert) -> dict:
    """Serializable content of a channel certificate; each family of
    vectors is read as one stack."""
    return {
        "direction": cert.direction,
        "lines": cert.lines.tolist(),
        "ribbons": cert.ribbons.tolist(),
        "ribbon_lines": [list(rl) for rl in cert.ribbon_lines],
        "enveloped_spheres": _lie_descriptors(cert.line_spheres),
        "circles": _circle_descriptors(cert.circle_spaces),
        "face_spheres": _moebius_descriptors(cert.face_spheres),
        "quer_spheres": _moebius_descriptors(cert.quer_spheres),
        "face_quer_spheres": _moebius_descriptors(cert.face_quer_spheres),
    }


def verify_report(net: LegendreNet, directions: Sequence[str] = (PLUS, MINUS)) -> dict:
    """Report of the requested directions from one completed certificate
    (`certified`) per direction; both are always computed, for the Dupin
    test."""
    diag = is_legendre(net)
    report: dict = {
        "format": "liechannel-verify-report", "version": 1,
        "legendre": {"ok": diag.ok,
                     "failed_edges": [[i, j, msg] for i, j, msg in diag.failed_edges]},
        "directions": {},
    }
    any_channel = False
    results = {d: certified(net, d) for d in (PLUS, MINUS)}
    for d in directions:
        entry: dict = {}
        res = cert = results[d]
        if res.ok:
            residuals = certificate_residuals(cert, net)
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
            entry["certificate"] = certificate_to_dict(cert)
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
    ok_dupin, _, _ = dupin_verdict(net, results[PLUS], results[MINUS])
    report["dupin_cyclide"] = ok_dupin
    return report


def curvature_report_json(net: LegendreNet) -> dict:
    rep = curvature_report(net)
    kappa, residuals = rep.edge_kappa.tolist(), rep.edge_residuals.tolist()
    return {
        "format": "liechannel-curvature-report", "version": 1,
        "faces": [{"face": list(face), "K": rep.gauss[i], "H": rep.mean[i],
                   "residual": rep.face_residuals[i]}
                  for i, face in enumerate(rep.faces)],
        "edges": [{"edge": [i, j], "label": lab, "kappa": kappa[e], "residual": residuals[e]}
                  for e, (i, j, lab) in enumerate(net.complex.edges)],
        "identity_max_residual": rep.identity_max,
        "kappa_spread_plus": kappa_line_spread(net, rep, PLUS),
        "kappa_spread_minus": kappa_line_spread(net, rep, MINUS),
    }


# ---------------------------------------------------------------------------
# OBJ export


def export_obj(net: LegendreNet, path: Union[str, Path], circles: bool = False,
               circle_samples: int = 64) -> None:
    """Write vertices as v-records and faces as quads; with circles, the
    generating circles are appended as sampled closed polylines."""
    lines = ["# liechannel export", "o net"]
    for p in net.vertex_points():
        lines.append(f"v {float(p[0])!r} {float(p[1])!r} {float(p[2])!r}")
    lines += [f"f {i} {j} {k} {l}" for i, j, k, l in (net.complex.face_vertices + 1).tolist()]
    if circles:
        cert = first_full_certificate(net)
        if not cert.ok:
            raise LieGeometryError("cannot export circles: net is not a channel surface")
        g1, g2, g3, ok = circle_bases(cert.circle_spaces)
        kind, w = lc.unlifts(circle_points(g1, g2, g3, circle_samples))
        # a circle through infinity is left out; its samples are read in order
        stop = kind[np.arange(len(kind)), np.argmax(kind != 0, axis=1)]
        lc.raise_first([(~ok, "circle space must have signature (2,1)"),
                        (stop == -2, "cannot normalize the zero vector"),
                        (stop == -1, lambda _: lc.NotALieSphereError(lc.NOT_A_LIE_SPHERE))])
        base = net.complex.n_vertices
        for li, (kinds, pts) in enumerate(zip(kind, w[..., :3].tolist())):
            lines.append(f"o circle_{li}")
            if np.all(kinds == 0):
                lines += [f"v {p[0]!r} {p[1]!r} {p[2]!r}" for p in pts]
                lines.append("l " + " ".join(str(base + k + 1) for k in [*range(len(pts)), 0]))
                base += len(pts)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
