"""JSON file formats, report generation and OBJ export.

Formats are documented in docs/schema.md. Floats are serialized with
Python's shortest round-trip representation (at most 17 significant
digits), so save/load is lossless.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Sequence, Union

import numpy as np

from . import liecore as lc
from .liecore import LieGeometryError, unlift, unlift_moebius
from .cellcomplex import QuadComplex, make_grid, PLUS, MINUS
from .legendre import (
    NO_PLANE_LIFT, NO_POINT_SPHERE, ContactElementError, LegendreNet, contact_bases,
    is_legendre, net_from_bases, plane_lifts, point_normal_generators, point_spheres,
)
from .channel import (
    ChannelFailure, DiscreteCurve3D, verify_channel, full_certificate, certificate_residuals,
    cross_ratio_constancy, is_multi_circular, is_multi_circular_net,
    is_dupin_cyclide, sample_circle, circle_euclidean,
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
    except (OSError, json.JSONDecodeError) as exc:
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
        return int(doc["n_plus"]) * int(doc["n_minus"]) if grid else int(doc["n_vertices"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad {'grid' if grid else 'complex'} spec: {exc}") from exc


def complex_from_dict(doc: dict) -> QuadComplex:
    n = _vertex_count(doc)
    if "n_plus" in doc:
        try:
            return make_grid(int(doc["n_plus"]), int(doc["n_minus"]),
                             bool(doc.get("wrap_plus", False)))
        except ValueError as exc:
            raise FormatError(f"bad grid spec: {exc}") from exc
    try:
        edges = tuple((int(i), int(j), str(lab)) for i, j, lab in doc["edges"])
        faces = tuple(tuple(int(v) for v in f) for f in doc["faces"])
        return QuadComplex(n_vertices=n, edges=edges, faces=faces)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad complex spec: {exc}") from exc


def _coordinates(value, shape: tuple, name: str) -> np.ndarray:
    a = np.asarray(value, dtype=float)
    if a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    return a


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
                gens[v] = _coordinates(doc["contact"], (2, 6), "contact")
            else:
                points[v] = _coordinates(doc["point"], (3,), "point")
                normals[v] = _coordinates(doc["normal"], (3,), "normal")
                euclidean[v] = True
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"vertex {v}: {exc}") from exc
    lifts, bad_normals = point_normal_generators(points[euclidean], normals[euclidean])
    gens[euclidean] = lifts
    flagged = np.zeros(n, dtype=bool)
    flagged[euclidean] = bad_normals
    try:
        net = net_from_bases(c, contact_bases(gens, flagged))
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


def _sphere_vector(doc: dict, where: str) -> np.ndarray:
    try:
        if "normal" in doc:
            return lc.moebius_plane(np.asarray(doc["normal"], dtype=float),
                                    float(doc["offset"]))
        return lc.moebius_sphere(np.asarray(doc["center"], dtype=float),
                                 float(doc["radius"]))
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
    vs = [_sphere_vector(d, f"vertex sphere {k}")
          for k, d in enumerate(data.get("vertex_spheres", []))]
    es = [_sphere_vector(d, f"edge sphere {k}")
          for k, d in enumerate(data.get("edge_spheres", []))]
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
        return DiscreteCurve3D(points=np.asarray(data["points"], dtype=float),
                               closed=bool(data.get("closed", False)))
    except (KeyError, ValueError) as exc:
        raise FormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# reports


def _moebius_descriptor(v: np.ndarray) -> dict:
    try:
        d = unlift_moebius(v)
    except LieGeometryError:
        return {"kind": "unrepresentable"}
    if d.kind == "plane":
        return {"kind": "plane", "normal": list(d.normal), "offset": d.offset}
    return {"kind": "sphere", "center": list(d.center), "radius": d.radius}


def _lie_descriptor(v: np.ndarray) -> dict:
    d = unlift(v)
    if d.kind == "plane":
        return {"kind": "plane", "normal": list(d.normal), "offset": d.offset}
    if d.kind == "sphere":
        return {"kind": "sphere", "center": list(d.center), "radius": d.radius}
    if d.kind == "point":
        return {"kind": "point", "center": list(d.center)}
    return {"kind": "point_at_infinity"}


def _circle_descriptor(circle) -> dict:
    try:
        center, radius, normal = circle_euclidean(circle.dplus)
    except LieGeometryError:
        return {"kind": "line"}
    return {"kind": "circle", "center": list(center), "radius": radius,
            "plane_normal": list(normal)}


def certificate_to_dict(cert) -> dict:
    """Serializable content of a channel certificate."""
    return {
        "direction": cert.direction,
        "lines": [list(line) for line in cert.lines],
        "ribbons": [list(r) for r in cert.ribbons],
        "ribbon_lines": [list(rl) for rl in cert.ribbon_lines],
        "enveloped_spheres": [_lie_descriptor(s) for s in cert.line_spheres],
        "circles": [_circle_descriptor(c) for c in cert.circles],
        "face_spheres": [_moebius_descriptor(s) for s in cert.face_spheres],
        "quer_spheres": [_moebius_descriptor(s) for s in cert.quer_spheres],
        "face_quer_spheres": [_moebius_descriptor(s) for s in cert.face_quer_spheres],
    }


def verify_report(net: LegendreNet, directions: Sequence[str] = (PLUS, MINUS)) -> dict:
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
        res = verify_channel(net, d)
        if res.ok:
            try:
                cert = full_certificate(net, d)
                residuals = certificate_residuals(cert, net)
            except LieGeometryError as exc:
                # the certificate cannot be completed: a ribbon of one face
                # (or of one sphere pencil) leaves a 1-parameter family of
                # cyclides, and the member verify_channel picks need not
                # agree with the neighbouring ribbons on their shared line
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
    ok_dupin, _, _ = is_dupin_cyclide(net)
    report["dupin_cyclide"] = ok_dupin
    return report


def curvature_report_json(net: LegendreNet) -> dict:
    rep = curvature_report(net)
    c = net.complex
    return {
        "format": "liechannel-curvature-report", "version": 1,
        "faces": [{"face": list(face), "K": rep.gauss[i], "H": rep.mean[i],
                   "residual": rep.face_residuals[i]}
                  for i, face in enumerate(rep.faces)],
        "edges": [{"edge": [i, j], "label": lab,
                   "kappa": rep.edge_kappa[(i, j) if i < j else (j, i)],
                   "residual": rep.edge_residuals[(i, j) if i < j else (j, i)]}
                  for i, j, lab in c.edges],
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
    for face in net.complex.faces:
        i, j, k, l = (v + 1 for v in face)
        lines.append(f"f {i} {j} {k} {l}")
    if circles:
        cert = full_certificate(net, PLUS)
        if not cert.ok:
            cert = full_certificate(net, MINUS)
        if not cert.ok:
            raise LieGeometryError("cannot export circles: net is not a channel surface")
        base = net.complex.n_vertices
        for li, circle in enumerate(cert.circles):
            lines.append(f"o circle_{li}")
            pts = []
            for s in sample_circle(circle.dplus, circle_samples):
                d = unlift(s)
                if d.kind != "point":
                    pts = []
                    break
                pts.append(d.center)
            for p in pts:
                lines.append(f"v {float(p[0])!r} {float(p[1])!r} {float(p[2])!r}")
            if pts:
                idx = [str(base + k + 1) for k in range(len(pts))]
                lines.append("l " + " ".join(idx + [idx[0]]))
                base += len(pts)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
