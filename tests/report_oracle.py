"""Verify report assembled from independent library calls.

Every part of the report is recomputed by its own public function:
`full_certificate` per direction (which runs `verify_channel` again),
`certificate_residuals`, `cross_ratio_constancy`, `is_multi_circular`,
`is_multi_circular_net`, `is_isothermic_5point` and `is_dupin_cyclide`
(which runs `verify_channel` for both directions once more).
`io_json.verify_report` must give the same bytes from one certificate
per direction.
"""

from liechannel.cellcomplex import MINUS, PLUS
from liechannel.channel import (
    ChannelFailure, certificate_residuals, cross_ratio_constancy, full_certificate,
    is_dupin_cyclide, is_multi_circular, is_multi_circular_net, verify_channel,
)
from liechannel.curvature import is_isothermic_5point
from liechannel.io_json import certificate_to_dict
from liechannel.legendre import is_legendre
from liechannel.liecore import LieGeometryError


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
        res = verify_channel(net, d)
        if res.ok:
            try:
                cert = full_certificate(net, d)
                residuals = certificate_residuals(cert, net)
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
