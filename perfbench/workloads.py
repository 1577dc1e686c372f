"""Inputs, operations and output checks of the benchmark workloads.

Every input is generated here from the workload seed and written to files;
the program only ever sees those files, through its command line. Each
operation is one CLI command. Its check reads what the command printed or
wrote and returns ``None`` when the output is right, or a message.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

from liechannel import builder, cli, io_json
from liechannel.builder import _extend_element
from liechannel.channel import DiscreteCurve3D, full_certificate
from liechannel.config import TOL
from liechannel.legendre import FaceCyclideFamily, contact_from_point_normal, curvature_sphere
from liechannel.liecore import (
    LieGeometryError, lift_point, orthocomplement, oriented_representative, span, subspace_distance,
)

# A blended net must reproduce the generating circles of the net its curves
# were taken from to this distance (the round-trip test uses the same bound).
CIRCLE_TOL = 1e-7


@dataclass(frozen=True)
class Size:
    torus_sides: Tuple[int, ...]        # dupin-verify: n x n tori
    curves: int                         # generic-build: sphere curves
    curve_spheres: int                  # spheres per curve
    samples: int                        # points per generating circle
    blend_pairs: Tuple[Tuple[int, int], ...]   # net columns blended through
    seeds_per_kind: int                 # vessiot-mix: nets per generator kind
    profile: int                        # profile points per vessiot net
    around: int                         # rotations / offsets / scales


SIZES = {
    "full": Size(torus_sides=(8, 12, 16), curves=16, curve_spheres=12, samples=16,
                 blend_pairs=((0, 1), (7, 8)), seeds_per_kind=8, profile=16, around=24),
    "tiny": Size(torus_sides=(6, 8), curves=2, curve_spheres=5, samples=8,
                 blend_pairs=((0, 1), (3, 4)), seeds_per_kind=1, profile=5, around=6),
}


@dataclass(frozen=True)
class Op:
    """One CLI command of a workload pass."""

    command: str                        # CLI subcommand, e.g. "verify"
    input: str                          # name of the input, for failure lists
    argv: List[str]
    vertices: int                       # vertices of the net it handles or writes
    check: Callable[[str], Optional[str]]   # stdout -> None or failure message
    output: Optional[Path] = None       # file whose bytes must repeat run to run


def _load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# dupin-verify


def _check_dupin(report_path: Path, _stdout: str) -> Optional[str]:
    rep = _load_json(report_path)
    dirs = rep["directions"]
    if not (dirs["+"]["channel"] and dirs["-"]["channel"]):
        return "a Dupin torus is not channel in both directions"
    if rep["dupin_cyclide"] is not True:
        return "dupin_cyclide is not true"
    if rep["multi_circular_net"] is not True:
        return "multi_circular_net is not true"
    return None


def dupin_verify(seed: int, work: Path, size: Size) -> List[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for n in size.torus_sides:
        big = rng.uniform(1.5, 3.0)
        small = big * rng.uniform(0.2, 0.7)
        net_path = work / f"torus{n}.net.json"
        io_json.save_net(builder.make_dupin_torus(big, small, n, n), net_path)
        report = work / f"torus{n}.verify.json"
        ops.append(Op("verify", f"torus{n}",
                      ["verify", "--in", str(net_path), "--direction", "both",
                       "--report", str(report)],
                      n * n, partial(_check_dupin, report), report))
    return ops


# ---------------------------------------------------------------------------
# generic-build


def _check_build(out: Path, reference: np.ndarray, _stdout: str) -> Optional[str]:
    pts = np.array([v["point"] for v in _load_json(out)["vertices"]])
    if pts.shape != reference.shape:
        return f"built net has shape {pts.shape}, expected {reference.shape}"
    dev = float(np.max(np.linalg.norm(pts - reference, axis=1)))
    if dev > CIRCLE_TOL * (1.0 + float(np.max(np.abs(reference)))):
        return f"built net deviates from the library build by {dev:.3e}"
    return None


def _check_refused_build(_stdout: str) -> Optional[str]:
    return "the CLI built a net that the library build refuses"


def _check_generic_verify(report_path: Path, _stdout: str) -> Optional[str]:
    rep = _load_json(report_path)
    if rep["directions"]["+"]["channel"] is not True:
        return "built net is not channel in the '+' direction"
    if rep["directions"]["-"]["channel"] is not False:
        return "built net is channel in the '-' direction"
    if rep["multi_circular_net"] is not False:
        return "built net is reported multi-circular"
    return None


def _check_blend(out: Path, circles, _stdout: str) -> Optional[str]:
    try:
        cert = full_certificate(io_json.load_net(out), "+")
    except (io_json.FormatError, LieGeometryError) as exc:
        return f"blended net cannot be read back and certified: {exc}"
    if not cert.ok:
        return f"blended net is not channel: {cert.message}"
    if len(cert.circles) != len(circles):
        return f"blended net has {len(cert.circles)} circles, expected {len(circles)}"
    dist = max(subspace_distance(a.dplus, b.dplus) for a, b in zip(cert.circles, circles))
    if dist > CIRCLE_TOL:
        return f"generating circles differ from the source net's by {dist:.3e}"
    return None


def _round_trip_t0(f0, c1: DiscreteCurve3D, c2: DiscreteCurve3D, cyclide) -> float:
    """Face-cyclide parameter whose first blend face is the source ribbon's
    cyclide, so that the blend should rebuild the source surface."""
    x1 = [lift_point(p) for p in c1.points]
    x2 = [lift_point(p) for p in c2.points]
    f11, s1 = _extend_element(f0, x1[1])
    f20, _ = _extend_element(f0, x2[0])
    f21, s2 = _extend_element(f20, x2[1])
    u = span([oriented_representative(curvature_sphere(f0, f20)),
              oriented_representative(curvature_sphere(f11, f21))])
    v = span([s1, s2])
    w = orthocomplement(span(list(u.basis) + list(v.basis)))
    eig, vecs = np.linalg.eigh(w.restricted_gram())
    fam = FaceCyclideFamily(u=u, v=v,
                            w1=w.basis.T @ vecs[:, 0] / math.sqrt(eig[0]),
                            w2=w.basis.T @ vecs[:, 1] / math.sqrt(eig[1]))
    return fam.parameter_of(cyclide)


def generic_build(seed: int, work: Path, size: Size) -> List[Op]:
    """The curves are the same at every seed (sub-seeds 0 .. curves-1), so
    that every run meets the same recorded builder and blend failures; the
    seed only sets the order in which the curves are processed."""
    m, rows = size.samples, size.curve_spheres
    ops = []
    for k in np.random.default_rng(seed).permutation(size.curves).tolist():
        name = f"curve{k}"
        sc_path = work / f"{name}.spheres.json"
        io_json.save_sphere_curve(
            builder.random_sphere_curve(np.random.default_rng(k), rows), sc_path)
        # the library build of the curve as read back from its file is the
        # reference for the CLI build and the source of the blend inputs,
        # which come from its net file as a user's would
        out = work / f"{name}.built.json"
        build_argv = ["build", "--spheres", str(sc_path), "--samples", str(m), "--out", str(out)]
        try:
            built = builder.channel_from_sphere_curve(io_json.load_sphere_curve(sc_path), m)
        except LieGeometryError:
            # the builder refuses a few generated curves; the build counts as
            # a failed operation and leaves no net for the other three
            ops.append(Op("build", name, build_argv, m * rows, _check_refused_build, out))
            continue
        net_path = work / f"{name}.net.json"
        io_json.save_net(built.net, net_path)
        vdocs = _load_json(net_path)["vertices"]
        points = np.array([d["point"] for d in vdocs])

        ops.append(Op("build", name, build_argv, m * rows,
                      partial(_check_build, out, points), out))
        report = work / f"{name}.verify.json"
        ops.append(Op("verify", name,
                      ["verify", "--in", str(net_path), "--direction", "both",
                       "--report", str(report)],
                      m * rows, partial(_check_generic_verify, report), report))

        ribbon0 = built.certificate.ribbon_lines.index((0, 1))
        for a, b in size.blend_pairs:
            c1 = DiscreteCurve3D(points=points[a::m])
            c2 = DiscreteCurve3D(points=points[b::m])
            c1_path, c2_path = work / f"{name}.col{a}.json", work / f"{name}.col{b}.json"
            io_json.save_curve(c1, c1_path)
            io_json.save_curve(c2, c2_path)
            p0, n0 = vdocs[a]["point"], vdocs[a]["normal"]
            f0 = contact_from_point_normal(p0, np.asarray(n0) / np.linalg.norm(n0))
            t0 = _round_trip_t0(f0, c1, c2, built.certificate.cyclides[ribbon0])
            out = work / f"{name}.blend{a}-{b}.json"
            ops.append(Op("blend", f"{name} cols {a},{b}",
                          ["blend", "--c1", str(c1_path), "--c2", str(c2_path),
                           "--contact-point", *map(repr, p0),
                           "--contact-normal", *map(repr, n0),
                           "--t0", repr(t0), "--samples", str(m), "--out", str(out)],
                          m * rows, partial(_check_blend, out, built.certificate.circles),
                          out))
    return ops


# ---------------------------------------------------------------------------
# vessiot-mix

KINDS = ("revolution", "cylinder", "cone")


def _check_kind(kind: str, stdout: str) -> Optional[str]:
    printed = stdout.strip()
    return None if printed == kind else f"classified as {printed!r}, generated as {kind!r}"


def _check_curvature(report_path: Path, _stdout: str) -> Optional[str]:
    ident = _load_json(report_path)["identity_max_residual"]
    if not ident <= TOL.identity:
        return f"identity residual {ident:.3e} exceeds {TOL.identity:.1e}"
    return None


def vessiot_mix(seed: int, work: Path, size: Size) -> List[Op]:
    """The nets are the same at every seed (net seeds 0 .. seeds_per_kind-1
    of each kind), so that every run meets the same outcomes; the seed only
    sets the order in which the nets are processed."""
    ops = []
    nets = [(net_seed, kind) for net_seed in range(size.seeds_per_kind) for kind in KINDS]
    for i in np.random.default_rng(seed).permutation(len(nets)).tolist():
        net_seed, kind = nets[i]
        name = f"{kind}{net_seed}"
        net_path = work / f"{name}.net.json"
        net = cli.random_generator_net(kind, net_seed, size.profile, size.around)
        io_json.save_net(net, net_path)
        nv = net.complex.n_vertices
        ops.append(Op("classify", name, ["classify", "--in", str(net_path)], nv,
                      partial(_check_kind, kind)))
        report = work / f"{name}.curvature.json"
        ops.append(Op("curvature", name,
                      ["curvature", "--in", str(net_path), "--report", str(report)],
                      nv, partial(_check_curvature, report), report))
    return ops


WORKLOADS = {
    "dupin-verify": dupin_verify,
    "generic-build": generic_build,
    "vessiot-mix": vessiot_mix,
}
