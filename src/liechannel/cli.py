"""Command line interface.

Exit codes: 0 success (for verify: the net is a channel surface in a
requested direction); 1 valid Legendre map that is not a channel surface;
2 malformed input or invalid parameters.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .liecore import LieGeometryError
from .cellcomplex import PLUS, MINUS
from .legendre import contact_from_point_normal
from . import builder, io_json
from .channel import first_full_certificate
from .curvature import vessiot_classify


def _fail(msg: str, code: int = 2) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _random_profile_xz(rng: np.random.Generator, n: int) -> tuple:
    xs = 1.5 + rng.uniform(-0.35, 0.35, n)
    zs = np.cumsum(0.45 + rng.uniform(0.0, 0.35, n))
    profile = np.stack([xs, np.zeros(n), zs], axis=1)
    ang = rng.uniform(-0.5, 0.5)
    n0 = np.array([math.cos(ang), 0.0, math.sin(ang)])
    return profile, builder.propagate_profile_normals(profile, n0)


def _random_profile_xy(rng: np.random.Generator, n: int) -> tuple:
    angs = np.cumsum(0.35 + rng.uniform(0.0, 0.35, n))
    rad = 1.6 + rng.uniform(-0.25, 0.25, n)
    profile = np.stack([rad * np.cos(angs), rad * np.sin(angs), np.zeros(n)], axis=1)
    a0 = angs[0] + rng.uniform(-0.4, 0.4)
    n0 = np.array([math.cos(a0), math.sin(a0), 0.0])
    return profile, builder.propagate_profile_normals(profile, n0)


def _random_profile_sphere(rng: np.random.Generator, n: int) -> tuple:
    pol = 0.6 + rng.uniform(-0.15, 0.15)
    angs = np.cumsum(0.35 + rng.uniform(0.0, 0.3, n))
    profile = np.stack([math.sin(pol) * np.cos(angs), math.sin(pol) * np.sin(angs),
                        math.cos(pol) * np.ones(n)], axis=1)
    q0 = profile[0]
    t0 = np.cross(q0, [0.0, 0.0, 1.0])
    t0 /= np.linalg.norm(t0)
    w0 = np.cross(q0, t0)
    a = rng.uniform(-0.5, 0.5)
    n0 = math.cos(a) * w0 + math.sin(a) * t0
    return profile, builder.propagate_profile_normals(profile, n0 / np.linalg.norm(n0))


def random_generator_net(kind: str, seed: int, n_profile: int, m: int):
    """Seeded random instance of one of the three Euclidean generators."""
    rng = np.random.default_rng(seed)
    if kind == "revolution":
        profile, normals = _random_profile_xz(rng, n_profile)
        return builder.make_revolution(profile, normals, m)
    if kind == "cylinder":
        profile, normals = _random_profile_xy(rng, n_profile)
        offsets = np.cumsum(0.4 + rng.uniform(0.0, 0.4, m))
        return builder.make_cylinder(profile, normals, list(offsets))
    if kind == "cone":
        profile, normals = _random_profile_sphere(rng, n_profile)
        scales = np.cumsum(0.35 + rng.uniform(0.0, 0.35, m)) + 0.6
        return builder.make_cone(profile, normals, list(scales))
    raise ValueError(f"unknown generator {kind}")


def cmd_generate(args) -> int:
    try:
        if args.kind == "dupin-torus":
            net = builder.make_dupin_torus(args.R, args.r, args.m, args.n)
        elif args.kind in ("example1", "example2", "example3"):
            net = builder.make_reflection_example(int(args.kind[-1]), seed=args.seed,
                                                  m=args.m, n_rows=args.n)
        else:
            net = random_generator_net(args.kind, args.seed, args.n, args.m)
    except (ValueError, LieGeometryError) as exc:
        return _fail(str(exc))
    io_json.save_net(net, args.out)
    print(f"wrote {args.out} ({net.complex.n_vertices} vertices, "
          f"{len(net.complex.face_vertices)} faces)")
    return 0


def cmd_verify(args) -> int:
    net = io_json.load_net(args.infile)
    directions = {"+": [PLUS], "-": [MINUS], "both": [PLUS, MINUS]}[args.direction]
    report = io_json.verify_report(net, directions)
    report["input"] = str(args.infile)
    if args.report:
        io_json._dump(report, args.report)
    for d in directions:
        entry = report["directions"][d]
        status = "channel" if entry["channel"] else \
            f"not a channel ({entry['failed_check']})"
        print(f"direction '{d}': {status}")
    print(f"circular-lines: {str(report['circular_lines']).lower()}")
    if not report["legendre"]["ok"]:
        return 2
    return 0 if report["circular_lines"] else 1


def cmd_classify(args) -> int:
    net = io_json.load_net(args.infile)
    try:
        cert = first_full_certificate(net)
        if cert.ok:
            print(vessiot_classify(cert).kind)
            return 0
    except LieGeometryError as exc:
        return _fail(str(exc), 1)
    print("not a channel surface", file=sys.stderr)
    return 1


def cmd_curvature(args) -> int:
    net = io_json.load_net(args.infile)
    try:
        report = io_json.curvature_report_json(net)
    except LieGeometryError as exc:
        return _fail(str(exc))
    report["input"] = str(args.infile)
    if args.report:
        io_json._dump(report, args.report)
    ident = report["identity_max_residual"]
    print(f"faces: {len(report['faces'])}, identity residual: {ident:.3e}")
    return 0


def cmd_build(args) -> int:
    sc = io_json.load_sphere_curve(args.spheres)
    try:
        result = builder.channel_from_sphere_curve(sc, args.samples, args.phase)
    except (ValueError, LieGeometryError) as exc:
        return _fail(str(exc))
    io_json.save_net(result.net, args.out)
    extra = ""
    if result.monodromy_defect is not None:
        extra = f", monodromy defect {result.monodromy_defect:.3e}"
    print(f"wrote {args.out} (discriminant {result.discriminant_max:.3e}{extra})")
    return 0


def cmd_blend(args) -> int:
    c1 = io_json.load_curve(args.c1)
    c2 = io_json.load_curve(args.c2)
    normal = np.asarray(args.contact_normal, dtype=float)
    nn = np.linalg.norm(normal)
    if nn == 0.0:
        return _fail("contact normal must be nonzero")
    try:
        f0 = contact_from_point_normal(args.contact_point, normal / nn)
        result = builder.blend_channel(c1, c2, f0, args.t0, args.samples)
    except (ValueError, LieGeometryError) as exc:
        return _fail(str(exc))
    io_json.save_net(result.net, args.out)
    print(f"wrote {args.out} ({len(result.certificate.lines)} generating circles)")
    return 0


def cmd_export(args) -> int:
    net = io_json.load_net(args.infile)
    try:
        io_json.export_obj(net, args.obj, circles=args.circles)
    except LieGeometryError as exc:
        return _fail(str(exc))
    print(f"wrote {args.obj}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="liechannel",
                                description="discrete channel surface kernel")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a reference net")
    g.add_argument("kind", choices=["revolution", "cylinder", "cone", "dupin-torus",
                                    "example1", "example2", "example3"])
    g.add_argument("--R", type=float, default=2.0, help="torus center circle radius")
    g.add_argument("--r", type=float, default=1.0, help="torus tube radius")
    g.add_argument("--m", type=int, default=12,
                   help="samples around / offsets / scales / row length")
    g.add_argument("--n", type=int, default=8, help="profile points / rows")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    v = sub.add_parser("verify", help="verify the channel conditions")
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--direction", choices=["+", "-", "both"], default="both")
    v.add_argument("--report")
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("classify", help="revolution / cylinder / cone / none")
    c.add_argument("--in", dest="infile", required=True)
    c.set_defaults(func=cmd_classify)

    k = sub.add_parser("curvature", help="face and edge curvature report")
    k.add_argument("--in", dest="infile", required=True)
    k.add_argument("--report")
    k.set_defaults(func=cmd_curvature)

    b = sub.add_parser("build", help="channel surface from a sphere curve")
    b.add_argument("--spheres", required=True)
    b.add_argument("--samples", type=int, default=12)
    b.add_argument("--phase", type=float, default=0.0)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_build)

    bl = sub.add_parser("blend", help="channel surfaces through a Ribaucour pair")
    bl.add_argument("--c1", required=True)
    bl.add_argument("--c2", required=True)
    bl.add_argument("--contact-point", type=float, nargs=3, required=True)
    bl.add_argument("--contact-normal", type=float, nargs=3, required=True)
    bl.add_argument("--t0", type=float, default=0.0)
    bl.add_argument("--samples", type=int, default=8)
    bl.add_argument("--out", required=True)
    bl.set_defaults(func=cmd_blend)

    e = sub.add_parser("export", help="write an OBJ mesh")
    e.add_argument("--in", dest="infile", required=True)
    e.add_argument("--obj", required=True)
    e.add_argument("--circles", action="store_true",
                   help="append generating circles as polylines")
    e.set_defaults(func=cmd_export)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        with np.errstate(all="ignore"):  # numpy warnings are not CLI output
            return args.func(args)
    except (io_json.FormatError, OSError) as exc:  # malformed input, unwritable output
        return _fail(str(exc))
    except OverflowError:  # finite input whose float arithmetic overflows
        return _fail("input values out of numerical range")


if __name__ == "__main__":
    sys.exit(main())
