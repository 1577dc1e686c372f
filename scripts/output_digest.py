#!/usr/bin/env python3
"""Print one SHA-256 digest per output of the liechannel CLI on fixed inputs.

Every command runs in-process through `liechannel.cli.main`, imported from
the `src` directory next to this script. For each command the script prints
the digests of its stdout, its stderr, its exit code and every file it
wrote, one per line. Running it in two checkouts and diffing the two
listings shows every report, net file, OBJ or message a change alters:

    python scripts/output_digest.py > old.txt      # in the old checkout
    python scripts/output_digest.py > new.txt      # in the new checkout
    diff old.txt new.txt

Inputs: `generate` on eight generator settings, the revolution net with
n = 2, m = 3 with its labels swapped, a 6 x 5 Dupin torus written as an
explicit complex whose vertex and edge ids are not in grid order, and the
6 x 5 faces of a Dupin torus cut apart (each face with its own four
vertices), each followed by verify ('+', '-', 'both'), classify, curvature
and export with and without --circles; `build`
on four fixed sphere curves, then `verify --direction both`, classify and
export --circles on each built net (a generic channel surface, so these
outputs hold the certificate, cross-ratio spread and circles of a channel
surface that is not Dupin) and `blend` through two columns of it; two more
builds with the same commands, whose blends fail at a degenerate
face-cyclide member. Last, `verify --direction both` on two nets that fail
in the middle of the stacked checks: a Dupin torus patch with one corner
moved (both directions fail constancy on their last line) and a torus patch
beside a reflection example, as one net (the '+' direction fails its
ribbon span, the '-' direction its constancy, each on the example's first
line or ribbon). Commands run in a temporary directory with relative
paths, so the digests do not depend on where the script runs.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from liechannel import io_json  # noqa: E402
from liechannel.builder import (  # noqa: E402
    _extend_element, make_dupin_torus, make_reflection_example, random_sphere_curve,
)
from liechannel.cellcomplex import (  # noqa: E402
    FACE_LABELS, QuadComplex, make_grid, swapped_labels,
)
from liechannel.cli import main, random_generator_net  # noqa: E402
from liechannel.channel import full_certificate  # noqa: E402
from liechannel.legendre import (  # noqa: E402
    FaceCyclideFamily, LegendreNet, contact_from_point_normal, contact_from_vectors,
    curvature_sphere,
)
from liechannel.liecore import inner, lift_points, oriented_representative  # noqa: E402

GENERATE = {
    "revolution": ["revolution", "--n", "6", "--m", "8", "--seed", "3"],
    "cylinder": ["cylinder", "--n", "5", "--m", "6", "--seed", "4"],
    "cone": ["cone", "--n", "5", "--m", "7", "--seed", "5"],
    "torus": ["dupin-torus", "--R", "2.5", "--r", "0.9", "--m", "10", "--n", "8"],
    "example1": ["example1", "--seed", "1"],
    "example2": ["example2", "--seed", "2"],
    "example3": ["example3", "--seed", "3"],
    "revolution_n2_m3": ["revolution", "--n", "2", "--m", "3", "--seed", "0"],
}
CURVE_SEEDS = (0, 1, 2, 3)
CURVE_SPHERES = 8
SAMPLES = 8
BLEND_COLUMNS = (0, 1)
# 12-sphere curves built with 16 samples whose blend through columns 7 and 8,
# at the t0 that should rebuild the first ribbon's cyclide (`round_trip_t0`),
# meets a face-cyclide member with a 2-dimensional D- (at step 9 for seed 3
# and at step 5 for seed 9)
PROPAGATION_FAILURES = (3, 9)


def torus_patch(m: int, n: int) -> LegendreNet:
    """The first m x n vertices of a 10 x 8 Dupin torus, on an open grid."""
    torus = make_dupin_torus(2.5, 0.9, 10, 8)
    vertices = [b * 10 + a for b in range(n) for a in range(m)]
    return LegendreNet(complex=make_grid(m, n), bases=torus.bases[vertices])


def moved_corner_patch() -> LegendreNet:
    """A 6 x 5 torus patch whose last vertex, the end of '+' line 4 and of
    '-' line 5, is moved: its contact element is spanned by a sphere of its
    '+' neighbour's element, 1e-3 off the shared one, and the sphere of its
    '-' neighbour's element in contact with that one, so the net stays
    Legendre."""
    net = torus_patch(6, 5)
    corner, plus, minus = 29, net.element(28), net.element(23)
    s = curvature_sphere(net.element(corner), plus)
    u = plus.basis[np.argmin(np.abs(plus.basis @ s))]
    s = s + 1e-3 * (u - (u @ s) * s)
    a, b = minus.basis
    t = inner(b, s) * a - inner(a, s) * b
    bases = net.bases.copy()
    bases[corner] = contact_from_vectors(s, t).basis
    return LegendreNet(complex=net.complex, bases=bases)


def patch_beside_example() -> dict:
    """A 5 x 4 torus patch and reflection example 2 (seed 2) as one net
    file: the patch's lines and ribbons come first and pass."""
    docs = [io_json.net_to_dict(torus_patch(5, 4)),
            io_json.net_to_dict(make_reflection_example(2, seed=2))]
    edges, faces, vertices, base = [], [], [], 0
    for doc in docs:
        c = io_json.complex_from_dict(doc["complex"])
        edges += [[i, j, lab] for (i, j), lab in zip((c.edge_ends + base).tolist(),
                                                     c.edge_labels.tolist())]
        faces += (c.face_vertices + base).tolist()
        vertices += doc["vertices"]
        base += c.n_vertices
    return {"format": "liechannel-net", "version": 1,
            "complex": {"n_vertices": base, "edges": edges, "faces": faces},
            "vertices": vertices}


def explicit_torus() -> dict:
    """A 6 x 5 Dupin torus as an explicit complex: its vertices permuted,
    its edges shuffled and every other one reversed, its faces rotated by
    two, so that edge ids (the order of the curvature report) and vertex
    ids follow no grid order."""
    doc = io_json.net_to_dict(make_dupin_torus(2.5, 0.9, 6, 5))
    c = io_json.complex_from_dict(doc["complex"])
    rng = np.random.default_rng(6)
    new = rng.permutation(c.n_vertices)  # the new id of each vertex
    ends = new[c.edge_ends]
    ends[1::2] = ends[1::2, ::-1]
    edges = [[i, j, lab] for (i, j), lab in zip(ends.tolist(), c.edge_labels.tolist())]
    return {"format": "liechannel-net", "version": 1,
            "complex": {"n_vertices": c.n_vertices,
                        "edges": [edges[k] for k in rng.permutation(len(edges)).tolist()],
                        "faces": new[c.face_vertices[:, [2, 3, 0, 1]]].tolist()},
            "vertices": [doc["vertices"][old] for old in np.argsort(new).tolist()]}


def cut_torus() -> LegendreNet:
    """The 30 faces of a 6 x 6-vertex Dupin torus (6 x 5 faces) as separate
    quadrilaterals, each with its own four vertices and contact elements."""
    torus = make_dupin_torus(2.5, 0.9, 6, 6)
    faces = torus.complex.face_vertices
    corners = np.arange(faces.size).reshape(-1, 4)
    c = QuadComplex(n_vertices=faces.size,
                    edge_ends=np.stack((corners, np.roll(corners, -1, axis=1)), -1).reshape(-1, 2),
                    edge_labels=np.tile(FACE_LABELS, len(faces)), face_vertices=corners)
    return LegendreNet(complex=c, bases=torus.bases[faces.ravel()])


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(name: str, argv, writes=()):
    """Run one command and print the digests of its outputs."""
    for path in writes:
        Path(path).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(main(list(argv)))
        except Exception:  # an escaping exception is an output too
            traceback.print_exc(limit=0)
            code = "exception"
    print(f"{name} stdout {sha(out.getvalue().encode())}")
    print(f"{name} stderr {sha(err.getvalue().encode())}")
    print(f"{name} exit {sha(code.encode())}")
    for path in writes:
        p = Path(path)
        print(f"{name} {path} {sha(p.read_bytes()) if p.exists() else 'missing'}")


def net_commands(name: str, net: str):
    for d, label in (("+", "plus"), ("-", "minus"), ("both", "both")):
        report = f"{name}.verify-{label}.json"
        run(f"{name} verify {d}", ["verify", "--in", net, "--direction", d,
                                    "--report", report], [report])
    run(f"{name} classify", ["classify", "--in", net])
    report = f"{name}.curvature.json"
    run(f"{name} curvature", ["curvature", "--in", net, "--report", report], [report])
    for circles in ((), ("--circles",)):
        obj = f"{name}.{'circles' if circles else 'mesh'}.obj"
        run(f"{name} export {' '.join(circles)}".rstrip(),
            ["export", "--in", net, "--obj", obj, *circles], [obj])


def digest_all() -> None:
    for name, args in GENERATE.items():
        net = f"{name}.net.json"
        run(f"{name} generate", ["generate", *args, "--out", net], [net])
        net_commands(name, net)

    # '-' certificate completes, '+' ribbons of one face each do not
    base = random_generator_net("revolution", 0, 2, 3)
    swapped = LegendreNet(complex=swapped_labels(base.complex), bases=base.bases)
    io_json.save_net(swapped, "swapped.net.json")
    print(f"swapped input {sha(Path('swapped.net.json').read_bytes())}")
    net_commands("swapped", "swapped.net.json")

    Path("explicit-torus.net.json").write_text(json.dumps(explicit_torus()), encoding="utf-8")
    print(f"explicit-torus input {sha(Path('explicit-torus.net.json').read_bytes())}")
    net_commands("explicit-torus", "explicit-torus.net.json")

    io_json.save_net(cut_torus(), "cut-torus.net.json")
    print(f"cut-torus input {sha(Path('cut-torus.net.json').read_bytes())}")
    net_commands("cut-torus", "cut-torus.net.json")

    for k in CURVE_SEEDS:
        curve_commands(f"curve{k}", k, CURVE_SPHERES, SAMPLES, BLEND_COLUMNS)
    for k in PROPAGATION_FAILURES:
        curve_commands(f"curve{k}-12x16", k, 12, 16, (7, 8), round_trip=True)

    io_json.save_net(moved_corner_patch(), "moved-corner.net.json")
    Path("beside.net.json").write_text(json.dumps(patch_beside_example()), encoding="utf-8")
    for name in ("moved-corner", "beside"):
        print(f"{name} input {sha(Path(f'{name}.net.json').read_bytes())}")
        report = f"{name}.verify-both.json"
        run(f"{name} verify both", ["verify", "--in", f"{name}.net.json", "--direction", "both",
                                    "--report", report], [report])


def round_trip_t0(net_path: str, points, normal) -> float:
    """Face-cyclide parameter at which the blend through two columns of a
    built net, from the contact element of the first column's vertex 0,
    should rebuild the ribbon between the net's '+' lines 0 and 1."""
    cert = full_certificate(io_json.load_net(net_path), "+")
    x1, x2 = (lift_points(np.array(p)) for p in points)
    f0 = contact_from_point_normal(points[0][0], np.array(normal) / np.linalg.norm(normal))
    f11, s1 = _extend_element(f0, x1[1])
    f20, _ = _extend_element(f0, x2[0])
    f21, s2 = _extend_element(f20, x2[1])
    family = FaceCyclideFamily.from_spheres(
        [oriented_representative(curvature_sphere(f, g)) for f, g in ((f0, f20), (f11, f21))],
        [s1, s2])
    return family.parameter_of(cert.cyclides[cert.ribbon_lines.index((0, 1))])


def curve_commands(name: str, seed: int, spheres: int, samples: int, columns,
                   round_trip=False):
    """`build` on a random sphere curve, `verify --direction both`, classify
    and export --circles on the built net, then `blend` through two columns
    of the built net from the contact element of the first column's vertex
    0, at the default t0 or, with round_trip, at `round_trip_t0`."""
    path = f"{name}.spheres.json"
    io_json.save_sphere_curve(random_sphere_curve(np.random.default_rng(seed), spheres), path)
    print(f"{name} input {sha(Path(path).read_bytes())}")
    net = f"{name}.built.json"
    run(f"{name} build", ["build", "--spheres", path, "--samples", str(samples),
                          "--out", net], [net])
    if not Path(net).exists():
        return
    report = f"{name}.built.verify-both.json"
    run(f"{name} verify both", ["verify", "--in", net, "--direction", "both",
                                "--report", report], [report])
    run(f"{name} classify", ["classify", "--in", net])
    obj = f"{name}.built.circles.obj"
    run(f"{name} export --circles", ["export", "--in", net, "--obj", obj, "--circles"], [obj])
    vertices = json.loads(Path(net).read_text(encoding="utf-8"))["vertices"]
    points = [v["point"] for v in vertices]
    curves = []
    for col in columns:
        curve = f"{name}.col{col}.json"
        Path(curve).write_text(json.dumps({"format": "liechannel-curve", "version": 1,
                                           "points": points[col::samples]}),
                               encoding="utf-8")
        curves.append(curve)
    p0, n0 = vertices[columns[0]]["point"], vertices[columns[0]]["normal"]
    blend_args = ["--t0", repr(round_trip_t0(net, [points[col::samples] for col in columns],
                                             n0))] if round_trip else []
    out = f"{name}.blend.json"
    run(f"{name} blend", ["blend", "--c1", curves[0], "--c2", curves[1],
                          "--contact-point", *map(repr, p0),
                          "--contact-normal", *map(repr, n0), *blend_args,
                          "--samples", str(samples), "--out", out], [out])


if __name__ == "__main__":
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            digest_all()
        finally:
            os.chdir(here)
