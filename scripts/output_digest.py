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

Inputs: `generate` on eight generator settings, and the revolution net with
n = 2, m = 3 with its labels swapped, each followed by verify ('+', '-',
'both'), classify, curvature and export with and without --circles; `build`
on four fixed sphere curves, then `verify --direction both`, classify and
export --circles on each built net (a generic channel surface, so these
outputs hold the certificate, cross-ratio spread and circles of a channel
surface that is not Dupin) and `blend` through two columns of it; two more
builds with the same commands, whose blends fail inside the propagation of
the generating circles. Commands run in a temporary directory with relative
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
from liechannel.builder import random_sphere_curve  # noqa: E402
from liechannel.cellcomplex import swapped_labels  # noqa: E402
from liechannel.cli import main, random_generator_net  # noqa: E402
from liechannel.legendre import LegendreNet  # noqa: E402

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
# at the t0 that should rebuild the first ribbon's cyclide, fails in the
# propagation: "point does not lie on the cyclide" (seed 3) and "circle of
# the next sphere degenerates (dim 2)" (seed 9, a 2-dimensional D-)
PROPAGATION_FAILURES = {3: 1.4656630439821414, 9: 1.4808292377837171}


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
    swapped = LegendreNet(complex=swapped_labels(base.complex), elements=base.elements)
    io_json.save_net(swapped, "swapped.net.json")
    print(f"swapped input {sha(Path('swapped.net.json').read_bytes())}")
    net_commands("swapped", "swapped.net.json")

    for k in CURVE_SEEDS:
        curve_commands(f"curve{k}", k, CURVE_SPHERES, SAMPLES, BLEND_COLUMNS)
    for k, t0 in PROPAGATION_FAILURES.items():
        curve_commands(f"curve{k}-12x16", k, 12, 16, (7, 8), ["--t0", repr(t0)])


def curve_commands(name: str, seed: int, spheres: int, samples: int, columns, blend_args=()):
    """`build` on a random sphere curve, `verify --direction both`, classify
    and export --circles on the built net, then `blend` through two columns
    of the built net from the contact element of the first column's vertex 0."""
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
