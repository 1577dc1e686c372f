"""The scripts run to completion and print their key results."""

import hashlib
import json
import re
import runpy
from pathlib import Path

from liechannel import io_json
from liechannel.channel import verify_channel

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, capsys) -> str:
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_blend_parallel_lines(capsys):
    out = run_script("blend_parallel_lines.py", capsys)
    sweep = re.findall(r"^t0 = t_cyl \+ (\S+)\s*: dupin=(\w+)", out, re.M)
    assert [dt for dt, _ in sweep] == ["0.0", "0.3", "0.8", "1.3"]
    # the cylinder member of the family blends into a Dupin cyclide
    assert sweep[0][1] == "True"


def test_demo_pipeline(capsys):
    out = run_script("demo_pipeline.py", capsys)
    steps = re.findall(r"^\$ liechannel (\w+)", out, re.M)
    assert steps == ["generate", "verify", "classify", "curvature", "export"]
    assert re.findall(r"-> exit (\d+)", out) == ["0"] * len(steps)
    assert "dupin cyclide: True" in out


def test_output_digest(capsys):
    lines = run_script("output_digest.py", capsys).splitlines()
    assert all(re.fullmatch(r"\S.* ([0-9a-f]{64}|missing)", line) for line in lines)
    digests = dict(line.rsplit(" ", 1) for line in lines)
    assert len(digests) == len(lines)           # every output named once
    exits = {name[:-len(" exit")]: d for name, d in digests.items() if name.endswith(" exit")}
    # generate on 8 settings, 7 commands on each net, the swapped one, the
    # explicit torus and the cut torus, build, verify, classify, export
    # --circles and blend on 4 sphere curves and on 2 whose blends fail,
    # verify on the 2 nets that fail mid-check
    assert len(exits) == 8 + 11 * 7 + 6 * 5 + 2
    code = {hashlib.sha256(str(c).encode()).hexdigest(): c for c in (0, 1, 2)}
    assert {name: code.get(exits[name]) for name in ("moved-corner verify both",
                                                      "beside verify both")} == {
        "moved-corner verify both": 1, "beside verify both": 1}
    assert {name: code.get(d) for name, d in exits.items() if name.startswith("swapped")} == {
        "swapped verify +": 1, "swapped verify -": 0, "swapped verify both": 0,
        "swapped classify": 1, "swapped curvature": 0, "swapped export": 0,
        "swapped export --circles": 0}
    # a Dupin torus whose vertex and edge ids follow no grid order
    assert {name: code.get(d) for name, d in exits.items()
            if name.startswith("explicit-torus")} == {
        f"explicit-torus {command}": 0 for command in (
            "verify +", "verify -", "verify both", "classify", "curvature", "export",
            "export --circles")}
    # a Dupin torus cut into separate faces
    assert {name: code.get(d) for name, d in exits.items() if name.startswith("cut-torus")} == {
        f"cut-torus {command}": 0 for command in (
            "verify +", "verify -", "verify both", "classify", "curvature", "export",
            "export --circles")}
    failing = {name: code.get(d) for name, d in exits.items()
               if "-12x16" in name and name.endswith(" blend")}
    assert failing == {"curve3-12x16 blend": 2, "curve9-12x16 blend": 2}
    # every built net verifies as a channel surface, classifies and exports its circles
    built = [name for name in exits if name.startswith("curve")
             and name.split(" ", 1)[1] in ("verify both", "classify", "export --circles")]
    assert len(built) == 18 and all(code.get(exits[name]) == 0 for name in built)
    assert all(code.get(d) == 0 for name, d in exits.items()
               if name.split()[1] in ("generate", "build", "blend") and name not in failing)


def test_digest_failure_nets_fail_in_the_middle():
    """The two nets the digest verifies last fail where the stacked checks
    must find the first failure: not on the first line or ribbon."""
    digest = runpy.run_path(str(SCRIPTS / "output_digest.py"), run_name="nets")
    moved = digest["moved_corner_patch"]()
    beside = io_json.net_from_dict(json.loads(json.dumps(digest["patch_beside_example"]())))
    found = [(res.check, res.location) for res in (verify_channel(net, d) for net in (moved, beside)
                                                   for d in "+-")]
    assert found == [("constancy", "line 4 (vertices [24, 25, 26, 27]...)"),
                     ("constancy", "line 5 (vertices [5, 11, 17, 23]...)"),
                     ("ribbon_span", "ribbon 3"),
                     ("constancy", "line 5 (vertices [20, 27, 34, 41]...)")]
