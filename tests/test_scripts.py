"""The demo scripts run to completion and print their key results."""

import re
import runpy
from pathlib import Path

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
