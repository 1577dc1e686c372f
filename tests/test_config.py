import subprocess
import sys
from pathlib import Path

import pytest

from liechannel.config import Tolerances, _from_env


def test_scaled_multiplies_every_field():
    base = Tolerances()
    scaled = base.scaled(10.0)
    assert scaled.contact == pytest.approx(base.contact * 10)
    assert scaled.rank == pytest.approx(base.rank * 10)
    assert scaled.cosphericity == pytest.approx(base.cosphericity * 10)


def test_env_override(monkeypatch):
    monkeypatch.setenv("LIECHANNEL_TOL", "5.0")
    t = _from_env()
    assert t.contact == pytest.approx(Tolerances().contact * 5)


def test_env_rejects_garbage(monkeypatch):
    monkeypatch.setenv("LIECHANNEL_TOL", "lots")
    with pytest.raises(ValueError):
        _from_env()
    monkeypatch.setenv("LIECHANNEL_TOL", "-1")
    with pytest.raises(ValueError):
        _from_env()


def test_env_applies_on_import():
    code = ("import liechannel.config as c; "
            "print(c.TOL.contact)")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code],
                         env={"LIECHANNEL_TOL": "100", "PATH": "/usr/bin:/bin",
                              "PYTHONPATH": str(src)},
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout.strip()) == pytest.approx(1e-7)
