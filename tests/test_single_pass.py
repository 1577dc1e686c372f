"""`verify_report` builds one certificate per direction and walks the lines
and ribbons of each label once, and its bytes equal those of the report
assembled from independent library calls (`report_oracle`)."""

import json
from collections import Counter

import numpy as np
import pytest

import liechannel as L
from liechannel import cellcomplex, channel, io_json
from liechannel.builder import channel_from_sphere_curve, random_sphere_curve
from liechannel.cli import random_generator_net

from report_oracle import oracle_verify_report

DIRECTIONS = {"+": ["+"], "-": ["-"], "both": ["+", "-"]}

# name -> factory of a fresh net
NETS = {f"torus{n}": (lambda n=n: L.make_dupin_torus(2.0 + 0.05 * n, 0.9, n, n))
        for n in range(3, 17)}
NETS.update({
    "revolution": lambda: random_generator_net("revolution", 3, 6, 8),
    "cylinder": lambda: random_generator_net("cylinder", 4, 5, 6),
    "cone": lambda: random_generator_net("cone", 5, 5, 7),
    "example1": lambda: L.make_reflection_example(1, seed=0),
    "example2": lambda: L.make_reflection_example(2, seed=0),
    "example3": lambda: L.make_reflection_example(3, seed=0),
    "built": lambda: channel_from_sphere_curve(
        random_sphere_curve(np.random.default_rng(3), 8), 10).net,
    # '-' ribbons of one face each: the '-' direction is underdetermined
    "revolution_n2_m3": lambda: random_generator_net("revolution", 0, 2, 3),
})


@pytest.mark.parametrize("name", sorted(NETS))
def test_report_equals_independent_calls(name):
    make = NETS[name]
    net = make()
    for label, directions in DIRECTIONS.items():
        got = json.dumps(io_json.verify_report(net, directions))
        assert got == json.dumps(oracle_verify_report(make(), directions)), label
    # a second report on the same net reuses its cached lines and ribbons
    assert json.dumps(io_json.verify_report(net)) == got


def test_underdetermined_direction_is_not_dupin():
    # the Dupin verdict reads the completed certificates of both directions
    rep = io_json.verify_report(NETS["revolution_n2_m3"]())
    assert rep["directions"]["-"]["failed_check"] == "underdetermined"
    assert rep["dupin_cyclide"] is False


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale, shift", [(1.0, 0.0), (1e-3, 0.0), (1e3, 0.0), (1e-6, 0.0),
                                          (1.0, 30.0), (1.0, 100.0), (1.0, 1000.0)])
def test_dupin_only_when_both_directions_are_certified(scale, shift):
    # a 12^2 torus moved by a similarity; some of these fail a direction
    # (ROADMAP item 2), and the verdict must then be false
    torus = L.make_dupin_torus(2.0, 1.0, 12, 12)
    doc = io_json.net_to_dict(torus)
    for v in doc["vertices"]:
        v["point"] = [scale * x + shift for x in v["point"]]
    rep = io_json.verify_report(io_json.net_from_dict(doc))
    both = all(entry["channel"] for entry in rep["directions"].values())
    assert rep["dupin_cyclide"] is both


@pytest.fixture
def counters(monkeypatch):
    calls = Counter()

    def counted(key, fn):
        def wrapper(*args):
            calls[(key, args[1])] += 1
            return fn(*args)
        return wrapper

    verify = counted("verify_channel", channel.verify_channel)
    monkeypatch.setattr(channel, "verify_channel", verify)
    monkeypatch.setattr(cellcomplex, "_label_lines",
                        counted("lines", cellcomplex._label_lines))
    monkeypatch.setattr(cellcomplex, "_label_ribbons",
                        counted("ribbons", cellcomplex._label_ribbons))
    return calls


@pytest.mark.parametrize("name", ["torus8", "built", "example2", "revolution_n2_m3"])
@pytest.mark.parametrize("directions", sorted(DIRECTIONS))
def test_one_certificate_and_one_walk_per_direction(counters, name, directions):
    net = NETS[name]()
    counters.clear()
    io_json.verify_report(net, DIRECTIONS[directions])
    assert counters[("verify_channel", "+")] == 1
    assert counters[("verify_channel", "-")] == 1
    for label in "+-":
        assert counters[("lines", label)] <= 1
        assert counters[("ribbons", label)] <= 1


@pytest.mark.parametrize("name", ["torus8", "built", "example2", "revolution"])
def test_positions_and_lifts_are_batched(monkeypatch, name):
    """One report lifts points only through `lift_points` and reads vertex
    positions without a per-vertex `unlift`."""
    net = NETS[name]()
    calls = Counter()
    reading = []

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key, bool(reading)] += 1
            return fn(*args, **kwargs)
        return wrapper

    def vertex_points(self, *args):
        reading.append(True)
        try:
            return positions(self, *args)
        finally:
            reading.pop()

    positions = L.LegendreNet.vertex_points
    monkeypatch.setattr(L.LegendreNet, "vertex_points", vertex_points)
    monkeypatch.setattr(L.liecore, "lift_point", counted("lift_point", L.liecore.lift_point))
    monkeypatch.setattr(L.liecore, "lift_points", counted("lift_points", L.liecore.lift_points))
    monkeypatch.setattr(L.liecore, "unlift", counted("unlift", L.liecore.unlift))
    io_json.verify_report(net)
    assert calls["lift_point", False] == calls["lift_point", True] == 0
    assert calls["unlift", True] == 0
    assert calls["lift_points", False] > 0
