"""The CLI keeps its exit-code contract on any net, sphere-curve or curve
file: every command returns 0, 1 or 2 and no exception escapes `cli.main`."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liechannel import io_json
from liechannel.builder import make_dupin_torus, random_sphere_curve
from liechannel.cli import main

KINDS = ["revolution", "cylinder", "cone", "dupin-torus", "example1", "example2", "example3"]


def run(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


def net_commands(net: Path, tmp: Path):
    for d in ("+", "-", "both"):
        yield ["verify", "--in", str(net), "--direction", d,
               "--report", str(tmp / "report.json")]
    yield ["classify", "--in", str(net)]
    yield ["curvature", "--in", str(net), "--report", str(tmp / "curvature.json")]
    yield ["export", "--in", str(net), "--obj", str(tmp / "net.obj"), "--circles"]


def assert_contract(net: Path, tmp: Path) -> None:
    for argv in net_commands(net, tmp):
        assert run(*argv) in (0, 1, 2), argv


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(2, 6), m=st.integers(2, 6),
       seed=st.integers(0, 2**32 - 1))
def test_generated_nets(kind, n, m, seed):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        net = tmp / "net.json"
        code = run("generate", kind, "--n", str(n), "--m", str(m), "--seed", str(seed),
                   "--out", str(net))
        assert code in (0, 2)
        if code == 0:
            assert_contract(net, tmp)


def verify_report(net: Path, tmp: Path, direction: str) -> dict:
    report = tmp / f"report{direction}.json"
    assert run("verify", "--in", str(net), "--direction", direction,
               "--report", str(report)) in (0, 1)
    return json.loads(report.read_text(encoding="utf-8"))


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(2, 6), m=st.integers(2, 6),
       seed=st.integers(0, 2**32 - 1))
def test_dupin_only_when_both_directions_are_channel(kind, n, m, seed):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        net = tmp / "net.json"
        if run("generate", kind, "--n", str(n), "--m", str(m), "--seed", str(seed),
               "--out", str(net)) != 0:
            return
        both = verify_report(net, tmp, "both")
        channel = [entry["channel"] for entry in both["directions"].values()]
        assert not both["dupin_cyclide"] or channel == [True, True]
        # the verdict does not depend on the directions a report shows
        one = {verify_report(net, tmp, d)["dupin_cyclide"] for d in "+-"}
        assert one == {both["dupin_cyclide"]}


def test_underdetermined_revolution_is_not_dupin():
    # its '-' ribbons are single faces whose cyclides disagree on shared lines
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        net = tmp / "net.json"
        assert run("generate", "revolution", "--n", "2", "--m", "3", "--seed", "0",
                   "--out", str(net)) == 0
        report = verify_report(net, tmp, "both")
        assert [report["directions"][d]["failed_check"] for d in "+-"] == [None, "underdetermined"]
        assert report["dupin_cyclide"] is False


def _vertices(points):
    return [{"point": p, "normal": [0.0, 0.0, 1.0]} for p in points]


_SQUARE = [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]]


def _explicit(n, edges, faces, points):
    return {"format": "liechannel-net", "version": 1,
            "complex": {"n_vertices": n, "edges": edges, "faces": faces},
            "vertices": _vertices(points)}


def _doubled_face():
    """Face 0 of a 6^2 torus with each edge listed twice and the face four
    times: `verify` ended in an IndexError from the isothermic test."""
    torus = make_dupin_torus(2.0, 1.0, 6, 6)
    vertices = io_json.net_to_dict(torus)["vertices"]
    edges = [[0, 1, "-"], [1, 2, "+"], [2, 3, "-"], [3, 0, "+"]]
    return {"format": "liechannel-net", "version": 1,
            "complex": {"n_vertices": 4, "edges": edges * 2, "faces": [[0, 1, 2, 3]] * 4},
            "vertices": [vertices[v] for v in torus.complex.face_vertices[0].tolist()]}


# complexes that used to end in a traceback
MALFORMED = [
    _doubled_face(),
    _explicit(0, [], [], []),
    _explicit(2, [[0, 1, "+"]], [], _SQUARE[:2]),
    _explicit(4, [[0, 1, "x"], [1, 2, "+"], [2, 3, "-"], [3, 0, "+"]], [[0, 1, 2, 3]], _SQUARE),
    _explicit(4, [[0, 1, "+"], [1, 2, "-"], [2, 3, "+"], [3, 0, "-"]], [[0, 1, 2, 3]], _SQUARE),
]
# a valid planar face, as a base for mutations
VALID = _explicit(4, [[0, 1, "-"], [1, 2, "+"], [2, 3, "-"], [3, 0, "+"]],
                  [[0, 1, 2, 3]], _SQUARE)
GRID = {"format": "liechannel-net", "version": 1,
        "complex": {"n_plus": 2, "n_minus": 2, "wrap_plus": False},
        "vertices": _vertices(_SQUARE)}

values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10**6), st.floats(allow_nan=True),
    st.text(max_size=3), st.lists(st.integers(-1, 4), max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, sub in items:
        yield from _paths(sub, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    out = copy.deepcopy(doc)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


@st.composite
def documents(draw):
    base = draw(st.sampled_from(MALFORMED + [VALID, GRID]))
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(base))))
        base = _replaced(base, path, draw(values))
    text = json.dumps(base)
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=60, deadline=None)
@given(text=documents())
def test_malformed_documents(text):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        net = tmp / "net.json"
        net.write_text(text, encoding="utf-8")
        assert_contract(net, tmp)


TORUS = {form: io_json.net_to_dict(make_dupin_torus(2.0, 1.0, 4, 4), form=form)
         for form in ("euclidean", "hexaspherical")}


def _respecified(field, value):
    """The euclidean 4^2 torus with one field of its complex spec replaced:
    a grid field, or `n_vertices` or edge k (field ("edges", k)) of the
    grid written out as an explicit complex."""
    doc = copy.deepcopy(TORUS["euclidean"])
    if field == "n_vertices" or isinstance(field, tuple):
        c = io_json.complex_from_dict(doc["complex"])
        doc["complex"] = {"n_vertices": c.n_vertices,
                          "edges": [[i, j, lab] for (i, j), lab in zip(c.edge_ends.tolist(),
                                                                       c.edge_labels.tolist())],
                          "faces": c.face_vertices.tolist()}
    if isinstance(field, tuple):
        doc["complex"]["edges"][field[1]] = value
    else:
        doc["complex"][field] = value
    return doc


# specs that loaded through int() and bool(), or were refused only by a
# lookup keyed by the index
@pytest.mark.parametrize("field, value", [
    ("wrap_plus", "no"), ("n_plus", "4"), ("n_minus", 4.9), ("n_vertices", 16.9),
    (("edges", 0), [0.5, 1, "+"]), (("edges", 0), ["0", 1, "+"]),
    (("edges", 1), [True, 2, "+"]), (("edges", 0), [0, 10**12, "+"]),
    (("edges", 0), [-1, 2, "+"]),
])
def test_typed_complex_spec(field, value):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "net.json").write_text(json.dumps(_respecified(field, value)), encoding="utf-8")
        for argv in net_commands(tmp / "net.json", tmp):
            assert run(*argv) == 2, argv


def _retyped(value, how: str, k: int):
    """A coordinate list with its numbers as JSON strings or booleans, or
    with only the k-th (flattened) number as a string or a boolean."""
    flat = np.ravel(value).tolist()
    if how == "one string":
        flat[k % len(flat)] = str(flat[k % len(flat)])
    elif how == "one boolean":
        flat[k % len(flat)] = flat[k % len(flat)] > 0
    else:
        flat = [str(x) if how == "all strings" else x > 0 for x in flat]
    return np.reshape(np.array(flat, dtype=object), np.shape(value)).tolist()


@settings(max_examples=40, deadline=None)
@given(form=st.sampled_from(sorted(TORUS)), vertex=st.integers(0, 15),
       field=st.integers(0, 1),
       how=st.sampled_from(["all strings", "one string", "all booleans", "one boolean"]),
       k=st.integers(0, 11))
def test_non_numeric_coordinates(form, vertex, field, how, k):
    doc = copy.deepcopy(TORUS[form])
    entry = doc["vertices"][vertex]
    key = sorted(entry)[field % len(entry)]
    entry[key] = _retyped(entry[key], how, k)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "net.json").write_text(json.dumps(doc), encoding="utf-8")
        for argv in net_commands(tmp / "net.json", tmp):
            assert run(*argv) == 2, argv


# ---------------------------------------------------------------------------
# build and blend inputs


def _sphere_curve_base() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spheres.json"
        io_json.save_sphere_curve(random_sphere_curve(np.random.default_rng(7), 5), path)
        return json.loads(path.read_text(encoding="utf-8"))


SPHERE_CURVE = _sphere_curve_base()
CURVES = [{"format": "liechannel-curve", "version": 1, "closed": False,
           "points": [[x, 0.0, 0.5 * k] for k in range(5)]} for x in (0.0, 1.5)]
BLEND_ARGS = ["--contact-point", "0", "0", "0", "--contact-normal", "-1", "0", "0",
              "--samples", "6"]

# wrong types, wrong shapes and non-finite numbers in place of any field
field_values = st.one_of(
    values, st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=4),
    st.lists(st.lists(st.floats(-5, 5), max_size=4), max_size=4))


@st.composite
def fuzzed(draw, base):
    """Up to two fields replaced, at a depth drawn first so that the few
    top-level fields are hit as often as the many coordinates; one text in
    four truncated."""
    for _ in range(draw(st.integers(0, 2))):
        paths = list(_paths(base))
        depth = draw(st.sampled_from(sorted({len(p) for p in paths})))
        path = draw(st.sampled_from([p for p in paths if len(p) == depth]))
        base = _replaced(base, path, draw(field_values))
    text = json.dumps(base)
    if draw(st.integers(0, 3)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=250, deadline=None)
@given(text=fuzzed(SPHERE_CURVE))
def test_malformed_sphere_curves(text):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "spheres.json").write_text(text, encoding="utf-8")
        assert run("build", "--spheres", str(tmp / "spheres.json"), "--samples", "6",
                   "--out", str(tmp / "net.json")) in (0, 1, 2)


@settings(max_examples=250, deadline=None)
@given(which=st.integers(0, 1), text=st.data())
def test_malformed_curves(which, text):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = [tmp / "c1.json", tmp / "c2.json"]
        for k, path in enumerate(paths):
            doc = text.draw(fuzzed(CURVES[k])) if k == which else json.dumps(CURVES[k])
            path.write_text(doc, encoding="utf-8")
        assert run("blend", "--c1", str(paths[0]), "--c2", str(paths[1]), *BLEND_ARGS,
                   "--out", str(tmp / "net.json")) in (0, 1, 2)
