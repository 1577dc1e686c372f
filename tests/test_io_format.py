"""The file layout of the writer and the vertex reads of the net loader.

Every file is written as one line of compact JSON by the C encoder; its
parsed content is that of the indented layout of earlier writers, and files
in that layout still load to the same arrays. The net loader reads the
vertex entries as stacks and must give the bases and the error messages of
the per-vertex reader in `loader_oracle`.
"""

import copy
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import liechannel as L
from liechannel import io_json
from liechannel.builder import random_sphere_curve
from liechannel.cli import main

import loader_oracle as oracle
from geo_helpers import revolution_net
from test_batched_kernel import same_bits

# ---------------------------------------------------------------------------
# the writer

KEYS = st.text(st.sampled_from('"\\[]{},: aZé€ \U0001F600\n\t\x00') | st.characters(),
               max_size=6)
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=-2 ** 200, max_value=2 ** 200)
           | st.floats()
           | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324,
                              2.2250738585072014e-308, 1e16, 0.1])
           | KEYS)
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4)
                      | st.dictionaries(KEYS, inner, max_size=4), max_leaves=24)
PAYLOADS = st.dictionaries(KEYS, VALUES, max_size=5)


def same_json(a, b) -> bool:
    """Equal JSON values of equal types, key order included; NaN equals
    NaN and -0.0 differs from 0.0."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return (math.isnan(a) and math.isnan(b)) or same_bits(a, b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_json, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same_json(a[k], b[k]) for k in a)
    return a == b


@settings(max_examples=300, deadline=None)
@given(PAYLOADS)
def test_writer_changes_only_whitespace(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "payload.json"
        io_json._dump(payload, path)
        data = path.read_bytes()
    text = data.decode("ascii")
    assert text == json.dumps(payload, separators=(",", ":")) + "\n"
    assert text.count("\n") == 1
    assert same_json(json.loads(text), payload)
    # the bytes of the indented writer, from the parsed file alone
    assert (json.dumps(json.loads(text), indent=1) + "\n").encode("utf-8") == \
        (json.dumps(payload, indent=1) + "\n").encode("utf-8")


def test_writer_never_runs_the_pure_python_encoder(tmp_path):
    assert json.encoder.c_make_encoder is not None
    with mock.patch.object(json.encoder, "_make_iterencode",
                           side_effect=AssertionError("pure-Python encoder")):
        io_json.save_net(L.make_dupin_torus(2.0, 1.0, 6, 6), tmp_path / "torus.json")
        assert main(["verify", "--in", str(tmp_path / "torus.json"), "--direction", "both",
                     "--report", str(tmp_path / "report.json")]) == 0
    assert (tmp_path / "report.json").read_text().count("\n") == 1


# ---------------------------------------------------------------------------
# files in the indented layout of earlier writers


def indented(path: Path) -> Path:
    """A copy of a written file, under the same name in the directory
    `indented` beside it, in the indented layout of earlier writers."""
    old = path.parent / "indented" / path.name
    old.parent.mkdir(exist_ok=True)
    old.write_text(json.dumps(json.loads(path.read_text()), indent=1) + "\n", encoding="utf-8")
    assert path.read_text().count("\n") == 1 and old.read_text().count("\n") > 10
    return old


def same_runs(commands, directories, capsys, monkeypatch):
    """Run each command (argv, file it writes or None) in each directory,
    with relative paths, and check that every directory gives the same exit
    codes, stdout and written bytes; return the exit codes."""
    outputs = []
    for directory in directories:
        monkeypatch.chdir(directory)
        outputs.append([])
        for argv, out in commands:
            capsys.readouterr()
            code = main(list(argv))
            outputs[-1].append((code, capsys.readouterr().out,
                                None if out is None else Path(out).read_bytes()))
    assert all(runs == outputs[0] for runs in outputs)
    return [code for code, _, _ in outputs[0]]


def explicit_reflection_doc() -> dict:
    net = L.make_reflection_example(1, seed=0, m=5, n_rows=4)
    doc, c = io_json.net_to_dict(net), net.complex
    doc["complex"] = {"n_vertices": c.n_vertices,
                      "edges": [[i, j, lab] for (i, j), lab in zip(c.edge_ends.tolist(),
                                                                   c.edge_labels.tolist())],
                      "faces": c.face_vertices.tolist()}
    return doc


def mixed_torus_doc() -> dict:
    """A 6 x 6 Dupin torus with every third vertex hexaspherical."""
    net = L.make_dupin_torus(2.0, 1.0, 6, 6)
    doc, hexa = io_json.net_to_dict(net), io_json.net_to_dict(net, form="hexaspherical")
    doc["vertices"][::3] = hexa["vertices"][::3]
    return doc


NET_DOCS = {
    "grid": lambda: io_json.net_to_dict(revolution_net(seed=1, n_profile=5, m=8)),
    "explicit": explicit_reflection_doc,
    "mixed": mixed_torus_doc,
}


@pytest.mark.parametrize("kind", sorted(NET_DOCS))
def test_indented_net_files_still_load(tmp_path, capsys, monkeypatch, kind):
    new = tmp_path / "net.json"
    io_json._dump(NET_DOCS[kind](), new)
    old = indented(new)
    nets = [io_json.load_net(p) for p in (new, old)]
    for name in ("edge_ends", "edge_labels", "face_vertices"):
        assert np.array_equal(getattr(nets[0].complex, name), getattr(nets[1].complex, name))
    assert same_bits(nets[0].bases, nets[1].bases)
    assert same_bits(nets[0].edge_spheres, nets[1].edge_spheres)
    codes = same_runs([(["verify", "--in", "net.json", "--direction", "both",
                         "--report", "verify.json"], "verify.json"),
                       (["classify", "--in", "net.json"], None),
                       (["curvature", "--in", "net.json", "--report", "curv.json"], "curv.json")],
                      (new.parent, old.parent), capsys, monkeypatch)
    assert codes[0] == 0 and codes[2] == 0


def test_indented_sphere_curve_files_still_load(tmp_path, capsys, monkeypatch):
    new = tmp_path / "spheres.json"
    io_json.save_sphere_curve(random_sphere_curve(np.random.default_rng(7), 5), new)
    old = indented(new)
    curves = [io_json.load_sphere_curve(p) for p in (new, old)]
    assert curves[0].closed == curves[1].closed
    assert same_bits(curves[0].vertex_spheres, curves[1].vertex_spheres)
    assert same_bits(curves[0].edge_spheres, curves[1].edge_spheres)
    assert same_runs([(["build", "--spheres", "spheres.json", "--samples", "9",
                        "--phase", "0.2", "--out", "built.json"], "built.json")],
                     (new.parent, old.parent), capsys, monkeypatch) == [0]


def test_indented_curve_files_still_load(tmp_path, capsys, monkeypatch):
    for name, x in (("c1.json", 0.0), ("c2.json", 1.5)):
        new = tmp_path / name
        io_json.save_curve(L.DiscreteCurve3D(points=np.array([[x, 0, k * 0.5] for k in range(5)])),
                           new)
        old = indented(new)
        curves = [io_json.load_curve(p) for p in (new, old)]
        assert curves[0].closed == curves[1].closed
        assert same_bits(curves[0].points, curves[1].points)
    assert same_runs([(["blend", "--c1", "c1.json", "--c2", "c2.json",
                        "--contact-point", "0", "0", "0", "--contact-normal", "-1", "0", "0",
                        "--t0", "0.3", "--samples", "8", "--out", "blend.json"], "blend.json")],
                     (new.parent, old.parent), capsys, monkeypatch) == [0]


# ---------------------------------------------------------------------------
# the stacked vertex reads against the per-vertex oracle

TORUS = L.make_dupin_torus(2.0, 1.0, 4, 4)
EUCLIDEAN = io_json.net_to_dict(TORUS, form="euclidean")
HEXASPHERICAL = io_json.net_to_dict(TORUS, form="hexaspherical")
CORRUPTIONS = ("boolean", "string", "nan", "length", "missing", "non-object", "contact shape")


def mixed_doc(hexa, integral) -> dict:
    """The 4 x 4 torus with the vertices of `hexa` hexaspherical; with
    `integral`, integral coordinates are written as JSON integers."""
    def number(x):
        return int(x) if integral and float(x).is_integer() else x

    vertices = [(HEXASPHERICAL if h else EUCLIDEAN)["vertices"][v] for v, h in enumerate(hexa)]
    doc = {**EUCLIDEAN, "vertices": copy.deepcopy(vertices)}
    for entry in doc["vertices"]:
        for key, value in entry.items():
            entry[key] = [[number(x) for x in row] for row in value] if key == "contact" \
                else [number(x) for x in value]
    return doc


def corrupt(draw, entry: dict, how: str):
    """The entry with one defect of the kind `how`."""
    key = "contact" if "contact" in entry else draw(st.sampled_from(["point", "normal"]))
    rows = entry[key] if key == "contact" else [entry[key]]
    r, i = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows[0]) - 1))
    if how in ("boolean", "string", "nan"):
        new = draw(st.booleans()) if how == "boolean" else \
            str(rows[r][i]) if how == "string" else \
            draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        rows[r][i] = new
        if how == "string" and draw(st.booleans()):
            entry[key] = "0.5"
    elif how == "length":
        if draw(st.booleans()):
            del rows[r][i]
        else:
            rows[r].append(0.5)
    elif how == "missing":
        del entry[key]
    elif how == "non-object":
        return draw(st.sampled_from([None, 5, True, "contact", "point", [],
                                     [0.0, 1.0, 2.0], ["contact"]]))
    else:
        contact = HEXASPHERICAL["vertices"][0]["contact"]
        return {"contact": draw(st.sampled_from([
            contact[:1], contact + contact[:1], contact[0] + contact[1],
            [list(col) for col in zip(*contact)], [contact], [row[:5] for row in contact]]))}
    return entry


@st.composite
def torus_docs(draw, corrupted: bool):
    doc = mixed_doc(draw(st.lists(st.booleans(), min_size=16, max_size=16)),
                    draw(st.booleans()))
    if corrupted:
        for v in draw(st.lists(st.integers(0, 15), min_size=1, max_size=2, unique=True)):
            doc["vertices"][v] = corrupt(draw, doc["vertices"][v],
                                         draw(st.sampled_from(CORRUPTIONS)))
    return doc


def load(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.json"
        path.write_text(json.dumps(doc), encoding="utf-8")  # writes NaN / Infinity literals
        return io_json.load_net(path)


@settings(max_examples=300, deadline=None)
@given(torus_docs(corrupted=True))
def test_corrupt_vertex_entries_raise_the_oracle_message(doc):
    with pytest.raises(io_json.FormatError) as expected:
        oracle.vertex_bases(doc["vertices"])
    assert str(expected.value).startswith("vertex ")
    with pytest.raises(io_json.FormatError) as err:
        load(doc)
    assert str(err.value) == str(expected.value)


@settings(max_examples=60, deadline=None)
@given(torus_docs(corrupted=False))
def test_mixed_nets_load_the_oracle_bases(doc):
    assert same_bits(load(doc).bases, oracle.vertex_bases(doc["vertices"]))


def test_element_isotropic_to_the_tolerance_is_written_to_read_back(tmp_path):
    # a normal 2e-9 off unit length spans an element isotropic to within
    # TOL.membership; its Euclidean form would fail the loader's unit test
    # (1e-9), so that vertex is written in the hexaspherical form
    torus = L.make_dupin_torus(2.0, 1.0, 4, 4)
    doc = io_json.net_to_dict(torus)
    points = np.array([v["point"] for v in doc["vertices"]])
    normals = np.array([v["normal"] for v in doc["vertices"]])
    normals[5] *= 1.0 + 2e-9
    net = L.LegendreNet(complex=torus.complex,
                        bases=L.contact_bases(L.legendre.point_normal_generators(points, normals)[0]))
    written = io_json.net_to_dict(net)
    assert [k for k, v in enumerate(written["vertices"]) if "contact" in v] == [5]
    io_json.save_net(net, tmp_path / "net.json")
    loaded = io_json.load_net(tmp_path / "net.json")
    assert L.liecore.subspace_distances(loaded.bases[5], net.bases[5]) <= 1e-15
    with pytest.raises(L.LieGeometryError, match="^vertex 5: normal must have unit length$"):
        io_json.net_to_dict(net, form="euclidean")
