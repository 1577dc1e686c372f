import json
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import liechannel as L
from liechannel import io_json
from liechannel.cli import main, random_generator_net
from liechannel.liecore import subspace_distance
from liechannel.builder import random_sphere_curve, sphere_curve_from_certificate

from geo_helpers import revolution_net, strip_family


class TestNetFiles:
    def test_roundtrip_euclidean(self, tmp_path):
        net = revolution_net(seed=1, n_profile=5, m=8)
        path = tmp_path / "net.json"
        io_json.save_net(net, path)
        loaded = io_json.load_net(path)
        for v in range(net.complex.n_vertices):
            assert subspace_distance(loaded.element(v).space,
                                     net.element(v).space) < 1e-12

    def test_roundtrip_hexaspherical(self, tmp_path):
        net = L.make_dupin_torus(2.0, 1.0, 8, 6)
        path = tmp_path / "net.json"
        io_json.save_net(net, path, form="hexaspherical")
        data = json.loads(path.read_text())
        assert all("contact" in v for v in data["vertices"])
        loaded = io_json.load_net(path)
        for v in range(net.complex.n_vertices):
            assert subspace_distance(loaded.element(v).space,
                                     net.element(v).space) < 1e-12

    def test_explicit_complex_roundtrip(self, tmp_path):
        net = L.make_reflection_example(1, seed=0, m=5, n_rows=4)
        doc = io_json.net_to_dict(net)
        c = net.complex
        doc["complex"] = {"n_vertices": c.n_vertices,
                          "edges": [[i, j, lab] for (i, j), lab in zip(c.edge_ends.tolist(),
                                                                       c.edge_labels.tolist())],
                          "faces": c.face_vertices.tolist()}
        path = tmp_path / "explicit.json"
        path.write_text(json.dumps(doc))
        loaded = io_json.load_net(path)
        assert loaded.complex.grid is None
        assert L.is_legendre(loaded).ok

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(io_json.FormatError):
            io_json.load_net(path)
        path.write_text(json.dumps({"format": "liechannel-net",
                                    "complex": {"n_plus": 3, "n_minus": 3},
                                    "vertices": []}))
        with pytest.raises(io_json.FormatError, match="vertex entries"):
            io_json.load_net(path)

    def test_non_legendre_data_rejected(self, tmp_path):
        rng = np.random.default_rng(5)
        net = revolution_net(seed=2, n_profile=4, m=6)
        doc = io_json.net_to_dict(net)
        doc["vertices"][3]["normal"] = list(
            np.array([0.3, 0.5, math.sqrt(1 - 0.34)]))
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(io_json.FormatError, match="Legendre"):
            io_json.load_net(path)


class TestSphereCurveFiles:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        sc = random_sphere_curve(rng, 5)
        path = tmp_path / "curve.json"
        io_json.save_sphere_curve(sc, path)
        loaded = io_json.load_sphere_curve(path)
        for a, b in zip(sc.vertex_spheres, loaded.vertex_spheres):
            assert min(np.linalg.norm(a - b), np.linalg.norm(a + b)) < 1e-12
        assert L.validate_sphere_curve(loaded).ok

    def test_plane_entries(self, tmp_path):
        # face-spheres of a cylinder are planes; they serialize as planes
        from geo_helpers import cylinder_net
        cert = L.full_certificate(cylinder_net(seed=4), "+")
        sc = sphere_curve_from_certificate(cert)
        path = tmp_path / "curve.json"
        io_json.save_sphere_curve(sc, path)
        data = json.loads(path.read_text())
        assert any("normal" in e for e in data["edge_spheres"])
        io_json.load_sphere_curve(path)


class TestCli:
    def test_generate_verify_classify_curvature_export(self, tmp_path):
        net = tmp_path / "torus.json"
        assert main(["generate", "dupin-torus", "--R", "2", "--r", "1",
                     "--m", "16", "--n", "16", "--out", str(net)]) == 0
        report = tmp_path / "report.json"
        assert main(["verify", "--in", str(net), "--direction", "both",
                     "--report", str(report)]) == 0
        rep = json.loads(report.read_text())
        assert rep["directions"]["+"]["channel"]
        assert rep["directions"]["-"]["channel"]
        assert rep["dupin_cyclide"] is True
        assert rep["circular_lines"] is True
        cert = rep["directions"]["+"]["certificate"]
        assert len(cert["circles"]) == 16
        assert all(c["kind"] == "circle" for c in cert["circles"])
        assert len(cert["face_spheres"]) == 15
        assert len(cert["enveloped_spheres"]) == 16
        assert main(["classify", "--in", str(net)]) == 0
        curv = tmp_path / "curv.json"
        assert main(["curvature", "--in", str(net), "--report", str(curv)]) == 0
        crep = json.loads(curv.read_text())
        assert crep["identity_max_residual"] < 1e-7
        assert len(crep["faces"]) == 16 * 15
        obj = tmp_path / "out.obj"
        assert main(["export", "--in", str(net), "--obj", str(obj)]) == 0
        text = obj.read_text().splitlines()
        vrecs = [l for l in text if l.startswith("v ")]
        assert len(vrecs) == 256
        assert sum(1 for l in text if l.startswith("f ")) == 240
        # v-records must be plain parseable floats
        for rec in vrecs[:5]:
            parts = rec.split()
            assert len(parts) == 4
            [float(x) for x in parts[1:]]

    def test_export_with_circles(self, tmp_path):
        net = tmp_path / "net.json"
        assert main(["generate", "dupin-torus", "--m", "8", "--n", "6",
                     "--out", str(net)]) == 0
        obj = tmp_path / "out.obj"
        assert main(["export", "--in", str(net), "--obj", str(obj),
                     "--circles"]) == 0
        text = obj.read_text()
        assert "o circle_0" in text
        assert "\nl " in text

    def test_example_exit_codes(self, tmp_path):
        for kind, expect in (("example1", 0), ("example2", 1), ("example3", 1)):
            net = tmp_path / f"{kind}.json"
            assert main(["generate", kind, "--seed", "3", "--out", str(net)]) == 0
            assert main(["verify", "--in", str(net), "--direction", "+"]) == expect

    def test_example2_report_envelopes(self, tmp_path):
        net = tmp_path / "ex2.json"
        report = tmp_path / "rep.json"
        main(["generate", "example2", "--seed", "1", "--out", str(net)])
        main(["verify", "--in", str(net), "--direction", "+",
              "--report", str(report)])
        rep = json.loads(report.read_text())
        entry = rep["directions"]["+"]
        assert entry["channel"] is False
        assert entry["envelopes"] is True
        assert entry["failed_check"] == "ribbon_span"
        assert rep["circular_lines"] is False

    def test_invalid_parameters_exit_2(self, tmp_path):
        out = tmp_path / "x.json"
        assert main(["generate", "revolution", "--m", "2", "--out", str(out)]) == 2
        assert main(["generate", "dupin-torus", "--R", "1", "--r", "2",
                     "--out", str(out)]) == 2

    def test_malformed_input_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["verify", "--in", str(bad)]) == 2
        assert main(["classify", "--in", str(bad)]) == 2
        assert main(["curvature", "--in", str(bad)]) == 2
        assert main(["export", "--in", str(bad), "--obj", str(tmp_path / "o.obj")]) == 2

    def test_build_pipeline(self, tmp_path):
        rng = np.random.default_rng(7)
        sc = random_sphere_curve(rng, 5)
        curve = tmp_path / "curve.json"
        io_json.save_sphere_curve(sc, curve)
        net = tmp_path / "built.json"
        assert main(["build", "--spheres", str(curve), "--samples", "9",
                     "--phase", "0.2", "--out", str(net)]) == 0
        assert main(["verify", "--in", str(net), "--direction", "+"]) == 0

    def test_blend_pipeline(self, tmp_path):
        c1 = L.DiscreteCurve3D(points=np.array([[0.0, 0, k * 0.5] for k in range(5)]))
        c2 = L.DiscreteCurve3D(points=np.array([[1.5, 0, k * 0.5] for k in range(5)]))
        p1, p2 = tmp_path / "c1.json", tmp_path / "c2.json"
        io_json.save_curve(c1, p1)
        io_json.save_curve(c2, p2)
        out = tmp_path / "blend.json"
        assert main(["blend", "--c1", str(p1), "--c2", str(p2),
                     "--contact-point", "0", "0", "0",
                     "--contact-normal", "-1", "0", "0",
                     "--t0", "0.3", "--samples", "8", "--out", str(out)]) == 0
        assert main(["verify", "--in", str(out), "--direction", "+"]) == 0

    def test_generated_generators_verify_and_classify(self, tmp_path):
        for kind in ("revolution", "cylinder", "cone"):
            net = tmp_path / f"{kind}.json"
            assert main(["generate", kind, "--m", "8", "--n", "8", "--seed", "5",
                         "--out", str(net)]) == 0
            assert main(["verify", "--in", str(net), "--direction", "+"]) == 0
            assert main(["classify", "--in", str(net)]) == 0

    def test_classify_too_few_face_spheres_exit_1(self, tmp_path, capsys):
        for args in (["revolution", "--n", "3"], ["cylinder", "--n", "3", "--m", "3"],
                     ["cone", "--n", "3", "--m", "3"]):
            net = tmp_path / f"{args[0]}.json"
            assert main(["generate", *args, "--out", str(net)]) == 0
            capsys.readouterr()
            assert main(["classify", "--in", str(net)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "face-spheres" in err

    def test_blend_degenerate_cyclide_member_exit_2(self, tmp_path, capsys):
        # round-trip blend through columns 7, 8 of a net built from a random
        # sphere curve: the face-cyclide member of step 5 has a 2-dimensional
        # D-, whose circle would be only a 2-space
        curve = tmp_path / "curve.json"
        io_json.save_sphere_curve(random_sphere_curve(np.random.default_rng(9), 12), curve)
        built = L.channel_from_sphere_curve(io_json.load_sphere_curve(curve), 16)
        net_path = tmp_path / "net.json"
        io_json.save_net(built.net, net_path)
        vdocs = json.loads(net_path.read_text())["vertices"]
        points = np.array([d["point"] for d in vdocs])
        c1 = L.DiscreteCurve3D(points=points[7::16])
        c2 = L.DiscreteCurve3D(points=points[8::16])
        p1, p2 = tmp_path / "c1.json", tmp_path / "c2.json"
        io_json.save_curve(c1, p1)
        io_json.save_curve(c2, p2)
        p0, n0 = vdocs[7]["point"], vdocs[7]["normal"]
        f0 = L.contact_from_point_normal(p0, np.asarray(n0) / np.linalg.norm(n0))
        # face-cyclide parameter of the source ribbon's cyclide
        ribbon = built.certificate.ribbon_lines.index((0, 1))
        t0 = strip_family(c1, c2, f0).parameter_of(built.certificate.cyclides[ribbon])
        capsys.readouterr()
        assert main(["blend", "--c1", str(p1), "--c2", str(p2),
                     "--contact-point", *map(repr, p0), "--contact-normal", *map(repr, n0),
                     "--t0", repr(t0), "--samples", "16",
                     "--out", str(tmp_path / "blend.json")]) == 2
        assert "degenerate face-cyclide member at step 5 " in capsys.readouterr().err


class TestHostileNetFiles:
    def test_oversized_grid_spec_refused_before_building(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"format": "liechannel-net", "version": 1,
                                    "complex": {"n_plus": 3000, "n_minus": 3000},
                                    "vertices": []}))
        start = time.perf_counter()
        for command in (["verify", "--in", str(path)], ["curvature", "--in", str(path)]):
            capsys.readouterr()
            assert main(command) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: expected 9000000 vertex entries")
            assert "Traceback" not in err
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("vertex, key, value", [
        (2, "point", [float("nan"), 0.0, 1.0]),
        (5, "normal", [float("inf"), 0.0, 0.0]),
        (3, "contact", [[float("nan")] * 6, [0.0] * 6]),
    ])
    def test_non_finite_coordinates_exit_2(self, tmp_path, capsys, vertex, key, value):
        doc = io_json.net_to_dict(revolution_net(seed=1, n_profile=4, m=5))
        doc["vertices"][vertex] = {**({} if key == "contact" else doc["vertices"][vertex]),
                                   key: value}
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))    # writes NaN / Infinity literals
        capsys.readouterr()
        assert main(["verify", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: vertex {vertex}: non-finite coordinate\n"

    def test_first_bad_vertex_is_reported(self, tmp_path, capsys):
        # one reader for every number: a non-finite vertex before a
        # mistyped one is the one reported
        doc = io_json.net_to_dict(revolution_net(seed=1, n_profile=4, m=5))
        doc["vertices"][2]["point"] = [float("nan"), 0.0, 1.0]
        doc["vertices"][5]["normal"] = [1.0, "0", 0.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--in", str(path)]) == 2
        assert capsys.readouterr().err == "error: vertex 2: non-finite coordinate\n"

    @pytest.mark.parametrize("form, key, value, message", [
        ("euclidean", "point", ["1.5", "0.0", "0.25"], "point must be 3 numbers"),
        ("euclidean", "normal", [True, False, False], "normal must be 3 numbers"),
        ("euclidean", "point", [1.5, 0.0, "0.25"], "point must be 3 numbers"),
        ("hexaspherical", "contact", [["1"] * 6, [0.0] * 6], "contact must be 2 x 6 numbers"),
        ("hexaspherical", "contact", [[True] * 6, [False] * 6], "contact must be 2 x 6 numbers"),
        # numpy reads a boolean among numbers as 0 or 1
        ("euclidean", "normal", [0.9999999999999994, False, False], "normal must be 3 numbers"),
        ("hexaspherical", "contact", [[0.5] * 6, [0.0] * 5 + [True]],
         "contact must be 2 x 6 numbers"),
    ])
    def test_non_numeric_coordinates_exit_2(self, tmp_path, capsys, form, key, value, message):
        # JSON strings and booleans used to load as numbers, and verify exited 0
        doc = io_json.net_to_dict(L.make_dupin_torus(2.0, 1.0, 4, 4), form=form)
        doc["vertices"][0][key] = value
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--in", str(path), "--direction", "+"]) == 2
        assert capsys.readouterr().err == f"error: vertex 0: {message}\n"


def _explicit_net(n, edges, faces, n_vertices=None):
    square = [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
    return {"format": "liechannel-net", "version": 1,
            "complex": {"n_vertices": n if n_vertices is None else n_vertices,
                        "edges": edges, "faces": faces},
            "vertices": [{"point": p, "normal": [0.0, 0.0, 1.0]} for p in square[:n]]}


_FACE_EDGES = [[1, 2, "+"], [2, 3, "-"], [3, 0, "+"]]


def _verify_peak(tmp_path, doc):
    """Exit code and traced peak allocation of `verify` on a net file."""
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        code = main(["verify", "--in", str(path)])
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _torus_grid(**spec):
    """A 4^2 torus file whose grid spec has the given entries."""
    doc = io_json.net_to_dict(L.make_dupin_torus(2.0, 1.0, 4, 4))
    doc["complex"].update(spec)
    return doc


class TestMalformedComplexes:
    """Explicit complexes without faces, with unknown labels or with faces
    against the label convention are refused when the net is loaded."""

    @pytest.mark.parametrize("doc, message", [
        (_explicit_net(0, [], []), "no faces"),
        (_explicit_net(2, [[0, 1, "+"]], []), "no faces"),
        (_explicit_net(4, [[0, 1, "x"], [1, 2, "+"], [2, 3, "-"], [3, 0, "+"]], [[0, 1, 2, 3]]),
         "edge label 'x' is not '+' or '-'"),
        (_explicit_net(4, [[0, 1, "+"], [1, 2, "-"], [2, 3, "+"], [3, 0, "-"]], [[0, 1, 2, 3]]),
         "faces with inconsistent edge labels: [0]"),
        (_explicit_net(4, [[0, 1, "-"], [1, 2, "+"], [2, 3, "-"], [3, 0, "+"], [1, 0, "-"]],
                       [[0, 1, 2, 3]]), "edge [0, 1] listed more than once"),
        (_explicit_net(4, [[0, 1, "-"], [1, 2, "+"], [2, 3, "-"], [3, 0, "+"]] * 2,
                       [[0, 1, 2, 3]] * 4), "edge [0, 1] listed more than once"),
        # counts and vertex indices are JSON integers, checked against the count
        (_explicit_net(4, [[0.5, 1, "-"], *_FACE_EDGES], [[0, 1, 2, 3]]),
         "edge vertices must be integers"),
        (_explicit_net(4, [["0", 1, "-"], *_FACE_EDGES], [[0, 1, 2, 3]]),
         "edge vertices must be integers"),
        (_explicit_net(4, [[True, 0, "-"], *_FACE_EDGES], [[0, 1, 2, 3]]),
         "edge vertices must be integers"),
        (_explicit_net(4, [[0, 10**30, "-"], *_FACE_EDGES], [[0, 1, 2, 3]]),
         "edge vertices must be integers"),
        (_explicit_net(4, [[0, 1, "-"], *_FACE_EDGES], [[0, 1, 2, 3.0]]),
         "faces must be lists of 4 integers"),
        (_explicit_net(4, [[0, 1, "-"], *_FACE_EDGES], [[0, 1, 2]]),
         "faces must be lists of 4 integers"),
        (_explicit_net(4, [[0, 1], *_FACE_EDGES], [[0, 1, 2, 3]]),
         "not enough values to unpack (expected 3, got 2)"),
        # a face edge that is no edge, also when there is none
        (_explicit_net(4, _FACE_EDGES, [[0, 1, 2, 3]]), "(0, 1)"),
        (_explicit_net(4, [], [[0, 1, 2, 3]]), "(0, 1)"),
        (_explicit_net(4, [[0, 1, "-"], *_FACE_EDGES], [[0, 1, 2, 3]], n_vertices=4.0),
         "n_vertices must be an integer"),
        (_explicit_net(4, [[0, 10**12, "-"], *_FACE_EDGES], [[0, 1, 2, 3]]),
         "edge 0: vertex 1000000000000 is not in [0, 4)"),
        (_explicit_net(4, [[-1, 1, "-"], *_FACE_EDGES], [[0, 1, 2, 3]]),
         "edge 0: vertex -1 is not in [0, 4)"),
        (_explicit_net(4, [[0, 1, "-"], *_FACE_EDGES], [[0, 1, 2, 3], [0, 1, 2, 9]]),
         "face 1: vertex 9 is not in [0, 4)"),
        (_torus_grid(wrap_plus="no"), "wrap_plus must be true or false"),
        (_torus_grid(wrap_plus=1), "wrap_plus must be true or false"),
        (_torus_grid(n_plus="4"), "n_plus must be an integer"),
        (_torus_grid(n_minus=4.9), "n_minus must be an integer"),
        (_torus_grid(n_minus=True), "n_minus must be an integer"),
    ])
    def test_refused_with_exit_2(self, tmp_path, capsys, doc, message):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        spec = "complex" if "n_vertices" in doc["complex"] else "grid"
        for command in (["verify", "--in", str(path)], ["classify", "--in", str(path)],
                        ["curvature", "--in", str(path)],
                        ["export", "--in", str(path), "--obj", str(tmp_path / "n.obj"),
                         "--circles"]):
            capsys.readouterr()
            assert main(command) == 2
            assert capsys.readouterr().err == f"error: bad {spec} spec: {message}\n"

    def test_far_vertex_index_is_refused_before_anything_is_sized(self, tmp_path):
        # an index is checked against the vertex count before an array is
        # sized from it: loading the file allocates as little as a valid one
        valid = _verify_peak(tmp_path, _explicit_net(4, [[0, 1, "-"], *_FACE_EDGES],
                                                     [[0, 1, 2, 3]]))
        far = _verify_peak(tmp_path, _explicit_net(4, [[0, 10**7, "-"], *_FACE_EDGES],
                                                   [[0, 1, 2, 3]]))
        assert far[0] == 2 and far[1] < valid[1] + 2**20

    def test_long_label_is_refused_before_anything_is_sized(self, tmp_path, capsys):
        # a label array as wide as one 100,000-character label would take
        # 40 MB for these 100 edges; the refused label is not stored
        valid = _verify_peak(tmp_path, _explicit_net(4, [[0, 1, "-"], *_FACE_EDGES],
                                                     [[0, 1, 2, 3]]))
        edges = [[0, 1, "-"], *_FACE_EDGES] * 25
        edges[-1] = [3, 0, "x" * 10**5]
        capsys.readouterr()
        long = _verify_peak(tmp_path, _explicit_net(4, edges, [[0, 1, 2, 3]]))
        assert long[0] == 2 and long[1] < valid[1] + 2**20
        assert capsys.readouterr().err.startswith("error: bad complex spec: edge label 'xxx")

    def test_repeated_faces_with_single_edges_load_and_verify(self, tmp_path, capsys):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(_explicit_net(
            4, [[0, 1, "-"], [1, 2, "+"], [2, 3, "-"], [3, 0, "+"]], [[0, 1, 2, 3]] * 4)))
        assert io_json.load_net(path).complex.face_vertices.tolist() == [[0, 1, 2, 3]] * 4
        assert main(["verify", "--in", str(path), "--direction", "both"]) in (0, 1)
        assert "Traceback" not in capsys.readouterr().err

    def test_well_labelled_face_loads(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(_explicit_net(
            4, [[0, 1, "-"], [1, 2, "+"], [2, 3, "-"], [3, 0, "+"]], [[0, 1, 2, 3]])))
        assert io_json.load_net(path).complex.face_vertices.tolist() == [[0, 1, 2, 3]]


def test_unwritable_output_exits_2(tmp_path, capsys):
    net = tmp_path / "torus.json"
    assert main(["generate", "dupin-torus", "--m", "4", "--n", "4", "--out", str(net)]) == 0
    missing = tmp_path / "no-such-dir"
    for command in (["generate", "dupin-torus", "--out", str(missing / "t.json")],
                    ["verify", "--in", str(net), "--report", str(missing / "r.json")],
                    ["curvature", "--in", str(net), "--report", str(missing / "c.json")],
                    ["export", "--in", str(net), "--obj", str(missing / "t.obj")]):
        capsys.readouterr()
        assert main(command) == 2
        assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")


class TestUnderdeterminedRibbons:
    def test_verify_revolution_two_rows_reports_underdetermined(self, tmp_path, capsys):
        # every '-' ribbon is a single face; the family members picked per
        # ribbon disagree on the shared generating circles
        net = tmp_path / "rev.json"
        assert main(["generate", "revolution", "--n", "2", "--m", "3", "--out", str(net)]) == 0
        for direction, code in (("-", 1), ("both", 0)):
            report = tmp_path / f"rep{direction}.json"
            capsys.readouterr()
            assert main(["verify", "--in", str(net), "--direction", direction,
                         "--report", str(report)]) == code
            assert "underdetermined" in capsys.readouterr().out
            entry = json.loads(report.read_text())["directions"]["-"]
            assert entry["channel"] is False
            assert entry["failed_check"] == "underdetermined"
            assert "generating circles of line 0 disagree" in entry["message"]

    @pytest.fixture
    def swapped_net(self, tmp_path):
        # the same net with labels swapped: its '+' ribbons are single faces
        # whose certificate cannot be completed, its '-' certificate completes
        net = random_generator_net("revolution", 0, 2, 3)
        path = tmp_path / "swapped.json"
        io_json.save_net(L.LegendreNet(complex=L.swapped_labels(net.complex),
                                       bases=net.bases), path)
        return path

    def test_classify_falls_back_to_the_completed_direction(self, swapped_net, capsys):
        capsys.readouterr()
        assert main(["classify", "--in", str(swapped_net)]) == 1
        assert capsys.readouterr().err == \
            "error: insufficient data: need at least 3 face-spheres\n"

    def test_export_circles_of_the_completed_direction(self, swapped_net, tmp_path, capsys):
        obj = tmp_path / "swapped.obj"
        assert main(["export", "--in", str(swapped_net), "--obj", str(obj), "--circles"]) == 0
        assert obj.read_text().count("\no circle_") == 2
        assert capsys.readouterr().err == ""

    def test_first_full_certificate(self, swapped_net):
        cert = L.first_full_certificate(io_json.load_net(swapped_net))
        assert cert.ok and cert.direction == "-" and len(cert.circles) == 2
        res = L.first_full_certificate(L.make_reflection_example(2, seed=0))
        assert not res.ok and res.direction == "-"


def _sphere_curve_doc(tmp_path):
    path = tmp_path / "spheres.json"
    io_json.save_sphere_curve(random_sphere_curve(np.random.default_rng(7), 5), path)
    return json.loads(path.read_text())


def _curve_doc():
    return {"format": "liechannel-curve", "version": 1, "closed": False,
            "points": [[0.0, 0.0, 0.5 * k] for k in range(5)]}


class TestHostileBuildAndBlendFiles:
    """Malformed sphere-curve and curve files exit 2 with a message."""

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(vertex_spheres=5), "vertex_spheres must be a list"),
        (lambda d: d.update(edge_spheres={"a": 1}), "edge_spheres must be a list"),
        (lambda d: d["vertex_spheres"][1].update(center=[1]), "center must be 3 numbers"),
        (lambda d: d["vertex_spheres"][1].update(center=[[1]]), "center must be 3 numbers"),
        (lambda d: d["edge_spheres"][0].update(center=["1", 0, 0]), "center must be 3 numbers"),
        (lambda d: d["vertex_spheres"].__setitem__(0, 3), "expected a JSON object"),
        (lambda d: d["vertex_spheres"][2].update(radius=float("nan")), "non-finite coordinate"),
        (lambda d: d["vertex_spheres"][2].update(radius=True), "radius must be a number"),
        # numpy reads a boolean among numbers as 0 or 1
        (lambda d: d["vertex_spheres"][1].update(center=[0.5, False, 0.0]),
         "center must be 3 numbers"),
        (lambda d: d["edge_spheres"][0].update(center=[1, True, 0]), "center must be 3 numbers"),
        (lambda d: d["edge_spheres"][1].update(center=[0, float("inf"), 0]),
         "non-finite coordinate"),
        (lambda d: d["edge_spheres"][1].update(center=[1e200, 0, 0]), "non-finite coordinate"),
        (lambda d: d["edge_spheres"].__setitem__(0, {"normal": [float("inf"), 0, 0], "offset": 0}),
         "non-finite coordinate"),
        # finite lifts whose products in the curve check overflow
        (lambda d: d["vertex_spheres"][0].update(center=[3.4e77, 0, 0]),
         "input values out of numerical range"),
    ])
    def test_sphere_curve_refused(self, tmp_path, capsys, edit, message):
        doc = _sphere_curve_doc(tmp_path)
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["build", "--spheres", str(path), "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_overflowing_sphere_curve_prints_no_warning(self, tmp_path, capsys):
        doc = _sphere_curve_doc(tmp_path)
        doc["vertex_spheres"][0].update(center=[3.4e77, 0, 0])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would escape main
            assert main(["build", "--spheres", str(path), "--out", str(tmp_path / "o.json")]) == 2
        assert capsys.readouterr().err == \
            "error: sphere curve: input values out of numerical range\n"

    def test_numpy_warnings_stay_off_stderr(self, tmp_path, capsys, monkeypatch):
        def overflowing(*_args):
            np.float64(1e300) * np.float64(1e300)
            raise L.LieGeometryError("refused")

        monkeypatch.setattr(L.builder, "channel_from_sphere_curve", overflowing)
        path = tmp_path / "spheres.json"
        path.write_text(json.dumps(_sphere_curve_doc(tmp_path)))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["build", "--spheres", str(path), "--out", str(tmp_path / "o.json")]) == 2
        assert capsys.readouterr().err == "error: refused\n"

    @pytest.mark.parametrize("points, message", [
        ({"a": 1}, "points must be a list of 3-number lists"),
        ([[0, 0], [1, 0]], "points must be a list of 3-number lists"),
        ([[0, 0, 0], [1, 0]], "points must be a list of 3-number lists"),
        ([[0, 0, float("nan")], [1, 0, 0]], "non-finite coordinate"),
        ([[0, 0, 0], [1, 0, float("-inf")]], "non-finite coordinate"),
        ([[0, 0, 0], [1e200, 0, 0]], "non-finite coordinate"),
        ([[0.0, 0.0, 0.0], [1.0, False, 0.0]], "points must be a list of 3-number lists"),
        ([[0, 0, True], [1, 0, 0]], "points must be a list of 3-number lists"),
    ])
    def test_curve_refused(self, tmp_path, capsys, points, message):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps(_curve_doc()))
        bad.write_text(json.dumps(dict(_curve_doc(), points=points)))
        for c1, c2 in ((bad, good), (good, bad)):
            capsys.readouterr()
            assert main(["blend", "--c1", str(c1), "--c2", str(c2),
                         "--contact-point", "0", "0", "0", "--contact-normal", "-1", "0", "0",
                         "--out", str(tmp_path / "o.json")]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
