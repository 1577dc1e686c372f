import json
import math
import time

import numpy as np
import pytest

import liechannel as L
from liechannel import io_json
from liechannel.cli import main
from liechannel.liecore import subspace_distance
from liechannel.builder import (
    random_sphere_curve, sphere_curve_from_certificate, _extend_element,
)
from liechannel.legendre import FaceCyclideFamily, curvature_sphere
from liechannel.liecore import orthocomplement, oriented_representative, span

from geo_helpers import revolution_net


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
                          "edges": [[i, j, lab] for i, j, lab in c.edges],
                          "faces": [list(f) for f in c.faces]}
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

    def test_blend_degenerate_next_circle_exit_2(self, tmp_path, capsys):
        # round-trip blend through columns 7, 8 of a net built from a random
        # sphere curve: the circle of one propagation step is only a 2-space
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
        f11, s1 = _extend_element(f0, L.lift_point(c1.points[1]))
        f20, _ = _extend_element(f0, L.lift_point(c2.points[0]))
        f21, s2 = _extend_element(f20, L.lift_point(c2.points[1]))
        u = span([oriented_representative(curvature_sphere(f0, f20)),
                  oriented_representative(curvature_sphere(f11, f21))])
        v = span([s1, s2])
        w = orthocomplement(span(list(u.basis) + list(v.basis)))
        eig, vecs = np.linalg.eigh(w.restricted_gram())
        fam = FaceCyclideFamily(u=u, v=v,
                                w1=w.basis.T @ vecs[:, 0] / math.sqrt(eig[0]),
                                w2=w.basis.T @ vecs[:, 1] / math.sqrt(eig[1]))
        ribbon = built.certificate.ribbon_lines.index((0, 1))
        t0 = fam.parameter_of(built.certificate.cyclides[ribbon])
        capsys.readouterr()
        assert main(["blend", "--c1", str(p1), "--c2", str(p2),
                     "--contact-point", *map(repr, p0), "--contact-normal", *map(repr, n0),
                     "--t0", repr(t0), "--samples", "16",
                     "--out", str(tmp_path / "blend.json")]) == 2
        assert "degenerates" in capsys.readouterr().err


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
