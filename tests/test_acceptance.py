"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines, or via
``scripts/run_acceptance.py`` outside pytest.
"""

import json
import math

import numpy as np
import pytest

import liechannel as L
from liechannel.cli import main, random_generator_net
from liechannel.liecore import subspace_distance
from liechannel.builder import random_sphere_curve, sphere_curve_from_certificate
from liechannel.channel import certificate_residuals
from liechannel.curvature import (
    curvature_report, kappa_line_spread, is_isothermic_5point,
    diagonal_concircular, vessiot_classify, ribbon_cmc_analysis,
)
from liechannel.liecore import span, orthocomplement

from geo_helpers import strip_family


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n:2d} PASS: {text}")


def test_01_lift_contact_identity():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 1000:
        c1, c2 = rng.uniform(-3, 3, 3), rng.uniform(-3, 3, 3)
        r1, r2 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        if min(abs(r1), abs(r2)) < 1e-3:
            continue
        d = c1 - c2
        lhs, rhs = float(d @ d), (r1 - r2) ** 2
        gap = abs(lhs - rhs) / max(1.0, lhs, rhs)
        got = L.in_oriented_contact(L.lift_sphere(c1, r1), L.lift_sphere(c2, r2))
        if gap <= 1e-9:
            assert got
        elif gap > 1e-7:
            assert not got
        checked += 1
    # exact tangent pairs must always pass
    for _ in range(200):
        c1 = rng.uniform(-3, 3, 3)
        r1 = rng.uniform(0.2, 2)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        r2 = rng.uniform(-2, -0.2)
        c2 = c1 + (r1 - r2) * u
        assert L.in_oriented_contact(L.lift_sphere(c1, r1), L.lift_sphere(c2, r2))
    report(1, "oriented contact iff |dc|^2 = (dr)^2 on 1200 random pairs")


def test_02_dupin_cyclide():
    net = L.make_dupin_torus(2.0, 1.0, 16, 16)
    cert_p = L.verify_channel(net, "+")
    cert_m = L.verify_channel(net, "-")
    assert cert_p.ok and cert_m.ok
    ok, cy, _ = L.is_dupin_cyclide(net)
    assert ok
    spread = max(subspace_distance(cy.dminus, other.dminus)
                 for other in cert_p.cyclides)
    assert spread <= 1e-8
    spread_m = max(subspace_distance(cy.dplus, other.dminus)
                   for other in cert_m.cyclides)
    assert spread_m <= 1e-8
    for i, j, lab in net.complex.edges:
        s = net.edge_sphere(i, j)
        target = cy.dplus if lab == "+" else cy.dminus
        assert target.residual(s) <= 1e-8
    assert L.signature(cy.dplus).triple == (2, 1, 0)
    assert L.signature(cy.dminus).triple == (2, 1, 0)
    report(2, "16x16 torus is channel both ways with one constant Lie cyclide")


def test_03_channel_certificate_suite():
    worst_env, worst_agree = 0.0, 0.0
    for kind in ("revolution", "cylinder", "cone"):
        for seed in (11, 12, 13):
            net = random_generator_net(kind, seed, 8, 8)
            cert = L.full_certificate(net, "+")
            assert cert.ok, f"{kind} seed {seed}"
            res = certificate_residuals(cert, net)
            worst_env = max(worst_env, res["enveloping"])
            worst_agree = max(worst_agree, cert.circle_agreement)
    assert worst_env <= 1e-8
    assert worst_agree <= 1e-8
    report(3, f"generators certify (enveloping {worst_env:.1e}, "
              f"circle agreement {worst_agree:.1e})")


def test_04_counterexamples():
    for seed in (1, 2):
        r3 = L.verify_channel(L.make_reflection_example(3, seed), "+")
        assert not r3.ok and r3.check == "constancy"

        net2 = L.make_reflection_example(2, seed)
        r2 = L.verify_channel(net2, "+")
        # spheres are enveloped (constancy holds along every line) ...
        assert r2.envelopes
        # ... but no Lie cyclide congruence exists, and the curvature
        # lines are indeed non-circular
        assert not r2.ok and r2.check == "ribbon_span"
        pts = net2.vertex_points()
        from liechannel.cellcomplex import plus_lines
        line = plus_lines(net2.complex)[0]
        assert not L.points_concircular([pts[v] for v in line[:4]])
        dc = diagonal_concircular(pts, net2.complex)
        assert not all(dc.values())

        net1 = L.make_reflection_example(1, seed)
        assert L.verify_channel(net1, "+").ok
    report(4, "example3 fails constancy; example2 envelopes spheres but has "
              "no circular lines (fails ribbon span and diagonal circularity)")


def test_05_cross_ratio_constancy():
    worst = 0.0
    nets = [random_generator_net(k, 21, 8, 8)
            for k in ("revolution", "cylinder", "cone")]
    nets.append(L.make_dupin_torus(2.0, 1.0, 12, 10))
    rng = np.random.default_rng(5)
    nets.append(L.channel_from_sphere_curve(random_sphere_curve(rng, 6), 9).net)
    for net in nets:
        cert = L.full_certificate(net, "+")
        assert cert.ok
        worst = max(worst, L.cross_ratio_constancy(cert, net))
    assert worst <= 1e-8
    report(5, f"cross-ratio spread over consecutive line quadruples {worst:.1e}")


def test_06_sphere_curve_roundtrip():
    net = random_generator_net("revolution", 31, 7, 10)
    cert = L.full_certificate(net, "+")
    sc = sphere_curve_from_certificate(cert)
    assert L.validate_sphere_curve(sc).ok
    res = L.channel_from_sphere_curve(sc, samples_per_circle=10)
    assert res.certificate.ok
    assert res.discriminant_max <= 1e-7
    worst_cy = max(subspace_distance(a.dminus, b.dminus)
                   for a, b in zip(cert.cyclides, res.certificate.cyclides))
    worst_fs = max(min(np.linalg.norm(a - b), np.linalg.norm(a + b))
                   for a, b in zip(cert.face_spheres, res.certificate.face_spheres))
    assert worst_cy <= 1e-7
    assert worst_fs <= 1e-7
    report(6, f"rebuild matches (cyclides {worst_cy:.1e}, face-spheres "
              f"{worst_fs:.1e}, discriminant {res.discriminant_max:.1e})")


def test_07_blend_freedom():
    torus = L.make_dupin_torus(2.0, 1.0, 12, 8)
    pts = torus.vertex_points()
    c1 = L.DiscreteCurve3D(points=np.array([pts[b * 12 + 0] for b in range(8)]))
    c2 = L.DiscreteCurve3D(points=np.array([pts[b * 12 + 1] for b in range(8)]))
    assert L.is_ribaucour_pair(c1, c2)
    rng = np.random.default_rng(7)
    distinct = []
    for _ in range(5):
        nvec = rng.normal(size=3)
        nvec /= np.linalg.norm(nvec)
        f0 = L.contact_from_point_normal(c1.points[0], nvec)
        t0 = rng.uniform(-1.3, 1.3)
        res = L.blend_channel(c1, c2, f0, t0=t0, samples_per_circle=8)
        assert res.certificate.ok
        # the curves are columns of the built net (checked on construction);
        # assert again from the vertex data
        got = res.net.vertex_points()
        for t in range(8):
            assert np.linalg.norm(got[t * 8] - c1.points[t]) < 1e-7
        distinct.append(res.certificate.circles[3].dplus)
    for i in range(len(distinct)):
        for j in range(i + 1, len(distinct)):
            assert subspace_distance(distinct[i], distinct[j]) > 1e-8

    # two parallel lines: a cylinder member and a non-cylindrical member
    h, n, dist = 0.6, 6, 2.0
    p1 = L.DiscreteCurve3D(points=np.array([[0.0, 0, k * h] for k in range(n)]))
    p2 = L.DiscreteCurve3D(points=np.array([[dist, 0, k * h] for k in range(n)]))
    f0 = L.contact_from_point_normal([0, 0, 0], [-1.0, 0, 0])
    mid = np.array([dist / 2, 0, 0])
    planes = []
    for th in (0.0, 1.2, 2.3):
        nu = np.array([math.cos(th), math.sin(th), 0.0])
        planes.append(L.lift_plane(nu, float(nu @ (mid + (dist / 2) * nu))))
    dminus_cyl = span(planes)
    cyl = L.DupinCyclide(dplus=orthocomplement(dminus_cyl), dminus=dminus_cyl)
    fam = strip_family(p1, p2, f0)
    t_cyl = fam.parameter_of(cyl)
    res_cyl = L.blend_channel(p1, p2, f0, t0=t_cyl, samples_per_circle=8)
    radii = [L.circle_euclidean(c.dplus)[1] for c in res_cyl.certificate.circles]
    assert np.allclose(radii, radii[0], atol=1e-8)
    ok_cyl, _, _ = L.is_dupin_cyclide(res_cyl.net)
    assert ok_cyl
    res_tor = L.blend_channel(p1, p2, f0, t0=t_cyl + 0.8, samples_per_circle=8)
    ok_tor, _, _ = L.is_dupin_cyclide(res_tor.net)
    assert not ok_tor
    assert vessiot_classify(res_tor.certificate).kind == "none"
    report(7, "5 random blends through a torus curve pair; parallel lines give "
              "a cylindrical and a non-cylindrical surface")


def test_08_vessiot():
    for kind in ("revolution", "cylinder", "cone"):
        for seed in range(20):
            net = random_generator_net(kind, 100 + seed, 8, 8)
            cert = L.full_certificate(net, "+")
            assert cert.ok
            assert vessiot_classify(cert).kind == kind, f"{kind} seed {seed}"
            iso = is_isothermic_5point(net.vertex_points(), net.complex)
            assert iso.any_applicable() and iso.all_pass(), f"{kind} seed {seed}"
            if seed < 3:
                assert L.is_multi_circular_net(net)
    rng = np.random.default_rng(88)
    generic = L.channel_from_sphere_curve(random_sphere_curve(rng, 6), 8).net
    iso = is_isothermic_5point(generic.vertex_points(), generic.complex)
    assert iso.any_applicable() and not iso.all_pass()
    assert not L.is_multi_circular_net(generic)
    report(8, "60/60 generator instances classified correctly and isothermic; "
              "generic channel net fails both isothermic and multi-circular")


def test_09_curvature():
    net_c = random_generator_net("cylinder", 41, 8, 8)
    rep_c = curvature_report(net_c)
    assert max(abs(k) for k in rep_c.gauss) <= 1e-8
    for net in (net_c, random_generator_net("revolution", 42, 8, 8),
                L.make_dupin_torus(2.0, 1.0, 12, 12)):
        rep = curvature_report(net)
        assert rep.identity_max <= 1e-7
        assert kappa_line_spread(net, rep, "+") <= 1e-9
    net_r = random_generator_net("revolution", 43, 8, 8)
    cert_r = L.full_certificate(net_r, "+")
    rep_r = curvature_report(net_r)
    rows = ribbon_cmc_analysis(net_r, cert_r, rep_r)
    for row in rows:
        assert row.coinciding == len(row.kappa_minus)
        assert row.torus_type
        assert max(map(abs, row.residuals), default=0.0) <= 1e-8
    report(9, "cylinder flat, face identity and circular-line constancy hold, "
              "revolution ribbons have all equal '-' curvatures")


def test_10_cli_end_to_end(tmp_path):
    net = tmp_path / "torus.json"
    assert main(["generate", "dupin-torus", "--R", "2", "--r", "1",
                 "--m", "16", "--n", "16", "--out", str(net)]) == 0
    rep_path = tmp_path / "verify.json"
    assert main(["verify", "--in", str(net), "--direction", "both",
                 "--report", str(rep_path)]) == 0
    rep = json.loads(rep_path.read_text())
    for key in ("format", "legendre", "directions", "circular_lines",
                "multi_circular_net", "isothermic", "dupin_cyclide"):
        assert key in rep
    assert rep["format"] == "liechannel-verify-report"
    assert main(["classify", "--in", str(net)]) == 0
    curv_path = tmp_path / "curv.json"
    assert main(["curvature", "--in", str(net), "--report", str(curv_path)]) == 0
    crep = json.loads(curv_path.read_text())
    assert {"format", "faces", "edges", "identity_max_residual"} <= set(crep)
    obj = tmp_path / "torus.obj"
    assert main(["export", "--in", str(net), "--obj", str(obj)]) == 0
    lines = obj.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 256
    assert main(["generate", "example3", "--out", str(tmp_path / "e3.json")]) == 0
    assert main(["verify", "--in", str(tmp_path / "e3.json"),
                 "--direction", "+"]) == 1
    assert main(["generate", "revolution", "--m", "2",
                 "--out", str(tmp_path / "bad.json")]) == 2
    report(10, "generate/verify/classify/curvature/export pipeline: exit codes, "
               "schema keys and OBJ vertex count as specified")
