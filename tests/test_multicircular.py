"""The concurrent-lines multi-circularity tests return exactly the verdicts
of the brute-force per-quadrilateral definition."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import liechannel as L
from liechannel import channel, io_json
from liechannel.builder import random_sphere_curve
from liechannel.cellcomplex import face_edge_labels
from liechannel.cli import main, random_generator_net
from liechannel.legendre import LegendreNet, contact_from_point_normal

from complex_oracle import quad_complex
from multicircular_oracle import brute_is_multi_circular, brute_is_multi_circular_net

SETTINGS = settings(max_examples=12, deadline=None)

seeds = st.integers(0, 2**32 - 1)


def verdicts(net, tol=None):
    return (L.is_multi_circular_net(net, tol),
            L.is_multi_circular(net, "+", tol), L.is_multi_circular(net, "-", tol))


def split_verdicts(net, tol=None):
    """`verdicts` with the pairs of `is_multi_circular_net` split into
    batches of one or two pairs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(channel, "_BATCH", 5)
        return verdicts(net, tol)


def oracle(net, tol=None):
    return (brute_is_multi_circular_net(net, tol),
            brute_is_multi_circular(net, "+", tol), brute_is_multi_circular(net, "-", tol))


def torus(n, big, ratio):
    return L.make_dupin_torus(big, big * ratio, n, n)


def torus_rows(m, n):
    """A Dupin torus of m x (n - 1) faces: its '+'-lines close, its '-'-lines do not."""
    return L.make_dupin_torus(2.0, 0.8, m, n)


def cut_faces(net):
    """The faces of a net as separate quadrilaterals, each with its own four
    vertices and their contact elements."""
    faces = net.complex.face_vertices
    edges = tuple((4 * f + a, 4 * f + b, lab) for f in range(len(faces))
                  for a, b, lab in face_edge_labels(range(4)))
    c = quad_complex(faces.size, edges, np.arange(faces.size).reshape(-1, 4))
    return LegendreNet(complex=c, bases=net.bases[faces.ravel()])


def moved(net, v, delta, rng):
    """The net with vertex v moved by delta in a random direction."""
    d = rng.normal(size=3)
    bases = net.bases.copy()
    bases[v] = contact_from_point_normal(net.vertex_points([v])[0] + delta * d / np.linalg.norm(d),
                                         (0.0, 0.0, 1.0)).basis
    return LegendreNet(complex=net.complex, bases=bases)


@SETTINGS
@given(n=st.integers(3, 16), big=st.floats(1.5, 3.0), ratio=st.floats(0.2, 0.7))
def test_tori(n, big, ratio):
    net = torus(n, big, ratio)
    assert verdicts(net) == split_verdicts(net) == oracle(net) == (True, True, True)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cut_tori(n):
    # n x (n - 1) separate faces: every quadrilateral of the net is one face
    net = cut_faces(torus_rows(n, n))
    assert verdicts(net) == split_verdicts(net) == oracle(net) == (True, True, True)
    moved_net = moved(net, 5, 1e-3, np.random.default_rng(n))
    assert verdicts(moved_net) == split_verdicts(moved_net) == oracle(moved_net)
    assert verdicts(moved_net)[0] is False


def test_cut_torus_forms_one_pair_per_face(monkeypatch):
    # only '+'-lines that share a '-'-line are paired: on 256 separate faces
    # the two '+'-lines of each face, not all 130,816 pairs of 512 lines
    net = cut_faces(torus_rows(16, 17))
    shapes = []

    def counted(lifts, groups, t):
        groups = list(groups)
        shapes.extend(xs.shape for _ids, xs, _ys in groups)
        return all_circular(lifts, groups, t)

    all_circular = channel._all_circular
    monkeypatch.setattr(channel, "_all_circular", counted)
    assert L.is_multi_circular_net(net)
    assert sum(k for k, _n in shapes) == 256 and {n for _k, n in shapes} == {2}


def test_cut_torus_verifies_through_the_cli(tmp_path, capsys):
    path, report = tmp_path / "cut.net.json", tmp_path / "report.json"
    io_json.save_net(cut_faces(torus_rows(16, 17)), path)
    assert main(["verify", "--in", str(path), "--direction", "both",
                 "--report", str(report)]) == 0
    assert json.loads(report.read_text())["multi_circular_net"] is True


@SETTINGS
@given(kind=st.sampled_from(["revolution", "cylinder", "cone"]), seed=seeds,
       n_profile=st.integers(3, 7), m=st.integers(3, 7))
def test_generator_nets(kind, seed, n_profile, m):
    try:
        net = random_generator_net(kind, seed, n_profile, m)
    except (ValueError, L.LieGeometryError):
        assume(False)
    assert verdicts(net) == oracle(net)


@SETTINGS
@given(seed=seeds, spheres=st.integers(3, 7), samples=st.integers(3, 9))
def test_generic_channel_nets(seed, spheres, samples):
    try:
        net = L.channel_from_sphere_curve(
            random_sphere_curve(np.random.default_rng(seed), spheres), samples).net
    except (ValueError, L.LieGeometryError):
        assume(False)
    assert verdicts(net) == oracle(net)


def test_generic_acceptance_net_not_multi_circular():
    net = L.channel_from_sphere_curve(random_sphere_curve(np.random.default_rng(88), 6), 8).net
    assert verdicts(net) == oracle(net)
    assert verdicts(net)[0] is False


@pytest.mark.parametrize("kind", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 2, 5])
def test_reflection_examples(kind, seed):
    net = L.make_reflection_example(kind, seed)
    assert verdicts(net) == oracle(net)


@SETTINGS
@given(n=st.integers(3, 8), seed=seeds, log_delta=st.floats(-12.0, -4.0))
def test_moved_vertex_straddles_tolerance(n, seed, log_delta):
    rng = np.random.default_rng(seed)
    base = torus(n, rng.uniform(1.5, 3.0), rng.uniform(0.2, 0.7))
    net = moved(base, int(rng.integers(n * n)), 10.0 ** log_delta, rng)
    assert verdicts(net) == split_verdicts(net) == oracle(net)


@SETTINGS
@given(n=st.integers(3, 8), seed=seeds, log_delta=st.floats(-12.0, -4.0),
       log_tol=st.floats(-16.0, -1.0))
def test_explicit_tol(n, seed, log_delta, log_tol):
    rng = np.random.default_rng(seed)
    base = random_generator_net("revolution", seed, n, n)
    net = moved(base, int(rng.integers(n * n)), 10.0 ** log_delta, rng)
    tol = 10.0 ** log_tol
    assert verdicts(net, tol) == split_verdicts(net, tol) == oracle(net, tol)
    assert verdicts(base, tol) == split_verdicts(base, tol) == oracle(base, tol)


def brute_quads_circular(x, y, t):
    for s in range(len(x)):
        for u in range(s + 1, len(x)):
            sv = np.linalg.svd(np.array([x[s], x[u], y[u], y[s]]), compute_uv=False)
            if np.sum(sv > t * sv[0]) > 3:
                return False
    return True


def unit_rows(a):
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


def quads_circular(x, y, t):
    """`channel._all_circular` of the one pair of aligned stacks (x, y)."""
    n = len(x)
    pair = (np.zeros(1, dtype=int), np.arange(n)[None], n + np.arange(n)[None])
    return channel._all_circular(np.concatenate([x, y]), [pair], t)


def planes(rng, n, noise, shape):
    """Near-concurrent, near-coplanar or rank-deficient planes <x_a, y_a>."""
    if shape == "coplanar":
        frame = np.linalg.qr(rng.normal(size=(6, 3)))[0].T
        x = rng.normal(size=(n, 3)) @ frame
        y = rng.normal(size=(n, 3)) @ frame
    else:
        x = rng.normal(size=(n, 6))
        z = rng.normal(size=6)
        y = rng.normal(size=(n, 1)) * z + rng.normal(size=(n, 1)) * x
        if shape == "pinched":
            y[0] = x[0]
    return unit_rows(x), unit_rows(y + noise * rng.normal(size=(n, 6)))


SHAPES = st.sampled_from(["concurrent", "coplanar", "pinched"])


@settings(max_examples=200, deadline=None)
@given(seed=seeds, n=st.integers(2, 7), log_noise=st.floats(-17.0, -2.0),
       log_t=st.floats(-2.0, 2.0), shape=SHAPES)
def test_kernel_on_unit_stacks(seed, n, log_noise, log_t, shape):
    """The cutoff within two decades of the distance from the exact case."""
    rng = np.random.default_rng(seed)
    noise = 10.0 ** log_noise
    x, y = planes(rng, n, noise, shape)
    t = min(noise * 10.0 ** log_t, 0.5)
    brute = brute_quads_circular(x, y, t)
    assert quads_circular(x, y, t) == brute
    # the accept is sound
    assert brute or not channel._planes_concurrent(x[None], y[None], t)[0]


@settings(max_examples=50, deadline=None)
@given(seed=seeds, n=st.integers(2, 7), log_noises=st.lists(st.floats(-17.0, -2.0), min_size=1,
                                                             max_size=6),
       log_t=st.floats(-12.0, -2.0), shape=SHAPES)
def test_accept_of_a_batch_is_that_of_each_pair(seed, n, log_noises, log_t, shape):
    rng = np.random.default_rng(seed)
    x, y = map(np.array, zip(*(planes(rng, n, 10.0 ** k, shape) for k in log_noises)))
    if len(x) > 1:
        x[1, 0] = np.nan  # a non-finite pair is refused, and only that one
    batch = channel._planes_concurrent(x, y, 10.0 ** log_t)
    alone = [channel._planes_concurrent(a[None], b[None], 10.0 ** log_t)[0] for a, b in zip(x, y)]
    assert batch.tolist() == alone
    assert len(x) == 1 or not batch[1]
