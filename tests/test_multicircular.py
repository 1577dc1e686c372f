"""The concurrent-lines multi-circularity tests return exactly the verdicts
of the brute-force per-quadrilateral definition."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import liechannel as L
from liechannel import channel
from liechannel.builder import random_sphere_curve
from liechannel.cli import random_generator_net
from liechannel.legendre import LegendreNet, contact_from_point_normal

from multicircular_oracle import brute_is_multi_circular, brute_is_multi_circular_net

SETTINGS = settings(max_examples=12, deadline=None)

seeds = st.integers(0, 2**32 - 1)


def verdicts(net, tol=None):
    return (L.is_multi_circular_net(net, tol),
            L.is_multi_circular(net, "+", tol), L.is_multi_circular(net, "-", tol))


def oracle(net, tol=None):
    return (brute_is_multi_circular_net(net, tol),
            brute_is_multi_circular(net, "+", tol), brute_is_multi_circular(net, "-", tol))


def torus(n, big, ratio):
    return L.make_dupin_torus(big, big * ratio, n, n)


def moved(net, v, delta, rng):
    """The net with vertex v moved by delta in a random direction."""
    d = rng.normal(size=3)
    elements = list(net.elements)
    elements[v] = contact_from_point_normal(net.vertex_point(v) + delta * d / np.linalg.norm(d),
                                            (0.0, 0.0, 1.0))
    return LegendreNet(complex=net.complex, elements=tuple(elements))


@SETTINGS
@given(n=st.integers(3, 16), big=st.floats(1.5, 3.0), ratio=st.floats(0.2, 0.7))
def test_tori(n, big, ratio):
    net = torus(n, big, ratio)
    assert verdicts(net) == oracle(net) == (True, True, True)


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
    assert verdicts(net) == oracle(net)


@SETTINGS
@given(n=st.integers(3, 8), seed=seeds, log_delta=st.floats(-12.0, -4.0),
       log_tol=st.floats(-16.0, -1.0))
def test_explicit_tol(n, seed, log_delta, log_tol):
    rng = np.random.default_rng(seed)
    base = random_generator_net("revolution", seed, n, n)
    net = moved(base, int(rng.integers(n * n)), 10.0 ** log_delta, rng)
    tol = 10.0 ** log_tol
    assert verdicts(net, tol) == oracle(net, tol)
    assert verdicts(base, tol) == oracle(base, tol)


def brute_quads_circular(x, y, t):
    for s in range(len(x)):
        for u in range(s + 1, len(x)):
            sv = np.linalg.svd(np.array([x[s], x[u], y[u], y[s]]), compute_uv=False)
            if np.sum(sv > t * sv[0]) > 3:
                return False
    return True


def unit_rows(a):
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


@settings(max_examples=200, deadline=None)
@given(seed=seeds, n=st.integers(2, 7), log_noise=st.floats(-17.0, -2.0),
       log_t=st.floats(-2.0, 2.0), shape=st.sampled_from(["concurrent", "coplanar", "pinched"]))
def test_kernel_on_unit_stacks(seed, n, log_noise, log_t, shape):
    """Near-concurrent, near-coplanar and rank-deficient planes <x_a, y_a>,
    with the cutoff within two decades of the distance from the exact case."""
    rng = np.random.default_rng(seed)
    noise = 10.0 ** log_noise
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
    x = unit_rows(x)
    y = unit_rows(y + noise * rng.normal(size=(n, 6)))
    t = min(noise * 10.0 ** log_t, 0.5)
    assert channel._quads_circular(x, y, t) == brute_quads_circular(x, y, t)
