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


def moved(net, v, delta, rng):
    """The net with vertex v moved by delta in a random direction."""
    d = rng.normal(size=3)
    bases = net.bases.copy()
    bases[v] = contact_from_point_normal(net.vertex_point(v) + delta * d / np.linalg.norm(d),
                                         (0.0, 0.0, 1.0)).basis
    return LegendreNet(complex=net.complex, bases=bases)


@SETTINGS
@given(n=st.integers(3, 16), big=st.floats(1.5, 3.0), ratio=st.floats(0.2, 0.7))
def test_tori(n, big, ratio):
    net = torus(n, big, ratio)
    assert verdicts(net) == split_verdicts(net) == oracle(net) == (True, True, True)


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
