"""The builder propagates whole generating circles, as the per-sample oracle.

`builder.propagate_point` moves the (m, 6) samples of one circle per cyclide
step. It is compared bit for bit (sign of zero included) with
`kernel_oracle.propagate_point`, one sample at a time, on the rows that
builds and blends propagate: full rows and random sub-stacks. Error cases
must raise the oracle's first error, with its class and message.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import liechannel as L
from liechannel import builder, io_json
from liechannel.builder import random_sphere_curve, sphere_curve_from_certificate
from liechannel.legendre import contact_from_point_normal

import kernel_oracle as oracle
from geo_helpers import strip_family

OFF_CYCLIDE = "point does not lie on the cyclide"
DEGENERATE_CONDITION = "propagation condition degenerates"
ROOTS_DISAGREE = "propagation roots disagree with the tangency direction"

# 12-sphere curves built with 16 samples whose blend through columns 7 and 8,
# at the t0 that should rebuild the first ribbon's cyclide, meets a
# face-cyclide member with a 2-dimensional D- (as in scripts/output_digest.py)
FAILING_BLENDS = (3, 9)


def record(run):
    """(samples, cyclide, next sphere) of every propagate_point call of run()."""
    calls = []
    real = builder.propagate_point

    def spy(x, cy, next_sphere_hat):
        calls.append((np.array(x), cy, np.array(next_sphere_hat)))
        return real(x, cy, next_sphere_hat)

    with mock.patch.object(builder, "propagate_point", spy):
        try:
            run()
        except L.LieGeometryError:
            pass
    return calls


def failing_blend(tmp_path, seed):
    """The blend of FAILING_BLENDS, from files as the CLI reads them, at the
    t0 that rebuilds the built net's first ribbon."""
    path = tmp_path / f"curve{seed}.json"
    io_json.save_sphere_curve(random_sphere_curve(np.random.default_rng(seed), 12), path)
    built = builder.channel_from_sphere_curve(io_json.load_sphere_curve(path), 16)
    vertices = io_json.net_to_dict(built.net)["vertices"]
    points = np.array([v["point"] for v in vertices])
    normal = np.array(vertices[7]["normal"])
    f0 = contact_from_point_normal(points[7], normal / np.linalg.norm(normal))
    c1, c2 = L.DiscreteCurve3D(points=points[7::16]), L.DiscreteCurve3D(points=points[8::16])
    cert = built.certificate
    t0 = strip_family(c1, c2, f0).parameter_of(cert.cyclides[cert.ribbon_lines.index((0, 1))])
    return lambda: builder.blend_channel(c1, c2, f0, t0, 16)


def torus_blend():
    net = L.make_dupin_torus(2.0, 1.0, 12, 8)
    cert = L.full_certificate(net, "+")
    pts = net.vertex_points()
    c1, c2 = L.DiscreteCurve3D(points=pts[0::12]), L.DiscreteCurve3D(points=pts[1::12])
    t0 = strip_family(c1, c2, net.element(0)).parameter_of(cert.cyclides[0])
    return builder.blend_channel(c1, c2, net.element(0), t0, 12)


def closed_torus_build():
    cert = L.full_certificate(L.make_dupin_torus(2.0, 1.0, 10, 8), "-")
    return builder.channel_from_sphere_curve(sphere_curve_from_certificate(cert), 8)


@pytest.fixture(scope="module")
def calls(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("blends")
    out = []
    for seed in (0, 1, 2):
        out += record(lambda: builder.channel_from_sphere_curve(
            random_sphere_curve(np.random.default_rng(seed), 6), 8, 0.3 * seed))
    out += record(closed_torus_build)
    out += record(torus_blend)
    for seed in FAILING_BLENDS:
        out += record(failing_blend(tmp, seed))
    return out


def outcome(propagate, x, cy, next_sphere_hat):
    """Bits of the stacked result, or the error's class and message."""
    try:
        y, disc = propagate(x, cy, next_sphere_hat)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)
    y, disc = np.asarray(y, dtype=float), np.asarray(disc, dtype=float)
    return y.shape, y.view(np.uint64).tolist(), disc.view(np.uint64).tolist()


def assert_matches_oracle(x, cy, next_sphere_hat):
    got = outcome(builder.propagate_point, x, cy, next_sphere_hat)
    assert got == outcome(oracle.propagate_row, x, cy, next_sphere_hat)
    return got


@pytest.fixture(scope="module")
def passing(calls):
    """The recorded calls that propagate without error."""
    return [c for c in calls if outcome(oracle.propagate_row, *c)[0] == (len(c[0]), 6)]


def test_full_rows_match_oracle(calls):
    for x, cy, hat in calls:
        assert_matches_oracle(x, cy, hat)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_sub_stacks_match_oracle(calls, data):
    x, cy, hat = data.draw(st.sampled_from(calls))
    rows = data.draw(st.lists(st.integers(0, len(x) - 1), min_size=1, max_size=2 * len(x)))
    assert_matches_oracle(x[rows], cy, hat)


def test_single_vector_is_a_stack_of_one(passing):
    x, cy, hat = passing[0]
    for sample in x[:4]:
        y, disc = builder.propagate_point(sample, cy, hat)
        assert y.shape == (6,) and type(disc) is float
        y_ref, disc_ref = oracle.propagate_point(sample, cy, hat)
        assert y.view(np.uint64).tolist() == y_ref.view(np.uint64).tolist()
        assert disc == disc_ref


def inject(x, rows, kind, rng):
    out = x.copy()
    if kind == "off":
        out[rows] += 0.05 * rng.normal(size=(len(rows), 6))
    elif kind == "zero":  # X- = 0: the propagation condition vanishes
        out[rows] = 0.0
    else:
        out[rows] = np.nan
    return out


@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_injected_errors_match_oracle(passing, data, seed):
    x, cy, hat = data.draw(st.sampled_from(passing))
    rng = np.random.default_rng(seed)
    for kind in data.draw(st.lists(st.sampled_from(["off", "zero", "nan"]), max_size=3)):
        x = inject(x, data.draw(st.lists(st.integers(0, len(x) - 1), min_size=1, max_size=3)),
                   kind, rng)
    if data.draw(st.booleans()):  # a sphere two steps on: the roots disagree
        hat = data.draw(st.sampled_from(passing))[2]
    assert_matches_oracle(x, cy, hat)


def test_error_cases(passing):
    x, cy, hat = passing[0]
    rng = np.random.default_rng(0)
    cases = [
        (inject(x, [3], "off", rng), hat, OFF_CYCLIDE),
        (inject(x, [2], "zero", rng), hat, DEGENERATE_CONDITION),
        (inject(inject(x, [5], "zero", rng), [4], "off", rng), hat, OFF_CYCLIDE),
        (inject(inject(x, [1], "zero", rng), [6], "off", rng), hat, DEGENERATE_CONDITION),
        (x, passing[2][2], ROOTS_DISAGREE),
    ]
    for rows, next_hat, message in cases:
        assert assert_matches_oracle(rows, cy, next_hat) == (L.LieGeometryError, message)


def test_two_dimensional_dminus(calls, passing, tmp_path):
    # the failing blends stop at their face-cyclide member with a
    # 2-dimensional D-, before any propagation through it
    assert all(cy.dminus.dim == 3 for _, cy, _ in calls)
    for seed in FAILING_BLENDS:
        with pytest.raises(L.LieGeometryError, match=r"^degenerate face-cyclide member at step "
                                                     r"\d+ \(t = \S+\): dims 3, 2$"):
            failing_blend(tmp_path, seed)()
    # on such a member the off-cyclide test or the next circle's dimension fails
    x, cy, hat = passing[0]
    xm = L.project_onto(x[0], cy.dminus)
    other = cy.dminus.basis[np.argmin(np.abs(cy.dminus.basis @ xm))]
    errors = {assert_matches_oracle(x, L.DupinCyclide(dplus=cy.dplus, dminus=dminus), hat)
              for dminus in (L.Subspace(cy.dminus.basis[:2]), L.span([xm, other]))}
    assert errors == {(L.LieGeometryError, OFF_CYCLIDE),
                      (L.LieGeometryError, "circle of the next sphere degenerates (dim 2)")}


def test_nan_sample_fails_closed(passing):
    x, cy, hat = passing[0]
    x = x.copy()
    x[3] = np.nan
    with pytest.raises(L.LieGeometryError, match=OFF_CYCLIDE):
        builder.propagate_point(x, cy, hat)
    # the samples before it propagate
    y, disc = builder.propagate_point(x[:3], cy, hat)
    assert np.isfinite(y).all() and np.isfinite(disc).all()


def test_nan_residual_fails_closed(passing):
    # a NaN next sphere leaves the roots test a NaN distance
    x, cy, hat = passing[0]
    with mock.patch.object(builder, "oriented_representative", lambda v: np.full(6, np.nan)):
        with pytest.raises(L.LieGeometryError, match=ROOTS_DISAGREE):
            builder.propagate_point(x, cy, hat)


@pytest.mark.parametrize("build, steps", [
    (lambda: builder.channel_from_sphere_curve(
        random_sphere_curve(np.random.default_rng(4), 7), 9), 6),
    (closed_torus_build, 10),
    (torus_blend, 7),
])
def test_one_call_per_cyclide_step(build, steps):
    calls = record(build)
    assert len(calls) == steps
    assert all(x.ndim == 2 and x.shape[0] == calls[0][0].shape[0] for x, _, _ in calls)
