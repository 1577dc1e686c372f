"""Outputs do not follow the signs that LAPACK gives its factors.

`np.linalg.svd` and `np.linalg.eigh` are patched to negate a drawn subset
of their singular vector pairs and eigenvectors (both factors of a pair
together, so that every result is still a factorisation of its input),
drawn from the seed and the input's bytes: another LAPACK, whose choice is
as fixed as this one's.
The verify report, the OBJ export with circles and a blended net of one
net must keep every character but their numbers, and every number to
rounding: within 1e-6 of its magnitude or of 1, whichever is larger, so a
sign that an output read from a factor shows as a change of 2 (the
residuals in the message of an ill-conditioned blend, near 1e-8, move by
up to 1e-9 when an SVD input changes in its last bits). Bytes are
not compared: LAPACK's SVD of a matrix with tied singular values (such as
the orthonormal rows whose complement `liecore.orthocomplements` takes) is
not bitwise sign-equivariant, so its output moves in the last bits when
an earlier factor is negated. The nets include Dupin tori, whose edge
spheres have exact ties in their largest coordinates, generator nets,
built nets and a reflection example; each is made once, outside the patch
(`build` samples its first circle in the chart of `channel.circle_bases`).
"""

import hashlib
import json
import re
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import liechannel as L
from liechannel import io_json
from liechannel.builder import channel_from_sphere_curve, random_sphere_curve
from liechannel.cli import random_generator_net

from geo_helpers import strip_family

SVD, EIGH = np.linalg.svd, np.linalg.eigh


def _rng(seed: int, a) -> np.random.Generator:
    return np.random.default_rng([seed, *np.frombuffer(
        hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).digest(), np.uint32)])


def _signs(rng, shape):
    return np.where(rng.random(shape) < 0.5, -1.0, 1.0)


def flipping(seed: int):
    """Patches of svd and eigh that negate factor columns drawn from the
    seed and the input."""

    def svd(a, full_matrices=True, compute_uv=True, **kwargs):
        out = SVD(a, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)
        if not compute_uv:
            return out
        rng = _rng(seed, a)
        u, s, vt = out
        m, n, k = u.shape[-1], vt.shape[-2], s.shape[-1]
        pair = _signs(rng, s.shape)
        su = np.concatenate([pair, _signs(rng, s.shape[:-1] + (m - k,))], axis=-1)
        sv = np.concatenate([pair, _signs(rng, s.shape[:-1] + (n - k,))], axis=-1)
        return type(out)(u * su[..., None, :], s, vt * sv[..., :, None])

    def eigh(a, *args, **kwargs):
        out = EIGH(a, *args, **kwargs)
        return type(out)(out[0], out[1] * _signs(_rng(seed, a), out[0].shape)[..., None, :])

    return (mock.patch.object(np.linalg, "svd", svd), mock.patch.object(np.linalg, "eigh", eigh))


NUMBER = re.compile(r"-?(?:\d+\.\d*|\d*\.\d+|\d+)(?:[eE][-+]?\d+)?")


def assert_same_to_rounding(got, want):
    """Two outputs (bytes or str) with the same text around their numbers,
    and every number within 1e-6 of max(|value|, 1)."""
    got, want = (x.decode() if isinstance(x, bytes) else x for x in (got, want))
    assert NUMBER.sub("#", got) == NUMBER.sub("#", want)
    a, b = (np.array([float(x) for x in NUMBER.findall(t)]) for t in (got, want))
    assert np.all(np.abs(a - b) <= 1e-6 * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0))


NETS = {
    "torus": lambda k: L.make_dupin_torus(2.0, 1.0, 4 + k % 13, 4 + k % 13),
    "revolution": lambda k: random_generator_net("revolution", k, 5, 7),
    "cylinder": lambda k: random_generator_net("cylinder", k, 4, 5),
    "cone": lambda k: random_generator_net("cone", k, 4, 6),
    "built": lambda k: channel_from_sphere_curve(
        random_sphere_curve(np.random.default_rng(k), 6), 8).net,
    "example1": lambda k: L.make_reflection_example(1, seed=k),
}


def outputs(doc, tmp_path):
    """Bytes of the verify report and of the OBJ export of a net document."""
    net = io_json.net_from_dict(doc)
    report = json.dumps(io_json.verify_report(net))
    io_json.export_obj(net, tmp_path / "net.obj", circles=True)
    return report, (tmp_path / "net.obj").read_bytes()


@given(kind=st.sampled_from(sorted(NETS)), k=st.integers(0, 50), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_reports_and_obj_keep_their_values(tmp_path_factory, kind, k, seed):
    tmp_path, doc = tmp_path_factory.mktemp("flip"), io_json.net_to_dict(NETS[kind](k))
    plain = outputs(doc, tmp_path)
    svd, eigh = flipping(seed)
    with svd, eigh:
        flipped = outputs(doc, tmp_path)
    for got, want in zip(flipped, plain):
        assert_same_to_rounding(got, want)


def blended(built, t0, columns, samples, path):
    """Bytes of the net blended through two columns of a built net."""
    pts = built.net.vertex_points()
    c1, c2 = (L.DiscreteCurve3D(points=pts[col::samples]) for col in columns)
    normal = io_json.net_to_dict(built.net)["vertices"][columns[0]]["normal"]
    f0 = L.contact_from_point_normal(pts[columns[0]], np.array(normal) / np.linalg.norm(normal))
    if t0 is None:
        cert = built.certificate
        t0 = strip_family(c1, c2, f0).parameter_of(cert.cyclides[cert.ribbon_lines.index((0, 1))])
    try:
        io_json.save_net(L.blend_channel(c1, c2, f0, t0, samples).net, path)
        return path.read_bytes()
    except L.LieGeometryError as exc:
        return str(exc)


@given(k=st.integers(0, 30), t0=st.sampled_from([None, 0.0, 0.7, 2.0]),
       columns=st.sampled_from([(0, 1), (3, 4), (7, 8)]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_blends_keep_their_values(tmp_path_factory, k, t0, columns, seed):
    # t0 None: the parameter that rebuilds the built net's first ribbon,
    # read by `parameter_of` inside the patch, as a user would read it
    path = tmp_path_factory.mktemp("blend") / "blend.json"
    samples = 10
    built = channel_from_sphere_curve(random_sphere_curve(np.random.default_rng(k), 7), samples)
    plain = blended(built, t0, columns, samples, path)
    svd, eigh = flipping(seed)
    with svd, eigh:
        flipped = blended(built, t0, columns, samples, path)
    assert_same_to_rounding(flipped, plain)
