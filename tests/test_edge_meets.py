"""The closed-form contact test decides every edge as the SVD definition
does, the closed-form meet finds the SVD's sphere, and the meets run only
for commands that read the edge spheres.

`legendre.contact_failures` and `legendre.meet_spheres` are compared with
`kernel_oracle.curvature_sphere` on aux-orthonormal pairs of planes with
prescribed principal angles; the CLI commands are run in-process with
every contact test and every meet counted.
"""

import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import liechannel as L
from liechannel import builder, cli, io_json, legendre
from liechannel.config import TOL

import kernel_oracle as oracle


def _pair(seed: int, sin1: float, sin2: float):
    """Aux-orthonormal bases (2, 6) of two planes with principal angles
    asin(sin1) and asin(sin2), each basis turned within its plane."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(6, 6)))[0].T
    t1, t2 = math.asin(sin1), math.asin(sin2)
    a = q[:2]
    b = np.array([math.cos(t1) * q[0] + math.sin(t1) * q[2],
                  math.cos(t2) * q[1] + math.sin(t2) * q[3]])

    def turned(m):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        return np.array([[math.cos(phi), math.sin(phi)], [-math.sin(phi), math.cos(phi)]]) @ m

    return turned(a), turned(b)


def _assert_decided_as_oracle(a, b):
    sv = np.linalg.svd(np.vstack([a, -b]).T, compute_uv=False)
    cut = TOL.rank * sv[0]
    assume(abs(sv[-1] - cut) > 1e-12 * cut)
    failures = legendre.contact_failures(a[None], b[None])
    try:
        oracle.curvature_sphere(a, b)
    except L.LieGeometryError as exc:
        assert list(failures) == [0]
        assert isinstance(failures[0], type(exc)) and str(failures[0]) == str(exc)
        assert isinstance(failures[0], L.IdenticalContactElementsError if "identical" in str(exc)
                          else L.NotInContactError)
    else:
        assert failures == {}


SEEDS = st.integers(0, 2**32 - 1)


@given(seed=SEEDS)
@settings(max_examples=60, deadline=None)
def test_identical_elements(seed):
    _assert_decided_as_oracle(*_pair(seed, 0.0, 0.0))


@given(seed=SEEDS, log_sin2=st.floats(-6.0, 0.0))
@settings(max_examples=150, deadline=None)
def test_exact_meets(seed, log_sin2):
    _assert_decided_as_oracle(*_pair(seed, 0.0, 10.0 ** log_sin2))


@given(seed=SEEDS, log_sin1=st.floats(-12.0, -4.0), log_sin2=st.floats(-6.0, 0.0))
@settings(max_examples=300, deadline=None)
def test_near_meets_straddle_the_cutoff(seed, log_sin1, log_sin2):
    # sin theta_1 from 1e-12 to 1e-4 around the cutoff TOL.rank = 1e-8: below
    # it the planes meet in a line, above it they are not in contact
    _assert_decided_as_oracle(*_pair(seed, 10.0 ** log_sin1, 10.0 ** log_sin2))


@given(seed=SEEDS, log_sin1=st.floats(-12.0, 0.0), row=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_nan_row_fails_and_never_meets(seed, log_sin1, row):
    a, b = _pair(seed, 10.0 ** log_sin1, 1.0)
    (a if row < 2 else b)[row % 2] = math.nan
    # the oracle's SVD does not converge on a NaN; the test fails the pair closed
    with pytest.raises(np.linalg.LinAlgError):
        oracle.curvature_sphere(a, b)
    failures = legendre.contact_failures(a[None], b[None])
    assert list(failures) == [0] and isinstance(failures[0], L.NotInContactError)


def test_non_finite_pair_leaves_the_other_meets_as_they_were():
    # a NaN in one vertex's element fails the edges at that vertex closed;
    # the meets of the other edges are those of the clean net
    clean = L.make_dupin_torus(2.0, 1.0, 4, 4)
    bases = clean.bases.copy()
    bases[0, 0, 0] = math.nan
    net = L.LegendreNet(complex=clean.complex, bases=bases)
    failed = sorted(net.edge_failures)
    assert failed == np.flatnonzero((clean.complex.edge_vertices == 0).any(axis=1)).tolist()
    assert all(isinstance(net.edge_failures[e], L.NotInContactError) for e in failed)
    kept = np.setdiff1d(np.arange(len(net.complex.edge_vertices)), failed)
    assert np.array_equal(net.edge_spheres[kept].view(np.uint64),
                          clean.edge_spheres[kept].view(np.uint64))
    with pytest.raises(L.NotInContactError, match="^not in contact: contact elements do not "
                                                  "intersect$"):
        net.spheres_of(failed[0])
    with pytest.raises(L.NotInContactError, match="^not in contact: contact elements do not "
                                                  "intersect$"):
        L.curvature_sphere(net.element(0), net.element(net.complex.edge_vertices[failed[0], 1]))


def test_curvature_spheres_take_their_failures_from_the_test():
    pairs = [_pair(1, 0.0, 0.5), _pair(2, 0.0, 0.0), _pair(3, 1e-3, 0.5), _pair(4, 1e-10, 0.2)]
    a, b = (np.array(m) for m in zip(*pairs))
    spheres, failures = L.curvature_spheres(a, b)
    assert [(e, type(exc)) for e, exc in failures.items()] == \
        [(1, L.IdenticalContactElementsError), (2, L.NotInContactError)]
    for e in (0, 3):
        assert oracle.meet_gap(spheres[e], a[e], b[e]) <= MEET_EPS


# ---------------------------------------------------------------------------
# the closed-form meet


# the closed-form meet agrees with the SVD oracle to this many eps / sin theta_2;
# near the cutoff the oracle's own error dominates: on a drawn pair with
# sin theta_1 = 7.4e-9 and sin theta_2 = 1 the SVD's meet was 24 eps from a
# 50-digit reference, the closed form 0.3 eps
MEET_EPS = 64


def _assert_meets_as_oracle(a, b):
    assume(not legendre.contact_failures(a[None], b[None]))
    with mock.patch.object(np.linalg, "svd", side_effect=AssertionError("SVD in the meet")):
        sphere = legendre.meet_spheres(a[None], b[None])[0]
    assert np.linalg.norm(sphere) == pytest.approx(1.0, abs=4e-16)
    assert oracle.meet_gap(sphere, a, b) <= MEET_EPS


@given(seed=SEEDS, log_sin2=st.floats(-6.0, 0.0))
@settings(max_examples=150, deadline=None)
def test_exact_meets_are_the_oracles(seed, log_sin2):
    _assert_meets_as_oracle(*_pair(seed, 0.0, 10.0 ** log_sin2))


@given(seed=SEEDS, log_sin1=st.floats(-16.0, -7.8), log_sin2=st.floats(-6.0, 0.0))
@settings(max_examples=300, deadline=None)
def test_near_meets_up_to_the_cutoff_are_the_oracles(seed, log_sin1, log_sin2):
    # sin theta_1 up to just past the cutoff TOL.rank = 1e-8 of the contact
    # test: the meet is the principal vector of the smaller angle, as the
    # oracle's SVD reads it in a
    _assert_meets_as_oracle(*_pair(seed, 10.0 ** log_sin1, 10.0 ** log_sin2))


# ---------------------------------------------------------------------------
# the meets run only where the spheres are read


@pytest.fixture
def counted(monkeypatch):
    """Counts of contact tests and of meets, and the edges of each meet."""
    calls = Counter()
    test, meet = legendre.contact_failures, legendre.meet_spheres

    def counted_test(a, b):
        calls["contact_failures"] += 1
        return test(a, b)

    def counted_meet(a, b):
        calls["meet_spheres"] += 1
        calls[("meet_spheres", len(a))] += 1
        return meet(a, b)

    monkeypatch.setattr(legendre, "contact_failures", counted_test)
    monkeypatch.setattr(legendre, "meet_spheres", counted_meet)
    return calls


@pytest.fixture(scope="module")
def net_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("nets")
    nets = {"torus": builder.make_dupin_torus(2.0, 1.0, 8, 6),
            "revolution": cli.random_generator_net("revolution", 3, 6, 8)}
    for name, net in nets.items():
        io_json.save_net(net, root / f"{name}.json")
    return {name: (root / f"{name}.json", len(net.complex.edge_ends))
            for name, net in nets.items()}


@pytest.mark.parametrize("name", ["torus", "revolution"])
def test_loading_runs_the_contact_test_once_and_no_meet_svd(counted, net_files, name):
    path, n_edges = net_files[name]
    io_json.load_net(path)
    assert counted["contact_failures"] == 1
    assert counted["meet_spheres"] == 0


@pytest.mark.parametrize("name", ["torus", "revolution"])
@pytest.mark.parametrize("command, meets", [
    (["curvature", "--report", "{out}/curvature.json"], 0),
    (["export", "--obj", "{out}/net.obj"], 0),
    (["classify"], 1),
    (["verify", "--direction", "both", "--report", "{out}/verify.json"], 1),
])
def test_meet_svds_run_once_for_commands_that_read_the_spheres(
        counted, net_files, tmp_path, capsys, name, command, meets):
    path, n_edges = net_files[name]
    argv = [command[0], "--in", str(path)] + [arg.format(out=tmp_path) for arg in command[1:]]
    assert cli.main(argv) in (0, 1)
    capsys.readouterr()
    assert counted["contact_failures"] == 1
    assert counted["meet_spheres"] == counted[("meet_spheres", n_edges)] == meets
