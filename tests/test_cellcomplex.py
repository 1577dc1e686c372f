from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import complex_oracle as oracle
import kernel_oracle
import liechannel as L
from liechannel import io_json
from liechannel.cellcomplex import (
    Incidence, make_grid, validate, swapped_labels, face_edge_labels, edge_key,
    plus_lines, minus_lines, plus_ribbons, minus_ribbons, PLUS, MINUS,
)
from liechannel.curvature import interior_vertex_stars
from liechannel.legendre import is_legendre, net_from_points_normals


def test_grid_3x3_counts():
    c = make_grid(3, 3)
    assert c.n_vertices == 9
    assert len(c.edge_ends) == 12
    assert sum(1 for lab in c.edge_labels.tolist() if lab == PLUS) == 6
    assert sum(1 for lab in c.edge_labels.tolist() if lab == MINUS) == 6
    assert len(c.face_vertices) == 4


def test_wrapped_grid_counts():
    c = make_grid(4, 2, wrap_plus=True)
    assert c.n_vertices == 8
    assert len(c.edge_ends) == 12
    assert len(c.face_vertices) == 4
    lines = plus_lines(c)
    assert len(lines) == 2 and all(len(l) == 4 for l in lines)
    # closed: the wrap edge exists
    for l in lines:
        assert c.has_edge(l[-1], l[0])


def test_grid_minimum_sizes():
    with pytest.raises(ValueError):
        make_grid(1, 5)
    with pytest.raises(ValueError):
        make_grid(5, 1)
    with pytest.raises(ValueError):
        make_grid(2, 4, wrap_plus=True)


def test_face_label_convention():
    c = make_grid(4, 3)
    for face in c.face_vertices.tolist():
        labels = [lab for *_e, lab in face_edge_labels(face)]
        assert labels == [MINUS, PLUS, MINUS, PLUS]
        for a, b, lab in face_edge_labels(face):
            assert c.label(a, b) == lab


def test_lines_and_ribbons_3x3():
    c = make_grid(3, 3)
    pl = plus_lines(c)
    assert len(pl) == 3 and all(len(l) == 3 for l in pl)
    pr = plus_ribbons(c)
    assert len(pr) == 2 and all(len(r) == 2 for r in pr)
    mr = minus_ribbons(c)
    assert len(mr) == 2


def test_ribbons_partition_faces():
    for wrap in (False, True):
        c = make_grid(5, 4, wrap_plus=wrap)
        for ribbons in (plus_ribbons(c), minus_ribbons(c)):
            seen = sorted(f for strip in ribbons for f in strip)
            assert seen == list(range(len(c.face_vertices)))


def test_grid_face_count_formula():
    assert len(make_grid(6, 5).face_vertices) == 5 * 4
    assert len(make_grid(6, 5, wrap_plus=True).face_vertices) == 6 * 4


def test_single_face_ribbons():
    c = make_grid(2, 2)
    assert len(c.face_vertices) == 1
    assert plus_ribbons(c).tolist() == [[0]]
    assert minus_ribbons(c).tolist() == [[0]]


def test_label_swap_exchanges_lines():
    c = make_grid(4, 3)
    s = swapped_labels(c)
    assert validate(s).ok
    assert sorted(map(tuple, plus_lines(s))) == sorted(map(tuple, minus_lines(c)))
    assert sorted(map(tuple, minus_lines(s))) == sorted(map(tuple, plus_lines(c)))


def test_validate_clean_grid():
    assert validate(make_grid(5, 5)).ok


def test_validate_flags_bad_labelling():
    # flip one column edge to '+': its faces get two adjacent '+' edges
    c = make_grid(3, 3)
    edges = tuple((i, j, PLUS if (i, j) == (0, 3) else lab)
                  for (i, j), lab in zip(c.edge_ends.tolist(), c.edge_labels.tolist()))
    bad = oracle.quad_complex(c.n_vertices, edges, c.face_vertices)
    diag = validate(bad)
    assert not diag.ok and diag.bad_faces


def test_validate_flags_odd_interior_vertex():
    # three quads closing up around a central vertex of degree 3
    faces = ((0, 1, 2, 3), (0, 3, 4, 5), (0, 5, 6, 1))
    edges = []
    seen = set()
    for face in faces:
        for a, b, lab in face_edge_labels(face):
            k = (min(a, b), max(a, b))
            if k not in seen:
                seen.add(k)
                edges.append((k[0], k[1], lab))
    fan = oracle.quad_complex(7, edges, faces)
    diag = validate(fan)
    assert 0 in diag.odd_interior_vertices


def _direct_coordinates(c, label):
    """Ribbon bounds and edges, aligned line pairs and crossings of one label,
    computed per call the way the certificate code did before they were
    cached on the complex."""
    opp = MINUS if label == PLUS else PLUS
    lines = c.coordinates(label).lines
    other = c.coordinates(opp).lines

    def line_edges(line):
        out = [(line[t], line[t + 1]) for t in range(len(line) - 1)]
        if len(line) > 2 and c.has_edge(line[-1], line[0]):
            out.append((line[-1], line[0]))
        return out

    edge_line = {edge_key(*e): li for li, line in enumerate(lines) for e in line_edges(line)}
    ribbon_lines, ribbon_edges, pairs = [], [], []
    for strip in c.coordinates(label).ribbons:
        glued, bounds = [], set()
        for fi in strip:
            for a, b, lab in face_edge_labels(c.face_vertices[fi].tolist()):
                k = edge_key(a, b)
                if lab == opp and k not in glued:
                    glued.append(k)
                if lab != opp:
                    bounds.add(edge_line[k])
        ribbon_lines.append(tuple(sorted(bounds)))
        ribbon_edges.append(glued)
        if len(bounds) != 2:
            continue
        line_a, line_b = (lines[li] for li in sorted(bounds))
        aligned = []
        for v in line_a:
            mate = [w for w in line_b if c.has_edge(v, w) and c.label(v, w) == opp]
            if len(mate) == 1:
                aligned.append(mate[0])
        pairs.append((line_a, aligned if len(aligned) == len(line_a) else line_b))
    on_other = [set(line) for line in other]
    crossings = []
    for line in lines:
        order = list(dict.fromkeys(oi for v in line for oi, on in enumerate(on_other) if v in on))
        crossings.append({oi: [v for v in line if v in on_other[oi]] for oi in order})
    return {"line_edges": [[edge_key(*e) for e in line_edges(line)] for line in lines],
            "ribbon_lines": ribbon_lines, "ribbon_edges": ribbon_edges,
            "line_pairs": pairs, "crossings": crossings}


# two '+'-lines 0-1-2 and 3-4-5 whose vertex ids run in opposite directions
# along the '-' edges 0-5, 1-4, 2-3, so one pair needs reordering
REVERSED_ROWS_EDGES = ((0, 1, PLUS), (1, 2, PLUS), (3, 4, PLUS), (4, 5, PLUS),
                       (0, 5, MINUS), (1, 4, MINUS), (2, 3, MINUS))
REVERSED_ROWS = oracle.quad_complex(6, REVERSED_ROWS_EDGES, ((0, 5, 4, 1), (1, 4, 3, 2)))


def shuffled_grid(n_plus, n_minus, wrap_plus, seed, twice=0, repeated=0, three=False,
                  pinched=False):
    """(n_vertices, edges, faces) of a grid written as an explicit complex:
    vertices permuted, edges shuffled and about half reversed, faces
    shuffled and rotated by two. Then `twice` vertex pairs listed again,
    `repeated` faces listed again, each at a random place, with `three`
    edges of one label added at a vertex until it has three, and with
    `pinched` a face (i, j, i, j) on an edge added."""
    rng = np.random.default_rng(seed)
    edges, faces = oracle.grid_cells(n_plus, n_minus, wrap_plus)
    n = n_plus * n_minus
    new = rng.permutation(n).tolist()
    edges = [(new[j], new[i], lab) if flip else (new[i], new[j], lab)
             for (i, j, lab), flip in zip(edges, rng.random(len(edges)) < 0.5)]
    edges = [edges[k] for k in rng.permutation(len(edges))]
    faces = [(new[k], new[l], new[i], new[j]) for i, j, k, l in faces]
    faces = [faces[k] for k in rng.permutation(len(faces))]
    for _ in range(twice):
        i, j, lab = edges[rng.integers(len(edges))]
        edges.insert(rng.integers(len(edges) + 1),
                     (j, i, lab) if rng.random() < 0.5 else (i, j, lab))
    for _ in range(repeated):
        faces.insert(rng.integers(len(faces) + 1), faces[rng.integers(len(faces))])
    if three:
        label = PLUS if rng.random() < 0.5 else MINUS
        degree = np.bincount([v for i, j, lab in edges if lab == label for v in (i, j)],
                             minlength=n)
        v = int(np.argmax(degree))
        others = [w for w in rng.permutation(n).tolist() if w != v]
        edges += [(v, w, label) for w in others[:3 - degree[v]]]
    if pinched:
        i, j, _lab = edges[rng.integers(len(edges))]
        faces.append((i, j, i, j))
    return n, tuple(edges), tuple(faces)


@pytest.mark.parametrize("c", [
    make_grid(2, 2), make_grid(3, 3), make_grid(5, 4), make_grid(5, 4, wrap_plus=True),
    swapped_labels(make_grid(4, 3, wrap_plus=True)), swapped_labels(make_grid(6, 2)),
    REVERSED_ROWS, oracle.quad_complex(*shuffled_grid(6, 5, True, 1)),
    oracle.quad_complex(*shuffled_grid(5, 4, False, 2, repeated=2)),
], ids=["2x2", "3x3", "5x4", "5x4-wrapped", "swapped-wrapped", "swapped-6x2", "reversed-rows",
        "shuffled-6x5-wrapped", "shuffled-5x4-repeated-faces"])
def test_coordinates_match_direct_construction(c):
    for label in (PLUS, MINUS):
        coords = c.coordinates(label)
        for name, value in _direct_coordinates(c, label).items():
            got = as_lists(coords, name)
            if name in ("line_edges", "ribbon_edges"):  # edge ids, read back as vertex pairs
                got = [[edge_key(*c.edge_ends[e].tolist()) for e in ids] for ids in got]
            if name == "crossings":
                got = oracle.crossing_dicts(*got)
            assert got == value, (label, name)


def test_reversed_rows_are_aligned():
    assert validate(REVERSED_ROWS).ok
    assert as_lists(REVERSED_ROWS.coordinates(PLUS), "line_pairs") == [([0, 1, 2], [5, 4, 3])]


def test_coordinates_built_once_and_shared():
    c = make_grid(4, 3, wrap_plus=True)
    assert c.coordinates(PLUS) is c.coordinates(PLUS)
    assert plus_lines(c) is c.coordinates(PLUS).lines
    assert minus_ribbons(c) is c.coordinates(MINUS).ribbons
    with pytest.raises(ValueError):
        c.coordinates("x")


SHUFFLED = shuffled_grid(5, 4, True, 3)  # about half of the pairs listed (larger, smaller)


@pytest.mark.parametrize("c, listed", [
    # the closing edge of each row is listed (row + 4, row)
    (make_grid(5, 4, wrap_plus=True), oracle.grid_cells(5, 4, True)[0]),
    (swapped_labels(make_grid(4, 3)), [(i, j, MINUS if lab == PLUS else PLUS)
                                       for i, j, lab in oracle.grid_cells(4, 3, False)[0]]),
    (REVERSED_ROWS, REVERSED_ROWS_EDGES),
    (oracle.quad_complex(*SHUFFLED), SHUFFLED[1]),
], ids=["5x4-wrapped", "swapped-4x3", "reversed-rows", "reversed-pairs"])
def test_edge_index(c, listed):
    ends = [[i, j] for i, j, _lab in listed]
    assert c.edge_ends.tolist() == ends
    assert c.edge_labels.tolist() == [lab for *_e, lab in listed]
    assert c.edge_vertices.tolist() == [sorted((i, j)) for i, j, _lab in listed]
    for e, (i, j, lab) in enumerate(listed):
        assert c.edge_id(i, j) == c.edge_id(j, i) == e and c.label(j, i) == lab
    assert c.face_edge_ids.tolist() == [[c.edge_id(a, b) for a, b, _lab in face_edge_labels(f)]
                                        for f in c.face_vertices.tolist()]
    a, b = c.edge_vertices.T
    assert c.edge_ids(b, a).tolist() == list(range(len(listed)))
    for v in range(c.n_vertices):
        assert c.vertex_edges(v) == [e for e, (i, j, _lab) in enumerate(listed) if v in (i, j)]
    with pytest.raises(KeyError):
        c.edge_id(0, c.n_vertices)
    # net files, curvature reports and Legendre failures print each pair as
    # listed: a net on random points and normals, written as an explicit complex
    points, normals = np.random.default_rng(c.n_vertices).normal(size=(2, c.n_vertices, 3))
    net = net_from_points_normals(oracle.quad_complex(c.n_vertices, listed, c.face_vertices),
                                  points, normals / np.linalg.norm(normals, axis=1)[:, None])
    assert io_json.net_to_dict(net)["complex"]["edges"] == [list(e) for e in listed]
    assert [e["edge"] for e in io_json.curvature_report_json(net)["edges"]] == ends
    assert [[i, j] for i, j, _msg in is_legendre(net).failed_edges] == ends


def pairs_of(groups):
    """`by_length` results as lists, for comparison."""
    return [(ids.tolist(), at.tolist()) for ids, at in groups]


ROWS = st.lists(st.lists(st.integers(0, 40), max_size=6), max_size=8)
# rows of one length, zero rows and empty rows included
SAME_LENGTH = st.integers(0, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 40), min_size=n, max_size=n), max_size=8))


@settings(max_examples=300, deadline=None)
@given(rows=st.one_of(ROWS, SAME_LENGTH), data=st.data())
def test_rows_match_list_oracle(rows, data):
    flat, group = kernel_oracle.flatten(rows)
    got = Incidence.grouped(group, flat, len(rows))
    assert len(got) == len(rows) and got.tolist() == list(got) == rows
    assert got.ids.tolist() == flat.tolist() and got.group.tolist() == group.tolist()
    assert got.degrees.tolist() == [len(row) for row in rows]
    assert [got[r] for r in range(len(rows))] == [got.row(r) for r in range(len(rows))] == rows
    for r in (-1, len(rows)):
        with pytest.raises(KeyError):
            got.row(r)
    assert pairs_of(got.by_length()) == pairs_of(kernel_oracle.by_length(rows))
    # the first n ids of each row, n no longer than the row
    cut = [data.draw(st.integers(0, len(row))) for row in rows]
    want = kernel_oracle.by_length([row[:n] for row, n in zip(rows, cut)])
    head = kernel_oracle.flatten([row[:n] for row, n in zip(rows, cut)])[0]
    assert [(ids.tolist(), flat[at].tolist()) for ids, at in got.by_length(np.array(cut))] == [
        (ids.tolist(), head[at].tolist()) for ids, at in want]
    picked = data.draw(st.lists(st.integers(0, max(len(rows) - 1, 0)), max_size=6)
                       if rows else st.just([]))
    ids, at = got.gather(np.array(picked, dtype=int))
    want_ids, want_at = kernel_oracle.flatten([rows[r] for r in picked])
    assert (ids.tolist(), at.tolist()) == (want_ids.tolist(), want_at.tolist())
    # ids given in any order are grouped by row, each row in input order
    order = np.random.default_rng(len(flat)).permutation(len(flat))
    shuffled = Incidence.grouped(group[order], order, len(rows))
    assert [flat[sorted(row)].tolist() for row in shuffled] == rows
    place = np.argsort(order)  # where each position comes in the input
    assert all(np.all(np.diff(place[row]) > 0) for row in shuffled)


def test_shared_facts_are_read_only():
    net = L.make_dupin_torus(2.0, 0.8, 6, 5)
    c = net.complex
    arrays = [c.edge_ends, c.edge_vertices, c.edge_labels, c.face_vertices, c.face_edge_ids]
    rows = [c.vertex_edges_csr, c.vertex_faces_csr]
    for label in (PLUS, MINUS):
        coords = c.coordinates(label)
        arrays += [coords.vertex_line, coords.edge_line]
        rows += [coords.lines, coords.line_edges, coords.ribbons, coords.ribbon_edges,
                 coords.ribbon_bounds, coords.line_ribbons, *coords.line_pairs, *coords.crossings]
    for a in arrays + [a for r in rows for a in (r.offsets, r.ids)]:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = a.copy()
    with pytest.raises(FrozenInstanceError):
        rows[0].ids = rows[0].ids.copy()
    # a certificate holds the same rows
    cert = L.verify_channel(net, PLUS)
    coords = c.coordinates(PLUS)
    assert (cert.lines, cert.ribbons, cert.line_ribbons) == (
        coords.lines, coords.ribbons, coords.line_ribbons)
    net.edge_spheres[0] = net.edge_spheres[0]  # stays writable: tests inject NaNs there


def test_pair_listed_twice_is_indexed_by_its_last_listing():
    edges = ((0, 1, MINUS), (1, 2, PLUS), (2, 3, MINUS), (3, 0, PLUS), (1, 0, MINUS))
    c = oracle.quad_complex(4, edges, ((0, 1, 2, 3),))
    assert c.edge_id(0, 1) == 4 and c.face_edge_ids.tolist() == [[4, 1, 2, 3]]
    assert c.vertex_edges(0) == [0, 3, 4]
    assert validate(c).bad_faces == []
    # three faces on edge (0, 1): reported once, by vertex pair
    c = oracle.quad_complex(4, edges[:4], ((0, 1, 2, 3),) * 3)
    assert validate(c).overfull_edges == [(0, 1), (1, 2), (2, 3), (0, 3)]


def as_lists(coords, name):
    """An attribute of `Coordinates` as lists: rows and arrays by `tolist`,
    two aligned row sets as a list of pairs of rows."""
    got = getattr(coords, name)
    if name == "line_pairs":
        return list(zip(*(rows.tolist() for rows in got)))
    if name == "crossings":
        return tuple(rows.tolist() for rows in got)
    return got if name == "ribbon_lines" else got.tolist()


def outcome(fn, *args):
    """The value of fn(*args), or the class and message of its error."""
    try:
        return fn(*args)
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@given(n_plus=st.integers(2, 12), n_minus=st.integers(2, 12), wrap=st.booleans(),
       seed=st.integers(0, 2**32 - 1), twice=st.integers(0, 2), repeated=st.integers(0, 2),
       three=st.booleans(), pinched=st.booleans(), drop=st.booleans())
def test_complex_matches_dict_oracle(n_plus, n_minus, wrap, seed, twice, repeated, three,
                                     pinched, drop):
    wrap = wrap and n_plus >= 3
    grid = make_grid(n_plus, n_minus, wrap)
    assert (tuple(zip(*grid.edge_ends.T.tolist(), grid.edge_labels.tolist())),
            tuple(map(tuple, grid.face_vertices.tolist()))
            ) == oracle.grid_cells(n_plus, n_minus, wrap)
    n, edges, faces = shuffled_grid(n_plus, n_minus, wrap, seed, twice, repeated, three, pinched)
    if drop:  # a face edge that may be no edge
        k = seed % len(edges)
        edges = edges[:k] + edges[k + 1:]
        got = outcome(oracle.quad_complex, n, edges, faces)
        if isinstance(got, tuple):
            assert got == outcome(oracle.DictComplex, n, edges, faces)
            return
    c, ref = oracle.quad_complex(n, edges, faces), oracle.DictComplex(n, edges, faces)

    assert c.face_edge_ids.tolist() == ref.face_edge_ids
    for v in range(-1, n + 1):  # a vertex off the complex raises the oracle's KeyError
        assert outcome(c.vertex_edges, v) == outcome(ref.vertex_edges.__getitem__, v)
        assert outcome(c.vertex_faces, v) == outcome(ref.vertex_faces.__getitem__, v)
    # every pair both ways, vertex pairs that are no edge and pairs off the complex
    rng = np.random.default_rng(seed)
    a = np.concatenate([[i for i, _j, _lab in edges], rng.integers(-1, n + 1, 40)])
    b = np.concatenate([[j for _i, j, _lab in edges], rng.integers(-1, n + 1, 40)])
    for i, j in zip(a.tolist(), b.tolist()):
        assert outcome(c.edge_id, i, j) == outcome(ref.edge_id, i, j)
        assert outcome(c.edge_id, j, i) == outcome(ref.edge_id, j, i)
        assert c.has_edge(i, j) == ref.has_edge(i, j)
    for cut in (len(edges), len(a)):
        got = outcome(lambda: c.edge_ids(b[:cut], a[:cut]).tolist())
        assert got == outcome(ref.edge_ids, b[:cut].tolist(), a[:cut].tolist())

    diag = validate(c)
    assert {key: getattr(diag, key) for key in oracle.validate(ref)} == oracle.validate(ref)
    vertices, edge_neighbors, diagonal, patches = interior_vertex_stars(c)
    assert list(zip(vertices.tolist(), edge_neighbors.tolist(), diagonal.tolist(),
                    patches.tolist())) == oracle.interior_vertex_stars(ref)

    expected = {label: outcome(oracle.coordinates, ref, label) for label in (PLUS, MINUS)}
    for label in (PLUS, MINUS):
        coords = outcome(c.coordinates, label)
        if isinstance(expected[label], tuple):  # the oracle's error
            assert coords == expected[label]
            continue
        for name, value in expected[label].items():
            got = as_lists(coords, name)
            if name in ("edge_line", "vertex_line"):
                got = {k: li for k, li in enumerate(got) if li >= 0}
            if name == "line_ribbons":
                got = {li: ribbons for li, ribbons in enumerate(got) if ribbons}
            assert got == value, (label, name)
        other = expected[MINUS if label == PLUS else PLUS]
        assert outcome(as_lists, coords, "crossings") == (
            other if isinstance(other, tuple) else
            oracle.crossings(expected[label]["lines"], other["vertex_line"]))
