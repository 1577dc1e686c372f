import pytest

from liechannel.cellcomplex import (
    QuadComplex, make_grid, validate, swapped_labels, face_edge_labels, edge_key,
    plus_lines, minus_lines, plus_ribbons, minus_ribbons, PLUS, MINUS,
)


def test_grid_3x3_counts():
    c = make_grid(3, 3)
    assert c.n_vertices == 9
    assert len(c.edges) == 12
    assert sum(1 for *_e, lab in c.edges if lab == PLUS) == 6
    assert sum(1 for *_e, lab in c.edges if lab == MINUS) == 6
    assert len(c.faces) == 4


def test_wrapped_grid_counts():
    c = make_grid(4, 2, wrap_plus=True)
    assert c.n_vertices == 8
    assert len(c.edges) == 12
    assert len(c.faces) == 4
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
    for face in c.faces:
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
            assert seen == list(range(len(c.faces)))


def test_grid_face_count_formula():
    assert len(make_grid(6, 5).faces) == 5 * 4
    assert len(make_grid(6, 5, wrap_plus=True).faces) == 6 * 4


def test_single_face_ribbons():
    c = make_grid(2, 2)
    assert len(c.faces) == 1
    assert plus_ribbons(c) == [[0]]
    assert minus_ribbons(c) == [[0]]


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
    edges = tuple((i, j, PLUS if (i, j) == (0, 3) else lab) for i, j, lab in c.edges)
    bad = QuadComplex(n_vertices=c.n_vertices, edges=edges, faces=c.faces)
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
    fan = QuadComplex(n_vertices=7, edges=tuple(edges), faces=faces)
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
            for a, b, lab in face_edge_labels(c.faces[fi]):
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
REVERSED_ROWS = QuadComplex(
    n_vertices=6, faces=((0, 5, 4, 1), (1, 4, 3, 2)),
    edges=((0, 1, PLUS), (1, 2, PLUS), (3, 4, PLUS), (4, 5, PLUS),
           (0, 5, MINUS), (1, 4, MINUS), (2, 3, MINUS)))


@pytest.mark.parametrize("c", [
    make_grid(2, 2), make_grid(3, 3), make_grid(5, 4), make_grid(5, 4, wrap_plus=True),
    swapped_labels(make_grid(4, 3, wrap_plus=True)), swapped_labels(make_grid(6, 2)),
    REVERSED_ROWS,
], ids=["2x2", "3x3", "5x4", "5x4-wrapped", "swapped-wrapped", "swapped-6x2", "reversed-rows"])
def test_coordinates_match_direct_construction(c):
    for label in (PLUS, MINUS):
        coords = c.coordinates(label)
        for name, value in _direct_coordinates(c, label).items():
            got = getattr(coords, name)
            if name in ("line_edges", "ribbon_edges"):  # edge ids, read back as vertex pairs
                got = [[edge_key(*c.edges[e][:2]) for e in ids] for ids in got]
            assert got == value, (label, name)


def test_reversed_rows_are_aligned():
    assert validate(REVERSED_ROWS).ok
    assert REVERSED_ROWS.coordinates(PLUS).line_pairs == [([0, 1, 2], [5, 4, 3])]


def test_coordinates_built_once_and_shared():
    c = make_grid(4, 3, wrap_plus=True)
    assert c.coordinates(PLUS) is c.coordinates(PLUS)
    assert plus_lines(c) is c.coordinates(PLUS).lines
    assert minus_ribbons(c) is c.coordinates(MINUS).ribbons
    with pytest.raises(ValueError):
        c.coordinates("x")


@pytest.mark.parametrize("c", [
    make_grid(5, 4, wrap_plus=True), swapped_labels(make_grid(4, 3)), REVERSED_ROWS,
], ids=["5x4-wrapped", "swapped-4x3", "reversed-rows"])
def test_edge_index(c):
    assert c.edge_vertices.tolist() == [sorted((i, j)) for i, j, _lab in c.edges]
    for e, (i, j, lab) in enumerate(c.edges):
        assert c.edge_id(i, j) == c.edge_id(j, i) == e and c.label(j, i) == lab
    assert c.face_edge_ids.tolist() == [[c.edge_id(a, b) for a, b, _lab in face_edge_labels(f)]
                                        for f in c.faces]
    a, b = c.edge_vertices.T
    assert c.edge_ids(b, a).tolist() == list(range(len(c.edges)))
    for v in range(c.n_vertices):
        assert c.vertex_edges(v) == [e for e, (i, j, _lab) in enumerate(c.edges) if v in (i, j)]
    with pytest.raises(KeyError):
        c.edge_id(0, c.n_vertices)


def test_pair_listed_twice_is_indexed_by_its_last_listing():
    edges = ((0, 1, MINUS), (1, 2, PLUS), (2, 3, MINUS), (3, 0, PLUS), (1, 0, MINUS))
    c = QuadComplex(n_vertices=4, edges=edges, faces=((0, 1, 2, 3),))
    assert c.edge_id(0, 1) == 4 and c.face_edge_ids.tolist() == [[4, 1, 2, 3]]
    assert c.vertex_edges(0) == [0, 3, 4]
    assert validate(c).bad_faces == []
    # three faces on edge (0, 1): reported once, by vertex pair
    c = QuadComplex(n_vertices=4, edges=edges[:4], faces=((0, 1, 2, 3),) * 3)
    assert validate(c).overfull_edges == [(0, 1), (1, 2), (2, 3), (0, 3)]
