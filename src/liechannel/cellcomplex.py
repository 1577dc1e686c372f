"""Labelled quadrilateral cell complexes.

Edges carry a label '+' or '-'; on every face opposite edges share a label
and adjacent edges differ. Faces are stored as cyclically ordered quadruples
``(i, j, k, l)`` with edges ``(i,j)`` and ``(k,l)`` labelled '-' and
``(j,k)``, ``(l,i)`` labelled '+', so curvature formulas can address the
diagonals ``(i,k)`` and ``(j,l)`` unambiguously.

Coordinate lines follow edges of one label; coordinate ribbons are maximal
face strips glued along edges of the opposite label, so a '+'-ribbon is
bounded by two '+'-lines. Both are pure combinatorics: each complex walks
them once per label and keeps them (`QuadComplex.coordinates`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

PLUS = "+"
MINUS = "-"
# labels of the face edges (i,j), (j,k), (k,l), (l,i), and the positions of each label
FACE_LABELS = (MINUS, PLUS, MINUS, PLUS)
SLOTS = {lab: [t for t, x in enumerate(FACE_LABELS) if x == lab] for lab in (PLUS, MINUS)}

Edge = Tuple[int, int]


def edge_key(i: int, j: int) -> Edge:
    return (i, j) if i < j else (j, i)


class Incidence(NamedTuple):
    """Compressed rows: row r holds ``ids[offsets[r]:offsets[r + 1]]``."""

    offsets: np.ndarray
    ids: np.ndarray

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def row(self, r: int) -> List[int]:
        if not 0 <= r < len(self.offsets) - 1:
            raise KeyError(r)
        return self.ids[self.offsets[r]:self.offsets[r + 1]].tolist()

    def gather(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The ids of the given rows in order, and the position in `rows` of the row of each."""
        starts, n = self.offsets[rows], self.degrees[rows]
        at = np.repeat(starts - (np.cumsum(n) - n), n) + np.arange(n.sum())
        return self.ids[at], np.repeat(np.arange(len(rows)), n)


def _incidence(rows: np.ndarray, ids: np.ndarray, n_rows: int) -> Incidence:
    """`ids` grouped by their row in [0, n_rows), each row in input order."""
    return Incidence(np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_rows)))),
                     ids[np.argsort(rows, kind="stable")])


@dataclass(frozen=True)
class GridInfo:
    n_plus: int
    n_minus: int
    wrap_plus: bool


@dataclass(frozen=True)
class QuadComplex:
    """Edge e is ``edges[e]``, and every per-edge array is in that order;
    a vertex pair listed more than once is indexed by its last listing.
    The tuples are read once into arrays, which every method reads: edges
    are found by the sorted vertex pair keys ``smaller * V + larger``."""

    n_vertices: int
    edges: Tuple[Tuple[int, int, str], ...]
    faces: Tuple[Tuple[int, int, int, int], ...]
    grid: Optional[GridInfo] = None
    edge_vertices: np.ndarray = field(init=False, repr=False, compare=False)  # (E, 2) (min, max)
    edge_labels: np.ndarray = field(init=False, repr=False, compare=False)    # (E,)
    face_vertices: np.ndarray = field(init=False, repr=False, compare=False)  # (F, 4)
    face_edge_ids: np.ndarray = field(init=False, repr=False, compare=False)  # (F, 4)
    vertex_edges_csr: Incidence = field(init=False, repr=False, compare=False)
    vertex_faces_csr: Incidence = field(init=False, repr=False, compare=False)
    _coordinates: Dict[str, "Coordinates"] = field(default_factory=dict, init=False,
                                                   repr=False, compare=False)

    def __post_init__(self):
        n, put = self.n_vertices, partial(object.__setattr__, self)
        rows = np.array(self.edges, dtype=object).reshape(-1, 3)
        ends = rows[:, :2].astype(np.int64)
        faces = np.array(self.faces, dtype=np.int64).reshape(-1, 4)
        for what, index in (("edge", ends), ("face", faces)):
            outside = np.argwhere((index < 0) | (index >= n))  # before any array is sized by one
            if outside.size:
                k, t = outside[0]
                raise ValueError(f"{what} {k}: vertex {index[k, t]} is not in [0, {n})")
        ends.sort(axis=1)
        keys = ends[:, 0] * n + ends[:, 1]
        order = np.argsort(keys, kind="stable")  # the last of equal keys is the last listing
        put("_keys", np.append(keys[order], np.iinfo(np.int64).max))
        put("_key_edges", order)
        put("edge_vertices", ends)
        put("edge_labels", rows[:, 2].astype(str))
        put("face_vertices", faces)
        put("vertex_edges_csr", _incidence(ends.ravel(), np.arange(len(ends)).repeat(2), n))
        # a face lists each vertex it names once
        once = np.stack([(faces[:, :t] != faces[:, t:t + 1]).all(axis=1) for t in range(4)], 1)
        put("vertex_faces_csr",
            _incidence(faces[once], np.arange(len(faces)).repeat(4)[once.ravel()], n))
        # face_edge_labels order; a face edge that is no edge raises KeyError
        put("face_edge_ids", self.edge_ids(faces, np.roll(faces, -1, axis=1)))

    def edge_id(self, i: int, j: int) -> int:
        """Id of the edge joining i and j; KeyError if there is none."""
        lo, hi = edge_key(i, j)
        return int(self.edge_ids([lo], [hi])[0])

    def _lookup(self, a, b) -> Tuple[np.ndarray, np.ndarray]:
        """Ids of the edges joining a[k] and b[k], and where there is one."""
        lo, hi, n = np.minimum(a, b), np.maximum(a, b), self.n_vertices
        key = np.where((lo >= 0) & (hi < n), lo * n + hi, -1)
        # the last of the keys <= key; below them all, -1 reads the maximal key
        at = np.searchsorted(self._keys, key, side="right") - 1
        return self._key_edges[at], self._keys[at] == key

    def edge_ids(self, a: Sequence[int], b: Sequence[int]) -> np.ndarray:
        """Ids of the edges joining a[k] and b[k]; KeyError naming the first
        missing pair."""
        ids, found = self._lookup(a, b)
        missing = np.flatnonzero(~found)
        if missing.size:
            k = missing[0]
            raise KeyError(edge_key(int(np.ravel(a)[k]), int(np.ravel(b)[k])))
        return ids

    def label(self, i: int, j: int) -> str:
        return self.edges[self.edge_id(i, j)][2]

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self._lookup(*edge_key(i, j))[1])

    def vertex_edges(self, v: int) -> List[int]:
        """Ids of the edges at v, ascending."""
        return self.vertex_edges_csr.row(v)

    def vertex_faces(self, v: int) -> List[int]:
        """Indices of the faces containing v, ascending."""
        return self.vertex_faces_csr.row(v)

    def coordinates(self, label: str) -> "Coordinates":
        """Lines, ribbons and their maps for one label, built once per complex."""
        coords = self._coordinates.get(label)
        if coords is None:
            if label not in (PLUS, MINUS):
                raise ValueError("direction must be '+' or '-'")
            coords = self._coordinates[label] = Coordinates(self, label)
        return coords


def face_edge_labels(face: Sequence[int]) -> List[Tuple[int, int, str]]:
    i, j, k, l = face
    return list(zip((i, j, k, l), (j, k, l, i), FACE_LABELS))


def make_grid(n_plus: int, n_minus: int, wrap_plus: bool = False) -> QuadComplex:
    """Grid with n_plus x n_minus vertices; '+' edges along rows.

    With ``wrap_plus`` the rows close into cycles (n_plus >= 3 required).
    Vertex ``(a, b)`` of row b is ``b * n_plus + a``.
    """
    if n_plus < 2 or n_minus < 2:
        raise ValueError("make_grid needs n_plus >= 2 and n_minus >= 2")
    if wrap_plus and n_plus < 3:
        raise ValueError("wrapped grids need n_plus >= 3")
    a = np.arange(n_plus if wrap_plus else n_plus - 1)
    row = n_plus * np.arange(n_minus)[:, None]
    left, right = row + a, row + (a + 1) % n_plus
    column = np.arange(n_plus * (n_minus - 1))
    i = np.concatenate((left.ravel(), column)).tolist()
    j = np.concatenate((right.ravel(), column + n_plus)).tolist()
    labels = [PLUS] * left.size + [MINUS] * column.size
    faces = (left[:-1], left[1:], right[1:], right[:-1])
    return QuadComplex(
        n_vertices=n_plus * n_minus,
        edges=tuple(zip(i, j, labels)),
        faces=tuple(zip(*(corner.ravel().tolist() for corner in faces))),
        grid=GridInfo(n_plus=n_plus, n_minus=n_minus, wrap_plus=wrap_plus),
    )


def _walks(nbrs: Incidence, starts: np.ndarray) -> List[List[int]]:
    """Maximal walks through a graph, one from each node of `starts` not
    yet visited: a walk steps to the first neighbour that is not the node
    it came from, and ends where there is none or it was visited."""
    offsets, ids = nbrs.offsets.tolist(), nbrs.ids.tolist()
    seen, walks = [False] * (len(offsets) - 1), []
    for node in starts.tolist():
        path, prev = [], -1
        while node >= 0 and not seen[node]:
            seen[node] = True
            path.append(node)
            for w in ids[offsets[node]:offsets[node + 1]]:
                if w != prev:
                    break
            else:
                w = -1
            prev, node = node, w
        if path:
            walks.append(path)
    return walks


def _neighbours(c: QuadComplex, label: Optional[str] = None) -> Incidence:
    """The vertices joined to each vertex by an edge (of one label), in edge order."""
    ends = c.edge_vertices if label is None else c.edge_vertices[c.edge_labels == label]
    return _incidence(ends.ravel(), ends[:, ::-1].ravel(), c.n_vertices)


def _label_lines(c: QuadComplex, label: str) -> List[List[int]]:
    """Paths (or cycles) along edges of one label."""
    nbrs = _neighbours(c, label)
    degree = nbrs.degrees
    over = np.flatnonzero(degree > 2)
    if over.size:
        raise ValueError(
            f"vertex {over[0]} has {degree[over[0]]} '{label}'-edges; coordinate lines "
            "are only defined for complexes with at most two per vertex"
        )
    # open paths first, starting from endpoints
    return _walks(nbrs, np.concatenate((np.flatnonzero(degree == 1), np.flatnonzero(degree))))


def _label_ribbons(c: QuadComplex, label: str) -> List[List[int]]:
    """Maximal face strips glued along edges of the opposite label."""
    n_faces = len(c.face_edge_ids)
    faces_of = _incidence(c.face_edge_ids.ravel(), np.repeat(np.arange(n_faces), 4), len(c.edges))
    glue = c.face_edge_ids[:, SLOTS[MINUS if label == PLUS else PLUS]].ravel()
    # the faces on each face's two glue edges, in slot order, the face itself left out
    other, at = faces_of.gather(glue)
    face = at // 2
    keep = other != face
    nbrs = _incidence(face[keep], other[keep], n_faces)
    # open strips first, then closed ones
    return _walks(nbrs, np.concatenate((np.flatnonzero(nbrs.degrees <= 1), np.arange(n_faces))))


class Coordinates:
    """Coordinate lines and ribbons of one label and the maps between them.

    Built once per complex and label by `QuadComplex.coordinates`: the line
    facts at once, each ribbon and crossing fact on first use (while the
    complex is alive). They are shared by every certificate and test of
    the net and must not be mutated. A ribbon's faces are glued along edges
    of the opposite label. Edges are edge ids of the complex.
    """

    def __init__(self, c: QuadComplex, label: str):
        # weak, so that a dropped complex is freed at once, not by the cycle collector
        self._complex, self.label = weakref.proxy(c), label
        self.opposite = MINUS if label == PLUS else PLUS
        self.lines: List[List[int]] = _label_lines(c, label)
        self.line_edges: List[List[int]] = _line_edges(c, self.lines)
        self.edge_line = np.full(len(c.edges), -1)     # line of each edge, -1 if none
        self.vertex_line = np.full(c.n_vertices, -1)   # line of each vertex, -1 if none
        for li, (line, edges) in enumerate(zip(self.lines, self.line_edges)):
            self.vertex_line[line], self.edge_line[edges] = li, li

    def _strip_edges(self, strip: List[int], label: str) -> List[int]:
        return self._complex.face_edge_ids[strip][:, SLOTS[label]].ravel().tolist()

    @cached_property
    def ribbons(self) -> List[List[int]]:
        """Face index strips."""
        return _label_ribbons(self._complex, self.label)

    @cached_property
    def ribbon_edges(self) -> List[List[int]]:
        """Distinct opposite-label edges of each ribbon, in strip order."""
        return [list(dict.fromkeys(self._strip_edges(strip, self.opposite)))
                for strip in self.ribbons]

    @cached_property
    def ribbon_lines(self) -> List[Tuple[int, ...]]:
        """Ascending ids of the lines bounding each ribbon (two when sound)."""
        return [tuple(sorted({li for li in self.edge_line[self._strip_edges(strip, self.label)]
                              .tolist() if li >= 0}))
                for strip in self.ribbons]

    @cached_property
    def line_ribbons(self) -> Dict[int, List[int]]:
        """Two-line ribbons of each bounding line."""
        out: Dict[int, List[int]] = {}
        for ri, bounds in enumerate(self.ribbon_lines):
            for li in bounds if len(bounds) == 2 else ():
                out.setdefault(li, []).append(ri)
        return out

    @cached_property
    def line_pairs(self) -> List[Tuple[List[int], List[int]]]:
        """Bounding lines of each two-line ribbon, the second reordered so
        that corresponding vertices share an opposite-label edge (kept as
        walked when some vertex has no unique mate)."""
        offsets, nbrs = (x.tolist() for x in _neighbours(self._complex, self.opposite))
        line_of, pairs = self.vertex_line.tolist(), []
        for la, lb in (bounds for bounds in self.ribbon_lines if len(bounds) == 2):
            mates = [{w for w in nbrs[offsets[v]:offsets[v + 1]] if line_of[w] == lb}
                     for v in self.lines[la]]
            unique = all(len(m) == 1 for m in mates)
            pairs.append((self.lines[la], [min(m) for m in mates] if unique else self.lines[lb]))
        return pairs

    @cached_property
    def crossings(self) -> List[Dict[int, List[int]]]:
        """Per line: id of each opposite-label line it crosses -> the
        vertices of the line on it, ordered by first crossing along the line."""
        other = self._complex.coordinates(self.opposite).vertex_line.tolist()
        out = []
        for line in self.lines:
            crossing: Dict[int, List[int]] = {}
            for v in line:
                if other[v] >= 0:
                    crossing.setdefault(other[v], []).append(v)
            out.append(crossing)
        return out


def _line_edges(c: QuadComplex, lines: List[List[int]]) -> List[List[int]]:
    """Edge ids of each line in walk order, the closing edge of a cycle last."""
    # a line of three or more vertices is a cycle when its ends are joined
    tips = np.array([(line[-1], line[0]) if len(line) > 2 else (-1, -1) for line in lines])
    starts, ends, counts = [], [], []
    for line, cycle in zip(lines, c._lookup(*tips.reshape(-1, 2).T)[1].tolist()):
        nxt = line[1:] + line[:1] if cycle else line[1:]
        starts += line[:len(nxt)]
        ends += nxt
        counts.append(len(nxt))
    ids = c.edge_ids(starts, ends).tolist()
    return [ids[k - n:k] for k, n in zip(accumulate(counts), counts)]


def plus_lines(c: QuadComplex) -> List[List[int]]:
    return c.coordinates(PLUS).lines


def minus_lines(c: QuadComplex) -> List[List[int]]:
    return c.coordinates(MINUS).lines


def plus_ribbons(c: QuadComplex) -> List[List[int]]:
    return c.coordinates(PLUS).ribbons


def minus_ribbons(c: QuadComplex) -> List[List[int]]:
    return c.coordinates(MINUS).ribbons


def swapped_labels(c: QuadComplex) -> QuadComplex:
    """Exchange '+' and '-' everywhere (faces re-anchored to keep convention)."""
    edges = tuple((i, j, PLUS if lab == MINUS else MINUS) for i, j, lab in c.edges)
    # rotating (i,j,k,l) -> (j,k,l,i) swaps the edge-label pattern of a face
    faces = tuple((j, k, l, i) for i, j, k, l in c.faces)
    return QuadComplex(n_vertices=c.n_vertices, edges=edges, faces=faces, grid=None)


@dataclass
class ComplexDiagnostics:
    ok: bool
    odd_interior_vertices: List[int]
    bad_faces: List[int]
    overfull_edges: List[Edge]
    disconnected: bool


def validate(c: QuadComplex) -> ComplexDiagnostics:
    """Diagnostic pass over the complex invariants; never raises."""
    # faces of each edge; every face edge is an edge (the complex refuses others)
    count = np.bincount(c.face_edge_ids.ravel(), minlength=len(c.edges))
    # each vertex pair once, at its first listing, with the count of the edge indexing it
    index = c.edge_ids(*c.edge_vertices.T)
    first = np.sort(np.unique(index, return_index=True)[1])
    pairs, count = c.edge_vertices[first], count[index[first]]
    overfull = [tuple(pair) for pair in pairs[count > 2].tolist()]

    bad_faces = np.flatnonzero((c.edge_labels[c.face_edge_ids] != FACE_LABELS).any(axis=1)).tolist()

    boundary = np.zeros(c.n_vertices, dtype=bool)
    boundary[pairs[count < 2]] = True
    odd_interior = np.flatnonzero(~boundary & (c.vertex_edges_csr.degrees % 2 == 1)).tolist()

    # connectivity over edges, one breadth-first level at a time from vertex 0
    nbrs, reached = _neighbours(c), np.zeros(c.n_vertices, dtype=bool)
    level = np.arange(min(c.n_vertices, 1))
    while level.size:
        reached[level] = True
        found = nbrs.gather(level)[0]
        level = np.unique(found[~reached[found]])
    disconnected = not reached.all()

    return ComplexDiagnostics(
        ok=not (overfull or bad_faces or odd_interior or disconnected),
        odd_interior_vertices=odd_interior,
        bad_faces=bad_faces,
        overfull_edges=overfull,
        disconnected=disconnected,
    )
