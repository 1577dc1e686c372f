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
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

PLUS = "+"
MINUS = "-"
# labels of the face edges (i,j), (j,k), (k,l), (l,i), and the positions of each label
FACE_LABELS = (MINUS, PLUS, MINUS, PLUS)
SLOTS = {lab: [t for t, x in enumerate(FACE_LABELS) if x == lab] for lab in (PLUS, MINUS)}

Edge = Tuple[int, int]


def edge_key(i: int, j: int) -> Edge:
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True, eq=False)
class Incidence:
    """Ragged rows: row r holds ``ids[offsets[r]:offsets[r + 1]]``. Both
    arrays are read-only; `[r]` and iteration give a row as a list."""

    offsets: np.ndarray  # (R + 1,)
    ids: np.ndarray

    def __post_init__(self):
        self.offsets.flags.writeable = self.ids.flags.writeable = False

    @classmethod
    def grouped(cls, rows: np.ndarray, ids: np.ndarray, n_rows: int) -> "Incidence":
        """`ids` grouped by their row in [0, n_rows), each row in input order."""
        return cls(np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_rows)))),
                   ids[np.argsort(rows, kind="stable")])

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __iter__(self) -> Iterator[List[int]]:
        return iter(self.tolist())

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def group(self) -> np.ndarray:
        """The row of each id."""
        return np.repeat(np.arange(len(self)), self.degrees)

    def row(self, r: int) -> List[int]:
        if not 0 <= r < len(self):
            raise KeyError(r)
        return self.ids[self.offsets[r]:self.offsets[r + 1]].tolist()

    __getitem__ = row

    def tolist(self) -> List[List[int]]:
        ids, ends = self.ids.tolist(), self.offsets.tolist()
        return [ids[a:b] for a, b in zip(ends, ends[1:])]

    def gather(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The ids of the given rows in order, and the position in `rows` of the row of each."""
        starts, n = self.offsets[rows], self.degrees[rows]
        at = np.repeat(starts - (np.cumsum(n) - n), n) + np.arange(n.sum())
        return self.ids[at], np.repeat(np.arange(len(rows)), n)

    def by_length(self, lengths: Optional[np.ndarray] = None
                  ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per length n: the rows (k,) of that length and the positions
        (k, n) in `ids` of their first n ids; a row's length is its degree
        unless `lengths` are given."""
        lengths = self.degrees if lengths is None else lengths
        return [(rows, self.offsets[rows, None] + np.arange(n))
                for n in np.unique(lengths) for rows in [np.flatnonzero(lengths == n)]]


@dataclass(frozen=True)
class GridInfo:
    n_plus: int
    n_minus: int
    wrap_plus: bool


@dataclass(frozen=True, eq=False)
class QuadComplex:
    """Edge e joins ``edge_ends[e]``, the vertex pair as listed, and has
    label ``edge_labels[e]``; every per-edge array is in that order, and a
    vertex pair listed more than once is indexed by its last listing.
    ``edge_vertices`` holds each pair as (smaller, larger); edges are found
    by the sorted vertex pair keys ``smaller * V + larger``. Every array is
    read-only."""

    n_vertices: int
    edge_ends: np.ndarray      # (E, 2) as listed
    edge_labels: np.ndarray    # (E,)
    face_vertices: np.ndarray  # (F, 4)
    grid: Optional[GridInfo] = None
    edge_vertices: np.ndarray = field(init=False, repr=False)  # (E, 2) (min, max)
    face_edge_ids: np.ndarray = field(init=False, repr=False)  # (F, 4)
    vertex_edges_csr: Incidence = field(init=False, repr=False)
    vertex_faces_csr: Incidence = field(init=False, repr=False)
    _coordinates: Dict[str, "Coordinates"] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        n, put = self.n_vertices, partial(object.__setattr__, self)
        listed = np.array(self.edge_ends, dtype=np.int64).reshape(-1, 2)
        faces = np.array(self.face_vertices, dtype=np.int64).reshape(-1, 4)
        for what, index in (("edge", listed), ("face", faces)):
            outside = np.argwhere((index < 0) | (index >= n))  # before any array is sized by one
            if outside.size:
                k, t = outside[0]
                raise ValueError(f"{what} {k}: vertex {index[k, t]} is not in [0, {n})")
        ends = np.sort(listed, axis=1)
        keys = ends[:, 0] * n + ends[:, 1]
        order = np.argsort(keys, kind="stable")  # the last of equal keys is the last listing
        put("_keys", np.append(keys[order], np.iinfo(np.int64).max))
        put("_key_edges", np.append(order, -1))
        put("edge_ends", listed)
        put("edge_vertices", ends)
        put("edge_labels", np.array(self.edge_labels, dtype=str).reshape(len(ends)))
        put("face_vertices", faces)
        put("vertex_edges_csr", Incidence.grouped(ends.ravel(), np.arange(len(ends)).repeat(2), n))
        # a face lists each vertex it names once
        once = np.stack([(faces[:, :t] != faces[:, t:t + 1]).all(axis=1) for t in range(4)], 1)
        put("vertex_faces_csr",
            Incidence.grouped(faces[once], np.arange(len(faces)).repeat(4)[once.ravel()], n))
        # face_edge_labels order; a face edge that is no edge raises KeyError
        put("face_edge_ids", self.edge_ids(faces, np.roll(faces, -1, axis=1)))
        for name in ("_keys", "_key_edges", "edge_ends", "edge_vertices", "edge_labels",
                     "face_vertices", "face_edge_ids"):
            getattr(self, name).flags.writeable = False  # shared by every reader

    def edge_id(self, i: int, j: int) -> int:
        """Id of the edge joining i and j; KeyError if there is none."""
        lo, hi = edge_key(i, j)
        return int(self.edge_ids([lo], [hi])[0])

    def _lookup(self, a, b) -> Tuple[np.ndarray, np.ndarray]:
        """Ids of the edges joining a[k] and b[k], and where there is one."""
        lo, hi, n = np.minimum(a, b), np.maximum(a, b), self.n_vertices
        key = np.where((lo >= 0) & (hi < n), lo * n + hi, -1)
        # the last of the keys <= key; below them all, -1 reads the maximal key of no edge
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
        return str(self.edge_labels[self.edge_id(i, j)])

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
    return QuadComplex(
        n_vertices=n_plus * n_minus,
        edge_ends=np.concatenate((np.stack((left, right), -1).reshape(-1, 2),
                                  np.stack((column, column + n_plus), -1))),
        edge_labels=np.repeat([PLUS, MINUS], [left.size, column.size]),
        face_vertices=np.stack((left[:-1], left[1:], right[1:], right[:-1]), -1).reshape(-1, 4),
        grid=GridInfo(n_plus=n_plus, n_minus=n_minus, wrap_plus=wrap_plus),
    )


def _walks(nbrs: Incidence, starts: np.ndarray) -> Incidence:
    """Maximal walks through a graph, one from each node of `starts` not
    yet visited: a walk steps to the first neighbour that is not the node
    it came from, and ends where there is none or it was visited."""
    offsets, ids = nbrs.offsets.tolist(), nbrs.ids.tolist()
    seen, path, ends = [False] * len(nbrs), [], [0]
    for node in starts.tolist():
        prev = -1
        while node >= 0 and not seen[node]:
            seen[node] = True
            path.append(node)
            for w in ids[offsets[node]:offsets[node + 1]]:
                if w != prev:
                    break
            else:
                w = -1
            prev, node = node, w
        if len(path) > ends[-1]:
            ends.append(len(path))
    return Incidence(np.array(ends), np.array(path, dtype=np.int64))


def _neighbours(c: QuadComplex, label: Optional[str] = None) -> Incidence:
    """The vertices joined to each vertex by an edge (of one label), in edge order."""
    ends = c.edge_vertices if label is None else c.edge_vertices[c.edge_labels == label]
    return Incidence.grouped(ends.ravel(), ends[:, ::-1].ravel(), c.n_vertices)


def _label_lines(c: QuadComplex, label: str) -> Incidence:
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


def _label_ribbons(c: QuadComplex, label: str) -> Incidence:
    """Maximal face strips glued along edges of the opposite label."""
    n_faces = len(c.face_edge_ids)
    faces_of = Incidence.grouped(c.face_edge_ids.ravel(), np.repeat(np.arange(n_faces), 4),
                                 len(c.edge_ends))
    glue = c.face_edge_ids[:, SLOTS[MINUS if label == PLUS else PLUS]].ravel()
    # the faces on each face's two glue edges, in slot order, the face itself left out
    other, at = faces_of.gather(glue)
    face = at // 2
    keep = other != face
    nbrs = Incidence.grouped(face[keep], other[keep], n_faces)
    # open strips first, then closed ones
    return _walks(nbrs, np.concatenate((np.flatnonzero(nbrs.degrees <= 1), np.arange(n_faces))))


def _line_edges(c: QuadComplex, lines: Incidence) -> Incidence:
    """Edge ids of each line in walk order, the closing edge of a cycle last."""
    heads, tails = lines.offsets[:-1], lines.offsets[1:] - 1
    # a line of three or more vertices is a cycle when its ends are joined
    cycle = (lines.degrees > 2) & c._lookup(lines.ids[tails], lines.ids[heads])[1]
    after = np.arange(1, len(lines.ids) + 1)  # the next vertex of each, -1 past an open end
    after[tails] = np.where(cycle, heads, -1)
    on = after >= 0
    return Incidence.grouped(lines.group[on], c.edge_ids(lines.ids[on], lines.ids[after[on]]),
                             len(lines))


class Coordinates:
    """Coordinate lines and ribbons of one label and the maps between them,
    as read-only arrays and `Incidence` rows.

    Built once per complex and label by `QuadComplex.coordinates`: the line
    facts at once, each ribbon and crossing fact on first use (while the
    complex is alive). They are shared by every certificate and test of
    the net. A ribbon's faces are glued along edges of the opposite label.
    Edges are edge ids of the complex.
    """

    def __init__(self, c: QuadComplex, label: str):
        # weak, so that a dropped complex is freed at once, not by the cycle collector
        self._complex, self.label = weakref.proxy(c), label
        self.opposite = MINUS if label == PLUS else PLUS
        self.lines: Incidence = _label_lines(c, label)             # vertex paths
        self.line_edges: Incidence = _line_edges(c, self.lines)
        self.edge_line = np.full(len(c.edge_ends), -1)  # line of each edge, -1 if none
        self.vertex_line = np.full(c.n_vertices, -1)    # line of each vertex, -1 if none
        self.edge_line[self.line_edges.ids] = self.line_edges.group
        self.vertex_line[self.lines.ids] = self.lines.group
        self.edge_line.flags.writeable = self.vertex_line.flags.writeable = False

    def _strip_edges(self, label: str) -> Tuple[np.ndarray, np.ndarray]:
        """The edges of one label of the ribbon faces in strip order, and the ribbon of each."""
        strips = self.ribbons
        return (self._complex.face_edge_ids[strips.ids][:, SLOTS[label]].ravel(),
                strips.group.repeat(2))

    @cached_property
    def ribbons(self) -> Incidence:
        """Face index strips."""
        return _label_ribbons(self._complex, self.label)

    @cached_property
    def ribbon_edges(self) -> Incidence:
        """Distinct opposite-label edges of each ribbon, in strip order."""
        edges, ribbon = self._strip_edges(self.opposite)
        first = np.sort(np.unique(ribbon * len(self.edge_line) + edges, return_index=True)[1])
        return Incidence.grouped(ribbon[first], edges[first], len(self.ribbons))

    @cached_property
    def ribbon_bounds(self) -> Incidence:
        """Ascending ids of the lines bounding each ribbon (two when sound)."""
        edges, ribbon = self._strip_edges(self.label)
        line, n = self.edge_line[edges], len(self.lines)
        ribbon, line = np.divmod(np.unique((ribbon * n + line)[line >= 0]), n)
        return Incidence.grouped(ribbon, line, len(self.ribbons))

    @cached_property
    def ribbon_lines(self) -> List[Tuple[int, ...]]:
        """`ribbon_bounds` as tuples, the form certificates hand on."""
        return [tuple(bounds) for bounds in self.ribbon_bounds]

    @cached_property
    def line_ribbons(self) -> Incidence:
        """Two-line ribbons of each line; empty for a line that bounds none."""
        bounds = self.ribbon_bounds
        two = np.repeat(bounds.degrees == 2, bounds.degrees)
        return Incidence.grouped(bounds.ids[two], bounds.group[two], len(self.lines))

    @cached_property
    def line_pairs(self) -> Tuple[Incidence, Incidence]:
        """Bounding lines of each two-line ribbon, as two aligned row sets:
        the first line, and the second reordered so that corresponding
        vertices share an opposite-label edge (kept as walked when some
        vertex has no unique mate)."""
        bounds, n = self.ribbon_bounds, self._complex.n_vertices
        la, lb = bounds.ids[np.repeat(bounds.degrees == 2, bounds.degrees)].reshape(-1, 2).T
        (first, pair), (second, pair_b) = self.lines.gather(la), self.lines.gather(lb)
        # the distinct opposite-label neighbours of each first-line vertex on the second line
        w, at = _neighbours(self._complex, self.opposite).gather(first)
        on = self.vertex_line[w] == lb[pair[at]]
        at, w = np.divmod(np.unique(at[on] * n + w[on]), n)
        lone = np.bincount(at, minlength=len(first)) == 1
        unique = np.bincount(pair, ~lone, minlength=len(la)) == 0
        # an aligned pair has one mate per vertex, in the order of the first line
        a, b = unique[pair[at]], ~unique[pair_b]
        return (Incidence.grouped(pair, first, len(la)),
                Incidence.grouped(np.concatenate((pair[at[a]], pair_b[b])),
                                  np.concatenate((w[a], second[b])), len(la)))

    @cached_property
    def crossings(self) -> Tuple[Incidence, Incidence]:
        """The vertices of each line that lie on an opposite-label line, in
        walk order, and the id of that line for each, as two aligned row sets."""
        other = self._complex.coordinates(self.opposite).vertex_line[self.lines.ids]
        on = other >= 0
        line = self.lines.group[on]
        return (Incidence.grouped(line, self.lines.ids[on], len(self.lines)),
                Incidence.grouped(line, other[on], len(self.lines)))


def plus_lines(c: QuadComplex) -> Incidence:
    return c.coordinates(PLUS).lines


def minus_lines(c: QuadComplex) -> Incidence:
    return c.coordinates(MINUS).lines


def plus_ribbons(c: QuadComplex) -> Incidence:
    return c.coordinates(PLUS).ribbons


def minus_ribbons(c: QuadComplex) -> Incidence:
    return c.coordinates(MINUS).ribbons


def swapped_labels(c: QuadComplex) -> QuadComplex:
    """Exchange '+' and '-' everywhere (faces re-anchored to keep convention)."""
    # rotating (i,j,k,l) -> (j,k,l,i) swaps the edge-label pattern of a face
    return QuadComplex(n_vertices=c.n_vertices, edge_ends=c.edge_ends,
                       edge_labels=np.where(c.edge_labels == MINUS, PLUS, MINUS),
                       face_vertices=np.roll(c.face_vertices, -1, axis=1))


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
    count = np.bincount(c.face_edge_ids.ravel(), minlength=len(c.edge_ends))
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
