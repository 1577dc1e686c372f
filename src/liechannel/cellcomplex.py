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
from functools import cached_property
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

PLUS = "+"
MINUS = "-"
# labels of the face edges (i,j), (j,k), (k,l), (l,i), and the positions of each label
FACE_LABELS = (MINUS, PLUS, MINUS, PLUS)
SLOTS = {lab: [t for t, x in enumerate(FACE_LABELS) if x == lab] for lab in (PLUS, MINUS)}

Edge = Tuple[int, int]


def edge_key(i: int, j: int) -> Edge:
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class GridInfo:
    n_plus: int
    n_minus: int
    wrap_plus: bool


@dataclass(frozen=True)
class QuadComplex:
    """Edge e is ``edges[e]``, and every per-edge array is in that order;
    a vertex pair listed more than once is indexed by its last listing."""

    n_vertices: int
    edges: Tuple[Tuple[int, int, str], ...]
    faces: Tuple[Tuple[int, int, int, int], ...]
    grid: Optional[GridInfo] = None
    _edge_index: Dict[Edge, int] = field(init=False, repr=False, compare=False)
    _vertex_edges: Dict[int, List[int]] = field(init=False, repr=False, compare=False)
    _vertex_faces: Dict[int, List[int]] = field(init=False, repr=False, compare=False)
    edge_vertices: np.ndarray = field(init=False, repr=False, compare=False)  # (E, 2) (min, max)
    face_edge_ids: np.ndarray = field(init=False, repr=False, compare=False)  # (F, 4)
    _coordinates: Dict[str, "Coordinates"] = field(default_factory=dict, init=False,
                                                   repr=False, compare=False)

    def __post_init__(self):
        index: Dict[Edge, int] = {}
        vertex_edges: Dict[int, List[int]] = {v: [] for v in range(self.n_vertices)}
        for e, (i, j, _lab) in enumerate(self.edges):
            index[edge_key(i, j)] = e
            vertex_edges[i].append(e)
            vertex_edges[j].append(e)
        face_edge_ids: List[List[int]] = []
        vertex_faces: Dict[int, List[int]] = {v: [] for v in range(self.n_vertices)}
        for fi, face in enumerate(self.faces):
            # face_edge_labels order; a face edge that is no edge raises KeyError
            face_edge_ids.append([index[edge_key(a, b)] for a, b, _lab in face_edge_labels(face)])
            for v in dict.fromkeys(face):
                vertex_faces[v].append(fi)
        object.__setattr__(self, "_edge_index", index)
        object.__setattr__(self, "_vertex_edges", vertex_edges)
        object.__setattr__(self, "_vertex_faces", vertex_faces)
        object.__setattr__(self, "edge_vertices", np.sort(
            np.array([e[:2] for e in self.edges], dtype=int).reshape(-1, 2), axis=1))
        object.__setattr__(self, "face_edge_ids",
                           np.array(face_edge_ids, dtype=int).reshape(-1, 4))

    def edge_id(self, i: int, j: int) -> int:
        """Id of the edge joining i and j; KeyError if there is none."""
        return self._edge_index[edge_key(i, j)]

    def edge_ids(self, a: Sequence[int], b: Sequence[int]) -> np.ndarray:
        """Ids of the edges joining a[k] and b[k]; KeyError if one is missing."""
        lo, hi = np.minimum(a, b).tolist(), np.maximum(a, b).tolist()
        return np.array([self._edge_index[k] for k in zip(lo, hi)], dtype=int)

    def label(self, i: int, j: int) -> str:
        return self.edges[self.edge_id(i, j)][2]

    def has_edge(self, i: int, j: int) -> bool:
        return edge_key(i, j) in self._edge_index

    def vertex_edges(self, v: int) -> List[int]:
        """Ids of the edges at v, ascending."""
        return self._vertex_edges[v]

    def vertex_faces(self, v: int) -> List[int]:
        """Indices of the faces containing v, ascending."""
        return self._vertex_faces[v]

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
    """
    if n_plus < 2 or n_minus < 2:
        raise ValueError("make_grid needs n_plus >= 2 and n_minus >= 2")
    if wrap_plus and n_plus < 3:
        raise ValueError("wrapped grids need n_plus >= 3")

    def vid(a: int, b: int) -> int:
        return b * n_plus + a % n_plus

    edges: List[Tuple[int, int, str]] = []
    for b in range(n_minus):
        last = n_plus if wrap_plus else n_plus - 1
        for a in range(last):
            edges.append((vid(a, b), vid(a + 1, b), PLUS))
    for b in range(n_minus - 1):
        for a in range(n_plus):
            edges.append((vid(a, b), vid(a, b + 1), MINUS))

    faces: List[Tuple[int, int, int, int]] = []
    last = n_plus if wrap_plus else n_plus - 1
    for b in range(n_minus - 1):
        for a in range(last):
            faces.append((vid(a, b), vid(a, b + 1), vid(a + 1, b + 1), vid(a + 1, b)))

    return QuadComplex(
        n_vertices=n_plus * n_minus,
        edges=tuple(edges),
        faces=tuple(faces),
        grid=GridInfo(n_plus=n_plus, n_minus=n_minus, wrap_plus=wrap_plus),
    )


def _walks(nbrs: Dict[int, List[int]], ends: Sequence[int],
           rest: Sequence[int]) -> List[List[int]]:
    """Maximal walks through a graph of degree <= 2: first from the `ends`,
    then from the unvisited nodes of `rest` (closed cycles)."""
    seen = set()
    walks: List[List[int]] = []
    for start in (*ends, *rest):
        if start in seen:
            continue
        path, prev = [start], None
        seen.add(start)
        while True:
            nxt = [w for w in nbrs[path[-1]] if w != prev]
            if not nxt or nxt[0] in seen:
                break
            prev = path[-1]
            path.append(nxt[0])
            seen.add(nxt[0])
        walks.append(path)
    return walks


def _label_lines(c: QuadComplex, label: str) -> List[List[int]]:
    """Paths (or cycles) along edges of one label."""
    nbrs: Dict[int, List[int]] = {v: [] for v in range(c.n_vertices)}
    for i, j, lab in c.edges:
        if lab == label:
            nbrs[i].append(j)
            nbrs[j].append(i)
    for v, ns in nbrs.items():
        if len(ns) > 2:
            raise ValueError(
                f"vertex {v} has {len(ns)} '{label}'-edges; coordinate lines "
                "are only defined for complexes with at most two per vertex"
            )
    vertices = range(c.n_vertices)
    # open paths first, starting from endpoints
    return _walks(nbrs, [v for v in vertices if len(nbrs[v]) == 1],
                  [v for v in vertices if nbrs[v]])


def _label_ribbons(c: QuadComplex, label: str) -> List[List[int]]:
    """Maximal face strips glued along edges of the opposite label."""
    faces_of: Dict[int, List[int]] = {}
    for fi, ids in enumerate(c.face_edge_ids.tolist()):
        for e in ids:
            faces_of.setdefault(e, []).append(fi)
    glue = c.face_edge_ids[:, SLOTS[MINUS if label == PLUS else PLUS]].tolist()
    nbrs = {fi: [fj for e in ids for fj in faces_of[e] if fj != fi] for fi, ids in enumerate(glue)}
    # open strips first, then closed ones
    return _walks(nbrs, [fi for fi, ns in nbrs.items() if len(ns) <= 1], list(nbrs))


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
        self.edge_line = np.full(len(c.edges), -1)  # line of each edge, -1 if none
        for li, edges in enumerate(self.line_edges):
            self.edge_line[edges] = li
        self.vertex_line = {v: li for li, line in enumerate(self.lines) for v in line}

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
        c, pairs = self._complex, []
        for la, lb in (bounds for bounds in self.ribbon_lines if len(bounds) == 2):
            on_b = set(self.lines[lb])
            mates = [{w for e in c.vertex_edges(v) if c.edges[e][2] == self.opposite
                      for w in c.edges[e][:2] if w in on_b} for v in self.lines[la]]
            unique = all(len(m) == 1 for m in mates)
            pairs.append((self.lines[la], [min(m) for m in mates] if unique else self.lines[lb]))
        return pairs

    @cached_property
    def crossings(self) -> List[Dict[int, List[int]]]:
        """Per line: id of each opposite-label line it crosses -> the
        vertices of the line on it, ordered by first crossing along the line."""
        other = self._complex.coordinates(self.opposite).vertex_line
        out = []
        for line in self.lines:
            crossing: Dict[int, List[int]] = {}
            for v in (v for v in line if v in other):
                crossing.setdefault(other[v], []).append(v)
            out.append(crossing)
        return out


def _line_edges(c: QuadComplex, lines: List[List[int]]) -> List[List[int]]:
    """Edge ids of each line in walk order, the closing edge of a cycle last."""
    starts, ends, counts = [], [], []
    for line in lines:
        nxt = line[1:] + line[:1] if len(line) > 2 and c.has_edge(line[-1], line[0]) else line[1:]
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
    overfull = [k for k, e in c._edge_index.items() if count[e] > 2]

    labels = np.array([lab for *_e, lab in c.edges], dtype=str)
    bad_faces = np.flatnonzero((labels[c.face_edge_ids] != FACE_LABELS).any(axis=1)).tolist()

    boundary = {v for k, e in c._edge_index.items() if count[e] < 2 for v in k}
    odd_interior = [
        v for v in range(c.n_vertices)
        if v not in boundary and len(c.vertex_edges(v)) % 2 == 1
    ]

    # connectivity over edges
    disconnected = False
    if c.n_vertices > 0:
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in (w for e in c.vertex_edges(v) for w in c.edges[e][:2]):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        disconnected = len(seen) != c.n_vertices

    return ComplexDiagnostics(
        ok=not (overfull or bad_faces or odd_interior or disconnected),
        odd_interior_vertices=odd_interior,
        bad_faces=bad_faces,
        overfull_edges=overfull,
        disconnected=disconnected,
    )
