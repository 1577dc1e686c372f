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
from typing import Dict, List, Optional, Sequence, Tuple

PLUS = "+"
MINUS = "-"

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
    n_vertices: int
    edges: Tuple[Tuple[int, int, str], ...]
    faces: Tuple[Tuple[int, int, int, int], ...]
    grid: Optional[GridInfo] = None
    _labels: Dict[Edge, str] = field(default_factory=dict, repr=False, compare=False)
    _vertex_edges: Dict[int, List[Edge]] = field(default_factory=dict, repr=False, compare=False)
    _edge_faces: Dict[Edge, List[int]] = field(default_factory=dict, repr=False, compare=False)
    _vertex_faces: Dict[int, List[int]] = field(default_factory=dict, repr=False, compare=False)
    _coordinates: Dict[str, "Coordinates"] = field(default_factory=dict, init=False,
                                                   repr=False, compare=False)

    def __post_init__(self):
        labels: Dict[Edge, str] = {}
        vertex_edges: Dict[int, List[Edge]] = {v: [] for v in range(self.n_vertices)}
        for i, j, lab in self.edges:
            k = edge_key(i, j)
            labels[k] = lab
            vertex_edges[i].append(k)
            vertex_edges[j].append(k)
        edge_faces: Dict[Edge, List[int]] = {k: [] for k in labels}
        vertex_faces: Dict[int, List[int]] = {v: [] for v in range(self.n_vertices)}
        for fi, face in enumerate(self.faces):
            for a, b in face_edges(face):
                edge_faces[edge_key(a, b)].append(fi)
            for v in dict.fromkeys(face):
                vertex_faces[v].append(fi)
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_vertex_edges", vertex_edges)
        object.__setattr__(self, "_edge_faces", edge_faces)
        object.__setattr__(self, "_vertex_faces", vertex_faces)

    def label(self, i: int, j: int) -> str:
        return self._labels[edge_key(i, j)]

    def has_edge(self, i: int, j: int) -> bool:
        return edge_key(i, j) in self._labels

    def vertex_edges(self, v: int) -> List[Edge]:
        return self._vertex_edges[v]

    def edge_faces(self, i: int, j: int) -> List[int]:
        return self._edge_faces[edge_key(i, j)]

    def vertex_faces(self, v: int) -> List[int]:
        """Indices of the faces containing v, ascending."""
        return self._vertex_faces[v]

    def vertex_star_degree(self, v: int) -> int:
        return len(self._vertex_edges[v])

    def coordinates(self, label: str) -> "Coordinates":
        """Lines, ribbons and their maps for one label, built once per complex."""
        coords = self._coordinates.get(label)
        if coords is None:
            if label not in (PLUS, MINUS):
                raise ValueError("direction must be '+' or '-'")
            coords = self._coordinates[label] = Coordinates(self, label)
        return coords


def face_edges(face: Sequence[int]) -> List[Tuple[int, int]]:
    i, j, k, l = face
    return [(i, j), (j, k), (k, l), (l, i)]


def face_edge_labels(face: Sequence[int]) -> List[Tuple[int, int, str]]:
    i, j, k, l = face
    return [(i, j, MINUS), (j, k, PLUS), (k, l, MINUS), (l, i, PLUS)]


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
    glue = MINUS if label == PLUS else PLUS
    nbrs = {fi: [fj for a, b, lab in face_edge_labels(face) if lab == glue
                 for fj in c.edge_faces(a, b) if fj != fi]
            for fi, face in enumerate(c.faces)}
    # open strips first, then closed ones
    return _walks(nbrs, [fi for fi, ns in nbrs.items() if len(ns) <= 1], list(nbrs))


class Coordinates:
    """Coordinate lines and ribbons of one label and the maps between them.

    Built once per complex and label by `QuadComplex.coordinates`: the line
    facts at once, each ribbon and crossing fact on first use (while the
    complex is alive). They are shared by every certificate and test of
    the net and must not be mutated. A ribbon's faces are glued along edges
    of the opposite label.
    """

    def __init__(self, c: QuadComplex, label: str):
        # weak, so that a dropped complex is freed at once, not by the cycle collector
        self._complex, self.label = weakref.proxy(c), label
        self.opposite = MINUS if label == PLUS else PLUS
        self.lines: List[List[int]] = _label_lines(c, label)
        self.line_edges: List[List[Edge]] = [_line_edges(c, line) for line in self.lines]
        self.edge_line = {e: li for li, edges in enumerate(self.line_edges) for e in edges}
        self.vertex_line = {v: li for li, line in enumerate(self.lines) for v in line}

    def _strip_edges(self, strip: List[int], label: str) -> List[Edge]:
        return [edge_key(a, b) for fi in strip
                for a, b, lab in face_edge_labels(self._complex.faces[fi]) if lab == label]

    @cached_property
    def ribbons(self) -> List[List[int]]:
        """Face index strips."""
        return _label_ribbons(self._complex, self.label)

    @cached_property
    def ribbon_edges(self) -> List[List[Edge]]:
        """Distinct opposite-label edges of each ribbon, in strip order."""
        return [list(dict.fromkeys(self._strip_edges(strip, self.opposite)))
                for strip in self.ribbons]

    @cached_property
    def ribbon_lines(self) -> List[Tuple[int, ...]]:
        """Ascending ids of the lines bounding each ribbon (two when sound)."""
        return [tuple(sorted({self.edge_line[e] for e in self._strip_edges(strip, self.label)
                              if e in self.edge_line}))
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
            mates = [{w for e in c.vertex_edges(v) for w in e
                      if w in on_b and c.label(*e) == self.opposite} for v in self.lines[la]]
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


def _line_edges(c: QuadComplex, line: List[int]) -> List[Edge]:
    """Edges of a line in walk order, the closing edge of a cycle last."""
    out = [edge_key(line[t], line[t + 1]) for t in range(len(line) - 1)]
    if len(line) > 2 and c.has_edge(line[-1], line[0]):
        out.append(edge_key(line[-1], line[0]))
    return out


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

    def issues(self) -> List[str]:
        out = []
        if self.odd_interior_vertices:
            out.append(f"interior vertices of odd degree: {self.odd_interior_vertices}")
        if self.bad_faces:
            out.append(f"faces with inconsistent edge labels: {self.bad_faces}")
        if self.overfull_edges:
            out.append(f"edges in more than two faces: {self.overfull_edges}")
        if self.disconnected:
            out.append("complex is not connected")
        return out


def validate(c: QuadComplex) -> ComplexDiagnostics:
    """Diagnostic pass over the complex invariants; never raises."""
    overfull = [e for e, fs in c._edge_faces.items() if len(fs) > 2]

    bad_faces = []
    for fi, face in enumerate(c.faces):
        ok = True
        for a, b, expected in face_edge_labels(face):
            if not c.has_edge(a, b) or c.label(a, b) != expected:
                ok = False
        if not ok:
            bad_faces.append(fi)

    boundary = set()
    for e, fs in c._edge_faces.items():
        if len(fs) < 2:
            boundary.update(e)
    odd_interior = [
        v for v in range(c.n_vertices)
        if v not in boundary and c.vertex_star_degree(v) % 2 == 1
    ]

    # connectivity over edges
    disconnected = False
    if c.n_vertices > 0:
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for a, b in c.vertex_edges(v):
                w = b if a == v else a
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
