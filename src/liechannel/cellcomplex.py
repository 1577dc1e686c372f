"""Labelled quadrilateral cell complexes.

Edges carry a label '+' or '-'; on every face opposite edges share a label
and adjacent edges differ. Faces are stored as cyclically ordered quadruples
``(i, j, k, l)`` with edges ``(i,j)`` and ``(k,l)`` labelled '-' and
``(j,k)``, ``(l,i)`` labelled '+', so curvature formulas can address the
diagonals ``(i,k)`` and ``(j,l)`` unambiguously.

Coordinate lines follow edges of one label; coordinate ribbons are maximal
face strips glued along edges of the opposite label, so a '+'-ribbon is
bounded by two '+'-lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    seen = set()
    lines: List[List[int]] = []

    def walk(start: int) -> List[int]:
        path = [start]
        seen.add(start)
        prev, cur = None, start
        while True:
            nxt = [w for w in nbrs[cur] if w != prev]
            if not nxt or nxt[0] in seen:
                if nxt and nxt[0] == path[0] and len(path) > 2:
                    pass  # closed cycle
                return path
            prev, cur = cur, nxt[0]
            path.append(cur)
            seen.add(cur)

    # open paths first, starting from endpoints
    for v in range(c.n_vertices):
        if v not in seen and len(nbrs[v]) == 1:
            lines.append(walk(v))
    for v in range(c.n_vertices):
        if v not in seen and nbrs[v]:
            lines.append(walk(v))  # cycles
    return lines


def plus_lines(c: QuadComplex) -> List[List[int]]:
    return _label_lines(c, PLUS)


def minus_lines(c: QuadComplex) -> List[List[int]]:
    return _label_lines(c, MINUS)


def _label_ribbons(c: QuadComplex, label: str) -> List[List[int]]:
    """Maximal face strips glued along edges of the opposite label."""
    glue = MINUS if label == PLUS else PLUS
    nbrs: Dict[int, List[int]] = {fi: [] for fi in range(len(c.faces))}
    for fi, face in enumerate(c.faces):
        for a, b, lab in face_edge_labels(face):
            if lab != glue:
                continue
            for fj in c.edge_faces(a, b):
                if fj != fi:
                    nbrs[fi].append(fj)
    seen = set()
    ribbons: List[List[int]] = []

    def walk(start: int) -> List[int]:
        strip = [start]
        seen.add(start)
        prev, cur = None, start
        while True:
            nxt = [w for w in nbrs[cur] if w != prev]
            if not nxt or nxt[0] in seen:
                return strip
            prev, cur = cur, nxt[0]
            strip.append(cur)
            seen.add(cur)

    for fi in range(len(c.faces)):
        if fi not in seen and len(nbrs[fi]) <= 1:
            ribbons.append(walk(fi))
    for fi in range(len(c.faces)):
        if fi not in seen:
            ribbons.append(walk(fi))  # closed strips
    return ribbons


def plus_ribbons(c: QuadComplex) -> List[List[int]]:
    return _label_ribbons(c, PLUS)


def minus_ribbons(c: QuadComplex) -> List[List[int]]:
    return _label_ribbons(c, MINUS)


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
