"""Dict-based reference for the cell complex.

The complex as it was before it kept arrays: a dict from each (smaller,
larger) vertex pair to its edge id, lists of the edges and faces at each
vertex, coordinate lines and ribbons walked over neighbour dicts, the
crossing table read from a vertex -> line dict, the grid built
vertex by vertex, and the vertex stars and diagnostics read from those
lists. `QuadComplex`, `Coordinates`, `make_grid`, `validate` and
`interior_vertex_stars` must give the same values, and raise the same
errors with the same messages. `quad_complex` builds a `QuadComplex` from
the tuples the reference reads.
"""

from itertools import accumulate
from typing import Dict, List

import numpy as np

from liechannel.cellcomplex import (
    FACE_LABELS, MINUS, PLUS, SLOTS, QuadComplex, edge_key, face_edge_labels,
)


def quad_complex(n_vertices, edges, faces) -> QuadComplex:
    """The complex of (i, j, label) edge and (i, j, k, l) face tuples."""
    return QuadComplex(n_vertices, np.array([e[:2] for e in edges], dtype=np.int64),
                       [e[2] for e in edges], np.array(faces, dtype=np.int64))


def grid_cells(n_plus: int, n_minus: int, wrap_plus: bool):
    """(edges, faces) of `make_grid`."""
    def vid(a, b):
        return b * n_plus + a % n_plus

    last = n_plus if wrap_plus else n_plus - 1
    edges = [(vid(a, b), vid(a + 1, b), PLUS) for b in range(n_minus) for a in range(last)]
    edges += [(vid(a, b), vid(a, b + 1), MINUS) for b in range(n_minus - 1) for a in range(n_plus)]
    faces = [(vid(a, b), vid(a, b + 1), vid(a + 1, b + 1), vid(a + 1, b))
             for b in range(n_minus - 1) for a in range(last)]
    return tuple(edges), tuple(faces)


class DictComplex:
    def __init__(self, n_vertices, edges, faces):
        self.n_vertices, self.edges, self.faces = n_vertices, edges, faces
        self.index: Dict = {}
        self.vertex_edges: Dict[int, List[int]] = {v: [] for v in range(n_vertices)}
        for e, (i, j, _lab) in enumerate(edges):
            self.index[edge_key(i, j)] = e
            self.vertex_edges[i].append(e)
            self.vertex_edges[j].append(e)
        self.face_edge_ids: List[List[int]] = []
        self.vertex_faces: Dict[int, List[int]] = {v: [] for v in range(n_vertices)}
        for fi, face in enumerate(faces):
            self.face_edge_ids.append([self.index[edge_key(a, b)]
                                       for a, b, _lab in face_edge_labels(face)])
            for v in dict.fromkeys(face):
                self.vertex_faces[v].append(fi)

    def edge_id(self, i, j):
        return self.index[edge_key(i, j)]

    def edge_ids(self, a, b):
        return [self.index[edge_key(i, j)] for i, j in zip(a, b)]

    def has_edge(self, i, j):
        return edge_key(i, j) in self.index


def walks(nbrs, ends, rest):
    seen = set()
    out = []
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
        out.append(path)
    return out


def label_lines(c: DictComplex, label):
    nbrs = {v: [] for v in range(c.n_vertices)}
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
    return walks(nbrs, [v for v in vertices if len(nbrs[v]) == 1],
                 [v for v in vertices if nbrs[v]])


def label_ribbons(c: DictComplex, label):
    faces_of = {}
    for fi, ids in enumerate(c.face_edge_ids):
        for e in ids:
            faces_of.setdefault(e, []).append(fi)
    glue = [[ids[t] for t in SLOTS[MINUS if label == PLUS else PLUS]] for ids in c.face_edge_ids]
    nbrs = {fi: [fj for e in ids for fj in faces_of[e] if fj != fi] for fi, ids in enumerate(glue)}
    return walks(nbrs, [fi for fi, ns in nbrs.items() if len(ns) <= 1], list(nbrs))


def line_edges(c: DictComplex, lines):
    starts, ends, counts = [], [], []
    for line in lines:
        nxt = line[1:] + line[:1] if len(line) > 2 and c.has_edge(line[-1], line[0]) else line[1:]
        starts += line[:len(nxt)]
        ends += nxt
        counts.append(len(nxt))
    ids = c.edge_ids(starts, ends)
    return [ids[k - n:k] for k, n in zip(accumulate(counts), counts)]


def coordinates(c: DictComplex, label) -> dict:
    """Every attribute of `Coordinates`; `edge_line` and `vertex_line` as dicts."""
    opposite = MINUS if label == PLUS else PLUS
    lines = label_lines(c, label)
    edges = line_edges(c, lines)
    edge_line = {e: li for li, ids in enumerate(edges) for e in ids}
    vertex_line = {v: li for li, line in enumerate(lines) for v in line}

    def strip_edges(strip, lab):
        return [c.face_edge_ids[fi][t] for fi in strip for t in SLOTS[lab]]

    ribbons = label_ribbons(c, label)
    ribbon_lines = [tuple(sorted({edge_line[e] for e in strip_edges(strip, label)
                                  if e in edge_line})) for strip in ribbons]
    line_ribbons: Dict[int, List[int]] = {}
    for ri, bounds in enumerate(ribbon_lines):
        for li in bounds if len(bounds) == 2 else ():
            line_ribbons.setdefault(li, []).append(ri)
    pairs = []
    for la, lb in (bounds for bounds in ribbon_lines if len(bounds) == 2):
        on_b = set(lines[lb])
        mates = [{w for e in c.vertex_edges[v] if c.edges[e][2] == opposite
                  for w in c.edges[e][:2] if w in on_b} for v in lines[la]]
        unique = all(len(m) == 1 for m in mates)
        pairs.append((lines[la], [min(m) for m in mates] if unique else lines[lb]))
    return {"lines": lines, "line_edges": edges, "edge_line": edge_line,
            "vertex_line": vertex_line, "ribbons": ribbons,
            "ribbon_edges": [list(dict.fromkeys(strip_edges(strip, opposite)))
                             for strip in ribbons],
            "ribbon_lines": ribbon_lines, "line_ribbons": line_ribbons, "line_pairs": pairs}


def crossings(lines, other_vertex_line):
    """The crossing table: per line, its vertices on a line of the other
    label in walk order, and per line the id of that line for each."""
    vertices = [[v for v in line if v in other_vertex_line] for line in lines]
    return vertices, [[other_vertex_line[v] for v in row] for row in vertices]


def crossing_dicts(vertices, others):
    """Per line of a crossing table: id of each line it crosses -> the
    vertices on it, ordered by first crossing along the line."""
    out = []
    for row, ids in zip(vertices, others):
        crossing: Dict[int, List[int]] = {}
        for v, oi in zip(row, ids):
            crossing.setdefault(oi, []).append(v)
        out.append(crossing)
    return out


def validate(c: DictComplex) -> dict:
    """The fields of `ComplexDiagnostics` but `ok`."""
    count = {}
    for ids in c.face_edge_ids:
        for e in ids:
            count[e] = count.get(e, 0) + 1
    overfull = [k for k, e in c.index.items() if count.get(e, 0) > 2]
    bad_faces = [fi for fi, ids in enumerate(c.face_edge_ids)
                 if [c.edges[e][2] for e in ids] != list(FACE_LABELS)]
    boundary = {v for k, e in c.index.items() if count.get(e, 0) < 2 for v in k}
    odd = [v for v in range(c.n_vertices)
           if v not in boundary and len(c.vertex_edges[v]) % 2 == 1]
    disconnected = False
    if c.n_vertices > 0:
        seen, stack = {0}, [0]
        while stack:
            v = stack.pop()
            for w in (w for e in c.vertex_edges[v] for w in c.edges[e][:2]):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        disconnected = len(seen) != c.n_vertices
    return {"odd_interior_vertices": odd, "bad_faces": bad_faces,
            "overfull_edges": overfull, "disconnected": disconnected}


def interior_vertex_stars(c: DictComplex):
    """(vertex, edge_neighbors, diagonal_neighbors, patch) of each star."""
    out = []
    for v in range(c.n_vertices):
        edges = [c.edges[e] for e in c.vertex_edges[v]]
        faces = [c.faces[fi] for fi in c.vertex_faces[v]]
        if len(edges) == 4 and len(faces) == 4:
            out.append((v, [a if b == v else b for a, b, _lab in edges],
                        [f[(f.index(v) + 2) % 4] for f in faces],
                        sorted({w for f in faces for w in f})))
    return out
