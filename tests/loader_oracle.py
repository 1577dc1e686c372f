"""Scalar reference for the vertex reads of the net loader.

The vertex entries of a liechannel-net document read one at a time, as
`io_json.net_from_dict` read them before it read them as stacks: one
number reader call per `contact`, `point` and `normal`, written into
per-vertex rows, with a FormatError that names the first entry that does
not read. The stacked loader must give the same contact element bases bit
for bit and raise the same messages.
"""

import math

import numpy as np

from liechannel.io_json import FormatError
from liechannel.legendre import ContactElementError, contact_bases, point_normal_generators


def numbers(value, shape, message):
    """JSON numbers of the given shape (at most 2 axes) as floats; a
    boolean among numbers, a string or a wrong shape raises
    ValueError(message), a non-finite number ValueError as well."""
    try:
        a = np.asarray(value)
    except ValueError:  # ragged lists
        raise ValueError(message) from None
    flat = [value] if a.ndim == 0 else [x for row in value for x in row] if a.ndim == 2 else value
    if a.dtype.kind not in "iuf" or a.ndim != len(shape) or \
            bool in map(type, flat) or a.shape != shape:
        raise ValueError(message)
    if not all(map(math.isfinite, flat)):
        raise ValueError("non-finite coordinate")
    return a.astype(float, copy=False)


def vertex_bases(vdocs):
    """(V, 2, 6) contact element bases of a net document's vertex entries,
    or the loader's FormatError for the first vertex that defines none."""
    n = len(vdocs)
    gens = np.empty((n, 2, 6))
    points, normals, euclidean = np.empty((n, 3)), np.empty((n, 3)), np.zeros(n, dtype=bool)
    for v, doc in enumerate(vdocs):
        try:
            if "contact" in doc:
                gens[v] = numbers(doc["contact"], (2, 6), "contact must be 2 x 6 numbers")
            else:
                points[v] = numbers(doc["point"], (3,), "point must be 3 numbers")
                normals[v] = numbers(doc["normal"], (3,), "normal must be 3 numbers")
                euclidean[v] = True
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"vertex {v}: {exc}") from exc
    lifts, bad_normals = point_normal_generators(points[euclidean], normals[euclidean])
    gens[euclidean] = lifts
    flagged = np.zeros(n, dtype=bool)
    flagged[euclidean] = bad_normals
    try:
        return contact_bases(gens, flagged)
    except ContactElementError as exc:
        raise FormatError(f"vertex {exc.vertex}: {exc}") from exc
