"""Brute-force multi-circularity: one concircularity test per quadrilateral.

These are the definitions that `channel.is_multi_circular` and
`channel.is_multi_circular_net` reduce to a concurrent-lines test; the
property tests compare the two verdicts. Cost is O(n^2) rank tests per pair
of lines, so keep the nets small.
"""

from typing import Dict, Optional, Tuple

from liechannel.cellcomplex import minus_lines, plus_lines
from liechannel.config import TOL
from liechannel.legendre import LegendreNet
from liechannel.liecore import points_concircular


def brute_is_multi_circular(net: LegendreNet, direction: str,
                            tol: Optional[float] = None) -> bool:
    """Within each dir-ribbon, every coordinate quadrilateral is circular."""
    t = TOL.membership if tol is None else tol
    for la, lb in zip(*net.complex.coordinates(direction).line_pairs):
        m = min(len(la), len(lb))
        pa = [net.vertex_points([v])[0] for v in la[:m]]
        pb = [net.vertex_points([v])[0] for v in lb[:m]]
        for s in range(m):
            for u in range(s + 1, m):
                if not points_concircular([pa[s], pa[u], pb[u], pb[s]], t):
                    return False
    return True


def brute_is_multi_circular_net(net: LegendreNet, tol: Optional[float] = None) -> bool:
    """Every coordinate quadrilateral of every span, in both directions."""
    t = TOL.membership if tol is None else tol
    plines = plus_lines(net.complex).tolist()
    mlines = minus_lines(net.complex).tolist()
    on_m = {}
    for mi, ml in enumerate(mlines):
        for v in ml:
            on_m[v] = mi
    grididx: Dict[Tuple[int, int], int] = {}
    for pi, pl in enumerate(plines):
        for v in pl:
            grididx[(pi, on_m[v])] = v
    pts = net.vertex_points()
    np_, nm = len(plines), len(mlines)
    for p1 in range(np_):
        for p2 in range(p1 + 1, np_):
            for m1 in range(nm):
                for m2 in range(m1 + 1, nm):
                    keys = [(p1, m1), (p1, m2), (p2, m2), (p2, m1)]
                    if any(k not in grididx for k in keys):
                        continue
                    quad = [pts[grididx[k]] for k in keys]
                    if not points_concircular(quad, t):
                        return False
    return True
