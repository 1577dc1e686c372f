#!/usr/bin/env python3
"""Blending through two parallel discrete lines.

Smoothly, the channel surfaces with two parallel lines as curvature lines
are just the cylinders through them. Discretely there is more freedom:
this script sweeps the initial face-cyclide parameter and reports, for
each resulting surface, whether it is a Dupin cyclide (the cylinder case)
and how its generating circles tilt.
"""

import math

import numpy as np

import liechannel as L
from liechannel.liecore import span, orthocomplement


def strip_family(c1, c2, f0):
    """Face-cyclide family of the first face of the blend strip."""
    from liechannel.builder import _extend_element
    from liechannel.liecore import oriented_representative
    f11, s1 = _extend_element(f0, L.lift_point(c1.points[1]))
    f20, _ = _extend_element(f0, L.lift_point(c2.points[0]))
    f21, s2 = _extend_element(f20, L.lift_point(c2.points[1]))
    cross = [oriented_representative(L.curvature_sphere(f0, f20)),
             oriented_representative(L.curvature_sphere(f11, f21))]
    return L.FaceCyclideFamily.from_spheres(cross, [s1, s2])


if __name__ == "__main__":
    h, n, dist = 0.6, 6, 2.0
    c1 = L.DiscreteCurve3D(points=np.array([[0.0, 0, k * h] for k in range(n)]))
    c2 = L.DiscreteCurve3D(points=np.array([[dist, 0, k * h] for k in range(n)]))
    f0 = L.contact_from_point_normal([0, 0, 0], [-1.0, 0, 0])

    # cylinder member of the initial face family
    mid = np.array([dist / 2, 0, 0])
    planes = [L.lift_plane(nu, float(nu @ (mid + dist / 2 * nu)))
              for nu in (np.array([math.cos(t), math.sin(t), 0.0])
                         for t in (0.0, 1.2, 2.3))]
    dminus = span(planes)
    cyl = L.DupinCyclide(dplus=orthocomplement(dminus), dminus=dminus)
    fam = strip_family(c1, c2, f0)
    t_cyl = fam.parameter_of(cyl)
    print(f"cylinder member of the initial family at t = {t_cyl:.4f}\n")

    for dt in (0.0, 0.3, 0.8, 1.3):
        res = L.blend_channel(c1, c2, f0, t0=t_cyl + dt, samples_per_circle=10)
        ok, _, _ = L.is_dupin_cyclide(res.net)
        kind = L.vessiot_classify(res.certificate).kind
        tilts = []
        for circle in res.certificate.circles:
            _, _, normal = L.circle_euclidean(circle.dplus)
            tilts.append(math.degrees(math.acos(min(1.0, abs(normal[2])))))
        print(f"t0 = t_cyl + {dt:<4}: dupin={str(ok):5s} class={kind:10s} "
              f"circle tilt range = {min(tilts):5.1f}..{max(tilts):5.1f} deg")
