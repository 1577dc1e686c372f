"""Shared geometry fixtures: seeded random profiles and generator nets."""

import math

import numpy as np

from liechannel import builder
from liechannel.builder import _extend_element
from liechannel.cli import random_generator_net
from liechannel.legendre import FaceCyclideFamily, curvature_sphere
from liechannel.liecore import lift_point, oriented_representative


def random_revolution_profile(rng: np.random.Generator, n: int):
    xs = 1.5 + rng.uniform(-0.35, 0.35, n)
    zs = np.cumsum(0.45 + rng.uniform(0.0, 0.35, n))
    profile = np.stack([xs, np.zeros(n), zs], axis=1)
    ang = rng.uniform(-0.5, 0.5)
    n0 = np.array([math.cos(ang), 0.0, math.sin(ang)])
    return profile, builder.propagate_profile_normals(profile, n0)


def revolution_net(seed: int = 0, n_profile: int = 8, m: int = 10):
    return random_generator_net("revolution", seed, n_profile, m)


def cylinder_net(seed: int = 0, n_profile: int = 8, m: int = 8):
    return random_generator_net("cylinder", seed, n_profile, m)


def cone_net(seed: int = 0, n_profile: int = 8, m: int = 8):
    return random_generator_net("cone", seed, n_profile, m)


def strip_family(c1, c2, f0) -> FaceCyclideFamily:
    """Face-cyclide family of the first face of the blend strip through the
    curves c1, c2 from the contact element f0 at the first point of c1."""
    f11, s1 = _extend_element(f0, lift_point(c1.points[1]))
    f20, _ = _extend_element(f0, lift_point(c2.points[0]))
    f21, s2 = _extend_element(f20, lift_point(c2.points[1]))
    cross = [oriented_representative(curvature_sphere(f0, f20)),
             oriented_representative(curvature_sphere(f11, f21))]
    return FaceCyclideFamily.from_spheres(cross, [s1, s2])
