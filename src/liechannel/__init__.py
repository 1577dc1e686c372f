"""Discrete channel surfaces in the hexaspherical model of Lie sphere geometry.

The kernel builds, verifies, blends and classifies discrete Legendre maps
on labelled quadrilateral complexes: channel certificates with Lie
cyclides, generating circles and their sphere families, curvature data,
isothermic tests and the revolution / cylinder / cone classification.
"""

from .config import TOL, Tolerances
from .liecore import (
    GRAM, E1, E2, E3, E0, EINF, E6, POINT_COMPLEX, SPACE_FORM,
    LieGeometryError, NotALieSphereError, DegenerateGramError,
    SignatureReport, Subspace,
    inner, lift_sphere, lift_plane, lift_point, unlifts,
    span, signature, orthocomplement, project_onto,
    moebius_sphere, moebius_plane, points_concircular,
)
from .cellcomplex import (
    QuadComplex, GridInfo, make_grid, validate, swapped_labels,
    plus_lines, minus_lines, plus_ribbons, minus_ribbons, PLUS, MINUS,
)
from .legendre import (
    ContactElement, LegendreNet, DupinCyclide, FaceCyclideFamily,
    contact_from_point_normal, contact_from_vectors, curvature_sphere,
    contact_bases, curvature_spheres,
    is_legendre, net_from_edge_spheres, net_from_points_normals,
    face_cyclide_family, is_face_cyclide,
    NotInContactError, IdenticalContactElementsError, DegenerateFaceError,
    ContactElementError,
)
from .channel import (
    ChannelCertificate, ChannelFailure, DiscreteCurve3D,
    verify_channel, complete_certificate, full_certificate, first_full_certificate,
    certificate_residuals,
    is_dupin_cyclide, cross_ratios, cross_ratio_constancy,
    is_ribaucour_pair, is_multi_circular, is_multi_circular_net,
    touching_circle_spaces, circle_bases, circle_points, circles_euclidean,
)
from .builder import (
    SphereCurve, BuildResult, validate_sphere_curve, channel_from_sphere_curve,
    sphere_curve_from_certificate, blend_channel, blend_cyclide,
    correspondence_candidates, propagate_point, propagate_profile_normals,
    make_revolution, make_cylinder, make_cone, make_dupin_torus,
    make_reflection_example,
)
from .curvature import (
    CurvatureReport, IsothermicReport, VessiotClass, RibbonCmcReport,
    mixed_area, wedge, gauss_means, principal_curvatures, curvature_report,
    kappa_line_spread, is_isothermic_5point,
    vessiot_classify, ribbon_cmc_analysis,
)
