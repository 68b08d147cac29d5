"""Numerical exterior calculus on boxes and cylinders.

Sampled differential forms with finite-difference exterior derivative,
cone/averaged homotopy operators on convex domains, weighted
Sobolev-Poincare constants, Cech gluing of local primitives over a good
cover, and an integrability criterion deciding when every exact form on
a twisted cylinder has a norm-controlled global primitive.
"""

from .domain import DomainSpec, box, cylinder
from .forms import GridForm, exterior_derivative, lp_norm
from .weights import WeightProfile
from .homotopy import K_y, A_alpha, check_admissible_weight
from .constants import (
    ConstantRequest,
    C_integral,
    corollary_box_bound,
    cylinder_constant,
    Q_factor,
)
from .cover import GoodCover, circle_cover, torus_cover
from .cech import CechCochain, HypothesisFailure, coboundary, glue_primitive
from .vanishing import (
    AdmissibleRegion,
    CriterionInput,
    asymptotic_delegate,
    criterion_check,
    powerlaw_exponents,
    region_grid,
    sphere_hdr_zero,
    warp_profiles,
)

__all__ = [
    "DomainSpec",
    "box",
    "cylinder",
    "GridForm",
    "exterior_derivative",
    "lp_norm",
    "WeightProfile",
    "K_y",
    "A_alpha",
    "check_admissible_weight",
    "ConstantRequest",
    "C_integral",
    "corollary_box_bound",
    "cylinder_constant",
    "Q_factor",
    "GoodCover",
    "circle_cover",
    "torus_cover",
    "CechCochain",
    "HypothesisFailure",
    "coboundary",
    "glue_primitive",
    "AdmissibleRegion",
    "CriterionInput",
    "asymptotic_delegate",
    "criterion_check",
    "powerlaw_exponents",
    "region_grid",
    "sphere_hdr_zero",
    "warp_profiles",
]

__version__ = "0.1.0"
