"""Pressure and entropy estimation for finitely generated map families.

Cover/packing brackets for seven pressure kinds, skew-product lifts,
pointwise measure entropies, and Bowen-equation dimension roots, with
closed-form engines for affine model systems and a certified grid
engine everywhere else.
"""

from .balls import BallSpec, ball_contains
from .dimension import DimensionResult, bowen_root, unstable_multipotential
from .errors import AnalyticUnavailable, DepthTooLarge, ParseError, \
    PresslabError
from .lift import check_lift_inequalities, lift_pressure_estimate
from .localent import LocalEntropyEstimate, MeasureModel, \
    ProductMeasureModel, ball_measure, dirac_measure, empirical_measure, \
    lebesgue_measure, local_amalgamated_entropy, marginal_bound_check, \
    parse_measure
from .potentials import MultiPotential, constant_potential, \
    coordinate_potential, parse_potential, random_potential, zero_potential
from .pressure import KINDS, Extrapolation, PressureEstimate, \
    estimate_pressure, extrapolate, lipschitz_check, min_cover_cost, \
    packing_bound, sweep_estimates, trajectory_shift_check, \
    verify_inequality_chain
from .systems import SemigroupSystem, closed_form_entropies, parse_system
from .words import Word, all_words, consecutive_sum, constant_rule, \
    dn_distance, explicit_rule, orbit, periodic_rule, pool_words

__version__ = "0.1.0"

__all__ = [
    "AnalyticUnavailable", "BallSpec", "DepthTooLarge",
    "DimensionResult", "Extrapolation", "KINDS", "LocalEntropyEstimate",
    "MeasureModel", "MultiPotential", "ParseError", "PresslabError",
    "PressureEstimate", "ProductMeasureModel", "SemigroupSystem",
    "Word", "all_words", "ball_contains", "ball_measure",
    "bowen_root", "check_lift_inequalities", "closed_form_entropies",
    "consecutive_sum", "constant_potential", "constant_rule",
    "coordinate_potential", "dirac_measure", "dn_distance",
    "empirical_measure", "estimate_pressure", "explicit_rule",
    "extrapolate", "lebesgue_measure",
    "lift_pressure_estimate", "lipschitz_check",
    "local_amalgamated_entropy", "marginal_bound_check",
    "min_cover_cost", "orbit", "packing_bound", "parse_measure",
    "parse_potential", "parse_system", "periodic_rule", "pool_words",
    "random_potential", "sweep_estimates", "trajectory_shift_check",
    "unstable_multipotential", "verify_inequality_chain",
    "zero_potential", "__version__",
]
