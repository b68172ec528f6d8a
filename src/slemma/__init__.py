"""Numerical verification toolkit for the S-procedure.

Given functions f0, f1, ..., fp, the toolkit searches for counterexamples
to the implication "all f_i >= 0 implies f0 >= 0", searches for and
verifies nonnegative multiplier certificates, and probes the geometry of
the image set (cone membership, hull separation, convexity of augmented
images) that governs when the two statements are equivalent.
"""

from .certificate import (MultiplierCheck, check_multipliers,
                          find_certificate_general, find_certificate_p1,
                          find_certificate_via_separation)
from .expr import Expression, evaluate, parse
from .farkas import LinearSystemData, make_linear_system
from .geometry import (ImageCloud, cone_k_member, conjecture_scan,
                       epi_member, extract_separator, falsify_convexity,
                       hull_intersects_k, sample_image)
from .implication import (ClassifyConfig, InstanceReport, check_slater,
                          classify_instance, find_counterexample)
from .linprog import LinearProgram, LpOutcome, solve_lp
from .problem import ProblemFile, load_problem
from .quadratic import (QuadraticFunction, bordered_matrix, eigen_sym,
                        evaluate_quadratic, min_eigenvalue)
from .systems import FunctionSystem

__version__ = "0.1.0"

__all__ = [
    "ClassifyConfig", "Expression", "FunctionSystem", "ImageCloud",
    "InstanceReport", "LinearProgram", "LinearSystemData", "LpOutcome",
    "MultiplierCheck", "ProblemFile", "QuadraticFunction", "bordered_matrix",
    "check_multipliers", "check_slater", "classify_instance",
    "cone_k_member", "conjecture_scan", "eigen_sym", "epi_member",
    "evaluate", "evaluate_quadratic", "extract_separator",
    "falsify_convexity", "find_certificate_general", "find_certificate_p1",
    "find_certificate_via_separation", "find_counterexample",
    "hull_intersects_k", "load_problem", "make_linear_system",
    "min_eigenvalue", "parse", "sample_image", "solve_lp",
]
