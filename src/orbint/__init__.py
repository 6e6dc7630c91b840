"""orbint: exact intersection theory for rational cycles on finite
quotient models C^n/G.

The engine computes pull-backs and push-forwards of cycles along the quotient
map of a local model, the rational intersection product
(1/deg q) * q_*(q^*X . q^*Y), map-relative products with the projection
formula, and the trace / pull-back calculus of differential forms, all in
exact arithmetic over Q or a cyclotomic extension.
"""

from .arith import (CycElem, CyclotomicField, Field, QQ, RationalField,
                    UniPoly, char_poly, determinant, factor_univariate,
                    solve_linear)
from .budgets import Budget, DEFAULT, using
from .cycle import (CycleFamily, DownstairsCycle, ModelMap, OrbitClass,
                    PointCluster, UpstairsCycle, conservation_check,
                    f_product, intersect_model, intersect_upstairs, is_proper,
                    principal_divisor, pullback, pullback_along_map,
                    pushforward, pushforward_along_map, specialize,
                    split_clusters, total_intersection_number)
from .forms import (DiffForm, downstairs_equal, exterior_d, q_pullback,
                    trace_form, verify_direct_factor, wedge)
from .group import (FiniteMatrixGroup, Subgroup, act, enumerate_group,
                    inertia_group, molien, reynolds, setwise_stabilizer)
from .poly import (GREVLEX, Ideal, LEX, MultiPoly, RationalFn, TermOrder,
                   buchberger, mp_factor, mp_gcd)
from .quotient import (LocalModel, build_model, catalog_model,
                       express_in_invariants, model_a1, model_a2,
                       model_product, model_trivial, norm_polynomial)
from .scene import Scene, parse_scene
from .cli import run

__version__ = "0.1.0"

__all__ = [
    "Budget", "CycElem", "CycleFamily", "CyclotomicField", "DEFAULT",
    "DiffForm", "DownstairsCycle", "Field", "FiniteMatrixGroup", "GREVLEX",
    "Ideal", "LEX", "LocalModel", "ModelMap", "MultiPoly", "OrbitClass",
    "PointCluster", "QQ", "RationalField", "RationalFn", "Scene", "Subgroup",
    "TermOrder", "UniPoly", "UpstairsCycle", "act", "buchberger",
    "build_model", "catalog_model", "char_poly", "conservation_check",
    "determinant", "downstairs_equal", "enumerate_group",
    "express_in_invariants", "exterior_d", "f_product", "factor_univariate",
    "inertia_group", "intersect_model", "intersect_upstairs", "is_proper",
    "model_a1", "model_a2", "model_product", "model_trivial", "molien",
    "mp_factor", "mp_gcd", "norm_polynomial", "parse_scene",
    "principal_divisor", "pullback", "pullback_along_map", "pushforward",
    "pushforward_along_map", "q_pullback", "reynolds", "run",
    "setwise_stabilizer", "solve_linear", "specialize", "split_clusters",
    "total_intersection_number", "trace_form", "using",
    "verify_direct_factor", "wedge",
]
