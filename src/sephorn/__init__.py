"""sephorn: separability analysis of bipartite quantum states.

The library represents states in the Bloch picture (generator expectation
values plus a correlation matrix), decides separability through a battery
of necessary and sufficient criteria built on the multiplicative
inequality families of matrix-product singular values, and emits explicit
separable decompositions whenever it certifies separability.
"""

from .bipartite import (
    BipartiteDecomposed,
    NormalFormResult,
    compose_state,
    decompose_state,
    local_ranks,
    normal_form,
    partial_transpose_matrix,
)
from .bloch import from_bloch, to_bloch
from .criteria import (
    Status,
    Verdict,
    analyze,
    kyfan_necessary_check,
    ppt_check,
    verify_decomposition,
)
from .decompose import (
    SeparableDecomposition,
    kyfan_bound_decomposition,
    pure_state_simplex,
    werner_decompose,
    wootters_decomposition,
)
from .horn import (
    HornReport,
    TripleSet,
    all_triples,
    check_product_inequalities,
    product_singulars_feasible,
    triple_set,
)
from .states import bell, isotropic, p_zero, werner
from .su import generator_basis

__version__ = "0.1.0"

__all__ = [
    "BipartiteDecomposed",
    "HornReport",
    "NormalFormResult",
    "SeparableDecomposition",
    "Status",
    "TripleSet",
    "Verdict",
    "all_triples",
    "analyze",
    "bell",
    "check_product_inequalities",
    "compose_state",
    "decompose_state",
    "from_bloch",
    "generator_basis",
    "isotropic",
    "kyfan_bound_decomposition",
    "kyfan_necessary_check",
    "local_ranks",
    "normal_form",
    "p_zero",
    "partial_transpose_matrix",
    "ppt_check",
    "product_singulars_feasible",
    "pure_state_simplex",
    "to_bloch",
    "triple_set",
    "verify_decomposition",
    "werner",
    "werner_decompose",
    "wootters_decomposition",
]
