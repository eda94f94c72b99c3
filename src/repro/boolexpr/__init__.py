"""Boolean formulas over free variables.

Partial evaluation (paper, Section 3) turns each fragment's query result
into a vector of *Boolean formulas* over variables that stand for the
still-unknown results of sub-fragments.  This package provides:

* the immutable formula classes :data:`TRUE`, :data:`FALSE`,
  :class:`Var`, :class:`Not`, :class:`And`, :class:`Or` with
  canonicalizing smart constructors (flattening, constant folding,
  deduplication, complement absorption);
* :func:`comp_fm` -- the paper's ``compFm`` composition procedure
  (Fig. 3(b)), and the two composition *algebras* used by the ablation
  study (:class:`CanonicalAlgebra` vs :class:`PaperAlgebra`).

:meth:`Formula.evaluate` is the one evaluator, three-valued: a variable
the assignment does not hold is unknown.  ``evalST``
(:mod:`repro.core.eval_st`) solves the equation system the fragment
tree forms with it, in one bottom-up pass (Example 3.3).
"""

from repro.boolexpr.formula import (
    TRUE,
    FALSE,
    And,
    Const,
    Formula,
    Not,
    Or,
    Var,
    make_and,
    make_not,
    make_or,
    formula_from_obj,
)
from repro.boolexpr.compose import (
    CanonicalAlgebra,
    FormulaAlgebra,
    PaperAlgebra,
    comp_fm,
)

__all__ = [
    "Formula",
    "Const",
    "Var",
    "Not",
    "And",
    "Or",
    "TRUE",
    "FALSE",
    "make_and",
    "make_or",
    "make_not",
    "formula_from_obj",
    "comp_fm",
    "FormulaAlgebra",
    "CanonicalAlgebra",
    "PaperAlgebra",
]
