"""The paper's contribution: ParBoX and friends.

* :func:`~repro.core.bottom_up.bottom_up` -- per-fragment partial
  evaluation (Fig. 3(b));
* :func:`~repro.core.eval_st.eval_st` -- composition of partial answers
  by one bottom-up pass over the source tree;
* :class:`ParBoXEngine` -- the three-stage algorithm (Fig. 3(a));
* :class:`HybridParBoXEngine`, :class:`FullDistParBoXEngine`,
  :class:`LazyParBoXEngine` -- the Section 4 variants;
* :class:`NaiveCentralizedEngine`, :class:`NaiveDistributedEngine` --
  the Section 3 baselines;
* :func:`~repro.core.centralized.evaluate_tree` -- the optimal
  centralized algorithm (correctness oracle and baseline compute stage);
* :class:`~repro.core.selection.SelectionEngine` -- the Section 8
  extension to data-selection queries (each site visited at most twice).

The batching layer sits on top: :func:`~repro.core.plan.plan_batch`
combines many compiled queries into one broadcastable QList (with
duplicate collapsing), every engine's
:meth:`~repro.core.engine.Engine.evaluate_many` evaluates such a plan
with a single-query's worth of site visits, and
:class:`~repro.core.session.QuerySession` adds the compiled-query cache
and stream chunking on top.
"""

from repro.core.bottom_up import bottom_up, BottomUpStats
from repro.core.centralized import (
    evaluate_tree,
    evaluate_tree_many,
    evaluate_node,
    evaluate_node_many,
    CentralizedStats,
)
from repro.core.engine import Engine
from repro.core.eval_st import eval_st, eval_st_many
from repro.core.plan import (
    BatchPlan,
    CompiledQuery,
    QueryCache,
    attribute_costs,
    plan_batch,
)
from repro.core.session import QuerySession, SessionOutcome
from repro.core.full_dist import FullDistParBoXEngine
from repro.core.hybrid import HybridParBoXEngine
from repro.core.lazy import LazyParBoXEngine
from repro.core.naive_centralized import NaiveCentralizedEngine
from repro.core.naive_distributed import NaiveDistributedEngine
from repro.core.parbox import ParBoXEngine
from repro.core.selection import (
    SelectionBatch,
    SelectionEngine,
    SelectionResult,
    select_centralized,
)
from repro.core.vectors import VectorTriplet, ground_triplet_from_bools

ALL_ENGINES = (
    ParBoXEngine,
    HybridParBoXEngine,
    FullDistParBoXEngine,
    LazyParBoXEngine,
    NaiveCentralizedEngine,
    NaiveDistributedEngine,
)

#: Engine lookup by name (CLI and config files use these keys).
ENGINE_REGISTRY = {engine.name.lower(): engine for engine in ALL_ENGINES}
ENGINE_REGISTRY.update(
    {
        "parbox": ParBoXEngine,
        "hybrid": HybridParBoXEngine,
        "fulldist": FullDistParBoXEngine,
        "lazy": LazyParBoXEngine,
        "central": NaiveCentralizedEngine,
        "distributed": NaiveDistributedEngine,
    }
)

__all__ = [
    "bottom_up",
    "BottomUpStats",
    "evaluate_tree",
    "evaluate_tree_many",
    "evaluate_node",
    "evaluate_node_many",
    "CentralizedStats",
    "Engine",
    "eval_st",
    "eval_st_many",
    "BatchPlan",
    "CompiledQuery",
    "QueryCache",
    "plan_batch",
    "attribute_costs",
    "QuerySession",
    "SessionOutcome",
    "VectorTriplet",
    "ground_triplet_from_bools",
    "ParBoXEngine",
    "HybridParBoXEngine",
    "FullDistParBoXEngine",
    "LazyParBoXEngine",
    "NaiveCentralizedEngine",
    "NaiveDistributedEngine",
    "SelectionEngine",
    "SelectionResult",
    "SelectionBatch",
    "select_centralized",
    "ALL_ENGINES",
    "ENGINE_REGISTRY",
]
