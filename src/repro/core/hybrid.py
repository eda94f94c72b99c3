"""Hybrid ParBoX (paper, Section 4).

In the pathological regime where almost every node is its own fragment,
``card(F)`` approaches ``|T|`` and ParBoX's ``O(|q| card(F))`` traffic
exceeds NaiveCentralized's ``O(|T|)``.  Hybrid ParBoX compares
``card(F)`` against the tipping point ``|T| / |q|``:

* ``card(F) < |T| / |q|``  ->  run ParBoX (the common case);
* otherwise               ->  fall back to NaiveCentralized.

``|T|`` and ``card(F)`` come from the coordinator's catalog (the source
tree and the per-fragment size statistics sites report when fragments
are placed) -- no extra round-trip is needed to decide.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from repro.boolexpr.compose import FormulaAlgebra
from repro.core.engine import Engine
from repro.core.naive_centralized import NaiveCentralizedEngine
from repro.core.parbox import ParBoXEngine
from repro.core.plan import BatchPlan, coerce_plan
from repro.distsim.cluster import Cluster
from repro.distsim.executors import SiteExecutor
from repro.distsim.metrics import BatchResult
from repro.distsim.trace import Trace
from repro.xpath.qlist import QList


class HybridParBoXEngine(Engine):
    """Switches between ParBoX and NaiveCentralized at the tipping point."""

    name = "HybridParBoX"

    def __init__(
        self,
        cluster: Cluster,
        algebra: Optional[FormulaAlgebra] = None,
        trace: Optional[Trace] = None,
        executor: Union[str, SiteExecutor, None] = None,
    ) -> None:
        super().__init__(cluster, algebra, trace, executor=executor)
        # Both delegates share this engine's resolved executor, so a
        # process pool forks once no matter which branch wins.
        self._parbox = ParBoXEngine(cluster, algebra, trace, executor=self.executor)
        self._central = NaiveCentralizedEngine(cluster, algebra, trace, executor=self.executor)
        self._delegates_closed = False

    def choose_strategy(self, qlist: QList) -> str:
        """The switching rule: ``card(F) < |T|/|q|`` favours ParBoX.

        Under batching ``|q|`` is the *combined* query size: a big
        enough batch genuinely moves the tipping point, because the
        broadcast grows with the batch while the shipped data does not.
        """
        card = self.cluster.card()
        tree_size = self.cluster.total_size()
        query_size = len(qlist)
        return "parbox" if card < tree_size / query_size else "centralized"

    def evaluate_many(
        self, batch: Union[BatchPlan, Iterable[Union[str, QList]]]
    ) -> BatchResult:
        """Pick the strategy once per batch and delegate the whole plan."""
        plan = coerce_plan(batch)
        strategy = self.choose_strategy(plan.combined)
        delegate = self._parbox if strategy == "parbox" else self._central
        inner = delegate.evaluate_many(plan)
        details = dict(inner.details)
        details["strategy"] = strategy
        return BatchResult(
            answers=inner.answers,
            engine=self.name,
            metrics=inner.metrics,
            per_query=inner.per_query,
            details=details,
        )

    def close(self) -> None:
        """Close the delegate engines exactly once, then the shared pool.

        The delegates hold this engine's resolved executor as a
        pre-built instance, so closing them never touches the shared
        pool (the :meth:`Engine.close` ownership rule).  The guard
        makes repeated ``close()`` calls hit each delegate only once.
        """
        if not self._delegates_closed:
            self._delegates_closed = True
            self._parbox.close()
            self._central.close()
        super().close()


__all__ = ["HybridParBoXEngine"]
