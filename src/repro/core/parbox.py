"""Algorithm ParBoX (paper, Fig. 3(a)): the main contribution.

Three stages:

1. the coordinator reads the source tree and identifies the sites
   holding fragments;
2. each site, **in parallel**, runs ``bottomUp`` over every local
   fragment and sends all resulting triplets back in one reply -- this
   is why each site is visited exactly once regardless of how many
   fragments it stores;
3. the coordinator solves the Boolean equation system (``evalST``) in
   one post-order pass, re-solving only what changed since the plan's
   last solve.

Stage 2 is dispatched as one :class:`~repro.distsim.executors.SiteJob`
per site through the run's executor, so with ``executor="threads"`` or
``"process"`` the sites really do evaluate concurrently.  Simulated
elapsed time = critical path over sites of (query transfer + site
compute + reply transfer), via :meth:`~repro.distsim.runtime.Run.join`,
plus the coordinator's combine; transfers to/from the coordinator's own
site are free.  The simulated ledger is identical across executors --
only the real wall clock (``metrics.wall_seconds``) shrinks when site
work overlaps.
"""

from __future__ import annotations

from repro.core.engine import Engine
from repro.core.eval_st import assemble
from repro.core.plan import BatchPlan


class ParBoXEngine(Engine):
    """The Parallel Boolean XPath evaluation algorithm."""

    name = "ParBoX"

    def _evaluate_plan(self, plan: BatchPlan):
        run = self._new_run()
        source_tree = self.cluster.source_tree()
        coordinator = source_tree.coordinator_site

        # Stages 1-2: broadcast the (combined) query, every site
        # evaluates its fragments (one executor job per site) and
        # replies with all its triplets in one message -- one visit per
        # site for the whole batch.
        triplets, site_finish = self._broadcast_stage(
            run, plan, plan.combined.wire_bytes(), reply=True
        )

        # Stage 3: compose partial answers at the coordinator.  One
        # post-order pass yields every query's answer entry.
        ((answers, fragments_solved), combine_seconds) = run.compute(
            coordinator,
            lambda: assemble(plan.solved, triplets, source_tree, plan.answer_indices),
        )
        elapsed = run.join(site_finish) + combine_seconds
        details = dict(
            triplets=len(triplets),
            variables=sum(t.variable_count() for t in triplets.values()),
            fragments_solved=fragments_solved,
        )
        return answers, run, elapsed, details


__all__ = ["ParBoXEngine"]
