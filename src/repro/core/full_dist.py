"""Algorithm FullDistParBoX (paper, Section 4).

Stages 1-2 are identical to ParBoX (parallel ``bottomUp`` everywhere,
dispatched as one :class:`~repro.distsim.executors.SiteJob` per site
through the run's executor).  Stage 3 replaces the coordinator's
``evalST`` with ``evalDistrST``: triplets flow bottom-up along the
source tree, and each site resolves its own fragments' formulas against
the (variable-free) triplets received from its sub-fragments before
passing a ground triplet to its parent's site.  Consequences measured
here:

* no variables ever cross the network -- reply traffic is smaller than
  ParBoX's (the paper observes "at most half the traffic");
* there is no coordinator bottleneck, but a site may be activated once
  per fragment during stage 3 (visits up to ``card(F_Si)``);
* elapsed time: a fragment's ground triplet is ready at
  ``max(site stage-2 finish, max over children of (child ready +
  transfer)) + local resolve`` -- a dependency-DAG merge rather than a
  flat fork/join, so stage 3 keeps its explicit ready-time recurrence
  while stage 2 uses the executor's true concurrency.
"""

from __future__ import annotations

from repro.core.engine import MSG_GROUND_TRIPLET, Engine
from repro.core.eval_st import FragmentSolve, resolve_ground
from repro.core.plan import BatchPlan


class FullDistParBoXEngine(Engine):
    """ParBoX with a fully distributed composition stage."""

    name = "FullDistParBoX"

    def _evaluate_plan(self, plan: BatchPlan):
        run = self._new_run()
        source_tree = self.cluster.source_tree()

        # Stages 1-2: broadcast + parallel local evaluation (as ParBoX).
        # Every site also receives a copy of the source tree so it knows
        # its parents/children for stage 3; no stage-2 replies -- the
        # results travel as ground triplets during stage 3 itself.
        triplets, site_finish = self._broadcast_stage(
            run, plan, plan.combined.wire_bytes() + source_tree.wire_bytes(), reply=False
        )

        # Stage 3 (evalDistrST): resolve bottom-up along the source tree.
        ready: dict[str, tuple[FragmentSolve, int, float]] = {}
        stack: list[tuple[str, bool]] = [(source_tree.root_fragment_id, False)]
        while stack:
            fragment_id, expanded = stack.pop()
            if not expanded:
                stack.append((fragment_id, True))
                for child in reversed(source_tree.children_of(fragment_id)):
                    stack.append((child, False))
                continue

            site_id = source_tree.site_of(fragment_id)
            children = source_tree.children_of(fragment_id)
            ready_time = site_finish[site_id]
            child_values: dict[str, FragmentSolve] = {}
            for child_id in children:
                child_values[child_id], child_bytes, child_time = ready[child_id]
                child_site = source_tree.site_of(child_id)
                transfer = run.message(child_site, site_id, child_bytes, MSG_GROUND_TRIPLET)
                ready_time = max(ready_time, child_time + transfer)
            if children:
                # Stage-3 activation of the site for this fragment.
                run.visit(site_id)
            ((solved, ground), resolve_seconds) = run.compute(
                site_id,
                lambda t=triplets[fragment_id], c=child_values: resolve_ground(t, c),
            )
            ready[fragment_id] = (solved, ground.wire_bytes(), ready_time + resolve_seconds)

        root_values, _, elapsed = ready[source_tree.root_fragment_id]
        answers = [bool(root_values.value[0] >> index & 1) for index in plan.answer_indices]
        return answers, run, elapsed, dict(triplets=len(triplets))


__all__ = ["FullDistParBoXEngine"]
