"""The NaiveDistributed baseline (paper, Section 3).

A distributed bottom-up traversal of the fragment tree: control jumps
from a fragment to each sub-fragment in turn, waits for its (ground)
result and continues -- "the distributed algorithm actually follows a
sequential execution and does not take advantage of parallelism", and a
site is visited once **per fragment** it stores.

Each fragment edge carries two messages: a control/query handoff down
and a variable-free Boolean vector triplet up, for ``O(|q| card(F))``
total traffic and zero data shipping.

Implementation note: a site's local work is expressed as ``bottom_up``
followed by evalST's step over the children's ground values, which
computes exactly what the paper's suspended in-fragment traversal
computes; the sequential cost accounting (sum of all per-fragment
compute and message times) matches the paper's execution structure.
"""

from __future__ import annotations

from repro.core.engine import CONTROL_BYTES, MSG_CONTROL, MSG_GROUND_TRIPLET, MSG_QUERY, Engine
from repro.core.eval_st import FragmentSolve, resolve_ground
from repro.core.plan import BatchPlan


class NaiveDistributedEngine(Engine):
    """Sequential distributed traversal; no data shipped, no parallelism."""

    name = "NaiveDistributed"

    def _evaluate_plan(self, plan: BatchPlan):
        run = self._new_run()
        source_tree = self.cluster.source_tree()
        coordinator = source_tree.coordinator_site
        query_bytes = plan.combined.wire_bytes()
        root_fragment = source_tree.root_fragment_id

        elapsed_total = 0.0
        queried_sites: set[str] = set()

        # Iterative post-order over the fragment tree (avoids Python
        # recursion limits on pathological chain fragmentations).
        resolved: dict[str, FragmentSolve] = {}
        stack: list[tuple[str, bool]] = [(root_fragment, False)]
        while stack:
            fragment_id, expanded = stack.pop()
            if not expanded:
                stack.append((fragment_id, True))
                for child in reversed(source_tree.children_of(fragment_id)):
                    stack.append((child, False))
                continue

            site_id = source_tree.site_of(fragment_id)
            parent = source_tree.parent_of(fragment_id)
            caller_site = source_tree.site_of(parent) if parent else coordinator

            # Control (and, on first contact, the query) hops to the site.
            run.visit(site_id)
            handoff_bytes = CONTROL_BYTES
            if site_id not in queried_sites:
                handoff_bytes += query_bytes
                queried_sites.add(site_id)
            elapsed_total += run.message(
                caller_site, site_id, handoff_bytes, MSG_QUERY if handoff_bytes > CONTROL_BYTES else MSG_CONTROL
            )

            # Local evaluation, resolving children synchronously.  The
            # single-fragment job still goes through the executor so the
            # strategy choice is honored uniformly -- the batches just
            # never overlap, which *is* the algorithm's sequential flaw.
            batch = run.parallel(
                [
                    self._site_job(
                        site_id,
                        plan.combined,
                        fragment_ids=[fragment_id],
                        segments=plan.segments,
                    )
                ]
            )
            outcome = batch.outcomes[site_id]
            fragment_outcome = outcome.fragments[0]
            triplet = fragment_outcome.triplet
            compute_seconds = outcome.seconds
            run.add_ops(fragment_outcome.nodes_visited, fragment_outcome.qlist_ops)
            for segment_index, ops in enumerate(fragment_outcome.segment_ops):
                run.add_segment_ops(segment_index, ops)
            children = {cid: resolved[cid] for cid in source_tree.children_of(fragment_id)}
            ((resolved[fragment_id], ground), resolve_seconds) = run.compute(
                site_id, lambda t=triplet, c=children: resolve_ground(t, c)
            )
            elapsed_total += compute_seconds + resolve_seconds

            # The ground result returns to the caller.
            elapsed_total += run.message(
                site_id, caller_site, ground.wire_bytes(), MSG_GROUND_TRIPLET
            )

        root_values = resolved[root_fragment].value[0]
        answers = [bool(root_values >> index & 1) for index in plan.answer_indices]
        return answers, run, elapsed_total, {}


__all__ = ["NaiveDistributedEngine"]
