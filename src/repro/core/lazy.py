"""Algorithm LazyParBoX (paper, Section 4).

Eager ParBoX evaluates every fragment even when shallow fragments
already determine the answer.  LazyParBoX instead walks the source tree
by increasing depth: at step *i* it requests evaluation only of the
fragments at depth *i* and stops as soon as the answer resolves: each
step runs evalST's walk (:func:`~repro.core.eval_st.walk`) over the
triplets at hand, three-valued -- a fragment not yet fetched is
unknown, and may be irrelevant (Kleene, e.g. ``x OR true``).  The walk
keeps its masks across steps: a step re-solves only the new fragments
and their ancestors.

Costs (paper Fig. 4): sites may be visited once per fragment (across
steps); only fragments at the same depth evaluate in parallel (each
depth is dispatched as one executor batch, one
:class:`~repro.distsim.executors.SiteJob` per touched site), so the
elapsed time is the *sum over visited depths* of the per-depth critical
paths --
roughly 3x ParBoX when the satisfying fragment sits mid-tree
(Experiment 2, Fig. 11), in exchange for evaluating fewer fragments
(lower total site load).
"""

from __future__ import annotations

from repro.core.engine import CONTROL_BYTES, MSG_CONTROL, MSG_QUERY, MSG_TRIPLET, Engine
from repro.core.eval_st import RetainedSolve, walk
from repro.core.plan import BatchPlan
from repro.core.vectors import VectorTriplet


class LazyParBoXEngine(Engine):
    """Depth-by-depth evaluation with early termination.

    Under batching, a depth step still dispatches one job per touched
    site (carrying the combined query), and the descent stops at the
    first depth where *every* query of the batch Kleene-resolves -- the
    batch descends exactly as deep as its deepest-resolving member
    would alone, never deeper.
    """

    name = "LazyParBoX"

    def _evaluate_plan(self, plan: BatchPlan):
        run = self._new_run()
        source_tree = self.cluster.source_tree()
        coordinator = source_tree.coordinator_site
        query_bytes = plan.combined.wire_bytes()
        # Duplicate queries share an answer entry: resolve each once.
        open_entries = list(dict.fromkeys(plan.answer_indices))

        triplets: dict[str, VectorTriplet] = {}
        solved = RetainedSolve()
        queried_sites: set[str] = set()
        elapsed = 0.0
        verdicts: dict[int, bool] = {}
        steps_evaluated = 0

        # The paper's first step covers the coordinator AND depth 1
        # ("LazyParBoX initially evaluates a query only in the
        # coordinator and in the fragments of depth 1"); every later
        # step descends one more depth.
        depth_batches = [[0, 1]] + [[d] for d in range(2, source_tree.max_depth() + 1)]
        for batch in depth_batches:
            fragment_ids = [
                fid for depth in batch for fid in source_tree.fragments_at_depth(depth)
            ]
            if not fragment_ids:
                continue
            steps_evaluated += 1

            # All fragments at this depth evaluate in parallel (one
            # request per site per step; the query itself is sent only on
            # the first contact with a site).
            by_site: dict[str, list[str]] = {}
            for fragment_id in fragment_ids:
                by_site.setdefault(source_tree.site_of(fragment_id), []).append(fragment_id)

            request_seconds: dict[str, float] = {}
            jobs = []
            for site_id, site_fragments in by_site.items():
                run.visit(site_id)
                if site_id in queried_sites:
                    request_seconds[site_id] = run.message(
                        coordinator, site_id, CONTROL_BYTES, MSG_CONTROL
                    )
                else:
                    request_seconds[site_id] = run.message(
                        coordinator, site_id, query_bytes, MSG_QUERY
                    )
                    queried_sites.add(site_id)
                jobs.append(
                    self._site_job(
                        site_id,
                        plan.combined,
                        fragment_ids=site_fragments,
                        segments=plan.segments,
                    )
                )
            site_batch = run.parallel(jobs)

            step_finish: dict[str, float] = {}
            for site_id, outcome in site_batch:
                self._fold_outcome(run, outcome, triplets)
                reply_seconds = run.message(
                    site_id, coordinator, outcome.reply_bytes(), MSG_TRIPLET
                )
                step_finish[site_id] = (
                    request_seconds[site_id] + outcome.seconds + reply_seconds
                )
            elapsed += run.join(step_finish)

            # Try to resolve the still-open queries with what we have.
            ((resolved, _), combine_seconds) = run.compute(
                coordinator,
                lambda: walk(solved, triplets, source_tree, open_entries),
            )
            elapsed += combine_seconds
            verdicts.update((e, v) for e, v in zip(open_entries, resolved) if v is not None)
            open_entries = [entry for entry in open_entries if entry not in verdicts]
            if not open_entries:
                break

        if open_entries:  # all depths evaluated; the system must resolve now
            raise RuntimeError("LazyParBoX failed to resolve after all depths")
        answers = [verdicts[entry] for entry in plan.answer_indices]
        details = dict(
            fragments_evaluated=len(triplets),
            steps_evaluated=steps_evaluated,
        )
        return answers, run, elapsed, details


__all__ = ["LazyParBoXEngine"]
