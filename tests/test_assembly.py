"""evalST's post-order walk and its retained solve.

:func:`repro.core.eval_st.assemble` walks the fragments bottom-up,
evaluating only the entries a parent reads, and keeps, per plan (or standing segment), what it solved per fragment; it
re-reads only the fragments whose triplet is not the retained object,
plus their ancestors; a new ``SourceTree`` object re-solves everything.
Checked here:

* property: the demand set is closed -- every variable in a demanded
  entry's formula is itself demanded -- the walk asks for nothing
  outside it, and ParBoX, LazyParBoX,
  FullDistParBoX, NaiveDistributed and Selection, which all compose
  through the one step, answer as centralized evaluation of the
  stitched tree, on chain, star and random fragment trees under both
  algebras with batches of 1-4 queries;
* property: under streams of edits (the edited fragments re-evaluated,
  every other triplet kept), re-decoded equal-content triplets and
  split / merge / move, on chain, star and random fragment trees under
  both algebras, with two plans over the same fragments, every answer
  equals a fresh ``eval_st_many`` and the centralized oracle, every
  retained known value equals a fresh solve's, and exactly the changed
  fragments' root paths are re-solved;
* the work bound under the process executor: a resend re-solves 0
  fragments, an edit in the deepest fragment of a 48-fragment chain its
  48-fragment root path, an edit in a leaf of a 48-fragment star 2;
* concurrency: racing solves of one plan each get their own reply set's
  answers, and stream rounds interleaved with ad-hoc reads under the
  process executor match a serial twin and a from-scratch recompute.
"""

import gc
import random
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolexpr.compose import CanonicalAlgebra, PaperAlgebra
from repro.core import (
    FullDistParBoXEngine,
    LazyParBoXEngine,
    NaiveDistributedEngine,
    ParBoXEngine,
    SelectionEngine,
    select_centralized,
)
from repro.core.bottom_up import bottom_up
from repro.core.centralized import evaluate_tree_many
from repro.core.eval_st import RetainedSolve, assemble, eval_st_many, solve_every
from repro.xpath.qlist import OP_CHILD, OP_DESC
from repro.core.plan import plan_batch
from repro.core.session import QuerySession
from repro.core.vectors import VectorTriplet, clear_interned
from repro.distsim.executors import ProcessSiteExecutor
from repro.stream import InsNode, Relabel
from repro.stream.updates import apply_updates
from repro.workloads.topologies import chain_ft2, star_ft1
from repro.xpath import compile_query
from test_delta_residency import _random_rounds
from test_properties import build_random_tree, random_fragmentation, random_placement
from test_rebalance_properties import _random_structural_op
from test_serving_differential import deterministic_ledger

SHAPES = ("chain", "star", "random")
ALGEBRAS = (CanonicalAlgebra, PaperAlgebra)

#: Labels and texts of both the XMark-like topologies and the random trees.
_LABELS = ("a", "b", "seal", "bidder", "item", "note")
_TEXTS = (None, "x", "7", "3", "seal-F1")
_QUERIES = (
    "[//bidder]",
    '[//seal = "seal-F1"]',
    "[not(//note)]",
    '[//item[text() = "3"]]',
    "[//a/b]",
    '[//b[text() = "x"] and not(//c)]',
    '[//seal = "x"]',
)


def _cluster(shape, rng):
    seed = rng.randrange(1000)
    if shape == "chain":
        return chain_ft2(rng.randint(2, 6), 0.3, seed=seed, nodes_per_mb=40)
    if shape == "star":
        return star_ft1(rng.randint(2, 6), 0.3, seed=seed, nodes_per_mb=40)
    tree = build_random_tree(rng)
    return random_placement(rng, random_fragmentation(rng, tree))


def _edits(cluster, rng, fragment_ids):
    """One relabel or insert in each of ``fragment_ids``."""
    ops = []
    for fragment_id in fragment_ids:
        nodes = [
            node
            for node in cluster.fragment(fragment_id).root.iter_subtree()
            if not node.is_virtual
        ]
        node = rng.choice(nodes)
        if rng.random() < 0.6:
            ops.append(
                Relabel(fragment_id, node.node_id, label=rng.choice(_LABELS), text=rng.choice(_TEXTS))
            )
        else:
            ops.append(InsNode(fragment_id, node.node_id, rng.choice(_LABELS), rng.choice(_TEXTS)))
    return ops


def _root_paths(source_tree, fragment_ids):
    paths = set()
    for fragment_id in fragment_ids:
        while fragment_id is not None and fragment_id not in paths:
            paths.add(fragment_id)
            fragment_id = source_tree.parent_of(fragment_id)
    return paths


#: Path-shaped queries (with qualifiers) for Selection's node sets.
_SELECTIONS = ("[//bidder]", "[//seal]", "[//a/b]", '[//item[text() = "3"]]', "[//b]", "[//note]")


def _check_demand_and_engines(seed, shape, algebra_cls):
    rng = random.Random(seed)
    cluster = _cluster(shape, rng)
    algebra = algebra_cls()
    source_tree = cluster.source_tree()
    fragment_ids = source_tree.fragment_ids()
    pool = _QUERIES + tuple(f'[//seal = "seal-{fid}"]' for fid in fragment_ids)
    plan = plan_batch([compile_query(text) for text in rng.sample(pool, rng.randint(1, 4))])
    whole = cluster.fragmented_tree.stitch()
    oracle, _ = evaluate_tree_many(whole, plan.combined, plan.answer_indices)

    # Demand closure: a parent reads a child only at V[i] where some
    # entry is */q_i and at DV[i] where one is //q_i, and a formula at a
    # demanded entry reads only demanded entries below.
    v_mask = sum({1 << e.args[0] for e in plan.combined if e.op == OP_CHILD})
    dv_mask = sum({1 << e.args[0] for e in plan.combined if e.op == OP_DESC})
    demanded = {"V": v_mask, "CV": 0, "DV": dv_mask}
    answers = sum({1 << index for index in plan.answer_indices})
    triplets = {}
    for fragment_id in fragment_ids:
        triplet = triplets[fragment_id] = bottom_up(
            cluster.fragment(fragment_id), plan.combined, algebra
        )[0]
        root = fragment_id == source_tree.root_fragment_id
        wanted = (answers, 0, 0) if root else (v_mask, 0, dv_mask)
        for slot, vector in enumerate((triplet.v, triplet.cv, triplet.dv)):
            for index, formula in enumerate(vector):
                if wanted[slot] >> index & 1:
                    for var in formula.variables():
                        assert demanded[var.kind] >> var.index & 1, (fragment_id, index, var)
    # The walk asks for no entry outside the demand set.
    retained = RetainedSolve()
    assert assemble(retained, triplets, source_tree, plan.answer_indices)[0] == oracle
    for fragment_id, entry in retained.snapshot[1].items():
        if fragment_id != source_tree.root_fragment_id:
            assert entry.known[0] & ~v_mask == entry.known[1] == entry.known[2] & ~dv_mask == 0

    # Every composition through the one step answers as the oracle.
    for engine_cls in (ParBoXEngine, LazyParBoXEngine, FullDistParBoXEngine, NaiveDistributedEngine):
        with engine_cls(cluster, algebra=algebra) as engine:
            assert list(engine.evaluate_many(plan).answers) == oracle, engine_cls.name
    selections = plan_batch(
        [compile_query(text) for text in rng.sample(_SELECTIONS, rng.randint(1, 4))]
    )
    with SelectionEngine(cluster, algebra=algebra) as engine:
        batch = engine.select_many(selections)
    selected, _ = evaluate_tree_many(whole, selections.combined, selections.answer_indices)
    assert [bool(paths) for paths in batch.selections] == selected
    assert list(batch.selections) == [select_centralized(whole, q) for q in selections.queries]


class TestDemandAndEngines:
    @pytest.mark.parametrize("algebra_cls", ALGEBRAS)
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", range(8))
    def test_seeded(self, seed, shape, algebra_cls):
        _check_demand_and_engines(seed, shape, algebra_cls)


class _Solver:
    """One plan, its current triplets and what its last solve saw."""

    def __init__(self, plan, algebra):
        self.plan = plan
        self.algebra = algebra
        self.triplets = {}
        self.seen = (None, {})  # (source tree, triplets) at the last solve

    def evaluate(self, cluster, fragment_ids):
        for fragment_id in fragment_ids:
            fragment = cluster.fragment(fragment_id)
            self.triplets[fragment_id] = bottom_up(fragment, self.plan.combined, self.algebra)[0]

    def forget(self, fragment_ids):
        for fragment_id in fragment_ids:
            self.triplets.pop(fragment_id, None)

    def check(self, cluster):
        source_tree = cluster.source_tree()
        plan, triplets = self.plan, self.triplets
        answers, solved = assemble(plan.solved, triplets, source_tree, plan.answer_indices)

        last_tree, last = self.seen
        if last_tree is not source_tree:
            expected = set(source_tree.fragment_ids())
        else:
            expected = _root_paths(
                source_tree, [fid for fid in triplets if last.get(fid) is not triplets[fid]]
            )
        assert solved == len(expected)
        self.seen = (source_tree, dict(triplets))

        assert answers == eval_st_many(triplets, source_tree, plan.answer_indices)
        oracle, _ = evaluate_tree_many(
            cluster.fragmented_tree.stitch(), plan.combined, plan.answer_indices
        )
        assert answers == oracle

        # Every retained known value is what a fresh solve of every
        # entry reads, and the root holds every answer.
        fresh = {}
        for fragment_id in reversed(source_tree.fragment_ids()):
            fresh[fragment_id] = solve_every(triplets[fragment_id], fresh)
        retained_tree, retained = plan.solved.snapshot
        assert retained_tree is source_tree
        assert set(retained) == set(source_tree.fragment_ids())
        for fragment_id, entry in retained.items():
            assert entry.triplet() is triplets[fragment_id]
            for known, value, full in zip(entry.known, entry.value, fresh[fragment_id].value):
                assert value == full & known
        root = source_tree.root_fragment_id
        for index in plan.answer_indices:
            assert retained[root].known[0] >> index & 1
        return solved


def _check_retained_equals_fresh(seed, shape, algebra_cls, rounds=10):
    rng = random.Random(seed)
    cluster = _cluster(shape, rng)
    algebra = algebra_cls()
    texts = rng.sample(_QUERIES, 4)
    seals = [f'[//seal = "seal-{fid}"]' for fid in cluster.source_tree().fragment_ids()]
    # Two plans over the same fragments; the second solves every other round.
    solvers = [
        _Solver(plan_batch([compile_query(text) for text in texts + seals[-1:]]), algebra),
        _Solver(plan_batch([compile_query(text) for text in texts[:2] + seals[:1]]), algebra),
    ]
    for solver in solvers:
        solver.evaluate(cluster, cluster.source_tree().fragment_ids())
        assert solver.check(cluster) == cluster.card()
    for round_index in range(rounds):
        fragment_ids = cluster.source_tree().fragment_ids()
        kind = rng.random()
        if kind < 0.15:
            batch = apply_updates(cluster, [_random_structural_op(cluster, rng)])
            for solver in solvers:
                solver.forget(batch.removed)
                solver.evaluate(cluster, batch.dirty)
        elif kind < 0.3:
            # Equal content, new objects: re-decoded from a cold table.
            clear_interned()
            for solver in solvers:
                for fragment_id in rng.sample(fragment_ids, rng.randint(1, len(fragment_ids))):
                    triplet = solver.triplets[fragment_id]
                    solver.triplets[fragment_id] = VectorTriplet.from_compact(triplet.to_blob())
        else:
            edited = rng.sample(fragment_ids, rng.randint(1, min(2, len(fragment_ids))))
            batch = apply_updates(cluster, _edits(cluster, rng, edited))
            for solver in solvers:
                solver.evaluate(cluster, batch.dirty)
        solvers[0].check(cluster)
        if round_index % 2:
            solvers[1].check(cluster)
    # A resend of unchanged triplets re-solves nothing.
    for solver in solvers:
        solver.check(cluster)
        assert solver.check(cluster) == 0


class TestRetainedEqualsFresh:
    @pytest.mark.parametrize("algebra_cls", ALGEBRAS)
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_seeded(self, seed, shape, algebra_cls):
        _check_retained_equals_fresh(seed, shape, algebra_cls)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(SHAPES),
        st.sampled_from(ALGEBRAS),
    )
    def test_any_seed(self, seed, shape, algebra_cls):
        _check_retained_equals_fresh(seed, shape, algebra_cls)

    def test_a_new_source_tree_re_solves_every_fragment(self):
        cluster = star_ft1(4, 0.3, seed=3, nodes_per_mb=40)
        plan = plan_batch([compile_query("[//bidder]")])
        triplets = {
            fid: bottom_up(fragment, plan.combined)[0]
            for fid, fragment in cluster.fragmented_tree.fragments.items()
        }
        source_tree = cluster.source_tree()
        assert assemble(plan.solved, triplets, source_tree, plan.answer_indices)[1] == 4
        assert assemble(plan.solved, triplets, source_tree, plan.answer_indices)[1] == 0
        cluster.move_fragment("F2", "S-new")  # same triplets, new SourceTree
        assert cluster.source_tree() is not source_tree
        assert assemble(plan.solved, triplets, cluster.source_tree(), plan.answer_indices)[1] == 4

    def test_retained_state_keeps_no_triplet_alive(self):
        """A tree caller's per-batch triplets die with the batch."""
        cluster = star_ft1(3, 0.3, seed=3, nodes_per_mb=40)
        plan = plan_batch([compile_query("[//bidder]")])
        source_tree = cluster.source_tree()

        def solve():
            triplets = {
                fid: bottom_up(fragment, plan.combined)[0]
                for fid, fragment in cluster.fragmented_tree.fragments.items()
            }
            assemble(plan.solved, triplets, source_tree, plan.answer_indices)
            return weakref.ref(triplets["F1"])

        probe = solve()
        gc.collect()
        assert probe() is None
        # A dead reference is dirty: fresh triplets re-solve everything.
        triplets = {
            fid: bottom_up(fragment, plan.combined)[0]
            for fid, fragment in cluster.fragmented_tree.fragments.items()
        }
        assert assemble(plan.solved, triplets, source_tree, plan.answer_indices)[1] == 3

    def test_missing_triplet_rejected_and_nothing_published(self):
        cluster = star_ft1(3, 0.3, seed=3, nodes_per_mb=40)
        plan = plan_batch([compile_query("[//bidder]")])
        triplets = {"F0": bottom_up(cluster.fragment("F0"), plan.combined)[0]}
        retained = RetainedSolve()
        with pytest.raises(ValueError, match="missing"):
            assemble(retained, triplets, cluster.source_tree(), plan.answer_indices)
        assert retained.snapshot is None


# ---------------------------------------------------------------------------
# The work bound: depth, not card(F)
# ---------------------------------------------------------------------------


def _seal_edit_solves(cluster, edited):
    """``fragments_solved`` of a cold batch, a resend, an edit in ``edited``
    and a resend after it, under the process executor."""
    texts = [f'[//seal = "seal-{edited}"]', "[//bidder]", '[//seal = "seal-F0"]']
    seal = cluster.fragment(edited).root.find_first(lambda node: node.label == "seal")
    solved = []
    with ProcessSiteExecutor(max_workers=2, warm=cluster) as executor:
        with QuerySession(cluster, engine="parbox", executor=executor) as session:
            plan = session.plan(texts)
            for step in range(4):
                if step == 2:
                    apply_updates(cluster, [Relabel(edited, seal.node_id, text="moved")])
                result = session.evaluate_batch(texts)
                solved.append(result.details["fragments_solved"])
                oracle, _ = evaluate_tree_many(
                    cluster.fragmented_tree.stitch(), plan.combined, plan.answer_indices
                )
                assert list(result.answers) == oracle
            assert result.answers[0] is False  # the edit really moved an answer
    return solved


class TestWorkBound:
    def test_chain_edit_re_solves_its_root_path(self):
        cluster = chain_ft2(48, 12, seed=1, nodes_per_mb=160)
        deepest = cluster.source_tree().fragment_ids()[-1]
        assert cluster.source_tree().depth_of(deepest) == 47
        assert _seal_edit_solves(cluster, deepest) == [48, 0, 48, 0]

    def test_star_leaf_edit_re_solves_two_fragments(self):
        cluster = star_ft1(48, 12, seed=1, nodes_per_mb=160)
        assert _seal_edit_solves(cluster, "F17") == [48, 0, 2, 0]


# ---------------------------------------------------------------------------
# Concurrency
# ---------------------------------------------------------------------------


class TestConcurrency:
    def test_racing_solves_of_one_plan_each_get_their_own_answers(self):
        cluster = star_ft1(6, 0.6, seed=5, nodes_per_mb=40)
        plan = plan_batch([compile_query(text) for text in (*_QUERIES, '[//seal = "seal-F3"]')])
        source_tree = cluster.source_tree()
        before = {
            fid: bottom_up(fragment, plan.combined)[0]
            for fid, fragment in cluster.fragmented_tree.fragments.items()
        }
        seal = cluster.fragment("F3").root.find_first(lambda node: node.label == "seal")
        apply_updates(cluster, [Relabel("F3", seal.node_id, text="moved")])
        after = dict(before, F3=bottom_up(cluster.fragment("F3"), plan.combined)[0])
        reply_sets = (before, after)
        expected = [eval_st_many(triplets, source_tree, plan.answer_indices) for triplets in reply_sets]
        assert expected[0] != expected[1]

        barrier = threading.Barrier(8)
        wrong, finished = [], []

        def solve(slot):
            barrier.wait(timeout=30)
            for turn in range(300):
                which = (slot + turn) % 2
                answers, _ = assemble(plan.solved, reply_sets[which], source_tree, plan.answer_indices)
                if answers != expected[which]:
                    wrong.append((slot, turn))
            finished.append(slot)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solve, args=(slot,)) for slot in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == [] and sorted(finished) == list(range(8))
        # Whichever solve published last, the snapshot is whole.
        _, retained = plan.solved.snapshot
        assert retained["F3"].triplet() in (before["F3"], after["F3"])

    @pytest.mark.parametrize("seed", [4, 19])
    def test_stream_rounds_beside_reads_match_a_serial_twin(self, seed):
        book = {
            "bidder": "[//bidder]",
            "no-note": "[not(//note)]",
            "item": '[//item[text() = "3"]]',
            "seal": '[//seal = "seal-F1"]',
        }
        reads = ['[//probe = "on"]', "[//bidder]", "[//category/name]"]
        clusters = {name: star_ft1(4, 0.6, seed=seed, nodes_per_mb=40) for name in ("serial", "process")}
        sessions = {
            name: QuerySession(clusters[name], engine="parbox", executor=name) for name in clusters
        }
        try:
            maintainers = {
                name: sessions[name].watch(list(book.values()), names=list(book))
                for name in clusters
            }
            streams = [_random_rounds(clusters[name], seed, 10) for name in clusters]
            for index, rounds in enumerate(zip(*streams)):
                ledgers, answers = {}, {}
                for name, (kind, payload) in zip(clusters, rounds):
                    round_ = getattr(maintainers[name], kind)(payload)
                    ledgers[name] = (round_.dirty_fragments, round_.sites_visited,
                                     round_.traffic_bytes, round_.nodes_recomputed,
                                     round_.slices_shipped, round_.segments_resolved,
                                     round_.changed, round_.structural)
                    read = sessions[name].evaluate_batch(reads)
                    answers[name] = (maintainers[name].answers(), read.answers,
                                     deterministic_ledger(read.metrics))
                assert ledgers["serial"] == ledgers["process"], f"round {index}"
                assert answers["serial"] == answers["process"], f"round {index}"
                held = maintainers["process"].answers()
                assert held == maintainers["process"].recompute_from_scratch()
                maintainers["serial"].recompute_from_scratch()
            for maintainer in maintainers.values():
                maintainer.close()
        finally:
            for session in sessions.values():
                session.close()
