"""Data-selection XPath queries (paper, Section 8 / conclusions).

The paper notes that the partial-evaluation technique "generalizes to
data selection XPath queries ... with the performance guarantee that
each site is visited at most twice".  This module implements that
extension for queries that are a single path ``p``: return the *set of
nodes* reachable via ``p`` from the root of the fragmented tree.

Protocol (two visits per site):

1. **Visit 1 -- qualifier resolution.**  Plain ParBoX stage 2: every
   site returns ``(V, CV, DV)`` triplets.  The coordinator solves the
   Boolean equation system for the ground value of every
   ``Var(F, kind, i)`` of a virtual node -- exactly what visit 2 ships.
2. **Visit 2 -- conditional selection.**  The coordinator sends each
   site the ground values of the variables of its fragments' virtual
   nodes.  With those, a site (a) re-runs a *ground* bottom-up pass to
   know every sub-query's truth at every local node, and (b) runs one
   multi-source top-down automaton pass computing, **for every possible
   entry state j** (a path-shaped QList entry activated at the fragment
   root), which local nodes are selected and which entry states each
   virtual node would be activated with.  These
   :class:`SelectionTable` tables go back to the coordinator.
3. **Composition (coordinator-local).**  Starting from the root
   fragment with the answer entry active, the coordinator walks the
   fragment tree, unioning each fragment's selected rows for its active
   states and activating sub-fragments through the exit maps.

Selected nodes are reported as child-index paths from the document
root, which compose exactly across fragment boundaries (a virtual node
occupies the same child position as the subtree it replaces).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

from repro.boolexpr.formula import Var
from repro.core.bottom_up import compile_entries
from repro.core.engine import MSG_CONTROL, MSG_TRIPLET, Engine
from repro.core.eval_st import build_equation_system
from repro.core.plan import BatchPlan, attribute_costs, coerce_plan
from repro.core.vectors import VectorTriplet
from repro.distsim.metrics import EvalResult, QueryCost
from repro.fragments.fragment import Fragment
from repro.xmltree.node import XMLNode
from repro.xpath.qlist import (
    OP_CHILD,
    OP_DESC,
    OP_EPSILON,
    OP_OR,
    OP_SELF_QUAL,
    OP_SELF_SEQ,
    QList,
)

_PATH_OPS = (OP_EPSILON, OP_SELF_QUAL, OP_SELF_SEQ, OP_CHILD, OP_DESC)

_EPS, _LABEL, _TEXT, _CHILD, _DESC, _SELFQ, _SELFSEQ, _AND, _OR, _NOT = range(10)

NodePath = tuple[int, ...]


@dataclass(frozen=True)
class SelectionTable:
    """One fragment's phase-2 reply.

    ``selected[j]`` -- paths (relative to the fragment root) selected if
    entry ``j`` is activated at the fragment root; ``exits[j]`` -- for
    each virtual node, the entry states it would be activated with.
    """

    fragment_id: str
    selected: dict[int, tuple[NodePath, ...]]
    exits: dict[int, dict[str, frozenset[int]]]

    def wire_bytes(self) -> int:
        """Approximate reply size (path tuples + exit maps)."""
        total = 16
        for paths in self.selected.values():
            total += 4 + sum(2 * len(path) + 2 for path in paths)
        for exit_map in self.exits.values():
            for sub_id, states in exit_map.items():
                total += len(sub_id) + 2 * len(states) + 4
        return total


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of a distributed selection."""

    paths: tuple[NodePath, ...]
    result: EvalResult

    def __len__(self) -> int:
        return len(self.paths)


@dataclass(frozen=True)
class SelectionBatch:
    """Outcome of a batched selection: N node sets over one ledger.

    ``selections[i]`` is query *i*'s selected paths; ``result`` is the
    *batch-level* cost ledger (still at most two visits per site) and
    ``per_query`` its per-query attribution.
    """

    selections: tuple[tuple[NodePath, ...], ...]
    result: EvalResult
    per_query: tuple[QueryCost, ...]

    def __len__(self) -> int:
        return len(self.selections)

    def __getitem__(self, index: int) -> tuple[NodePath, ...]:
        return self.selections[index]


def path_entry_indices(qlist: QList) -> list[int]:
    """Indices of path-shaped entries (the possible automaton states)."""
    return [i for i, entry in enumerate(qlist) if entry.op in _PATH_OPS]


def initial_states(qlist: QList, answer_index: Optional[int] = None) -> frozenset[int]:
    """The automaton start states of a selection query.

    A selection query is a path or a union (``or``) of paths; unions
    simply activate several start states at the document root.  Raises
    ``ValueError`` for anything else (conjunctions/negations have no
    node-set semantics).  ``answer_index`` overrides the root entry --
    for a *batch*, each member query's states start at that query's
    answer entry inside the combined QList.
    """
    out: set[int] = set()
    stack = [qlist.answer_index if answer_index is None else answer_index]
    while stack:
        index = stack.pop()
        entry = qlist[index]
        if entry.op in _PATH_OPS:
            out.add(index)
        elif entry.op == OP_OR:
            stack.extend(entry.args)
        else:
            raise ValueError(
                "selection queries must be a path or a union of paths "
                f"(found a {entry.op!r} entry)"
            )
    return frozenset(out)


def ground_values_by_node(
    fragment: Fragment,
    qlist: QList,
    virtual_env: Mapping[Var, bool],
) -> dict[int, list[bool]]:
    """Ground bottom-up pass: ``V`` vector (plain bools) for every node.

    ``virtual_env`` supplies the resolved values for the variables of
    the fragment's virtual nodes (phase-1 output).
    """
    entries = compile_entries(qlist)
    n = len(entries)
    v_store: dict[int, list[bool]] = {}
    dv_store: dict[int, list[bool]] = {}

    for node in fragment.root.iter_postorder():
        if node.is_virtual:
            owner = node.fragment_ref
            assert owner is not None
            v_store[node.node_id] = [virtual_env[Var(owner, "V", i)] for i in range(n)]
            dv_store[node.node_id] = [virtual_env[Var(owner, "DV", i)] for i in range(n)]
            continue
        cv = [False] * n
        dv = [False] * n
        for child in node.children:
            child_v = v_store[child.node_id]
            child_dv = dv_store.pop(child.node_id)
            for i in range(n):
                if child_v[i]:
                    cv[i] = True
                if child_dv[i]:
                    dv[i] = True
        v = [False] * n
        label, text = node.label, node.text
        for i in range(n):
            opcode, arg0, arg1, payload = entries[i]
            if opcode == _SELFQ:
                value = v[arg0]
            elif opcode == _CHILD:
                value = cv[arg0]
            elif opcode == _DESC:
                value = dv[arg0]
            elif opcode == _LABEL:
                value = label == payload
            elif opcode == _TEXT:
                value = text == payload
            elif opcode == _AND or opcode == _SELFSEQ:
                value = v[arg0] and v[arg1]
            elif opcode == _OR:
                value = v[arg0] or v[arg1]
            elif opcode == _NOT:
                value = not v[arg0]
            else:
                value = True
            v[i] = value
            if value:
                dv[i] = True
        v_store[node.node_id] = v
        dv_store[node.node_id] = dv
    return v_store


def selection_table(
    fragment: Fragment,
    qlist: QList,
    virtual_env: Mapping[Var, bool],
) -> SelectionTable:
    """Phase-2 site-local work: the conditional selection table.

    Runs the top-down automaton once with *all* path entries as
    potential origins, tracking per active state the bitmask of origins
    that produced it.
    """
    origins = path_entry_indices(qlist)
    origin_bit = {j: 1 << k for k, j in enumerate(origins)}
    entries = compile_entries(qlist)
    values = ground_values_by_node(fragment, qlist, virtual_env)

    selected_masks: dict[NodePath, int] = {}
    exit_masks: dict[tuple[str, int], int] = {}  # (sub_fragment, state) -> origins

    # Stack of (node, path, states) where states maps entry index ->
    # origin mask of the automaton runs that activated it here.
    initial = {j: origin_bit[j] for j in origins}
    stack: list[tuple[XMLNode, NodePath, dict[int, int]]] = [(fragment.root, (), initial)]
    while stack:
        node, path, states = stack.pop()
        if node.is_virtual:
            sub_id = node.fragment_ref
            assert sub_id is not None
            for state, mask in states.items():
                key = (sub_id, state)
                exit_masks[key] = exit_masks.get(key, 0) | mask
            continue

        node_values = values[node.node_id]
        # Saturate self-expanding states (SELF_SEQ/DESC add lower-index /
        # same-node states; continuation indices are strictly smaller, so
        # processing by decreasing index terminates).
        worklist = sorted(states, reverse=True)
        child_states: dict[int, int] = {}
        while worklist:
            j = worklist.pop(0)
            mask = states[j]
            op = entries[j][0]
            arg0, arg1 = entries[j][1], entries[j][2]
            if op == _EPS:
                selected_masks[path] = selected_masks.get(path, 0) | mask
            elif op == _SELFQ:
                if node_values[arg0]:
                    selected_masks[path] = selected_masks.get(path, 0) | mask
            elif op == _SELFSEQ:
                if node_values[arg0] and _activate(states, arg1, mask):
                    worklist = _insert_sorted(worklist, arg1)
            elif op == _CHILD:
                child_states[arg0] = child_states.get(arg0, 0) | mask
            elif op == _DESC:
                # desc-or-self: continuation fires here too, and the DESC
                # state itself flows to the children.
                if _activate(states, arg0, mask):
                    worklist = _insert_sorted(worklist, arg0)
                child_states[j] = child_states.get(j, 0) | mask
            else:  # non-path entry reached as a state: impossible by construction
                raise AssertionError(f"non-path entry {j} activated as automaton state")

        if child_states:
            for index, child in enumerate(node.children):
                stack.append((child, path + (index,), dict(child_states)))

    selected: dict[int, list[NodePath]] = {j: [] for j in origins}
    for path, mask in selected_masks.items():
        for j in origins:
            if mask & origin_bit[j]:
                selected[j].append(path)
    exits: dict[int, dict[str, set[int]]] = {j: {} for j in origins}
    for (sub_id, state), mask in exit_masks.items():
        for j in origins:
            if mask & origin_bit[j]:
                exits[j].setdefault(sub_id, set()).add(state)
    return SelectionTable(
        fragment_id=fragment.fragment_id,
        selected={j: tuple(sorted(paths)) for j, paths in selected.items()},
        exits={
            j: {sub: frozenset(states) for sub, states in exit_map.items()}
            for j, exit_map in exits.items()
        },
    )


def _activate(states: dict[int, int], j: int, mask: int) -> bool:
    """Merge ``mask`` into state ``j``; True if new origins were added."""
    previous = states.get(j, 0)
    merged = previous | mask
    states[j] = merged
    return merged != previous


def _insert_sorted(worklist: list[int], j: int) -> list[int]:
    if j in worklist:
        return worklist
    worklist.append(j)
    worklist.sort(reverse=True)
    return worklist


class SelectionEngine(Engine):
    """Distributed node selection with at most two visits per site.

    Batched: :meth:`select_many` runs the whole two-visit protocol once
    for a combined batch of selection queries -- the phase-2 automaton
    pass already computes tables for *every* path entry, so per-query
    answers only differ in which start states the coordinator composes
    from.  :meth:`select` is the batch-of-one special case.
    """

    name = "ParBoX-Select"

    def select(self, qlist: QList) -> SelectionResult:
        """Evaluate a selection query (a path or a union of paths)."""
        batch = self.select_many([qlist])
        return SelectionResult(paths=batch.selections[0], result=batch.result)

    def select_many(
        self, batch: Union[BatchPlan, Iterable[Union[str, QList]]]
    ) -> SelectionBatch:
        """Evaluate a batch of selection queries in one two-visit round."""
        plan = coerce_plan(batch)
        combined = plan.combined
        # One start-state set per *unique* segment (duplicates share an
        # answer entry, hence identical states); building them validates
        # every member query's shape before any site is touched.
        starts_by_segment: dict[int, frozenset[int]] = {}
        for segment, answer_index in zip(plan.segment_of, plan.answer_indices):
            if segment not in starts_by_segment:
                starts_by_segment[segment] = initial_states(
                    combined, answer_index=answer_index
                )
        run = self._new_run()
        source_tree = self.cluster.source_tree()
        coordinator = source_tree.coordinator_site

        # ---- Visit 1: ParBoX stage 2 + the virtual nodes' solution -------
        # Dispatched through the site executor exactly like ParBoX.
        triplets, phase1_times = self._broadcast_stage(
            run, plan, combined.wire_bytes(), reply=True
        )

        def solve_envs() -> dict[str, dict[Var, bool]]:
            # Through the lazy resolver, exactly the variables visit 2
            # ships: V / CV / DV of every sub-fragment, per fragment.
            system = build_equation_system(triplets)
            return {
                fragment_id: {
                    var: system.value_of(var)
                    for sub in self.cluster.fragment(fragment_id).sub_fragment_ids()
                    for kind in ("V", "CV", "DV")
                    for var in (Var(sub, kind, index) for index in range(len(triplets[sub])))
                }
                for fragment_id in triplets
            }

        (envs, solve_seconds) = run.compute(coordinator, solve_envs)
        elapsed = run.join(phase1_times) + solve_seconds

        # ---- Visit 2: conditional selection tables -----------------------
        tables: dict[str, SelectionTable] = {}
        phase2_times: dict[str, float] = {}
        for site_id in source_tree.sites():
            run.visit(site_id)
            env_bytes = 0
            site_seconds = 0.0
            reply_bytes = 0
            for fragment_id in source_tree.fragments_of(site_id):
                fragment = self.cluster.fragment(fragment_id)
                virtual_env = envs[fragment_id]
                env_bytes += 8 * len(virtual_env)
                (table, seconds) = run.compute(
                    site_id,
                    lambda f=fragment, e=virtual_env: selection_table(f, combined, e),
                )
                run.add_ops(fragment.size(), fragment.size() * len(combined))
                for segment_index, (_, length) in enumerate(plan.segments):
                    run.add_segment_ops(segment_index, fragment.size() * length)
                tables[fragment_id] = table
                site_seconds += seconds
                reply_bytes += table.wire_bytes()
            request_seconds = run.message(coordinator, site_id, env_bytes or 16, MSG_CONTROL)
            reply_seconds = run.message(site_id, coordinator, reply_bytes, MSG_TRIPLET)
            phase2_times[site_id] = request_seconds + site_seconds + reply_seconds
        elapsed += run.join(phase2_times)

        # ---- Composition over the fragment tree, once per unique query ---
        (composed, compose_seconds) = run.compute(
            coordinator,
            lambda: {
                segment: _compose(tables, source_tree, starts, self.cluster)
                for segment, starts in starts_by_segment.items()
            },
        )
        elapsed += compose_seconds
        per_query_paths = [composed[segment] for segment in plan.segment_of]
        answers = [bool(paths) for paths in per_query_paths]
        result = self._result(
            any(answers),
            run,
            elapsed,
            selected=sum(len(paths) for paths in composed.values()),
            batch_size=len(plan),
            unique_queries=plan.unique_count,
        )
        return SelectionBatch(
            selections=tuple(per_query_paths),
            result=result,
            per_query=attribute_costs(plan, answers, run.metrics),
        )


def _compose(
    tables: Mapping[str, SelectionTable],
    source_tree,
    starts: frozenset[int],
    cluster,
) -> tuple[NodePath, ...]:
    """Coordinator-local composition of the per-fragment tables."""
    attachment = _attachment_paths(source_tree, cluster)
    selected: set[NodePath] = set()
    # active[fragment] = set of entry states at its root
    active: dict[str, set[int]] = {source_tree.root_fragment_id: set(starts)}
    for fragment_id in source_tree.iter_fragments_preorder():
        states = active.get(fragment_id)
        if not states:
            continue
        table = tables[fragment_id]
        base = attachment[fragment_id]
        child_activation: dict[str, set[int]] = {}
        for state in states:
            for path in table.selected.get(state, ()):
                selected.add(base + path)
            for sub_id, exit_states in table.exits.get(state, {}).items():
                child_activation.setdefault(sub_id, set()).update(exit_states)
        for sub_id, exit_states in child_activation.items():
            active.setdefault(sub_id, set()).update(exit_states)
    return tuple(sorted(selected))


def _attachment_paths(source_tree, cluster) -> dict[str, NodePath]:
    """Absolute child-index path of each fragment's root in the document."""
    paths: dict[str, NodePath] = {source_tree.root_fragment_id: ()}
    for fragment_id in source_tree.iter_fragments_preorder():
        fragment = cluster.fragment(fragment_id)
        base = paths[fragment_id]
        # Locate each virtual node's child-index path inside the fragment.
        stack: list[tuple[XMLNode, NodePath]] = [(fragment.root, ())]
        while stack:
            node, path = stack.pop()
            if node.is_virtual and node.fragment_ref:
                paths[node.fragment_ref] = base + path
                continue
            for index, child in enumerate(node.children):
                stack.append((child, path + (index,)))
    return paths


def select_centralized(tree, qlist: QList) -> tuple[NodePath, ...]:
    """Oracle: the same selection on a whole (unfragmented) document."""
    starts = initial_states(qlist)
    fragment = Fragment("whole", tree.root)
    table = selection_table(fragment, qlist, {})
    out: set[NodePath] = set()
    for state in starts:
        out.update(table.selected[state])
    return tuple(sorted(out))


__all__ = [
    "SelectionEngine",
    "SelectionResult",
    "SelectionBatch",
    "SelectionTable",
    "selection_table",
    "select_centralized",
    "ground_values_by_node",
    "path_entry_indices",
    "initial_states",
]
