"""``Procedure bottomUp`` (paper, Fig. 3(b)): per-fragment partial evaluation.

One post-order traversal of a fragment computes, for every node ``v``,
the vectors ``V_v`` / ``CV_v`` / ``DV_v`` over the sub-query list:

* lines 1-5: children are evaluated first; their ``V`` values are
  OR-accumulated into ``CV_v`` and their ``DV`` values into ``DV_v``;
* lines 6-16: each sub-query's value at ``v`` is computed by case
  analysis on its normal form (see :mod:`repro.xpath.qlist`);
* line 17: ``DV_v[i] := V_v[i] OR DV_v[i]``.

**Virtual nodes** are where partial evaluation happens: a virtual leaf
referencing fragment ``F_k`` contributes the *free variables*
``Var(F_k, 'V', i)`` / ``Var(F_k, 'DV', i)`` instead of concrete values,
decoupling this fragment's evaluation from its sub-fragments' (paper:
"we propose a technique to decouple the dependencies between partial
evaluation processes ... by introducing Boolean variables").

**Two kernels.**  Subtrees with no virtual node below them only ever
produce ``TRUE``/``FALSE`` entries -- by far the common case (leaf
fragments are entirely ground, and even inner fragments are ground
everywhere except on the root-to-virtual-node paths).  The *bitset
kernel* represents such a subtree's ``V``/``CV``/``DV`` as Python-int
bitmasks (bit *i* = entry *i* holds), so child folding (``cv |= v``)
and the ``DV := V or DV`` update are single word-parallel operations
over all *n* entries, the leaf cases (``ε`` / ``label()`` / ``text()``)
resolve through three precompiled per-payload masks with no per-entry
dispatch at all, and only the entries that reference earlier entries
run -- as a straight-line function generated once per QList with every
opcode and operand specialized away.  For tree callers (serial and
thread executors, the centralized evaluator) the whole pass is one
store-free frame traversal (:func:`_frame_bottom_up`): accumulators stay
bitmasks until the first virtual node folds in, then *upgrade* to
formula lists, so the algebra runs exactly on the root-to-virtual-node
paths and ground child subtrees fold in as constant bits.  (In the
centralized evaluator an upgrade is an error.)  The *formula kernel* --
``kernel="formula"`` -- is the classic algebra-everywhere path.  Both
kernels produce bitwise-identical triplets under either composition
algebra, because every algebra folds constants the same way -- checked
exhaustively by ``tests/test_hotpath_kernel.py``.

**Resident holders** evaluate a linearization instead of the tree
(:class:`GroundLinear`, :func:`site_bottom_up`): postorder arrays over
every node, virtual leaves included.  The ground nodes go through a
levelized multi-lane pass (:func:`_lane_pass`), the *open spine* -- the
at most depth x card(F_j) nodes above a virtual leaf -- is then
completed over formulas from the masks the ground pass left on it
(:func:`_open_pass`), sharing lines 6-17 with the two kernels above.  A
copy that has been patched keeps every node's ``V`` / ``DV`` per query
and pays, after an edit, for the edited node's root path only
(:func:`_spine_pass`): a subtree's partial answer is as much a function
of its content alone as a fragment's triplet is.

The traversal is iterative (explicit post-order), so arbitrarily deep
fragments do not hit the Python recursion limit, and keeps only the
frontier of child vectors alive, matching the paper's observation that
two triplets (plus one per virtual node) suffice.  The deterministic
cost ledger (``nodes_visited``, ``qlist_ops``) is defined by the
algorithm, not the kernel, and is identical on both paths.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Optional

from repro.boolexpr.compose import CanonicalAlgebra, DEFAULT_ALGEBRA, FormulaAlgebra
from repro.boolexpr.formula import FALSE, TRUE, Var, make_or
from repro.core.vectors import VectorTriplet
from repro.fragments.fragment import Fragment
from repro.xpath.qlist import (
    OP_AND,
    OP_CHILD,
    OP_DESC,
    OP_EPSILON,
    OP_LABEL_IS,
    OP_NOT,
    OP_OR,
    OP_SELF_QUAL,
    OP_SELF_SEQ,
    OP_TEXT_IS,
    QList,
)

# Compact opcodes for the inner loop.
_EPS, _LABEL, _TEXT, _CHILD, _DESC, _SELFQ, _SELFSEQ, _AND, _OR, _NOT = range(10)

_OPCODE = {
    OP_EPSILON: _EPS,
    OP_LABEL_IS: _LABEL,
    OP_TEXT_IS: _TEXT,
    OP_CHILD: _CHILD,
    OP_DESC: _DESC,
    OP_SELF_QUAL: _SELFQ,
    OP_SELF_SEQ: _SELFSEQ,
    OP_AND: _AND,
    OP_OR: _OR,
    OP_NOT: _NOT,
}

#: Kernel selection.  ``"auto"`` runs the bitset fast path on ground
#: subtrees and the formula algebra on virtual-node paths; ``"formula"``
#: forces the classic path everywhere (the oracle for the agreement
#: tests and the baseline `benchmarks/bench_hotpath.py` measures
#: against).  Module-level so tests can monkeypatch the default for a
#: whole engine/executor stack without threading a parameter through.
DEFAULT_KERNEL = "auto"
_KERNELS = ("auto", "formula")


@dataclass(frozen=True)
class BottomUpStats:
    """Deterministic and timing costs of one fragment evaluation."""

    nodes_visited: int
    qlist_ops: int
    wall_seconds: float


def compile_entries(qlist: QList) -> list[tuple[int, int, int, Optional[str]]]:
    """Lower QList entries to ``(opcode, arg0, arg1, payload)`` tuples.

    The compiled form is cached on the QList instance: QLists are
    immutable, so the cache needs no invalidation, and every fragment
    of every round evaluating the same (combined) query reuses one
    lowering instead of recompiling per call.
    """
    cached = getattr(qlist, "_compiled_entries", None)
    if cached is not None:
        return cached
    compiled: list[tuple[int, int, int, Optional[str]]] = []
    for entry in qlist:
        arg0 = entry.args[0] if len(entry.args) > 0 else -1
        arg1 = entry.args[1] if len(entry.args) > 1 else -1
        compiled.append((_OPCODE[entry.op], arg0, arg1, entry.value))
    try:
        qlist._compiled_entries = compiled
    except AttributeError:  # exotic read-only QList stand-ins
        pass
    return compiled


def _compile_ground_kernel(
    entries: list[tuple[int, int, int, Optional[str]]]
):
    """Generate the straight-line bit kernel for one QList's dependent entries.

    Partial evaluation applied to ourselves: the per-entry opcode
    dispatch is specialized away by emitting one Python line per
    dependent entry with the opcode, operand indices and result bit
    baked in as constants, then compiling the function once per QList.
    The generated ``_kernel(cv, dv, base)`` takes the folded child
    masks plus the node's leaf-entry bits (``base``) and returns the
    node's full ``V`` mask -- no tuple unpacking, no dispatch, no
    allocation on any call.  Leaf entries (``ε``/``label()``/``text()``)
    never appear here; they are resolved into ``base`` by mask lookups.
    """
    lines = ["def _kernel(cv, dv, base):", "    v = base"]
    for index, (opcode, arg0, arg1, _payload) in enumerate(entries):
        bit = 1 << index
        if opcode == _CHILD:
            lines.append(f"    if cv >> {arg0} & 1: v |= {bit}")
        elif opcode == _DESC:
            # The classic loop interleaves line 17 with the case
            # analysis, so ``//qj`` observes the dv entry *after* its
            # own V contribution was folded in: read ``dv OR v``.
            lines.append(f"    if (dv | v) >> {arg0} & 1: v |= {bit}")
        elif opcode == _SELFQ:
            lines.append(f"    if v >> {arg0} & 1: v |= {bit}")
        elif opcode == _AND or opcode == _SELFSEQ:
            lines.append(f"    if v >> {arg0} & 1 and v >> {arg1} & 1: v |= {bit}")
        elif opcode == _OR:
            lines.append(f"    if (v >> {arg0} | v >> {arg1}) & 1: v |= {bit}")
        elif opcode == _NOT:
            lines.append(f"    if not v >> {arg0} & 1: v |= {bit}")
    lines.append("    return v")
    namespace: dict = {}
    exec("\n".join(lines), namespace)  # noqa: S102 - source built from int constants only
    return namespace["_kernel"]


def _ground_program(
    qlist: QList, entries: list[tuple[int, int, int, Optional[str]]]
) -> tuple[int, dict, dict, object, dict, dict]:
    """The bitset kernel's precompiled form of one QList (cached on it).

    ``(eps_mask, label_masks, text_masks, kernel, leaf_memo,
    var_cache)``: the masks resolve all leaf entries of a node in O(1)
    dict lookups (bit *i* of ``label_masks[l]`` is set iff entry *i* is
    ``label() = l``), ``kernel`` is the generated straight-line
    function for the dependent entries, ``leaf_memo`` caches
    ``base -> V`` for childless nodes (their kernel result depends only
    on ``base``, and distinct bases are bounded by the document's
    label/text vocabulary), and ``var_cache`` holds each virtual
    owner's interned variable vectors.  All entries are deterministic,
    so concurrent site threads sharing the dicts race only on
    idempotent writes.
    """
    cached = getattr(qlist, "_ground_program", None)
    if cached is not None:
        return cached
    eps_mask = 0
    label_masks: dict[str, int] = {}
    text_masks: dict[str, int] = {}
    for index, (opcode, _arg0, _arg1, payload) in enumerate(entries):
        bit = 1 << index
        if opcode == _EPS:
            eps_mask |= bit
        elif opcode == _LABEL:
            label_masks[payload] = label_masks.get(payload, 0) | bit
        elif opcode == _TEXT:
            text_masks[payload] = text_masks.get(payload, 0) | bit
    # The trailing dicts: the leaf memo (base -> V mask) and the
    # virtual-variable cache (owner -> (V vars, DV vars) tuples), both
    # filled lazily and safely shared across threads (idempotent
    # writes keyed on deterministic values).
    program = (
        eps_mask,
        label_masks,
        text_masks,
        _compile_ground_kernel(entries),
        {},
        {},
    )
    try:
        qlist._ground_program = program
    except AttributeError:
        pass
    return program


def _virtual_vectors(
    var_cache: dict, owner: str, n: int
) -> tuple[tuple, tuple]:
    """The interned ``V``/``DV`` variable vectors of one virtual node."""
    cached = var_cache.get(owner)
    if cached is None:
        cached = (
            tuple(Var(owner, "V", i) for i in range(n)),
            tuple(Var(owner, "DV", i) for i in range(n)),
        )
        var_cache[owner] = cached
    return cached


def _virtual_union(var_cache: dict, owners: tuple, n: int) -> tuple[tuple, tuple]:
    """Sibling virtual nodes' ``V`` / ``DV`` vectors OR-ed entry by entry
    under the canonical algebra, interned per group of owners.

    Canonical disjunction is associative, commutative and flattening,
    so folding this one vector interns to the same formulas as folding
    the siblings one by one, in any order and among any other children
    -- in O(card) operand visits per entry once, not O(card^2) per pass.
    """
    if len(owners) == 1:
        return _virtual_vectors(var_cache, owners[0], n)
    cached = var_cache.get(owners)
    if cached is None:
        vectors = [_virtual_vectors(var_cache, owner, n) for owner in owners]
        cached = var_cache[owners] = tuple(
            tuple(make_or(*(vector[kind][i] for vector in vectors)) for i in range(n))
            for kind in (0, 1)
        )
    return cached


def _mask_to_formulas(mask: int, n: int) -> list:
    """Expand a result bitmask into the TRUE/FALSE entry list."""
    return [TRUE if mask >> i & 1 else FALSE for i in range(n)]


def _upgrade_frame(frame: list, n: int) -> tuple[list, list]:
    """Switch a frame's accumulators from bitmasks to formula lists.

    Sound in any child order: a TRUE bit accumulated so far stays TRUE
    under every later fold (``x OR 1 = 1`` in both algebras), and a
    zero bit is exactly the untouched FALSE accumulator.
    """
    cv = frame[2]
    if type(cv) is int:
        frame[2] = _mask_to_formulas(cv, n)
        frame[3] = _mask_to_formulas(frame[3], n)
    return frame[2], frame[3]


def _fold_masks_into_lists(cv: list, dv: list, v_mask: int, dv_mask: int) -> None:
    """Fold a ground child's result masks into formula accumulators.

    A set bit contributes TRUE, which absorbs whatever the accumulator
    holds (``x OR 1 = 1`` under every algebra); a zero bit contributes
    nothing -- identical to folding the expanded constant vector.
    """
    mask = v_mask
    while mask:
        low = mask & -mask
        cv[low.bit_length() - 1] = TRUE
        mask ^= low
    mask = dv_mask
    while mask:
        low = mask & -mask
        dv[low.bit_length() - 1] = TRUE
        mask ^= low


def _fold_formulas(cv: list, dv: list, child_v, child_dv, or_) -> None:
    """Lines 1-5 for one child: OR its ``V`` into ``cv``, its ``DV`` into ``dv``."""
    for i, value in enumerate(child_v):
        if value is not FALSE:
            current = cv[i]
            cv[i] = value if current is FALSE else or_(current, value)
        value = child_dv[i]
        if value is not FALSE:
            current = dv[i]
            dv[i] = value if current is FALSE else or_(current, value)


def _complete_formulas(entries, label, text, cv: list, dv: list, algebra) -> list:
    """Lines 6-17 on formula lists: the node's ``V`` from its folded
    ``cv``/``dv``; ``dv`` becomes the node's ``DV`` in place."""
    or_ = algebra.or_
    and_ = algebra.and_
    not_ = algebra.not_
    v = [FALSE] * len(entries)
    for i, (opcode, arg0, arg1, payload) in enumerate(entries):
        if opcode == _SELFQ:
            value = v[arg0]
        elif opcode == _CHILD:
            value = cv[arg0]
        elif opcode == _DESC:
            value = dv[arg0]
        elif opcode == _LABEL:
            value = TRUE if label == payload else FALSE
        elif opcode == _TEXT:
            value = TRUE if text == payload else FALSE
        elif opcode == _AND or opcode == _SELFSEQ:
            value = and_(v[arg0], v[arg1])
        elif opcode == _OR:
            value = or_(v[arg0], v[arg1])
        elif opcode == _NOT:
            value = not_(v[arg0])
        else:  # _EPS
            value = TRUE
        v[i] = value
        if value is not FALSE:  # line 17: DV := V or DV
            current = dv[i]
            dv[i] = value if current is FALSE else or_(value, current)
    return v


def _frame_bottom_up(root, program: tuple, entries, n: int, algebra) -> tuple:
    """The auto kernel: one frame-stack pass, bitset until proven virtual.

    Every frame accumulates its children's results as int bitmasks
    while all of them are ground, and *upgrades* to formula lists the
    moment a virtual node (or a formula-valued child subtree) folds in
    -- so the formula algebra runs exactly on the root-to-virtual-node
    paths and everything else stays word-parallel integer work.  No
    result store, no per-node vector allocation on the ground side.

    For the (default) canonical algebra, virtual children are not
    folded eagerly: their owners accumulate on the frame and every
    entry gets **one** n-ary ``make_or`` at node completion.  Sound and
    bitwise-identical because canonical disjunction is associative,
    commutative and flattening -- the left-fold chain and the n-ary
    call intern to the same formula object.  Non-canonical algebras
    (whose fold shape is observable, e.g. the paper-literal one) keep
    the classic pairwise fold in child order.

    Returns ``((V, CV, DV), nodes_visited)`` where the vectors are
    masks (fully ground fragment) or formula lists.
    """
    eps_mask, label_masks, text_masks, bit_kernel, leaf_memo, var_cache = program
    or_ = algebra.or_
    defer_virtuals = type(algebra) is CanonicalAlgebra
    nodes_visited = 0
    # frame: [node, next_child_index, cv, dv, deferred_virtual_owners]
    stack = [[root, 0, 0, 0, None]]
    while stack:
        frame = stack[-1]
        node = frame[0]
        children = node.children
        index = frame[1]
        if index < len(children):
            frame[1] = index + 1
            child = children[index]
            owner = child.fragment_ref
            if owner is not None:
                if defer_virtuals:
                    owners = frame[4]
                    if owners is None:
                        frame[4] = [owner]
                    else:
                        owners.append(owner)
                    continue
                # Non-canonical algebra: fold the virtual leaf's free
                # variables eagerly, in child order.
                _fold_formulas(
                    *_upgrade_frame(frame, n), *_virtual_vectors(var_cache, owner, n), or_
                )
                continue
            if child.children:
                stack.append([child, 0, 0, 0, None])
                continue
            # Ground leaf: resolve through the memo, no frame needed.
            nodes_visited += 1
            base = eps_mask | label_masks.get(child.label, 0)
            text = child.text
            if text is not None and text_masks:
                base |= text_masks.get(text, 0)
            v = leaf_memo.get(base)
            if v is None:
                v = bit_kernel(0, 0, base)
                leaf_memo[base] = v
            cv = frame[2]
            if type(cv) is int:
                frame[2] = cv | v
                frame[3] = frame[3] | v  # a leaf's DV equals its V
            else:
                _fold_masks_into_lists(cv, frame[3], v, v)
            continue

        # All children folded: complete this node.
        stack.pop()
        nodes_visited += 1
        cv = frame[2]
        dv = frame[3]
        owners = frame[4]
        if owners is not None:
            # Deferred virtual folds (canonical algebra): the siblings'
            # interned disjunction instead of a pairwise chain.
            if type(cv) is int:
                cv = _mask_to_formulas(cv, n)
                dv = _mask_to_formulas(dv, n)
            _fold_formulas(cv, dv, *_virtual_union(var_cache, tuple(owners), n), or_)
        if type(cv) is int:
            base = eps_mask | label_masks.get(node.label, 0)
            text = node.text
            if text is not None and text_masks:
                base |= text_masks.get(text, 0)
            v = bit_kernel(cv, dv, base)  # lines 6-16, specialized
            dv |= v  # line 17, word-parallel
            if not stack:
                return (v, cv, dv), nodes_visited
            parent = stack[-1]
            parent_cv = parent[2]
            if type(parent_cv) is int:
                parent[2] = parent_cv | v
                parent[3] = parent[3] | dv
            else:
                _fold_masks_into_lists(parent_cv, parent[3], v, dv)
            continue

        # Formula completion: lines 6-17, classic case analysis.
        v = _complete_formulas(entries, node.label, node.text, cv, dv, algebra)
        if not stack:
            return (v, cv, dv), nodes_visited
        _fold_formulas(*_upgrade_frame(stack[-1], n), v, dv, or_)
    raise AssertionError("unreachable: the root frame always returns")


def bottom_up(
    fragment: Fragment,
    qlist: QList,
    algebra: Optional[FormulaAlgebra] = None,
    kernel: Optional[str] = None,
) -> tuple[VectorTriplet, BottomUpStats]:
    """Partially evaluate ``qlist`` over one fragment.

    Returns the fragment's :class:`VectorTriplet` (formulas over the
    variables of its virtual nodes) and the evaluation costs.
    ``kernel`` is ``"auto"`` (bitset fast path on ground subtrees,
    the default) or ``"formula"`` (force the algebra everywhere); both
    return bitwise-identical triplets and cost ledgers.
    """
    algebra = algebra or DEFAULT_ALGEBRA
    kernel = kernel or DEFAULT_KERNEL
    if kernel not in _KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; choose from {_KERNELS}")
    entries = compile_entries(qlist)
    n = len(entries)
    started = time.perf_counter()

    if kernel == "auto":
        program = _ground_program(qlist, entries)
        (root_v, root_cv, root_dv), nodes_visited = _frame_bottom_up(
            fragment.root, program, entries, n, algebra
        )
        if type(root_v) is int:  # entirely ground fragment
            root_v = _mask_to_formulas(root_v, n)
            root_cv = _mask_to_formulas(root_cv, n)
            root_dv = _mask_to_formulas(root_dv, n)
        triplet = VectorTriplet(fragment.fragment_id, root_v, root_cv, root_dv)
        stats = BottomUpStats(
            nodes_visited=nodes_visited,
            qlist_ops=nodes_visited * n,
            wall_seconds=time.perf_counter() - started,
        )
        return triplet, stats

    # kernel == "formula": the classic store-based traversal, formula
    # algebra on every node -- the agreement oracle and perf baseline.
    or_ = algebra.or_
    nodes_visited = 0
    # node_id -> (V, DV) of completed subtrees not yet folded into a parent.
    store: dict[int, tuple[list, list]] = {}
    root = fragment.root
    root_cv: Optional[list] = None

    for node in root.iter_postorder():
        if node.is_virtual:
            owner = node.fragment_ref
            assert owner is not None
            v_vec = [Var(owner, "V", i) for i in range(n)]
            dv_vec = [Var(owner, "DV", i) for i in range(n)]
            store[node.node_id] = (v_vec, dv_vec)
            continue

        nodes_visited += 1
        cv = [FALSE] * n
        dv = [FALSE] * n
        for child in node.children:  # lines 1-5: fold children
            _fold_formulas(cv, dv, *store.pop(child.node_id), or_)
        # lines 6-17: case analysis per sub-query
        v = _complete_formulas(entries, node.label, node.text, cv, dv, algebra)
        store[node.node_id] = (v, dv)
        if node is root:
            root_cv = cv

    root_v, root_dv = store.pop(root.node_id)
    assert root_cv is not None and not store
    triplet = VectorTriplet(fragment.fragment_id, root_v, root_cv, root_dv)
    stats = BottomUpStats(
        nodes_visited=nodes_visited,
        qlist_ops=nodes_visited * n,
        wall_seconds=time.perf_counter() - started,
    )
    return triplet, stats


# ----------------------------------------------------------------------
# Site-vectorized evaluation: all ground fragments of a site per call
# ----------------------------------------------------------------------

#: Lane budget of one packed kernel call, in bits.  The multi-lane
#: kernel evaluates many nodes at once by packing each node's vectors
#: as a bit-lane of stride *n* (the QList size) inside one big int;
#: 4096 bits (~64 machine words) keeps each big-int operation cheap
#: while amortizing the per-line interpreter cost of the generated
#: kernel over ``LANE_BITS // n`` nodes.
LANE_BITS = 4096


def _compile_lane_kernel(entries):
    """Generate the word-parallel *multi-lane* variant of the ground kernel.

    Same per-entry semantics as :func:`_compile_ground_kernel`, but
    branch-free and simultaneous over many nodes: lane *k* -- the bit
    range ``[k*n, (k+1)*n)`` -- of ``cv``/``dv``/``base`` holds node
    *k*'s masks, and ``lanes`` has bit ``k*n`` set for every occupied
    lane.  Each dependent entry contributes ``((expr) & lanes) << i``:
    shifting by an operand index aligns every lane's operand bit at its
    lane base, ``& lanes`` reduces it to one test bit per lane, and
    ``<< i`` lands the result at entry *i* of each lane.  QList entries
    only reference earlier entries (topological order), so lower bits
    of ``v`` are final when read, exactly as in the scalar kernel; the
    ``~`` of a NOT entry goes negative but ``& lanes`` restores a
    non-negative value.  Lane *k* of the result equals
    ``_kernel(cv_k, dv_k, base_k)`` bit for bit.
    """
    lines = ["def _lane_kernel(cv, dv, base, lanes):", "    v = base"]
    for index, (opcode, arg0, arg1, _payload) in enumerate(entries):
        if opcode == _CHILD:
            expr = f"cv >> {arg0}"
        elif opcode == _DESC:
            expr = f"(dv | v) >> {arg0}"
        elif opcode == _SELFQ:
            expr = f"v >> {arg0}"
        elif opcode == _AND or opcode == _SELFSEQ:
            expr = f"(v >> {arg0}) & (v >> {arg1})"
        elif opcode == _OR:
            expr = f"(v >> {arg0}) | (v >> {arg1})"
        elif opcode == _NOT:
            expr = f"~(v >> {arg0})"
        else:
            continue  # leaf entries resolve through the base masks
        shift = f" << {index}" if index else ""
        lines.append(f"    v |= (({expr}) & lanes){shift}")
    lines.append("    return v")
    namespace: dict = {}
    exec("\n".join(lines), namespace)  # noqa: S102 - source built from int constants only
    return namespace["_lane_kernel"]


def _lane_program(qlist: QList, entries):
    """The compiled multi-lane kernel of one QList (cached on it)."""
    cached = getattr(qlist, "_lane_kernel", None)
    if cached is None:
        cached = _compile_lane_kernel(entries)
        try:
            qlist._lane_kernel = cached
        except AttributeError:
            pass
    return cached


class GroundLinear:
    """A fragment linearized for the site-vectorized pass.

    Postorder arrays over *every* node, virtual leaves included, so an
    index here is :meth:`Fragment.locate`'s postorder position
    (``parents[i]`` is the index of node *i*'s parent, ``-1`` for the
    root).  ``owners`` maps each virtual leaf's index to the fragment
    it stands for; the nodes above one form the **open spine**
    (``open``: node -> its virtual or open children, both ascending),
    at most depth x card(F_j) of them, whose vectors are formulas.
    Everything else is *ground* and levelized by height: the nodes of
    one height have no dependencies among themselves, so an entire
    level is one multi-lane kernel call.  ``sizes[i]`` is the length of
    node *i*'s subtree, the postorder range ending at *i* (so its last
    child is ``i - 1`` and each child's subtree ends where the next
    one's begins); ``size`` counts what ``bottomUp`` visits, the
    non-virtual nodes.  ``bases`` caches, per QList, each node's
    precomputed leaf-entry mask -- the only part of the pass that looks
    at labels/texts -- so resident holders re-evaluate a fragment
    without touching the tree.

    A content edit is spliced in place (:meth:`relabel`,
    :meth:`insert_leaf`, :meth:`delete_subtree`, then one
    :meth:`relevel` per batch of edits): the arrays and every cached
    per-query list change only at the touched postorder range.  A
    content edit never adds, removes or re-owns a virtual leaf, so the
    linearization never has to be dropped for one.

    Once a copy has been spliced it is worth remembering what its
    nodes evaluated to: ``vectors`` then keeps, per QList, each ground
    node's ``V`` / ``DV`` masks (for an open node the masks its ground
    children folded to) and a ``stale`` flag per node.  An edit flags
    its node-to-root path, and the next pass for that QList recomputes
    the flagged nodes only (:func:`_spine_pass`).  ``vectors`` lives and
    dies with ``bases``; ``work`` tallies the nodes really evaluated, by
    mode, and a holder shares one tally among its linearizations.
    """

    __slots__ = (
        "parents", "levels", "labels", "texts", "owners", "open", "size",
        "sizes", "bases", "vectors", "spliced", "work",
    )  # fmt: skip

    def __init__(self, parents, labels, texts, owners):
        self.parents = parents
        self.labels = labels
        self.texts = texts
        self.owners = owners
        self.bases: dict = {}
        self.vectors: dict = {}
        self.spliced = False
        self.work = {"full": 0, "spine": 0, "open": 0}
        self.relevel()

    def relevel(self) -> None:
        """Rebuild what depends on the tree's shape -- ``levels``,
        ``sizes``, ``open``, ``size`` -- from ``parents`` and
        ``owners``: the one hook to call after a batch of splices."""
        parents = self.parents
        heights = [0] * len(parents)
        sizes = [1] * len(parents)
        for index, parent in enumerate(parents):
            # Postorder: a node's children all precede it, so its own
            # height and size are final by the time it lifts its parent's.
            if parent >= 0:
                sizes[parent] += sizes[index]
                if heights[index] >= heights[parent]:
                    heights[parent] = heights[index] + 1
        levels: list[list[int]] = [[] for _ in range(heights[-1] + 1)]
        for index, height in enumerate(heights):
            levels[height].append(index)
        spine: dict[int, list[int]] = {}
        for child in self.owners:  # ascending, so every child list is too
            parent = parents[child]
            while parent >= 0:
                if parent in spine:
                    spine[parent].append(child)
                    break
                spine[parent] = [child]
                child, parent = parent, parents[parent]
        # A ground node's height counts ground nodes only: taking the
        # others out leaves it on its level.
        for index in itertools.chain(spine, self.owners):
            levels[heights[index]].remove(index)
        self.levels = levels
        self.sizes = sizes
        self.open = dict(sorted(spine.items()))
        self.size = len(parents) - len(self.owners)

    def _touch(self, index: int) -> None:
        """An edit landed at node ``index``: the copy counts as spliced
        from now on, and the path from there to the root is stale in
        every retained QList (flags are upward closed, so stop at the
        first one found set)."""
        self.spliced = True
        parents = self.parents
        for _v, _dv, stale in self.vectors.values():
            node = index
            while node >= 0 and not stale[node]:
                stale[node] = 1
                node = parents[node]

    def forget(self, qlist: QList) -> None:
        """Drop everything cached for ``qlist``."""
        self.bases.pop(qlist, None)
        self.vectors.pop(qlist, None)

    def relabel(self, index: int, label: str, text: Optional[str]) -> None:
        """Node ``index`` now carries ``label``/``text``."""
        self.labels[index] = label
        self.texts[index] = text
        for qlist, bases in self.bases.items():
            bases[index] = _node_base(qlist, label, text)
        self._touch(index)

    def insert_leaf(self, index: int, label: str, text: Optional[str]) -> None:
        """A fresh last child under the node at ``index``.

        In postorder the new leaf takes its parent's place and the
        parent (with everything after it) moves up by one.
        """
        self.parents[:] = [p + 1 if p >= index else p for p in self.parents]
        self.parents.insert(index, index + 1)
        self.labels.insert(index, label)
        self.texts.insert(index, text)
        self.owners = {i + 1 if i >= index else i: o for i, o in self.owners.items()}
        for qlist, bases in self.bases.items():
            bases.insert(index, _node_base(qlist, label, text))
        for arrays in self.vectors.values():
            for array in arrays:
                array.insert(index, 0)
        self._touch(index)

    def delete_subtree(self, index: int, size: int) -> None:
        """Drop the ``size``-node ground subtree rooted at ``index``.

        A subtree is the contiguous postorder range ending at its
        root; only nodes after it can have a parent that moves.
        """
        start = index - size + 1
        parent = self.parents[index] - size
        del self.parents[start : index + 1]
        self.parents[:] = [p - size if p > index else p for p in self.parents]
        del self.labels[start : index + 1]
        del self.texts[start : index + 1]
        self.owners = {i - size if i > index else i: o for i, o in self.owners.items()}
        for bases in self.bases.values():
            del bases[start : index + 1]
        for arrays in self.vectors.values():
            for array in arrays:
                del array[start : index + 1]
        self._touch(parent)


def linearize(fragment: Fragment) -> GroundLinear:
    """Linearize a fragment for :func:`site_bottom_up`."""
    index_of: dict[int, int] = {}
    parents: list[int] = []
    labels: list[str] = []
    texts: list[Optional[str]] = []
    owners: dict[int, str] = {}
    for node in fragment.root.iter_postorder():
        index = len(parents)
        index_of[id(node)] = index
        parents.append(-1)
        labels.append(node.label)
        texts.append(node.text)
        if node.fragment_ref is not None:
            owners[index] = node.fragment_ref
        for child in node.children:
            parents[index_of[id(child)]] = index
    return GroundLinear(parents, labels, texts, owners)


def linearize_ground(fragment: Fragment) -> Optional[GroundLinear]:
    """:func:`linearize`, but ``None`` when the fragment holds a virtual node."""
    linear = linearize(fragment)
    return None if linear.owners else linear


def _node_base(qlist: QList, label: str, text: Optional[str]) -> int:
    """One node's leaf-entry mask under ``qlist`` (see :func:`_linear_bases`)."""
    eps_mask, label_masks, text_masks = _ground_program(qlist, compile_entries(qlist))[:3]
    base = eps_mask | label_masks.get(label, 0)
    if text is not None:
        base |= text_masks.get(text, 0)
    return base


def _linear_bases(linear: GroundLinear, program: tuple, qlist: QList) -> list[int]:
    """Per-node leaf-entry masks of one (fragment, QList) pair, cached.

    Keyed by QList identity: QLists are immutable and resident holders
    keep one canonical object per query fingerprint, so the cache is
    exact and bounded by the number of distinct standing queries.
    """
    bases = linear.bases.get(qlist)
    if bases is None:
        eps_mask, label_masks, text_masks = program[0], program[1], program[2]
        label_get = label_masks.get
        if text_masks:
            text_get = text_masks.get
            bases = [
                eps_mask
                | label_get(label, 0)
                | (text_get(text, 0) if text is not None else 0)
                for label, text in zip(linear.labels, linear.texts)
            ]
        else:
            bases = [eps_mask | label_get(label, 0) for label in linear.labels]
        linear.bases[qlist] = bases
    return bases


def _lane_pass(
    linear: GroundLinear, program: tuple, lane_kernel, n: int, qlist: QList
) -> tuple[list[int], list[int], int]:
    """Levelized multi-lane evaluation of a linearized fragment's ground nodes.

    Height-0 nodes resolve through the shared leaf memo (one dict hit
    beats a lane gather/scatter); every higher level is evaluated in
    ``ceil(level_size / width)`` multi-lane kernel calls, folding each
    node's ``V``/``DV`` into its parent's accumulators on scatter.
    Returns per-node ``V`` and ``DV`` masks as ``GroundLinear.vectors``
    keeps them (an open node's slots hold what its ground children
    folded to) and the root's ``CV`` -- for a ground fragment
    bit-identical to :func:`_frame_bottom_up` on the same tree.
    """
    _eps, _labels, _texts, kernel, leaf_memo, _var_cache = program
    bases = _linear_bases(linear, program, qlist)
    parents = linear.parents
    count = len(parents)
    vs = [0] * count
    cv = [0] * count
    dv = [0] * count
    memo_get = leaf_memo.get
    for index in linear.levels[0]:
        base = bases[index]
        v = memo_get(base)
        if v is None:
            v = kernel(0, 0, base)
            leaf_memo[base] = v
        vs[index] = dv[index] = v  # a leaf's DV equals its V
        parent = parents[index]
        if parent >= 0:
            cv[parent] |= v
            dv[parent] |= v
    width = max(1, LANE_BITS // n) if n else 1
    entry_mask = (1 << n) - 1
    for level in linear.levels[1:]:
        for start in range(0, len(level), width):
            chunk = level[start : start + width]
            shift = 0
            cv_packed = 0
            dv_packed = 0
            base_packed = 0
            lanes = 0
            for index in chunk:
                cv_packed |= cv[index] << shift
                dv_packed |= dv[index] << shift
                base_packed |= bases[index] << shift
                lanes |= 1 << shift
                shift += n
            v_packed = lane_kernel(cv_packed, dv_packed, base_packed, lanes)
            shift = 0
            for index in chunk:
                vs[index] = v = (v_packed >> shift) & entry_mask
                dv[index] = node_dv = dv[index] | v  # line 17
                parent = parents[index]
                if parent >= 0:
                    cv[parent] |= v
                    dv[parent] |= node_dv
                shift += n
    for index in linear.open:
        vs[index] = cv[index]
    linear.work["full"] += linear.size - len(linear.open)
    return vs, dv, cv[-1]  # postorder: the root is always last


def _spine_pass(linear: GroundLinear, program: tuple, qlist: QList, kept: tuple) -> int:
    """Bring one QList's retained vectors up to date: recompute the
    stale nodes only, children first, with the scalar generated kernel
    over what their (ground) children hold.  Returns the root's ``CV``,
    which is not retained -- so the root is always refolded."""
    kernel = program[3]
    bases = _linear_bases(linear, program, qlist)
    vs, dv, stale = kept
    sizes = linear.sizes
    open_ = linear.open
    stale[-1] = 1
    evaluated = 0
    index = stale.find(1)
    while index >= 0:
        cv_mask = dv_mask = 0
        child, first = index - 1, index - sizes[index] + 1
        while child >= first:
            if child not in open_:  # (a virtual leaf's slots stay 0)
                cv_mask |= vs[child]
                dv_mask |= dv[child]
            child -= sizes[child]
        if index in open_:
            vs[index], dv[index] = cv_mask, dv_mask
        else:
            vs[index] = v = kernel(cv_mask, dv_mask, bases[index])
            dv[index] = dv_mask | v
            evaluated += 1
        stale[index] = 0
        index = stale.find(1, index + 1)
    linear.work["spine"] += evaluated
    return cv_mask


def _open_pass(linear: GroundLinear, program: tuple, entries, algebra, vs, dv) -> tuple:
    """Complete the open spine symbolically; the root's ``(V, CV, DV)``.

    Each open node starts from the masks its ground children folded to
    and folds its virtual and open children in child order.  That is
    the classic fold in *any* interleaving with the ground children: a
    ground child contributes an absorbing TRUE or nothing, so only the
    order among open children is observable -- and not even that under
    the canonical algebra, which takes sibling virtual leaves as one.
    """
    n = len(entries)
    var_cache = program[5]
    owners = linear.owners
    or_ = algebra.or_
    canonical = type(algebra) is CanonicalAlgebra
    done: dict[int, tuple] = {}
    for node, kids in linear.open.items():
        node_cv = _mask_to_formulas(vs[node], n)
        node_dv = _mask_to_formulas(dv[node], n)
        if canonical:
            vectors = [done.pop(kid) for kid in kids if kid not in owners]
            virtual = tuple(owners[kid] for kid in kids if kid in owners)
            if virtual:
                vectors.append(_virtual_union(var_cache, virtual, n))
        else:
            vectors = [
                _virtual_vectors(var_cache, owners[kid], n) if kid in owners else done.pop(kid)
                for kid in kids
            ]
        for kid_v, kid_dv in vectors:
            _fold_formulas(node_cv, node_dv, kid_v, kid_dv, or_)
        node_v = _complete_formulas(
            entries, linear.labels[node], linear.texts[node], node_cv, node_dv, algebra
        )
        done[node] = (node_v, node_dv)
    linear.work["open"] += len(linear.open)
    return node_v, node_cv, node_dv  # postorder: the root is the last open node


def site_bottom_up(
    residents,
    qlist: QList,
    algebra: Optional[FormulaAlgebra] = None,
) -> list[tuple[VectorTriplet, int]]:
    """Evaluate all of one site's resident fragments in one vectorized pass.

    ``residents`` is a sequence of ``(fragment, linear)`` pairs, where
    ``linear`` is :func:`linearize`'s result.  All fragments share one
    compiled program, one leaf memo and one multi-lane kernel, so a
    site holding *k* co-located fragments pays one kernel invocation
    per packed level chunk rather than one full traversal per fragment.
    Ground nodes are evaluated as bitmasks -- all of them by
    :func:`_lane_pass`, or, on a linearization that has been spliced
    and already answered ``qlist``, the edited spines only
    (:func:`_spine_pass`) -- and the open spine of a fragment holding
    virtual nodes is then completed over formulas.  Returns
    ``[(triplet, nodes_visited), ...]`` in input order, bitwise
    identical to calling :func:`bottom_up` per fragment -- same
    triplets, same deterministic ledger: ``nodes_visited`` is
    ``bottomUp``'s algorithmic cost for (fragment, query), not work
    performed (``linear.work`` has that), and ``qlist_ops`` remains
    ``nodes_visited * n`` by definition.
    """
    algebra = algebra or DEFAULT_ALGEBRA
    results: list[tuple[VectorTriplet, int]] = []
    entries = compile_entries(qlist)
    n = len(entries)
    program = _ground_program(qlist, entries)
    lane_kernel = _lane_program(qlist, entries)
    for fragment, linear in residents:
        kept = linear.vectors.get(qlist)
        if kept is not None:
            vs, dv = kept[:2]
            root_cv = _spine_pass(linear, program, qlist, kept)
        else:
            vs, dv, root_cv = _lane_pass(linear, program, lane_kernel, n, qlist)
            if linear.spliced:
                linear.vectors[qlist] = (vs, dv, bytearray(len(vs)))
        if linear.open:
            root = _open_pass(linear, program, entries, algebra, vs, dv)
        else:
            root = (_mask_to_formulas(mask, n) for mask in (vs[-1], root_cv, dv[-1]))
        results.append((VectorTriplet(fragment.fragment_id, *root), linear.size))
    return results


__all__ = [
    "bottom_up",
    "BottomUpStats",
    "compile_entries",
    "DEFAULT_KERNEL",
    "GroundLinear",
    "LANE_BITS",
    "linearize",
    "linearize_ground",
    "site_bottom_up",
]
