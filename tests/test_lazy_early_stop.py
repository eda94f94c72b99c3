"""LazyParBoX's early stop, pinned on seeded scenarios.

LazyParBoX descends the source tree one depth at a time and stops at
the first depth where every query of the batch Kleene-resolves.  How
deep it goes is observable only through ``steps_evaluated`` and
``fragments_evaluated``, so this file pins both, with the answers, for
40 seeded (cluster, batch) pairs on chain, star and random
fragmentations.  The batches mix queries that resolve at depth 1 (the
root's own seal, ``//seal``), mid-tree (a seal in a middle fragment of a
chain) and only at the leaves (a seal nobody carries, a negated one).

``EXPECTED`` was recorded from the general equation solver that evalST
used before the post-order walk replaced it; any change to the walk's
three-valued step that moves a verdict's depth shows up here.
"""

import random

import pytest

from repro.core import LazyParBoXEngine
from repro.core.centralized import evaluate_tree_many
from repro.core.plan import plan_batch
from repro.workloads.queries import random_query
from repro.workloads.topologies import chain_ft2, star_ft1
from repro.xpath import compile_query
from test_properties import build_random_tree, random_fragmentation, random_placement, valid_random_query


def _scenario(seed):
    """A seeded cluster and a batch of 1-4 query texts over it."""
    rng = random.Random(seed)
    shape = ("chain", "star", "random")[seed % 3]
    if shape == "chain":
        cluster = chain_ft2(rng.randint(3, 8), 0.3, seed=rng.randrange(1000), nodes_per_mb=40)
    elif shape == "star":
        cluster = star_ft1(rng.randint(3, 8), 0.3, seed=rng.randrange(1000), nodes_per_mb=40)
    else:
        tree = build_random_tree(rng)
        cluster = random_placement(rng, random_fragmentation(rng, tree))
    fragment_ids = cluster.source_tree().fragment_ids()
    texts = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(6)
        if kind == 0:
            texts.append(f'[//seal = "seal-{fragment_ids[0]}"]')  # depth 1
        elif kind == 1:
            middle = fragment_ids[len(fragment_ids) // 2]
            texts.append(f'[//seal = "seal-{middle}"]')  # mid-tree
        elif kind == 2:
            texts.append(rng.choice(('[//seal = "NOWHERE"]', '[not(//seal = "NOWHERE")]')))
        elif kind == 3:
            texts.append(f'[//seal = "seal-{rng.choice(fragment_ids)}"]')
        elif shape == "random":
            texts.append(valid_random_query(rng))
        else:
            texts.append(random_query(rng, max_depth=2))
    return cluster, texts


def _observed(seed):
    cluster, texts = _scenario(seed)
    plan = plan_batch([compile_query(text) for text in texts])
    with LazyParBoXEngine(cluster) as engine:
        batch = engine.evaluate_many(plan)
    oracle, _ = evaluate_tree_many(
        cluster.fragmented_tree.stitch(), plan.combined, plan.answer_indices
    )
    assert list(batch.answers) == oracle
    details = batch.details
    return (tuple(batch.answers), details["steps_evaluated"], details["fragments_evaluated"])


#: seed -> (answers, steps_evaluated, fragments_evaluated)
EXPECTED = {
    0: ((True, True, True, True), 5, 6),
    1: ((False,), 1, 4),
    2: ((True, False, True, True), 2, 3),
    3: ((True, True), 3, 4),
    4: ((False,), 1, 4),
    5: ((True, False), 2, 5),
    6: ((True,), 6, 7),
    7: ((True, True), 1, 5),
    8: ((False, False, False), 1, 4),
    9: ((False, True, False), 5, 6),
    10: ((True, True, True, True), 1, 7),
    11: ((False,), 1, 1),
    12: ((True, True, True), 5, 6),
    13: ((False, True), 1, 5),
    14: ((True,), 1, 3),
    15: ((True,), 2, 3),
    16: ((True, True, True, True), 1, 5),
    17: ((False,), 1, 3),
    18: ((False, True, True, True), 3, 4),
    19: ((False,), 1, 8),
    20: ((True,), 1, 5),
    21: ((False, True, True, True), 3, 4),
    22: ((True,), 1, 4),
    23: ((False, False, False, False), 1, 1),
    24: ((True, True), 4, 5),
    25: ((True,), 1, 6),
    26: ((False, False), 1, 1),
    27: ((False, True, True), 7, 8),
    28: ((True, True), 1, 3),
    29: ((False, False, False, True), 1, 2),
    30: ((False, True, True), 3, 4),
    31: ((True,), 1, 3),
    32: ((False, False), 2, 5),
    33: ((True, False), 6, 7),
    34: ((True,), 1, 7),
    35: ((False, False, True), 2, 5),
    36: ((False,), 4, 5),
    37: ((False,), 1, 8),
    38: ((False, False), 2, 6),
    39: ((True, True, True, True), 2, 3),
}


@pytest.mark.parametrize("seed", sorted(EXPECTED))
def test_lazy_stops_where_it_stopped(seed):
    assert _observed(seed) == EXPECTED[seed]


def test_the_table_covers_every_stopping_depth():
    """Some batch stops at the first step, some mid-tree, some at the leaves."""
    stopped_at = {(steps, fragments) for _, steps, fragments in EXPECTED.values()}
    assert len(EXPECTED) == 40
    assert any(steps == 1 for steps, _ in stopped_at)
    assert any(steps >= 3 for steps, _ in stopped_at)
    depths = []
    for seed, (_, steps, _) in EXPECTED.items():
        cluster, _ = _scenario(seed)
        depths.append((steps, cluster.source_tree().max_depth()))
    assert any(1 < steps < max_depth for steps, max_depth in depths)
    assert any(steps == max_depth and max_depth > 1 for steps, max_depth in depths)
