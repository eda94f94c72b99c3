"""Batch fingerprints and the consistent-hash ring (``serving/routing.py``).

Nothing in the serving tier routes with these any more (the gateway owns
one coordinator); the end-to-end benchmark's layer replay still times
them, so they stay correct while the module exists.
"""

import pytest

from repro.serving.routing import DEFAULT_VNODES, HashRing, plan_fingerprint
from repro.workloads.pubsub import subscription_texts


class TestPlanFingerprint:
    def test_stable_and_distinct(self):
        batch = ("[//a]", "[not //b]")
        assert plan_fingerprint(batch) == plan_fingerprint(tuple(batch))
        assert plan_fingerprint(batch) != plan_fingerprint(("[//a]",))
        # Order matters: a different wire program is a different key.
        assert plan_fingerprint(batch) != plan_fingerprint(batch[::-1])
        # No concatenation aliasing across entry boundaries.
        assert plan_fingerprint(("ab", "c")) != plan_fingerprint(("a", "bc"))

    def test_qlist_wire_forms_fingerprint_by_content(self):
        entries = (("down", "a", 0), ("exists", "b", 1))
        wire = ("qlist", entries)
        assert plan_fingerprint((wire,)) == plan_fingerprint((("qlist", list(entries)),))
        assert plan_fingerprint((wire,)) != plan_fingerprint(("[//a]",))

    def test_unroutable_batches_return_none(self):
        assert plan_fingerprint(()) is None
        assert plan_fingerprint((123,)) is None
        assert plan_fingerprint((("qlist", 5, "extra"),)) is None


class TestHashRing:
    def test_routing_is_deterministic_and_total(self):
        ring = HashRing(["c0", "c1", "c2"])
        keys = [plan_fingerprint((text,)) for text in subscription_texts(32, seed=3)]
        first = [ring.route(key) for key in keys]
        second = [HashRing(["c0", "c1", "c2"]).route(key) for key in keys]
        assert first == second
        assert set(first) <= {"c0", "c1", "c2"}
        # Virtual nodes spread a real key set across every node.
        assert len(set(first)) == 3

    def test_adding_a_node_remaps_a_minority_of_keys(self):
        keys = [plan_fingerprint((f"[//q{i}]",)) for i in range(400)]
        two = HashRing(["c0", "c1"])
        three = HashRing(["c0", "c1", "c2"])
        moved = sum(1 for key in keys if two.route(key) != three.route(key))
        # Consistent hashing: ~1/3 of keys move to the new node, and no
        # key moves between the two surviving nodes' arcs beyond noise.
        assert moved < len(keys) * 0.55
        assert all(
            three.route(key) == "c2" or three.route(key) == two.route(key)
            for key in keys
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(["c0", "c0"])
        with pytest.raises(ValueError):
            HashRing(["c0"], vnodes=0)
        assert len(HashRing(["c0"], vnodes=DEFAULT_VNODES)) == 1
