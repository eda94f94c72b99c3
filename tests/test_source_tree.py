"""Unit tests for placement and the source tree."""

import pytest

from repro.fragments import Fragment, FragmentedTree, Placement, SourceTree
from repro.workloads.topologies import bushy_ft3, chain_ft2
from repro.xmltree import XMLNode, element


@pytest.fixture
def chain():
    """F0 <- F1 <- F2, plus F3 directly under F0 (the paper's Fig. 2 shape)."""
    f0 = element("r")
    f0.add_child(XMLNode.virtual("F1"))
    f0.add_child(XMLNode.virtual("F3"))
    f1 = element("x")
    f1.add_child(XMLNode.virtual("F2"))
    fragments = {
        "F0": Fragment("F0", f0),
        "F1": Fragment("F1", f1),
        "F2": Fragment("F2", element("y")),
        "F3": Fragment("F3", element("z")),
    }
    return FragmentedTree(fragments, "F0")


@pytest.fixture
def placement():
    return Placement({"F0": "S0", "F1": "S1", "F2": "S2", "F3": "S2"})


@pytest.fixture
def source_tree(chain, placement):
    return SourceTree.from_fragmented_tree(chain, placement)


class TestPlacement:
    def test_site_of(self, placement):
        assert placement.site_of("F2") == "S2"

    def test_fragments_of(self, placement):
        assert placement.fragments_of("S2") == ["F2", "F3"]

    def test_sites_order(self, placement):
        assert placement.sites() == ["S0", "S1", "S2"]

    def test_assign_and_remove(self, placement):
        placement.assign("F9", "S9")
        assert placement.site_of("F9") == "S9"
        placement.remove("F9")
        with pytest.raises(KeyError):
            placement.site_of("F9")

    def test_copy_is_independent(self, placement):
        copy = placement.copy()
        copy.assign("F0", "elsewhere")
        assert placement.site_of("F0") == "S0"


class TestSourceTree:
    def test_paper_fig2_example(self, source_tree):
        # "both fragments F2 and F3 are stored in the same site S2"
        assert source_tree.fragments_of("S2") == ["F2", "F3"]
        assert source_tree.sites() == ["S0", "S1", "S2"]

    def test_coordinator(self, source_tree):
        assert source_tree.coordinator_site == "S0"

    def test_shape(self, source_tree):
        assert source_tree.parent_of("F2") == "F1"
        assert source_tree.parent_of("F0") is None
        assert source_tree.children_of("F0") == ["F1", "F3"]

    def test_depths(self, source_tree):
        assert source_tree.depth_of("F0") == 0
        assert source_tree.depth_of("F3") == 1
        assert source_tree.depth_of("F2") == 2
        assert source_tree.max_depth() == 2

    def test_fragments_at_depth(self, source_tree):
        assert source_tree.fragments_at_depth(1) == ["F1", "F3"]

    def test_preorder(self, source_tree):
        assert source_tree.fragment_ids() == ["F0", "F1", "F2", "F3"]

    def test_card(self, source_tree):
        assert source_tree.card() == 4

    def test_wire_bytes(self, source_tree):
        assert source_tree.wire_bytes() > 0

    def test_snapshot_semantics(self, chain, placement, source_tree):
        # Later placement changes do not affect an existing snapshot.
        placement.assign("F2", "S0")
        assert source_tree.site_of("F2") == "S2"
        fresh = SourceTree.from_fragmented_tree(chain, placement)
        assert fresh.site_of("F2") == "S0"


class _CountingDict(dict):
    """A dict that counts its item reads."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)


class TestDepthsInLinearTime:
    """``max_depth()`` plus every ``fragments_at_depth(d)`` reads each
    fragment's parent O(1) times, not once per ancestor per call."""

    def _sweep(self, tree):
        return [tree.fragments_at_depth(depth) for depth in range(tree.max_depth() + 1)]

    def test_source_tree_reads_no_parent_after_construction(self):
        cluster = chain_ft2(48, 0.2, seed=1)
        source_tree = cluster.source_tree()
        source_tree._parents = _CountingDict(source_tree._parents)
        levels = self._sweep(source_tree)
        assert levels == [[f"F{depth}"] for depth in range(48)]
        assert source_tree._parents.reads <= source_tree.card()

    def test_fragmented_tree_sweep_is_linear(self):
        cluster = chain_ft2(48, 0.2, seed=1)
        tree = cluster.fragmented_tree
        tree._parents = _CountingDict(tree._parents)
        levels = self._sweep(tree)
        assert levels == [[f"F{depth}"] for depth in range(48)]
        assert tree._parents.reads <= tree.card()

    def test_depths_agree_on_a_bushy_tree(self):
        cluster = bushy_ft3(1, nodes_per_mb=24)
        tree, source_tree = cluster.fragmented_tree, cluster.source_tree()
        for depth in range(source_tree.max_depth() + 1):
            expected = [
                fid for fid in source_tree.fragment_ids() if source_tree.depth_of(fid) == depth
            ]
            assert source_tree.fragments_at_depth(depth) == expected
            assert tree.fragments_at_depth(depth) == expected
        assert tree.max_depth() == source_tree.max_depth() == 2
