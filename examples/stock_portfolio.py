"""The full stock-portfolio scenario: querying, selecting, maintaining.

Walks the paper's running example end to end:

1. every engine answers the paper's queries identically;
2. the Section 8 extension *selects* the matching stock positions
   (not just true/false) with at most two visits per site;
3. a standing query watches for "GOOG reaches $376" and is maintained
   incrementally as NASDAQ updates a sell price -- only the updated
   fragment's site recomputes.

Together the three parts exercise most of the public API: the engine
registry and agreement (``repro.core``), the Section 8 selection
extension (``SelectionEngine``), and the Section 5 maintenance story
(``QuerySession.watch()`` fed typed updates from ``repro.stream``).
Every engine shown here also accepts ``executor="threads"`` or
``"process"`` to run its per-site work truly concurrently -- see
``examples/parallel_sites.py`` for that comparison.

Run:  python examples/stock_portfolio.py
"""

from repro import ALL_ENGINES, compile_query
from repro.core import QuerySession, SelectionEngine
from repro.stream import InsNode, Relabel
from repro.workloads.portfolio import PORTFOLIO_QUERIES, build_portfolio_cluster


def run_all_engines(cluster) -> None:
    print("=== 1. Six algorithms, one answer ===")
    for name, text in PORTFOLIO_QUERIES.items():
        qlist = compile_query(text)
        answers = {}
        traffic = {}
        for engine_cls in ALL_ENGINES:
            result = engine_cls(cluster).evaluate(qlist)
            answers[engine_cls.name] = result.answer
            traffic[engine_cls.name] = result.metrics.bytes_total
        assert len(set(answers.values())) == 1
        print(f"  {name:15s} -> {answers['ParBoX']}   " f"traffic(bytes)={traffic}")


def run_selection(cluster) -> None:
    print("\n=== 2. Which positions? (data selection, <=2 visits/site) ===")
    query = compile_query('[//market[name = "NASDAQ"]/stock/code]')
    selection = SelectionEngine(cluster).select(query)
    print(f"  NASDAQ-traded codes: {len(selection.paths)} nodes")
    for path in selection.paths:
        node = _node_at(cluster, path)
        print(f"    {'/'.join(map(str, path)):12s} -> <{node.label}> {node.text}")
    print(f"  visits: {dict(selection.result.metrics.visits)}")


def _node_at(cluster, path):
    """Follow a child-index path through the stitched document."""
    node = cluster.fragmented_tree.stitch().root
    for index in path:
        node = node.children[index]
    return node


def run_view_maintenance(cluster) -> None:
    print("\n=== 3. Watching for GOOG @ $376 (incremental maintenance) ===")
    watch = '[//stock[code = "GOOG" and sell = "376"]]'
    with QuerySession(cluster) as session:
        view = session.watch([watch], names=["goog-376"])
        print(f"  initial answer: {view.answer('goog-376')}")

        # NASDAQ updates the sell price of the GOOG position in fragment F2.
        f2 = cluster.fragment("F2")
        sell = next(n for n in f2.root.iter_subtree() if n.label == "sell")
        print(f"  F2 sell price: {sell.text} -> 376")
        round_ = view.apply([Relabel("F2", sell.node_id, text="376")])
        print(
            f"  maintained answer: {view.answer('goog-376')} "
            f"(changed: {'goog-376' in round_.changed})"
        )
        print(
            f"  cost: visited {list(round_.sites_visited)}, "
            f"recomputed {round_.nodes_recomputed} nodes, "
            f"{round_.traffic_bytes} bytes on the wire"
        )

        # An unrelated update elsewhere does not even reach evalST.
        f0 = cluster.fragment("F0")
        round_ = view.apply([InsNode("F0", f0.root.node_id, "note", text="unrelated")])
        print(
            f"  unrelated insert in F0: triplet changed = {round_.triplet_changed}, "
            f"answer recomputation skipped"
        )
        # An ad-hoc read through the same session sees the updated document.
        assert session.evaluate(watch).answer is view.answer("goog-376") is True


def main() -> None:
    cluster = build_portfolio_cluster()
    run_all_engines(cluster)
    run_selection(cluster)
    run_view_maintenance(cluster)


if __name__ == "__main__":
    main()
