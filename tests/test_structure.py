"""Shape detection on execution graphs and the closed-form adapters."""

import random
import time

import pytest

import reclaim as rc
import support


def chain_graph(build, ids, deadline=10.0):
    return build([(i, 1.0) for i in ids], [], [list(ids)], deadline)


def test_independent_detection(build):
    g = build([("A", 1.0), ("B", 1.0)], [], [["A"], ["B"]], 1.0)
    assert rc.detect_structure(g) == "independent"


def test_chain_detection(build):
    g = chain_graph(build, ["A", "B", "C"])
    assert rc.recognise(g) == ("chain", [
        (rc.SERIES, ("C",)), (rc.SERIES, ("B", 0)), (rc.SERIES, ("A", 1)),
    ])
    # two tasks in a row are already a chain, not a fork
    assert rc.detect_structure(chain_graph(build, ["A", "B"])) == "chain"


def test_fork_detection_both_orientations(build):
    out_star = build(
        [("c", 1.0), ("x", 1.0), ("y", 1.0), ("z", 1.0)],
        [("c", "x"), ("c", "y"), ("c", "z")],
        [["c"], ["x"], ["y"], ["z"]],
        5.0,
    )
    assert rc.recognise(out_star) == ("fork", [
        (rc.SERIES, ("z",)), (rc.SERIES, ("y",)), (rc.SERIES, ("x",)),
        (rc.PARALLEL, (2, 1, 0)), (rc.SERIES, ("c", 3)),
    ])
    assert out_star.successors["c"] == ("x", "y", "z")

    in_star = build(
        [("c", 1.0), ("x", 1.0), ("y", 1.0)],
        [("x", "c"), ("y", "c")],
        [["c"], ["x"], ["y"]],
        5.0,
    )
    assert rc.recognise(in_star) == ("fork", [
        (rc.SERIES, ("x",)), (rc.SERIES, ("y",)), (rc.PARALLEL, (0, 1)), (rc.SERIES, ("c", 2)),
    ])
    assert in_star.predecessors["c"] == ("x", "y")


def test_fork_energy_is_orientation_invariant(build):
    # reversing every edge of a fork leaves the optimum untouched
    out_star = build(
        [("c", 2.0), ("x", 1.0), ("y", 3.0)],
        [("c", "x"), ("c", "y")],
        [["c"], ["x"], ["y"]],
        4.0,
    )
    in_star = build(
        [("c", 2.0), ("x", 1.0), ("y", 3.0)],
        [("x", "c"), ("y", "c")],
        [["c"], ["x"], ["y"]],
        4.0,
    )
    _, a = rc.solve_dag(out_star)
    _, b = rc.solve_dag(in_star)
    assert a.energy == pytest.approx(b.energy, rel=1e-7)


def test_tree_detection(example4):
    assert rc.detect_structure(example4) == "tree"
    root = rc.as_tree(example4)
    assert root.id == "T1"
    assert [c.id for c in root.children] == ["T2", "T3"]
    assert [c.id for c in root.children[1].children] == ["T4"]


def test_in_tree_detection(build):
    # a join tree: leaves feed the root
    g = build(
        [("r", 1.0), ("a", 1.0), ("b", 1.0), ("c", 1.0)],
        [("a", "r"), ("b", "r"), ("c", "a")],
        [["r"], ["a"], ["b"], ["c"]],
        5.0,
    )
    assert rc.detect_structure(g) == "tree"
    root = rc.as_tree(g)
    assert root.id == "r"
    # built against the reversed edges, so children mirror the joins
    assert sorted(c.id for c in root.children) == ["a", "b"]


def test_spg_detection_diamond(build):
    g = build(
        [("s", 1.0), ("a", 2.0), ("b", 2.0), ("t", 1.0)],
        [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")],
        [["s"], ["a"], ["b"], ["t"]],
        5.0,
    )
    assert rc.detect_structure(g) == "spg"
    assert rc.as_spg(g) == [
        (rc.SERIES, ("a",)), (rc.SERIES, ("b",)), (rc.PARALLEL, (0, 1)), (rc.SERIES, ("s", 2, "t")),
    ]
    assert rc.as_tree(g) is None


def test_non_series_parallel_dag(build):
    # the forbidden N (a -> c, b -> c, b -> d) between one source and one sink
    g = build(
        [("s", 1.0), ("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 1.0), ("t", 1.0)],
        [("s", "a"), ("s", "b"), ("a", "c"), ("b", "c"), ("b", "d"), ("c", "t"), ("d", "t")],
        [["s"], ["a"], ["b"], ["c"], ["d"], ["t"]],
        5.0,
    )
    assert rc.detect_structure(g) == "dag"
    assert rc.as_spg(g) is None
    assert rc.as_tree(g) is None
    assert rc.as_forest(g) is None
    for shape in ("independent", "chain", "fork", "tree"):
        with pytest.raises(ValueError, match="instance is not"):
            rc.recognise(g, shape)


def test_detection_priority_prefers_the_most_specific(build):
    # a chain is also a tree and an SPG; detection reports "chain"
    g = chain_graph(build, ["A", "B", "C", "D"])
    assert rc.detect_structure(g) == "chain"
    # a fork is also a tree; detection reports "fork"
    fork = build(
        [("c", 1.0), ("x", 1.0), ("y", 1.0)],
        [("c", "x"), ("c", "y")],
        [["c"], ["x"], ["y"]],
        5.0,
    )
    assert rc.detect_structure(fork) == "fork"


def test_random_trees_are_recognized(build):
    rng = random.Random(59)
    for _ in range(30):
        data = support.random_tree(rng, rng.randint(2, 20))
        costs, edges = support.tree_edges_and_costs(data)
        ids = sorted(costs)
        g = build([(i, costs[i]) for i in ids], edges, [[i] for i in ids], 10.0)
        root = rc.as_tree(g)
        assert root is not None
        seen = set()
        stack = [root]
        while stack:
            node = stack.pop()
            seen.add(node.id)
            stack.extend(node.children)
        assert seen == set(ids)


def test_random_spgs_are_recognized(build):
    rng = random.Random(61)
    for _ in range(30):
        data, costs = support.random_spg(rng, rng.randint(2, 16))
        edges = sorted(support.spg_edges(data))
        ids = sorted(costs)
        g = build([(i, costs[i]) for i in ids], edges, [[i] for i in ids], 10.0)
        assert rc.as_spg(g) is not None


def test_recognise_returns_the_parsed_form(build):
    g = chain_graph(build, ["B", "A", "C"])
    chain = [(rc.SERIES, ("C",)), (rc.SERIES, ("A", 0)), (rc.SERIES, ("B", 1))]
    assert rc.recognise(g) == ("chain", chain)
    assert rc.recognise(g, "tree") == ("tree", chain)
    assert rc.as_tree(g) == rc.TreeNode("B", 1.0, (rc.TreeNode("A", 1.0, (rc.TreeNode("C", 1.0),)),))
    assert rc.recognise(g, "dag") == ("dag", None)
    fork = build(
        [("c", 1.0), ("x", 1.0), ("y", 1.0)],
        [("c", "x"), ("c", "y")],
        [["c"], ["x"], ["y"]],
        5.0,
    )
    assert rc.recognise(fork) == ("fork", [
        (rc.SERIES, ("y",)), (rc.SERIES, ("x",)), (rc.PARALLEL, (1, 0)), (rc.SERIES, ("c", 2)),
    ])
    loose = build([("b", 1.0), ("a", 1.0)], [], [["b"], ["a"]], 5.0)
    assert rc.recognise(loose) == ("independent", [
        (rc.SERIES, ("b",)), (rc.SERIES, ("a",)), (rc.PARALLEL, (0, 1)),
    ])
    # every forest label a graph has, most specific first
    single = build([("a", 1.0)], [], [["a"]], 5.0)
    assert rc.as_forest(single) == (("independent", "chain", "tree"), [(rc.SERIES, ("a",))])
    pair = chain_graph(build, ["A", "B"])
    assert rc.as_forest(pair)[0] == ("chain", "fork", "tree")
    assert rc.as_forest(fork)[0] == ("fork", "tree")
    with pytest.raises(ValueError, match="not a chain"):
        rc.recognise(fork, "chain")
    with pytest.raises(ValueError, match="not an independent task set"):
        rc.recognise(fork, "independent")


def _plain_spg_cost(data, costs):
    # Inner cost adds in series (junction counted once) and combines by
    # the cube root of the cube sum in parallel; endpoints count once.
    post, stack = [], [data]
    while stack:
        node = stack.pop()
        post.append(node)
        stack.extend(node["children"])
    inner = {}
    for node in reversed(post):
        if node["kind"] == "elem":
            inner[id(node)] = 0.0
        elif node["kind"] == "series":
            a, b = node["children"]
            inner[id(node)] = inner[id(a)] + costs[a["sink"]] + inner[id(b)]
        else:
            a, b = node["children"]
            inner[id(node)] = (inner[id(a)] ** 3 + inner[id(b)] ** 3) ** (1 / 3)
    return costs[data["source"]] + inner[id(data)] + costs[data["sink"]]


def test_large_spg_decomposes_in_near_linear_time(build):
    rng = random.Random(16)
    data, costs = support.random_spg(rng, 16_000)
    ids = sorted(costs)
    g = build([(i, costs[i]) for i in ids], sorted(support.spg_edges(data)),
              [[i] for i in ids], 100.0)
    t0 = time.perf_counter()
    node = rc.as_spg(g)
    elapsed = time.perf_counter() - t0
    assert node is not None
    assert rc.spg_cost(node, g.costs) == pytest.approx(_plain_spg_cost(data, costs), rel=1e-12)
    assert elapsed < 5.0


def test_two_component_graph_is_not_a_tree(build):
    g = build(
        [("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 1.0)],
        [("a", "b"), ("c", "d")],
        [["a", "b"], ["c", "d"]],
        5.0,
    )
    # the serialization edges merge the queues into two chains
    assert rc.as_tree(g) is None
    assert rc.detect_structure(g) == "dag"


def test_vertex_reduction_against_the_edge_reducer(build):
    # Every graph the edge reducer accepts keeps its closed form; a graph
    # only the vertex reduction accepts is priced as the barrier prices it
    # on the whole graph.
    rng = random.Random(67)
    cases = []
    for _ in range(1000):
        tasks, prec, alloc = support.random_instance(
            rng, rng.randint(2, 14), n_proc=rng.randint(1, 4), p_edge=rng.choice((0.1, 0.25, 0.4))
        )
        cases.append((tasks, prec, [q for _, q in alloc]))
    for _ in range(200):
        data, costs = support.random_spg(rng, rng.randint(2, 60))
        ids = sorted(costs)
        cases.append(([(i, costs[i]) for i in ids], sorted(support.spg_edges(data)),
                      [[i] for i in ids]))
    deadline = 10.0
    both = only_new = 0
    for tasks, prec, runs in cases:
        g = build(tasks, prec, runs, deadline)
        old = support.edge_spg([t for t, _ in tasks], g.edges)
        new = rc.as_spg(g)
        if old is not None:
            assert new is not None
            both += 1
            old_energy, old_speeds = rc.solve_sp(old, g.costs, deadline)
            energy, speeds = rc.solve_sp(new, g.costs, deadline)
            assert energy == pytest.approx(old_energy, rel=1e-12)
            assert speeds == pytest.approx(old_speeds, rel=1e-12)
        elif new is not None:
            only_new += 1
            energy, speeds = rc.solve_sp(new, g.costs, deadline)
            oracle, _, _ = support.unreduced_barrier(g.costs, g.edges, deadline)
            assert energy == pytest.approx(oracle, rel=1e-9)
            assert energy <= oracle * (1 + 1e-12)
    assert both >= 300 and only_new >= 100
