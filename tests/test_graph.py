import random

from resilient_mdp.graph import (bottom_sccs, reachable_from,
                                 strongly_connected_components)


def test_sccs_simple_cycle_plus_tail():
    succ = [[1], [2], [0], [0]]  # 0-1-2 cycle, 3 feeds in
    comps = strongly_connected_components(succ)
    assert sorted(map(sorted, comps)) == [[0, 1, 2], [3]]


def test_sccs_reverse_topological_order():
    succ = [[1], [2], []]
    comps = strongly_connected_components(succ)
    assert comps == [[2], [1], [0]]


def test_bottom_sccs():
    succ = [[1], [2], [2], [3]]  # two sinks: {2} and {3}
    assert sorted(map(sorted, bottom_sccs(succ))) == [[2], [3]]


def test_reachable_from():
    succ = [[1], [2], [], [0]]
    assert reachable_from(succ, {0}) == {0, 1, 2}
    assert reachable_from(succ, {3}) == {0, 1, 2, 3}
    assert reachable_from(succ, {1, 3}) == {0, 1, 2, 3}
    assert reachable_from(succ, set()) == set()


def _brute_scc(succ):
    n = len(succ)
    reach = [reachable_from(succ, {v}) for v in range(n)]
    comps = {}
    for v in range(n):
        key = frozenset(w for w in range(n) if v in reach[w] and w in reach[v])
        comps[key] = sorted(key)
    return sorted(comps.values())


def test_sccs_match_reachability_oracle():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(1, 9)
        succ = [[w for w in range(n) if rng.random() < 0.3] for _ in range(n)]
        comps = strongly_connected_components(succ)
        assert sorted(map(sorted, comps)) == _brute_scc(succ)
        # Reverse topological order: an edge never leads to a later component.
        position = {v: k for k, comp in enumerate(comps) for v in comp}
        assert all(position[w] <= position[v] for v in range(n) for w in succ[v])


def test_deep_graph_no_recursion_limit():
    n = 5000
    succ = [[v + 1] for v in range(n - 1)] + [[]]
    comps = strongly_connected_components(succ)
    assert len(comps) == n
    # A cycle is one SCC, so the search over predecessors goes just as deep.
    cycle = [[(v + 1) % n] for v in range(n)]
    assert strongly_connected_components(cycle) == [list(range(n))]
