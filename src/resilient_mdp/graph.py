"""Strongly connected components and reachability on small directed graphs.

Graphs are given as adjacency lists over integer nodes 0..n-1. The SCC
routine is an iterative Kosaraju (explicit stack, no recursion limit issues)
and returns components in reverse topological order of the condensation,
i.e. a component is listed after every component it can reach. Components
are therefore deterministic for a fixed adjacency list.
"""

from __future__ import annotations


def strongly_connected_components(succ: list[list[int]]) -> list[list[int]]:
    """Kosaraju–Sharir, iterative. Returns SCCs in reverse topological order."""
    n = len(succ)
    seen = [False] * n
    finished: list[int] = []  # nodes in the order their depth-first search ends
    for root in range(n):
        stack = [root]
        while stack:
            v = stack.pop()
            if v < 0:  # ~v marks the end of v's search
                finished.append(~v)
            elif not seen[v]:
                seen[v] = True
                stack.append(~v)
                stack.extend(w for w in succ[v] if not seen[w])
    pred = predecessors(succ)
    # Backwards from each root, latest finish first, the nodes not yet taken
    # that reach the root form its SCC; SCCs come out in topological order.
    sccs = []
    for root in reversed(finished):
        if seen[root]:
            seen[root] = False
            comp = [root]
            for v in comp:  # comp grows while it is walked
                for u in pred[v]:
                    if seen[u]:
                        seen[u] = False
                        comp.append(u)
            sccs.append(sorted(comp))
    return sccs[::-1]


def predecessors(succ: list[list[int]]) -> list[list[int]]:
    """The reversed graph: node w lists every v with an edge v -> w."""
    pred: list[list[int]] = [[] for _ in succ]
    for v, targets in enumerate(succ):
        for w in targets:
            pred[w].append(v)
    return pred


def bottom_sccs(succ: list[list[int]]) -> list[list[int]]:
    """SCCs with no edge leaving them, sorted by smallest member node."""
    result = []
    for comp in strongly_connected_components(succ):
        members = set(comp)
        if all(w in members for v in comp for w in succ[v]):
            result.append(comp)
    result.sort(key=lambda c: c[0])
    return result


def reachable_from(succ: list[list[int]], sources) -> set[int]:
    """Nodes reachable from any node of ``sources``, the sources included.
    Run it on predecessor lists to get the nodes that can reach ``sources``."""
    seen = set(sources)
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for w in succ[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen
