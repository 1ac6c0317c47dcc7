"""Strongly connected components and reachability on small directed graphs.

Graphs are given as adjacency lists over integer nodes 0..n-1. The SCC
routine is an iterative Tarjan (explicit stack, no recursion limit issues)
and returns components in reverse topological order of the condensation,
i.e. a component is listed before any component it can reach. Components
are therefore deterministic for a fixed adjacency list.
"""

from __future__ import annotations


def strongly_connected_components(succ: list[list[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative. Returns SCCs in reverse topological order."""
    n = len(succ)
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            for i in range(pi, len(succ[v])):
                w = succ[v][i]
                if index[w] == -1:
                    work.append((v, i + 1))
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if recurse:
                continue
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comp.sort()
                sccs.append(comp)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return sccs


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
