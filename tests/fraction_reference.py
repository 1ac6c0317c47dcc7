"""Reference implementations in plain ``Fraction`` arithmetic.

The sparse elimination and the chain analysis behind ``verify`` as they
were before both moved to integer rows: every coefficient, right-hand side
and probability is a ``Fraction``, the stationary distribution comes from
the balance rows plus a dense row sum pi = 1, and each update is written
with the ``Fraction`` operators. The tests compare the package with them;
``solve_linear_system`` and ``stationary_distribution`` return their values
in the package's integer forms.
"""

from __future__ import annotations

import heapq
from collections import deque
from fractions import Fraction
from math import lcm

from resilient_mdp.analyze import ErrorCheck, SchedulerDomainError, VerificationReport
from resilient_mdp.graph import bottom_sccs, reachable_from
from resilient_mdp.linsolve import SingularSystemError

from helpers import build_weights, fraction_pairs


def solve_linear_system(rows, rhs, n):
    """X as (numerator, denominator) pairs in lowest terms."""
    return fraction_pairs(_eliminate(rows, rhs, n))


def _eliminate(rows, rhs, n):
    """Markowitz-ordered sparse elimination, one ``Fraction`` per update."""
    a = [{j: Fraction(q) for j, q in row.items() if q} for row in rows]
    b = [[Fraction(v) for v in values] for values in rhs]
    holders: dict[int, set[int]] = {}
    for i, row in enumerate(a):
        for j in row:
            holders.setdefault(j, set()).add(i)
    heap = [(len(row), i) for i, row in enumerate(a)]
    heapq.heapify(heap)
    done = [False] * len(a)
    pivots = []
    while heap:
        size, r = heapq.heappop(heap)
        if done[r] or size != len(a[r]):
            continue
        done[r] = True
        pivot_row = a[r]
        if not pivot_row:
            if any(b[r]):
                raise SingularSystemError("inconsistent system")
            continue
        for j in pivot_row:
            holders[j].discard(r)
        c = min(pivot_row, key=lambda j: (len(holders[j]), j))
        inv = 1 / pivot_row.pop(c)
        for j in pivot_row:
            pivot_row[j] *= inv
        b[r] = [v * inv for v in b[r]]
        for i in holders.pop(c):
            row = a[i]
            f = row.pop(c)
            for j, q in pivot_row.items():
                v = row.get(j, 0) - f * q
                if v:
                    if j not in row:
                        holders[j].add(i)
                    row[j] = v
                else:
                    del row[j]
                    holders[j].discard(i)
            b[i] = [v - f * w for v, w in zip(b[i], b[r])]
            heapq.heappush(heap, (len(row), i))
        pivots.append((r, c))
    if len(pivots) < n:
        raise SingularSystemError("rank deficient system")
    x = [[]] * n
    for r, c in reversed(pivots):
        x[c] = [v - sum((q * x[j][k] for j, q in a[r].items()), Fraction(0))
                for k, v in enumerate(b[r])]
    return x


def induce_rows(host, scheduler, init):
    """Reachable states in BFS order and their rows {local successor: probability}."""
    states, index, rows = [init], {init: 0}, []
    queue = deque([init])
    while queue:
        s = queue.popleft()
        if s not in scheduler.choices:
            raise SchedulerDomainError(f"scheduler undefined on reachable state {host.ids[s]}")
        row: dict[int, Fraction] = {}
        for act, prob_a in sorted(scheduler.dist(s).items()):
            if prob_a == 0:
                continue
            for t, p in host.actions[s][act]:
                if t not in index:
                    index[t] = len(states)
                    states.append(t)
                    queue.append(t)
                row[index[t]] = row.get(index[t], Fraction(0)) + prob_a * p
        rows.append(row)
    return states, index, rows


def _solve_restricted(rows, unknown, rhs_of):
    col = {s: k for k, s in enumerate(unknown)}
    system = []
    for s in unknown:
        row = {col[s]: Fraction(1)}
        for t, p in rows[s].items():
            if t in col:
                row[col[t]] = row.get(col[t], 0) - p
        system.append(row)
    return dict(zip(unknown, _eliminate(system, [rhs_of(s) for s in unknown], len(unknown))))


def _mass(rows, s, members):
    return sum((p for t, p in rows[s].items() if t in members), Fraction(0))


def _until(states, rows, stay, target):
    pred: list[list[int]] = [[] for _ in states]
    for i in stay - target:
        for j in rows[i]:
            pred[j].append(i)
    possible = reachable_from(pred, target)
    sol = _solve_restricted(rows, sorted(possible - target), lambda s: [_mass(rows, s, target)])
    return [Fraction(1) if i in target else sol[i][0] if i in sol else Fraction(0)
            for i in range(len(states))]


def _almost_sure(rows, target):
    succ = [[] if i in target else sorted(row) for i, row in enumerate(rows)]
    bad = [v for comp in bottom_sccs(succ) if target.isdisjoint(comp) for v in comp]
    pred: list[list[int]] = [[] for _ in rows]
    for i, row in enumerate(succ):
        for j in row:
            pred[j].append(i)
    doomed = reachable_from(pred, bad)
    return [i not in doomed for i in range(len(rows))]


def stationary_distribution(rows, comp):
    """pi as integer masses over their sum, which is the lcm of pi's
    denominators; the masses are then coprime."""
    pi = _stationary(rows, comp)
    total = lcm(*(x.denominator for x in pi.values()))
    return {s: x.numerator * (total // x.denominator) for s, x in pi.items()}, total


def _stationary(rows, comp):
    col = {s: k for k, s in enumerate(comp)}
    system = [{k: Fraction(1)} for k in range(len(comp))]
    for t in comp:
        for s, p in rows[t].items():
            if s in col:
                system[col[s]][col[t]] = system[col[s]].get(col[t], 0) - p
    system.append(dict.fromkeys(range(len(comp)), Fraction(1)))
    sol = _eliminate(system, [[Fraction(0)]] * len(comp) + [[Fraction(1)]], len(comp))
    return {s: x for s, (x,) in zip(comp, sol)}


def _long_run_values(states, rows, value_fns):
    comps = bottom_sccs([sorted(row) for row in rows])
    members = [set(comp) for comp in comps]
    if any(0 in m for m in members):
        reach = [Fraction(0 in m) for m in members]
    else:
        transient = [i for i in range(len(states)) if not any(i in m for m in members)]
        reach = _solve_restricted(rows, transient,
                                  lambda s: [_mass(rows, s, m) for m in members])[0]
    pis = [_stationary(rows, comp) for comp in comps]
    return [sum((r * sum((pi[i] * f(states[i]) for i in comp), Fraction(0))
                 for r, comp, pi in zip(reach, comps, pis)), Fraction(0))
            for f in value_fns]


def verify_resilient(mt, scheduler, threshold) -> VerificationReport:
    """The repair-success, almost-sure-repair and long-run checks of ``verify``."""
    states, index, rows = induce_rows(mt, scheduler, mt.initial)
    local = {i for i, s in enumerate(states) if mt.triple[s] is not None}
    op_local = {i for i, s in enumerate(states) if mt.is_op(s)}
    weights = build_weights(mt, threshold)
    asrep = _almost_sure(rows, op_local)
    q = _until(states, rows, local, local & op_local)
    per_error = {}
    for e in mt.errors():
        if e in index:
            res = sum((p * q[t] for t, p in rows[index[e]].items()), Fraction(0))
            per_error[e] = ErrorCheck(res, res >= threshold, asrep[index[e]])
    avail, *means = _long_run_values(
        states, rows, [mt.payoff] + [lambda s, w=weights[e]: w.get(s, 0) for e in per_error])
    return VerificationReport(per_error, avail, dict(zip(per_error, means)))
