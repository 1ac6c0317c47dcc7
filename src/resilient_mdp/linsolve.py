"""Exact sparse linear-system solving over rationals.

Rows are ``{column: coefficient}`` maps, and each column keeps the set of
remaining rows that hold it, so eliminating a column touches only the rows
it occurs in; several right-hand sides share one elimination. The pivot row
is always the remaining row with the fewest entries (ties to the lowest
row), taken from a heap, and its pivot column the one held by the fewest
remaining rows (ties to the lowest column): Markowitz's rule, which keeps
the fill-in small. The work done is fixed by the input. The solutions are
exact ``fractions.Fraction``s. The entries stay small, so the cost is object
creation: each update v - f·q, of a coefficient or a right-hand side, is
made by ``_minus`` from numerators and denominators read once per pivot row
and once per factor, as an ``int`` when it is integral and a normalized
``Fraction`` otherwise, so an integral update builds no ``Fraction``. The
simplex pivot of ``lp`` updates its tableau entries with the same helper, so
the update formula of both exact solvers lives here.
"""

from __future__ import annotations

import heapq
from fractions import Fraction


class SingularSystemError(ValueError):
    """Raised when a system has no solution or no unique solution."""


def _minus(v: Fraction | int, n: int, d: int) -> Fraction | int:
    """v - n/d for d > 0 in canonical form: an ``int`` when it is integral,
    else a normalized ``Fraction``."""
    vd = v.denominator
    num, den = v.numerator * d - n * vd, vd * d
    if num % den:
        return Fraction(num, den)
    return num // den


def solve_linear_system(rows: list[dict[int, Fraction]], rhs: list[list[Fraction]],
                        n: int) -> list[list[Fraction]]:
    """Solve A X = B exactly for unknowns 0..n-1; returns X row by row.

    ``rows[i]`` holds the nonzero entries of row i of A and ``rhs[i]`` row i
    of B, one value per right-hand side. There may be more equations than
    unknowns; the system must be consistent and of full column rank,
    otherwise SingularSystemError is raised.
    """
    a = [{j: q for j, q in row.items() if q} for row in rows]
    b = [list(values) for values in rhs]
    holders: dict[int, set[int]] = {}
    for i, row in enumerate(a):
        for j in row:
            holders.setdefault(j, set()).add(i)
    heap = [(len(row), i) for i, row in enumerate(a)]
    heapq.heapify(heap)
    done = [False] * len(a)
    pivots: list[tuple[int, int]] = []
    while heap:
        size, r = heapq.heappop(heap)
        if done[r] or size != len(a[r]):
            continue  # a stale entry: the row was pivoted or has changed length
        done[r] = True
        pivot_row = a[r]
        if not pivot_row:
            if any(b[r]):
                raise SingularSystemError("inconsistent system")
            continue
        for j in pivot_row:
            holders[j].discard(r)
        c = min(pivot_row, key=lambda j: (len(holders[j]), j))
        inv = Fraction(1) / pivot_row.pop(c)
        for j in pivot_row:
            pivot_row[j] *= inv
        b[r] = [v * inv for v in b[r]]
        terms = [(j, q.numerator, q.denominator) for j, q in pivot_row.items()]
        pivot = [(v.numerator, v.denominator) for v in b[r]]
        for i in holders.pop(c):
            row = a[i]
            f = row.pop(c)
            fn, fd = f.numerator, f.denominator
            for j, qn, qd in terms:
                v = _minus(row.get(j, 0), fn * qn, fd * qd)
                if v:
                    if j not in row:
                        holders[j].add(i)
                    row[j] = v
                else:
                    del row[j]
                    holders[j].discard(i)
            b[i] = [_minus(v, fn * qn, fd * qd) for v, (qn, qd) in zip(b[i], pivot)]
            heapq.heappush(heap, (len(row), i))
        pivots.append((r, c))
    if len(pivots) < n:
        raise SingularSystemError("rank deficient system")
    x: list[list[Fraction]] = [[]] * n
    for r, c in reversed(pivots):  # later pivots never involve earlier columns
        x[c] = [v - sum((q * x[j][k] for j, q in a[r].items()), Fraction(0))
                for k, v in enumerate(b[r])]
    return x
