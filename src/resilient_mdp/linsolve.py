"""Exact sparse linear-system solving over rationals, on integer rows.

Rows are ``{column: coefficient}`` maps, and each column keeps the set of
remaining rows that hold it, so eliminating a column touches only the rows
it occurs in; several right-hand sides share one elimination. The pivot row
is always the remaining row with the fewest entries (ties to the lowest
row), taken from a heap, and its pivot column the one held by the fewest
remaining rows (ties to the lowest column): Markowitz's rule, which keeps
the fill-in small. The work done is fixed by the input.

The elimination is fraction-free (Bareiss, Math. Comp. 1968, without his
exact division, which Markowitz's order does not allow): every stored value
is an ``int``. The input is integer, as every caller builds it, and while
it is eliminated a row holds integer coefficients and integer right-hand
sides over one integer denominator of the row, 1 at the start. Eliminating
column c from row i with pivot row r, whose column-c entries are f and p,
replaces the coefficients by s·row_i - m·row_r / g, where g is the gcd of
row r's other coefficients and s, m are p and f·g divided by their gcd: the
smallest integer multiple of the rational update. So the nonzero pattern,
and with it the pivot order, is that of rational elimination. A row scaled
by s > 1 is divided by the gcd of its coefficients again. A pivot row with
no other coefficient changes only the right-hand sides of row i (s = 1),
which keeps that update as cheap as it is in rational arithmetic even when
row i is long. Back-substitution keeps each solved value as an integer
numerator and denominator, and brings only the values a row reads to their
lcm, so its work stays proportional to the nonzeros. The solver builds no
``fractions.Fraction``: it takes integers and returns each solved value as
an integer pair (numerator, denominator) in lowest terms, so a caller forms
a ``Fraction`` only for the values it returns itself.
"""

from __future__ import annotations

import heapq
from math import gcd, lcm


class SingularSystemError(ValueError):
    """Raised when a system has no solution or no unique solution."""


def solve_linear_system(rows: list[dict[int, int]], rhs: list[list[int]],
                        n: int) -> list[list[tuple[int, int]]]:
    """Solve A X = B exactly for unknowns 0..n-1; returns X row by row.

    ``rows[i]`` holds the entries of row i of A, zeros allowed, and
    ``rhs[i]`` row i of B, one value per right-hand side, all ``int``s. There
    may be more equations than unknowns; the system must be consistent and
    of full column rank, otherwise SingularSystemError is raised. X[j][k] is
    the pair (numerator, denominator) of x_j on right-hand side k, in lowest
    terms with a positive denominator.
    """
    a = [{j: q for j, q in row.items() if q} for row in rows]
    b = list(rhs)
    den = [1] * len(a)   # row i reads sum_j a[i][j]·x_j = b[i][k] / den[i]
    holders: dict[int, set[int]] = {}
    for i, row in enumerate(a):
        for j in row:
            holders.setdefault(j, set()).add(i)
    heap = [(len(row), i) for i, row in enumerate(a)]
    heapq.heapify(heap)
    done = [False] * len(a)
    pivots: list[tuple[int, int, int]] = []   # (row, column, pivot entry)
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
        p = pivot_row.pop(c)
        content = gcd(*pivot_row.values())   # 0 when p is the only entry
        terms = ([(j, q // content) for j, q in pivot_row.items()] if content > 1
                 else list(pivot_row.items()))
        # Row r gives x_c = rb / ru - (its other terms) / p, with ru > 0.
        ru = p * den[r]
        rb = b[r] if ru > 0 else [-v for v in b[r]]
        ru = abs(ru)
        rhs_zero = not any(rb)
        for i in holders.pop(c):
            row = a[i]
            f = row.pop(c)
            g = gcd(p, f * content)
            s, m = p // g, f * content // g
            if s < 0:
                s, m = -s, -m
            if s != 1:
                row = a[i] = {j: v * s for j, v in row.items()}
            for j, q in terms:
                v = row.get(j, 0) - m * q
                if v:
                    if j not in row:
                        holders[j].add(i)
                    row[j] = v
                else:
                    del row[j]
                    holders[j].discard(i)
            # The right-hand sides become s·(b[i] / den[i] - f·rb / ru).
            d = den[i]
            if rhs_zero:
                values = [s * v for v in b[i]]
            else:
                h = gcd(d, ru)
                u, w = ru // h, d // h
                d *= u   # lcm(den[i], ru)
                values = [s * (v * u - f * x * w) for v, x in zip(b[i], rb)]
            if s != 1:  # an unscaled row is left unreduced; only scaling grows it
                e = gcd(*row.values())
                if e > 1:
                    row = a[i] = {j: v // e for j, v in row.items()}
                    d *= e
            e = gcd(d, *values)
            if e > 1:
                d //= e
                values = [v // e for v in values]
            b[i], den[i] = values, d
            heapq.heappush(heap, (len(row), i))
        pivots.append((r, c, p))
    if len(pivots) < n:
        raise SingularSystemError("rank deficient system")
    x: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k in range(len(rhs[0]) if rhs else 0):
        num, dn = [0] * n, [1] * n   # x_j = num[j] / dn[j], dn[j] > 0
        for r, c, p in reversed(pivots):  # later pivots never involve earlier columns
            # x_c = (b[r][k] / den[r] - sum_j a[r][j]·x_j) / p = t / (pd·l), l = lcm of the dn[j]
            row = a[r]
            l = lcm(*[dn[j] for j in row])
            t = b[r][k] * l - den[r] * sum(q * num[j] * (l // dn[j]) for j, q in row.items())
            pd = p * den[r]
            if t % pd == 0:
                num[c], dn[c] = t // pd, l
                continue
            d = pd * l
            g = gcd(t, d) if d > 0 else -gcd(t, d)
            num[c], dn[c] = t // g, d // g
        for j in range(n):
            g = gcd(num[j], dn[j])
            x[j].append((num[j] // g, dn[j] // g))
    return x
