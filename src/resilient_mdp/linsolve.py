"""Exact sparse linear-system solving over rationals.

Rows are ``{column: coefficient}`` maps, so elimination only touches the
nonzero entries, and several right-hand sides share one elimination. The
pivot row is always the remaining row with the fewest entries (ties to the
lowest row) and its pivot column the lowest one, so the work done is fixed
by the input. Everything is a ``fractions.Fraction``: the solutions are exact.
"""

from __future__ import annotations

from fractions import Fraction


class SingularSystemError(ValueError):
    """Raised when a system has no solution or no unique solution."""


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
    live = list(range(len(a)))
    pivots: list[tuple[int, int]] = []
    while live:
        r = min(live, key=lambda i: (len(a[i]), i))
        live.remove(r)
        if not a[r]:
            if any(b[r]):
                raise SingularSystemError("inconsistent system")
            continue
        c = min(a[r])
        inv = Fraction(1) / a[r][c]
        a[r] = {j: q * inv for j, q in a[r].items()}
        b[r] = [v * inv for v in b[r]]
        for i in live:
            f = a[i].pop(c, 0)
            if not f:
                continue
            for j, q in a[r].items():
                if j != c:
                    v = a[i].get(j, 0) - f * q
                    if v:
                        a[i][j] = v
                    else:
                        a[i].pop(j, None)
            b[i] = [v - f * p for v, p in zip(b[i], b[r])]
        pivots.append((r, c))
    if len(pivots) < n:
        raise SingularSystemError("rank deficient system")
    x: list[list[Fraction]] = [[]] * n
    for r, c in reversed(pivots):  # later pivots never involve earlier columns
        x[c] = [v - sum((q * x[j][k] for j, q in a[r].items() if j != c), Fraction(0))
                for k, v in enumerate(b[r])]
    return x
