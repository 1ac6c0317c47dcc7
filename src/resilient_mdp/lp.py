"""Exact rational linear programming.

A small two-phase simplex over ``fractions.Fraction`` with Bland's
anti-cycling rule. The tableau is stored dense, but a pivot touches only the
nonzero columns of the pivot row and only the rows with a nonzero entry in
the pivot column; the programs built here are a few percent nonzero. The
skipped entries are exactly the ones a full-row update would leave as they
are, so Bland's rule sees the same tableau and makes the same pivots. There
is no factorization. The payoff is that feasibility and optimality are
exact, which the boundary cases of the resiliency constraints require (e.g.
a threshold met with equality).

Every returned optimal assignment is re-checked against all constraints
before being handed back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

LE, EQ, GE = "<=", "=", ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class MalformedProgramError(ValueError):
    pass


@dataclass
class Constraint:
    coeffs: dict[str, Fraction]
    relation: str
    rhs: Fraction


@dataclass
class LinearProgram:
    variables: list[str]
    constraints: list[Constraint] = field(default_factory=list)
    objective: dict[str, Fraction] = field(default_factory=dict)
    direction: str = "max"
    nonneg: set[str] = field(default_factory=set)

    def add(self, coeffs: dict[str, Fraction], relation: str, rhs) -> None:
        self.constraints.append(Constraint(dict(coeffs), relation, Fraction(rhs)))

    def dump(self) -> str:
        """Human-readable rendering of the program."""
        lines = [f"{self.direction} " + _poly(self.objective), "subject to:"]
        for c in self.constraints:
            lines.append(f"  {_poly(c.coeffs)} {c.relation} {c.rhs}")
        if self.nonneg:
            lines.append("  " + ", ".join(sorted(self.nonneg)) + " >= 0")
        return "\n".join(lines)


def _poly(coeffs: dict[str, Fraction]) -> str:
    terms = [f"{q}*{v}" for v, q in coeffs.items() if q != 0]
    return " + ".join(terms) if terms else "0"


@dataclass
class LpSolution:
    status: str
    assignment: dict[str, Fraction] | None = None
    objective_value: Fraction | None = None


def solve(lp: LinearProgram) -> LpSolution:
    """Exact optimum of ``lp`` via two-phase simplex with Bland's rule."""
    _check_well_formed(lp)

    # Column layout: one column per nonnegative variable, two (x+ , x-) per
    # free variable, then one slack/surplus column per inequality.
    base_of: dict[str, int] = {}
    nstruct = 0
    for v in lp.variables:
        base_of[v] = nstruct
        nstruct += 1 if v in lp.nonneg else 2
    nslack = sum(1 for c in lp.constraints if c.relation != EQ)
    ncols = nstruct + nslack

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    slack_at = nstruct
    for c in lp.constraints:
        row = [Fraction(0)] * ncols
        for v, q in c.coeffs.items():
            base = base_of[v]
            row[base] += Fraction(q)
            if v not in lp.nonneg:
                row[base + 1] -= Fraction(q)
        if c.relation != EQ:
            row[slack_at] = Fraction(1 if c.relation == LE else -1)
            slack_at += 1
        b = Fraction(c.rhs)
        if b < 0:
            row = [-x for x in row]
            b = -b
        rows.append(row)
        rhs.append(b)

    sign = 1 if lp.direction == "max" else -1
    cost = [Fraction(0)] * ncols
    for v, q in lp.objective.items():
        base = base_of[v]
        cost[base] += sign * Fraction(q)
        if v not in lp.nonneg:
            cost[base + 1] -= sign * Fraction(q)

    status, values = _two_phase(rows, rhs, cost, ncols)
    if status != OPTIMAL:
        return LpSolution(status)

    assignment: dict[str, Fraction] = {}
    k = 0
    for v in lp.variables:
        if v in lp.nonneg:
            assignment[v] = values[k]
            k += 1
        else:
            assignment[v] = values[k] - values[k + 1]
            k += 2
    _verify(lp, assignment)
    obj = sum((Fraction(q) * assignment[v] for v, q in lp.objective.items()), Fraction(0))
    return LpSolution(OPTIMAL, assignment, obj)


def solve_lexicographic(lp: LinearProgram, secondary: dict[str, Fraction],
                        secondary_direction: str = "min") -> LpSolution:
    """Optimize ``secondary`` subject to the primary objective held at its optimum."""
    first = solve(lp)
    if first.status != OPTIMAL:
        return first
    refined = LinearProgram(
        variables=list(lp.variables),
        constraints=list(lp.constraints),
        objective=dict(secondary),
        direction=secondary_direction,
        nonneg=set(lp.nonneg),
    )
    refined.add(dict(lp.objective), EQ, first.objective_value)
    second = solve(refined)
    if second.status != OPTIMAL:
        raise MalformedProgramError("lexicographic phase lost feasibility")
    primary_val = sum((Fraction(q) * second.assignment[v]
                       for v, q in lp.objective.items()), Fraction(0))
    if primary_val != first.objective_value:
        raise MalformedProgramError("lexicographic phase moved the primary optimum")
    return LpSolution(OPTIMAL, second.assignment, primary_val)


def _check_well_formed(lp: LinearProgram) -> None:
    declared = set(lp.variables)
    if len(declared) != len(lp.variables):
        raise MalformedProgramError("duplicate variable ids")
    if lp.direction not in ("max", "min"):
        raise MalformedProgramError(f"bad direction {lp.direction!r}")
    for v in lp.objective:
        if v not in declared:
            raise MalformedProgramError(f"objective references unknown variable {v!r}")
    for c in lp.constraints:
        if c.relation not in (LE, EQ, GE):
            raise MalformedProgramError(f"bad relation {c.relation!r}")
        for v in c.coeffs:
            if v not in declared:
                raise MalformedProgramError(f"constraint references unknown variable {v!r}")
    for v in lp.nonneg:
        if v not in declared:
            raise MalformedProgramError(f"nonneg references unknown variable {v!r}")


def _verify(lp: LinearProgram, assignment: dict[str, Fraction]) -> None:
    for c in lp.constraints:
        lhs = sum((Fraction(q) * assignment[v] for v, q in c.coeffs.items()), Fraction(0))
        ok = (lhs <= c.rhs if c.relation == LE else
              lhs == c.rhs if c.relation == EQ else lhs >= c.rhs)
        if not ok:
            raise AssertionError(f"solver produced infeasible point: {lhs} {c.relation} {c.rhs}")
    for v in lp.nonneg:
        if assignment[v] < 0:
            raise AssertionError(f"nonnegativity violated for {v}")


def _two_phase(rows, rhs, cost, ncols):
    """Maximize cost.x over rows.x == rhs (rhs >= 0), x >= 0."""
    m = len(rows)
    # Phase 1: artificial variable per row, minimize their sum.
    tab = [list(rows[i]) + [Fraction(0)] * m + [rhs[i]] for i in range(m)]
    for i in range(m):
        tab[i][ncols + i] = Fraction(1)
    basis = [ncols + i for i in range(m)]
    phase1_cost = [Fraction(0)] * ncols + [Fraction(-1)] * m
    width = ncols + m

    zrow = _reduced_costs(tab, basis, phase1_cost)
    if _optimize(tab, basis, zrow, width, allowed=width) == UNBOUNDED:
        raise AssertionError("phase 1 cannot be unbounded")
    total = sum((tab[i][width] for i in range(m) if basis[i] >= ncols), Fraction(0))
    if total != 0:
        return INFEASIBLE, None

    # Drive remaining artificials out of the basis (they are at value 0).
    drop_rows = []
    for i in range(m):
        if basis[i] >= ncols:
            pivot_col = next((j for j in range(ncols) if tab[i][j] != 0), None)
            if pivot_col is None:
                drop_rows.append(i)  # redundant row
            else:
                _pivot(tab, basis, i, pivot_col)
    for i in sorted(drop_rows, reverse=True):
        del tab[i]
        del basis[i]
    m = len(tab)

    # Phase 2 on structural + slack columns only.
    phase2_cost = list(cost) + [Fraction(0)] * (width - ncols)
    zrow = _reduced_costs(tab, basis, phase2_cost)
    status = _optimize(tab, basis, zrow, width, allowed=ncols)
    if status == UNBOUNDED:
        return UNBOUNDED, None
    values = [Fraction(0)] * ncols
    for i, b in enumerate(basis):
        if b < ncols:
            values[b] = tab[i][width]
    return OPTIMAL, values


def _reduced_costs(tab, basis, cost):
    zrow = [-c for c in cost] + [Fraction(0)]
    for i, b in enumerate(basis):
        cb = cost[b]
        if cb:
            for j, x in enumerate(tab[i]):
                if x:
                    zrow[j] += cb * x
    return zrow


def _optimize(tab, basis, zrow, width, allowed):
    """Primal simplex iterations with Bland's rule; columns >= ``allowed`` are barred."""
    m = len(tab)
    while True:
        enter = next((j for j in range(allowed) if zrow[j] < 0), None)
        if enter is None:
            return OPTIMAL
        leave, best_ratio = None, None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][width] / a
                if best_ratio is None or ratio < best_ratio or \
                        (ratio == best_ratio and basis[i] < basis[leave]):
                    leave, best_ratio = i, ratio
        if leave is None:
            return UNBOUNDED
        f = zrow[enter]
        for j, p in _pivot(tab, basis, leave, enter):
            zrow[j] -= f * p


def _pivot(tab, basis, i, j):
    """Pivot on entry (i, j) in place and return the scaled pivot row's
    nonzero ``(column, value)`` pairs. Other rows change only in those
    columns, and only where their column-j entry is nonzero."""
    row = tab[i]
    inv = 1 / row[j]
    nz = [(c, x * inv) for c, x in enumerate(row) if x]
    for c, x in nz:
        row[c] = x
    for k, other in enumerate(tab):
        f = other[j]
        if k != i and f:
            for c, p in nz:
                other[c] -= f * p
    basis[i] = j
    return nz
