"""Exact rational linear programming.

One program class: maximize a linear objective over nonnegative variables
subject to ``<=``, ``=`` and ``>=`` rows, optionally minimizing a secondary
objective over the maxima. Both programs of the package have this form, so
tableau column j is variable j. A variable is any hashable key; the
package's programs key theirs by (state index, action) pairs, and a name is
made only when ``LinearProgram.dump`` prints one.

A small two-phase simplex over ``fractions.Fraction`` with Bland's
anti-cycling rule. The tableau is stored dense, but a pivot touches only the
nonzero columns of the pivot row and only the rows with a nonzero entry in
the pivot column; the programs built here are a few percent nonzero. The
skipped entries are exactly the ones a full-row update would leave as they
are, so Bland's rule sees the same tableau and makes the same pivots. No
factorization is kept. The payoff is that feasibility and optimality are
exact, which the boundary cases of the resiliency constraints require (e.g.
a threshold met with equality).

The entries of these tableaus stay under 15 bits, so a pivot costs object
creation, not arithmetic. Every value the tableau stores (entries,
right-hand sides, the reduced-cost row, the scaled pivot row) is kept in
canonical form: an ``int`` exactly when it is integral, else a normalized
``Fraction``. Most stored values are zeros, and zero tests, sign tests and
numerator reads of an ``int`` run in C; an integral update, about a third
of them on the chain family, builds no ``Fraction``. Each entry update
a - f·p is made by ``_minus``, from numerators and denominators read once
per pivot row and once per factor, and every other value, such as the
scaled pivot row x / p, by ``_quotient`` from integers. ``solve`` applies
no ``Fraction`` operator: the entering test reads the sign of a numerator,
the ratio test cross-multiplies numerators and (positive) denominators,
and objective values are integer dot products. It takes ``int``s and
``Fraction``s only, and returns ``Fraction``s.

Exact Bland never returns to a basis. Each stage (phase 1, phase 2, the
secondary phase) records the bases it meets, as sets of columns, and a
repeat raises ``SolverError``: wrong bookkeeping then fails instead of
pivoting forever. A program whose dense tableau, rows × (columns + 1),
would exceed ``MAX_TABLEAU_ENTRIES`` is refused with
``ProgramTooLargeError`` before the tableau is built.

Phase 1 starts from one artificial variable per row, basic in its row, but
never stores their columns: an artificial that leaves the basis never enters
again (the standard two-phase rule), so only the structural and slack
columns are candidates, and the tableau has the same shape in both phases,
those columns plus the right-hand side. This is sound: fixing a nonbasic
artificial at 0 keeps every feasible point of the program, at phase-1 value
0, so phase 1 reaches 0 exactly when the program is feasible, and a value
below 0 proves it infeasible. Bland's rule over a subset of the columns
still terminates.

A secondary objective is minimized in the same tableau (the lexicographic
rule of Dantzig, Orden and Wolfe, 1955): at the primary optimum, the columns
with a nonzero primary reduced cost are barred, which leaves exactly the
optimal face, and Bland's rule continues on the secondary reduced costs over
the other columns. The primary value cannot move; that is checked.

Every returned optimal assignment is re-checked, in integers, against all
constraints of the program (not the tableau) before being handed back.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from fractions import Fraction
from math import lcm
from typing import NamedTuple

LE, EQ, GE = "<=", "=", ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


# The most tableau entries, rows × (columns + 1), that ``solve`` builds. The
# largest chain-family programs under it take a few minutes of CPU time
# (README, Scaling notes); a program far past it could not be stored.
MAX_TABLEAU_ENTRIES = 200_000


class MalformedProgramError(ValueError):
    pass


class ProgramTooLargeError(ValueError):
    """The program's dense tableau would exceed ``MAX_TABLEAU_ENTRIES``."""


class SolverError(RuntimeError):
    """The simplex contradicted itself: a returned point fails a constraint,
    phase 1, which is bounded by construction, came out unbounded, or a stage
    returned to an earlier basis."""


class Constraint:
    __slots__ = ("coeffs", "relation", "rhs")

    def __init__(self, coeffs: dict[Hashable, Fraction], relation: str, rhs: Fraction):
        self.coeffs = coeffs
        self.relation = relation
        self.rhs = rhs


class LinearProgram:
    def __init__(self, variables: list[Hashable],
                 objective: dict[Hashable, Fraction] | None = None):
        self.variables = variables
        self.constraints: list[Constraint] = []
        self.objective = {} if objective is None else objective

    def add(self, coeffs: dict[Hashable, Fraction], relation: str, rhs) -> None:
        _check_exact(rhs, "right-hand side")
        self.constraints.append(Constraint(dict(coeffs), relation, Fraction(rhs)))

    def dump(self, name: Callable[[Hashable], str]) -> str:
        """Human-readable rendering of the program, each variable printed as
        ``name(variable)``; the nonnegativity line lists the names sorted."""
        lines = ["max " + _poly(self.objective, name), "subject to:"]
        for c in self.constraints:
            lines.append(f"  {_poly(c.coeffs, name)} {c.relation} {c.rhs}")
        if self.variables:
            lines.append("  " + ", ".join(sorted(map(name, self.variables))) + " >= 0")
        return "\n".join(lines)


def _poly(coeffs: dict[Hashable, Fraction], name: Callable[[Hashable], str]) -> str:
    terms = [f"{q}*{name(v)}" for v, q in coeffs.items() if q != 0]
    return " + ".join(terms) if terms else "0"


class LpSolution(NamedTuple):
    status: str
    assignment: dict[Hashable, Fraction] | None = None
    objective_value: Fraction | None = None


def solve(lp: LinearProgram, secondary: dict[Hashable, Fraction] | None = None) -> LpSolution:
    """Exact maximum of ``lp`` via two-phase simplex with Bland's rule.

    With ``secondary``, the optimum returned is one that also minimizes
    ``secondary`` among all maxima; the objective value reported is still the
    primary one. A program whose dense tableau would exceed
    ``MAX_TABLEAU_ENTRIES`` raises ``ProgramTooLargeError``.
    """
    _check_well_formed(lp, secondary)

    # Column j is variable j; one slack/surplus column per inequality follows.
    col = {v: j for j, v in enumerate(lp.variables)}
    nvars = len(lp.variables)
    ncols = nvars + sum(1 for c in lp.constraints if c.relation != EQ)
    if len(lp.constraints) * (ncols + 1) > MAX_TABLEAU_ENTRIES:
        raise ProgramTooLargeError(
            f"a linear program of {len(lp.constraints)} rows and {ncols} columns exceeds "
            f"the limit of {MAX_TABLEAU_ENTRIES} tableau entries")

    rows: list[list[Fraction | int]] = []
    rhs: list[Fraction | int] = []
    slack_at = nvars
    for c in lp.constraints:
        row = [0] * ncols
        sign = -1 if c.rhs.numerator < 0 else 1  # so that the right-hand side is >= 0
        for v, q in c.coeffs.items():
            row[col[v]] = _quotient(sign * q.numerator, q.denominator)
        if c.relation != EQ:
            row[slack_at] = sign if c.relation == LE else -sign
            slack_at += 1
        rows.append(row)
        rhs.append(_quotient(sign * c.rhs.numerator, c.rhs.denominator))

    def cost_row(objective, sign):
        cost = [0] * ncols
        for v, q in objective.items():
            cost[col[v]] = _quotient(sign * q.numerator, q.denominator)
        return cost

    status, values = _two_phase(
        rows, rhs, cost_row(lp.objective, 1), ncols,
        None if secondary is None else cost_row(secondary, -1))
    if status != OPTIMAL:
        return LpSolution(status)

    assignment = dict(zip(lp.variables, values))
    _verify(lp, assignment)
    return LpSolution(OPTIMAL, assignment,
                      _dot((q, assignment[v]) for v, q in lp.objective.items()))


def solve_lexicographic(lp: LinearProgram, secondary: dict[Hashable, Fraction]) -> LpSolution:
    """Minimize ``secondary`` subject to the primary objective held at its maximum.

    One simplex run: ``solve`` reaches the primary optimum, then continues in
    the same tableau on the columns whose primary reduced cost is zero, so
    no second program is built and phase 1 is not repeated. The status and
    ``objective_value`` are the primary ones. A secondary objective that is
    unbounded below over the primary optima, or a secondary phase that moves
    the primary value, raises ``MalformedProgramError``.
    """
    return solve(lp, secondary)


def _check_exact(q, what: str) -> None:
    if not isinstance(q, (int, Fraction)):
        raise MalformedProgramError(f"{what} {q!r} is not an int or a Fraction")


def _check_well_formed(lp: LinearProgram, secondary) -> None:
    declared = set(lp.variables)
    if len(declared) != len(lp.variables):
        raise MalformedProgramError("duplicate variable ids")
    for v, q in [*lp.objective.items(), *(secondary or {}).items()]:
        if v not in declared:
            raise MalformedProgramError(f"objective references unknown variable {v!r}")
        _check_exact(q, "objective coefficient")
    for c in lp.constraints:
        if c.relation not in (LE, EQ, GE):
            raise MalformedProgramError(f"bad relation {c.relation!r}")
        _check_exact(c.rhs, "right-hand side")
        for v, q in c.coeffs.items():
            if v not in declared:
                raise MalformedProgramError(f"constraint references unknown variable {v!r}")
            _check_exact(q, "coefficient")


def _verify(lp: LinearProgram, assignment: dict[Hashable, Fraction]) -> None:
    """Check ``assignment`` against ``lp`` in integers: the nonzero values
    over one common denominator, each row over the lcm of its denominators."""
    nonzero = [v for v, x in assignment.items() if x]
    nums, den = common_denominator([assignment[v] for v in nonzero])
    scaled = dict(zip(nonzero, nums))
    for c in lp.constraints:
        terms = [(q, scaled[v]) for v, q in c.coeffs.items() if v in scaled]
        row_den = lcm(c.rhs.denominator, *[q.denominator for q, _ in terms])
        lhs = sum(q.numerator * (row_den // q.denominator) * x for q, x in terms)
        rhs = c.rhs.numerator * (row_den // c.rhs.denominator) * den
        ok = (lhs <= rhs if c.relation == LE else
              lhs == rhs if c.relation == EQ else lhs >= rhs)
        if not ok:
            raise SolverError("solver produced infeasible point: "
                              f"{Fraction(lhs, row_den * den)} {c.relation} {c.rhs}")
    for v in lp.variables:
        if assignment[v].numerator < 0:
            raise SolverError(f"nonnegativity violated for {v}")


def _two_phase(rows, rhs, cost, ncols, secondary=None):
    """Maximize cost.x over rows.x == rhs (rhs >= 0), x >= 0, then, if given,
    secondary.x over the optimal face."""
    m = len(rows)
    # Phase 1: artificial i (column ncols + i, never stored) is basic in row
    # i, and once it leaves it never enters again; maximize minus their sum.
    # The reduced costs are 0 on the artificials and minus the column sums on
    # the stored columns, whose last entry, the right-hand side's, is the
    # phase-1 value.
    tab = [list(rows[i]) + [rhs[i]] for i in range(m)]
    basis = [ncols + i for i in range(m)]
    zrow = [0] * (ncols + 1)
    for row in tab:
        _subtract_multiple(zrow, 1, _nonzero(row))
    if _optimize(tab, basis, zrow, ncols, range(ncols), set()) == UNBOUNDED:
        raise SolverError("phase 1 cannot be unbounded")
    if zrow[ncols].numerator < 0:
        return INFEASIBLE, None

    # Drive remaining artificials out of the basis (they are at value 0).
    drop_rows = []
    for i in range(m):
        if basis[i] >= ncols:
            pivot_col = next((j for j in range(ncols) if tab[i][j]), None)
            if pivot_col is None:
                drop_rows.append(i)  # redundant row
            else:
                _pivot(tab, basis, i, pivot_col, [row[pivot_col] for row in tab])
    for i in sorted(drop_rows, reverse=True):
        del tab[i]
        del basis[i]

    # Phase 2: no artificial is basic and none may enter.
    zrow = _reduced_costs(tab, basis, cost)
    if _optimize(tab, basis, zrow, ncols, range(ncols), set()) == UNBOUNDED:
        return UNBOUNDED, None
    if secondary is not None:
        # Columns with a nonzero (hence positive) primary reduced cost would
        # lower the primary value; barring them leaves the optimal face.
        face = [j for j in range(ncols) if zrow[j].numerator == 0]
        value = _basic_value(tab, basis, cost)
        zrow = _reduced_costs(tab, basis, secondary)
        if _optimize(tab, basis, zrow, ncols, face, set()) == UNBOUNDED:
            raise MalformedProgramError("secondary objective unbounded on the primary optima")
        if _basic_value(tab, basis, cost) != value:
            raise MalformedProgramError("lexicographic phase moved the primary optimum")
    values = [Fraction(0)] * ncols
    for i, b in enumerate(basis):
        values[b] = Fraction(tab[i][ncols])
    return OPTIMAL, values


def _basic_value(tab, basis, cost):
    return _dot((cost[b], row[-1]) for b, row in zip(basis, tab)).as_integer_ratio()


def _dot(pairs) -> Fraction:
    """The sum of a·b over ``pairs``, in integers over one common denominator."""
    terms = [(a.numerator * b.numerator, a.denominator * b.denominator) for a, b in pairs if a and b]
    den = lcm(*[d for _, d in terms])
    return Fraction(sum(n * (den // d) for n, d in terms), den)


def common_denominator(values) -> tuple[list[int], int]:
    """The numerators of ``values`` over the lcm of their denominators, and that lcm."""
    den = lcm(*[x.denominator for x in values])
    return [x.numerator * (den // x.denominator) for x in values], den


def _reduced_costs(tab, basis, cost):
    zrow = [_quotient(-c.numerator, c.denominator) if c else 0 for c in cost] + [0]
    for i, b in enumerate(basis):
        cb = cost[b]
        if cb:
            _subtract_multiple(zrow, _quotient(-cb.numerator, cb.denominator), _nonzero(tab[i]))
    return zrow


def _minus(v: Fraction | int, n: int, d: int) -> Fraction | int:
    """v - n/d for d > 0 in canonical form: an ``int`` when it is integral,
    else a normalized ``Fraction``."""
    vd = v.denominator
    num, den = v.numerator * d - n * vd, vd * d
    if num % den:
        return Fraction(num, den)
    return num // den


def _quotient(n: int, d: int) -> Fraction | int:
    """n/d for d != 0 in the canonical form of ``_minus``."""
    return Fraction(n, d) if n % d else n // d


def _nonzero(row):
    return [(j, x) for j, x in enumerate(row) if x]


def _subtract_multiple(zrow, f, pairs):
    """zrow[j] -= f·p for each ``(j, p)`` of ``pairs``, each made by
    ``_minus`` in canonical form."""
    fn, fd = f.numerator, f.denominator
    for j, p in pairs:
        zrow[j] = _minus(zrow[j], fn * p.numerator, fd * p.denominator)


def _optimize(tab, basis, zrow, width, allowed, seen):
    """Primal simplex iterations with Bland's rule over the increasing
    columns ``allowed``; the others are barred. Column ``width`` is the
    right-hand side. ``seen`` holds the bases, as sorted column tuples, that
    the stage has started an iteration from: Bland's rule never returns to
    one, so a repeat means the tableau or the reduced costs are wrong, and
    it raises instead of pivoting forever."""
    while True:
        key = tuple(sorted(basis))
        if key in seen:
            raise SolverError("the simplex returned to an earlier basis")
        seen.add(key)
        enter = next((j for j in allowed if zrow[j].numerator < 0), None)
        if enter is None:
            return OPTIMAL
        column = [row[enter] for row in tab]
        leave = _leaving_row(tab, basis, column, width)
        if leave is None:
            return UNBOUNDED
        _subtract_multiple(zrow, zrow[enter], _pivot(tab, basis, leave, enter, column))


def _leaving_row(tab, basis, column, width):
    """Bland's ratio test on the entering ``column``: the row with the least
    ratio of right-hand side to positive entry, ties to the lowest basic
    column; None if no entry is positive. Denominators are positive, so the
    ratios rn/rd are compared by cross-multiplying."""
    leave = best_n = best_d = None
    for i, a in enumerate(column):
        an = a.numerator
        if an > 0:
            b = tab[i][width]
            rn, rd = b.numerator * a.denominator, b.denominator * an
            if leave is None or rn * best_d < best_n * rd or \
                    (rn * best_d == best_n * rd and basis[i] < basis[leave]):
                leave, best_n, best_d = i, rn, rd
    return leave


def _pivot(tab, basis, i, j, column):
    """Pivot on entry (i, j), whose column is ``column``, in place and return
    the scaled pivot row's nonzero ``(column, value)`` pairs. Other rows
    change only in those columns, and only where ``column`` is nonzero."""
    row = tab[i]
    pn, pd = column[i].numerator, column[i].denominator
    nz = [(c, _quotient(x.numerator * pd, x.denominator * pn)) for c, x in enumerate(row) if x]
    for c, x in nz:
        row[c] = x
    terms = [(c, x.numerator, x.denominator) for c, x in nz]
    for k, f in enumerate(column):
        if f and k != i:
            other = tab[k]
            fn, fd = f.numerator, f.denominator
            for c, qn, qd in terms:
                other[c] = _minus(other[c], fn * qn, fd * qd)
    basis[i] = j
    return nz
