import functools
import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import resilient_mdp.components as components_module
import resilient_mdp.lp as lp_module
from resilient_mdp import synthesize, validate_repair_assumption
from resilient_mdp.linsolve import SingularSystemError, solve_linear_system
from resilient_mdp.lp import (EQ, GE, INFEASIBLE, LE, OPTIMAL, UNBOUNDED, Constraint,
                              LinearProgram, MalformedProgramError, SolverError, _minus,
                              solve, solve_lexicographic)

from conftest import random_model
from helpers import fraction_operator_calls, fraction_pairs, integer_system
from test_docs_cli import chain_model


def lp(variables, objective):
    return LinearProgram(variables=list(variables), objective=dict(objective))


def _simple_maximum_program():
    p = lp(["x", "y"], {"x": 3, "y": 2})
    p.add({"x": 1, "y": 1}, LE, 4)
    p.add({"x": 1, "y": 3}, LE, 6)
    return p


def test_simple_maximum():
    sol = solve(_simple_maximum_program())
    assert sol.status == OPTIMAL
    assert sol.objective_value == 12
    assert sol.assignment == {"x": Fraction(4), "y": Fraction(0)}


def test_exact_fractional_optimum():
    p = lp(["x", "y"], {"x": 1, "y": 1})
    p.add({"x": 2, "y": 1}, LE, 1)
    p.add({"x": 1, "y": 3}, LE, 1)
    sol = solve(p)
    assert sol.objective_value == Fraction(3, 5)


def test_infeasible():
    p = lp(["x"], {"x": 1})
    p.add({"x": 1}, LE, 1)
    p.add({"x": 1}, GE, 2)
    assert solve(p).status == INFEASIBLE


def test_unbounded():
    p = lp(["x"], {"x": 1})
    p.add({"x": 1}, GE, 0)
    assert solve(p).status == UNBOUNDED


def test_equality_and_min():
    # Minimizing x + 2y is maximizing -x - 2y.
    p = lp(["x", "y"], {"x": -1, "y": -2})
    p.add({"x": 1, "y": 1}, EQ, 3)
    sol = solve(p)
    assert sol.objective_value == -3
    assert sol.assignment["x"] == 3


def test_degenerate_redundant_rows():
    p = lp(["x", "y"], {"x": 1, "y": 1})
    p.add({"x": 1, "y": 1}, EQ, 2)
    p.add({"x": 2, "y": 2}, EQ, 4)  # redundant copy
    p.add({"x": 1}, LE, 1)
    sol = solve(p)
    assert sol.status == OPTIMAL
    assert sol.objective_value == 2


def test_malformed_programs_rejected():
    p = lp(["x"], {"ghost": 1})
    with pytest.raises(MalformedProgramError):
        solve(p)
    q = lp(["x", "x"], {"x": 1})
    with pytest.raises(MalformedProgramError):
        solve(q)
    r = lp(["x"], {"x": 1})
    r.add({"x": 1}, "<>", 1)
    with pytest.raises(MalformedProgramError):
        solve(r)
    g = lp(["x"], {"x": 1})
    g.add({"ghost": 1}, LE, 1)
    with pytest.raises(MalformedProgramError, match="constraint references unknown variable"):
        solve(g)
    # A float has no exact value: 0.1 would be read as its binary fraction,
    # 36028797018963968/3602879701896397 for p below, instead of x = 10.
    p = lp(["x"], {"x": 1})
    p.add({"x": 0.1}, LE, 1)
    with pytest.raises(MalformedProgramError, match="coefficient 0.1 "):
        solve(p)
    with pytest.raises(MalformedProgramError, match="right-hand side 0.1 "):
        lp(["x"], {"x": 1}).add({"x": 1}, LE, 0.1)
    q = lp(["x"], {"x": 0.5})
    q.constraints.append(Constraint({"x": 1}, LE, 0.1))
    with pytest.raises(MalformedProgramError, match="objective coefficient 0.5 "):
        solve(q)
    q.objective = {"x": 1}
    with pytest.raises(MalformedProgramError, match="right-hand side 0.1 "):
        solve(q)
    q.constraints[0].rhs = 1
    with pytest.raises(MalformedProgramError, match="objective coefficient 0.5 "):
        solve_lexicographic(q, {"x": 0.5})
    p.constraints[0].coeffs["x"] = Fraction(1, 10)
    assert solve(p).assignment == {"x": Fraction(10)}


def test_lexicographic_prefers_small_secondary():
    # Both (2,0) and (0,2)... any point on x+y=2 is primary-optimal; the
    # secondary phase minimizes y.
    p = lp(["x", "y"], {"x": 1, "y": 1})
    p.add({"x": 1, "y": 1}, LE, 2)
    sol = solve_lexicographic(p, {"y": Fraction(1)})
    assert sol.objective_value == 2
    assert sol.assignment["y"] == 0


def test_lexicographic_infeasible_passthrough():
    p = lp(["x"], {"x": 1})
    p.add({"x": 1}, LE, -1)
    assert solve_lexicographic(p, {"x": Fraction(1)}).status == INFEASIBLE


def _vertex_enumeration_optimum(prog):
    """Oracle: evaluate the objective on every vertex (intersection of
    constraint/axis hyperplanes) that satisfies all constraints."""
    names = list(prog.variables)
    n = len(names)
    planes = []
    for c in prog.constraints:
        planes.append(([c.coeffs.get(v, Fraction(0)) for v in names], Fraction(c.rhs)))
    for k in range(n):
        row = [Fraction(0)] * n
        row[k] = Fraction(1)
        planes.append((row, Fraction(0)))
    best = None
    feasible = False
    for combo in itertools.combinations(range(len(planes)), n):
        rows = [planes[i][0] for i in combo]
        rhs = [planes[i][1] for i in combo]
        try:
            point = [Fraction(*v) for (v,) in solve_linear_system(
                *integer_system([dict(enumerate(r)) for r in rows], [[b] for b in rhs]), n)]
        except SingularSystemError:
            continue
        assignment = dict(zip(names, point))
        if any(assignment[v] < 0 for v in names):
            continue
        ok = True
        for c in prog.constraints:
            lhs = sum((q * assignment[v] for v, q in c.coeffs.items()), Fraction(0))
            if (c.relation == LE and lhs > c.rhs) or \
               (c.relation == GE and lhs < c.rhs) or \
               (c.relation == EQ and lhs != c.rhs):
                ok = False
                break
        if not ok:
            continue
        feasible = True
        value = sum((q * assignment[v] for v, q in prog.objective.items()), Fraction(0))
        if best is None or value > best:
            best = value
    return feasible, best


def _random_program(rng):
    n = rng.randint(1, 4)
    names = [f"v{k}" for k in range(n)]
    prog = lp(names, {v: Fraction(rng.randint(-3, 3)) for v in names})
    for _ in range(rng.randint(1, 5)):
        coeffs = {v: Fraction(rng.randint(-2, 3)) for v in names}
        prog.add(coeffs, rng.choice([LE, GE, EQ]), Fraction(rng.randint(-2, 6)))
    # Keep the region bounded so the vertex oracle is complete.
    prog.add({v: Fraction(1) for v in names}, LE, 10)
    return prog


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matches_vertex_enumeration(data):
    prog = _random_program(random.Random(data.draw(st.integers(0, 10 ** 9))))
    sol = solve(prog)
    feasible, best = _vertex_enumeration_optimum(prog)
    if not feasible:
        assert sol.status == INFEASIBLE
    else:
        assert sol.status == OPTIMAL
        assert sol.objective_value == best


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pinning_by_rows_equals_dropping_columns(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    prog = _random_program(rng)
    pinned = {v for v in prog.variables if rng.random() < 0.5}
    by_rows = lp(prog.variables, prog.objective)
    by_rows.constraints = list(prog.constraints)
    for v in sorted(pinned):
        by_rows.add({v: Fraction(1)}, EQ, 0)
    dropped = lp([v for v in prog.variables if v not in pinned],
                 {v: q for v, q in prog.objective.items() if v not in pinned})
    for c in prog.constraints:
        dropped.add({v: q for v, q in c.coeffs.items() if v not in pinned},
                    c.relation, c.rhs)
    a, b = solve(by_rows), solve(dropped)
    assert a.status == b.status
    assert a.objective_value == b.objective_value


def test_lexicographic_raises_when_primary_value_moves(monkeypatch):
    # max x s.t. x <= 2, then min x: only the slack column, barred because its
    # primary reduced cost is 1, could lower x. A simplex that ignores the bar
    # takes it, moves the primary value to 0, and must be caught.
    real_optimize = lp_module._optimize

    def unbarred(tab, basis, zrow, width, allowed, seen):
        return real_optimize(tab, basis, zrow, width, range(width), seen)

    monkeypatch.setattr(lp_module, "_optimize", unbarred)
    p = lp(["x"], {"x": 1})
    p.add({"x": 1}, LE, 2)
    with pytest.raises(MalformedProgramError, match="primary optimum"):
        solve_lexicographic(p, {"x": Fraction(1)})


def test_lexicographic_raises_when_secondary_unbounded_on_face():
    p = lp(["x", "y"], {"x": 1})
    p.add({"x": 1}, LE, 2)
    with pytest.raises(MalformedProgramError, match="unbounded"):
        solve_lexicographic(p, {"y": Fraction(-1)})


def _two_solve_lexicographic(prog, secondary):
    """The former lexicographic method: solve, then solve again from scratch,
    maximizing minus the secondary objective, with the primary optimum as an
    equality row. Returns the secondary minimum."""
    first = solve(prog)
    if first.status != OPTIMAL:
        return first.status, None, None
    refined = lp(prog.variables, {v: -q for v, q in secondary.items()})
    refined.constraints = list(prog.constraints)
    refined.add(dict(prog.objective), EQ, first.objective_value)
    second = solve(refined)
    if second.status != OPTIMAL:
        raise MalformedProgramError("lexicographic phase lost feasibility")
    return OPTIMAL, first.objective_value, -second.objective_value


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_lexicographic_matches_two_solves(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    prog = _random_program(rng)
    if rng.random() < 0.5:
        # 0/1 weights tie the primary optimum along a face far more often,
        # so the secondary phase has pivots to make.
        prog.objective = {v: Fraction(rng.randint(0, 1)) for v in prog.variables}
    # A random sign covers both directions of the secondary objective.
    sign = rng.choice([-1, 1])
    secondary = {v: sign * Fraction(rng.randint(-3, 3)) for v in prog.variables}
    status, primary, second = _two_solve_lexicographic(prog, secondary)
    sol = solve_lexicographic(prog, secondary)
    assert sol.status == status
    if status == OPTIMAL:
        assert sol.objective_value == primary
        assert sum((q * sol.assignment[v] for v, q in secondary.items()),
                   Fraction(0)) == second


def _operator_reduced_costs(tab, basis, cost):
    """``lp._reduced_costs`` by the ``Fraction`` operators: minus the costs,
    plus each basic cost times its row."""
    zrow = [-c for c in cost] + [Fraction(0)]
    for i, b in enumerate(basis):
        cb = cost[b]
        if cb:
            for j, x in enumerate(tab[i]):
                if x:
                    zrow[j] += cb * x
    return zrow


def _operator_basic_value(tab, basis, cost):
    return sum((cost[b] * row[-1] for b, row in zip(basis, tab)), Fraction(0))


def _full_block_two_phase(rows, rhs, cost, ncols, secondary=None, *, pivots, reenter=False):
    """``lp._two_phase`` with the artificial block stored: m more columns,
    which are cut off before phase 2. Phase 1 enters only the other columns,
    as ``lp`` does, or with ``reenter`` any column, so that an artificial
    which left the basis may enter again. Appends each pivot's (row, column)
    to ``pivots``."""

    def pivot(tab, basis, i, j):
        pivots.append((i, j))
        row = tab[i]
        inv = Fraction(1) / row[j]
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

    def optimize(tab, basis, zrow, width, allowed):
        while True:
            enter = next((j for j in allowed if zrow[j] < 0), None)
            if enter is None:
                return OPTIMAL
            leave, best_ratio = None, None
            for i in range(len(tab)):
                a = tab[i][enter]
                if a > 0:
                    ratio = Fraction(tab[i][width]) / a
                    if best_ratio is None or ratio < best_ratio or \
                            (ratio == best_ratio and basis[i] < basis[leave]):
                        leave, best_ratio = i, ratio
            if leave is None:
                return UNBOUNDED
            f = zrow[enter]
            for j, p in pivot(tab, basis, leave, enter):
                zrow[j] -= f * p

    reduced_costs, basic_value = _operator_reduced_costs, _operator_basic_value
    m = len(rows)
    tab = [list(rows[i]) + [Fraction(0)] * m + [rhs[i]] for i in range(m)]
    for i in range(m):
        tab[i][ncols + i] = Fraction(1)
    basis = [ncols + i for i in range(m)]
    width = ncols + m
    zrow = reduced_costs(tab, basis, [Fraction(0)] * ncols + [Fraction(-1)] * m)
    assert optimize(tab, basis, zrow, width, range(width if reenter else ncols)) == OPTIMAL
    if sum((tab[i][width] for i in range(m) if basis[i] >= ncols), Fraction(0)):
        return INFEASIBLE, None
    drop_rows = []
    for i in range(m):
        if basis[i] >= ncols:
            pivot_col = next((j for j in range(ncols) if tab[i][j] != 0), None)
            if pivot_col is None:
                drop_rows.append(i)
            else:
                pivot(tab, basis, i, pivot_col)
    for i in sorted(drop_rows, reverse=True):
        del tab[i]
        del basis[i]
    tab = [row[:ncols] + [row[width]] for row in tab]
    zrow = reduced_costs(tab, basis, cost)
    if optimize(tab, basis, zrow, ncols, range(ncols)) == UNBOUNDED:
        return UNBOUNDED, None
    if secondary is not None:
        face = [j for j in range(ncols) if zrow[j] == 0]
        value = basic_value(tab, basis, cost)
        zrow = reduced_costs(tab, basis, secondary)
        if optimize(tab, basis, zrow, ncols, face) == UNBOUNDED:
            raise MalformedProgramError("secondary objective unbounded on the primary optima")
        if basic_value(tab, basis, cost) != value:
            raise MalformedProgramError("lexicographic phase moved the primary optimum")
    values = [Fraction(0)] * ncols
    for i, b in enumerate(basis):
        values[b] = Fraction(tab[i][ncols])
    return OPTIMAL, values


def _solve_recording(prog, secondary=None, full_block=False, reenter=False):
    """``solve``'s outcome and its (row, column) pivots, with today's phase 1
    or with ``_full_block_two_phase``."""
    pivots = []
    if full_block:
        patch = mock.patch.object(lp_module, "_two_phase", functools.partial(
            _full_block_two_phase, pivots=pivots, reenter=reenter))
    else:
        real = lp_module._pivot

        def recording(tab, basis, i, j, column):
            pivots.append((i, j))
            return real(tab, basis, i, j, column)

        patch = mock.patch.object(lp_module, "_pivot", recording)
    with patch:
        try:
            sol = solve(prog, secondary)
            outcome = (sol.status, sol.assignment, sol.objective_value)
        except MalformedProgramError as exc:
            outcome = (MalformedProgramError, str(exc))
    return outcome, pivots


def _degenerate_program(rng):
    """A random program that phase 1 often leaves with artificials basic at
    0: mostly equality rows, often with a zero right-hand side, plus combined
    copies of them (redundant rows) and 0/1 objectives (tied optima)."""
    names = [f"v{k}" for k in range(rng.randint(2, 4))]
    if rng.random() < 0.5:
        objective = {v: Fraction(rng.randint(0, 1)) for v in names}
    else:
        objective = {v: Fraction(rng.randint(-3, 3)) for v in names}
    prog = lp(names, objective)
    for _ in range(rng.randint(1, 4)):
        rhs = 0 if rng.random() < 0.8 else rng.randint(-2, 6)
        prog.add({v: Fraction(rng.randint(-2, 3)) for v in names},
                 rng.choice([EQ, EQ, EQ, GE]), Fraction(rhs))
    equalities = [c for c in prog.constraints if c.relation == EQ]
    for _ in range(rng.randint(1, 3) if equalities else 0):
        a, b = rng.choice(equalities), rng.choice(equalities)
        f, g = rng.choice([-2, -1, 1, 2]), rng.choice([-1, 0, 1])
        prog.add({v: f * a.coeffs[v] + g * b.coeffs[v] for v in names}, EQ,
                 f * a.rhs + g * b.rhs)
    prog.add({v: Fraction(1) for v in names}, LE, 10)
    rng.shuffle(prog.constraints)
    return prog


def test_phase1_matches_the_full_artificial_block():
    # ``solve`` makes exactly the pivots of the full artificial block with no
    # artificial entering. It reaches the verdict and optimum value of the
    # block whose artificials may re-enter, whose pivots differ on some
    # examples.
    differ = []

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def check(seed):
        rng = random.Random(seed)
        prog = _degenerate_program(rng)
        secondary = ({v: Fraction(rng.randint(-3, 3)) for v in prog.variables}
                     if rng.random() < 0.5 else None)
        got, pivots = _solve_recording(prog, secondary)
        assert (got, pivots) == _solve_recording(prog, secondary, full_block=True)
        want, reentry_pivots = _solve_recording(prog, secondary, full_block=True, reenter=True)
        assert (got[0], got[-1]) == (want[0], want[-1])
        if pivots != reentry_pivots:
            differ.append(seed)

    check()
    assert differ, "no example's pivots differ from the re-entry reference"


def test_artificial_never_reenters_at_phase1_value_zero():
    # Columns x, slack of row 0; artificials 2, 3, 4. Phase 1 enters x in
    # row 1 and the slack in row 0, reaching value 0 with artificial 4 basic
    # in row 2, whose entries are then all 0: row 2 is dropped as redundant.
    # Had artificial 3 re-entered there (its reduced cost is -1), phase 1
    # would have taken two more pivots to the same optimum.
    p = lp(["x"], {"x": 2})
    p.add({"x": 2}, LE, 1)
    p.add({"x": 1}, EQ, 0)
    p.add({"x": -2}, EQ, 0)
    got, pivots = _solve_recording(p)
    assert got == (OPTIMAL, {"x": Fraction(0)}, Fraction(0))
    assert pivots == [(1, 0), (0, 1)]
    assert _solve_recording(p, full_block=True) == (got, pivots)
    assert _solve_recording(p, full_block=True, reenter=True) == (
        got, [(1, 0), (0, 1), (1, 3), (1, 0)])


def _synthesized(m, threshold, bound, reenter=False):
    """``synthesize``'s verdict and availability, with ``lp``'s phase 1 or
    with the full block whose artificials may re-enter."""
    if not reenter:
        result = synthesize(m, threshold, bound)
    else:
        with mock.patch.object(lp_module, "_two_phase", functools.partial(
                _full_block_two_phase, pivots=[], reenter=True)):
            result = synthesize(m, threshold, bound)
    return result.feasible, result.availability


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10 ** 9), any_target=st.booleans(), bound=st.integers(0, 3),
       threshold=st.sampled_from([Fraction(1, 2), Fraction(4, 5), Fraction(1)]))
@example(seed=130, any_target=False, bound=0, threshold=Fraction(1, 2))
def test_synthesis_matches_the_reentry_reference(seed, any_target, bound, threshold):
    # Phase 1 without re-entry may reach another optimal vertex, so a
    # document may change (random model 130 at R = 0 and threshold 1/2 does),
    # but never the verdict or the availability.
    m = random_model(random.Random(seed), any_target)
    assume(validate_repair_assumption(m).ok)
    got = _synthesized(m, threshold, bound)
    assert got == _synthesized(m, threshold, bound, reenter=True)
    if seed == 130 and not any_target and bound == 0 and threshold == Fraction(1, 2):
        assert got == (True, Fraction(84, 71))


def _operator_pivot(tab, basis, i, j, column):
    """``lp._pivot`` with every entry computed by the ``Fraction`` operators,
    x * (1/p) for the pivot row and a - f * p for the others."""
    row = tab[i]
    inv = Fraction(1) / column[i]
    nz = [(c, x * inv) for c, x in enumerate(row) if x]
    for c, x in nz:
        row[c] = x
    for k, f in enumerate(column):
        if f and k != i:
            other = tab[k]
            for c, p in nz:
                other[c] -= f * p
    basis[i] = j
    return nz


def _operator_optimize(tab, basis, zrow, width, allowed):
    """``lp._optimize`` by the ``Fraction`` operators: entering on zrow[j] < 0,
    the ratio test by division, the pivot by ``_operator_pivot`` and the
    reduced costs by zrow[j] -= f * p."""
    while True:
        enter = next((j for j in allowed if zrow[j] < 0), None)
        if enter is None:
            return OPTIMAL
        column = [row[enter] for row in tab]
        leave = _division_leaving_row(tab, basis, column, width)
        if leave is None:
            return UNBOUNDED
        f = zrow[enter]
        for j, p in _operator_pivot(tab, basis, leave, enter, column):
            zrow[j] -= f * p


def _exact(values):
    return [(type(x), x.numerator, x.denominator) for x in values]


def _canonical(values):
    """``_exact`` of ``values`` in the form ``lp`` stores them: an ``int``
    exactly when the value is integral, else a ``Fraction``. A float has no
    such form and fails here."""
    return [(int, x.numerator, 1) if x.denominator == 1 else (Fraction, x.numerator, x.denominator)
            for x in values]


def test_reduced_costs_match_the_operator_forms():
    # Inside ``solve``: every reduced-cost row built, every row update and
    # every ``_optimize`` run equal the operator forms exactly, in canonical
    # form.
    seen = dict.fromkeys(["negative cost", "cancelled"], 0)
    real_reduced, real_optimize = lp_module._reduced_costs, lp_module._optimize
    real_subtract = lp_module._subtract_multiple

    def reduced_costs(tab, basis, cost):
        zrow = real_reduced(tab, basis, cost)
        assert _exact(zrow) == _canonical(_operator_reduced_costs(tab, basis, cost))
        seen["negative cost"] += any(x < 0 for x in zrow)
        return zrow

    def optimize(tab, basis, zrow, width, allowed, seen):
        want = [[list(row) for row in tab], list(basis), list(zrow)]
        want_status = _operator_optimize(*want, width, allowed)
        status = real_optimize(tab, basis, zrow, width, allowed, seen)
        assert status == want_status
        assert [_exact(row) for row in tab] == [_canonical(row) for row in want[0]]
        assert (basis, _exact(zrow)) == (want[1], _canonical(want[2]))
        return status

    def subtract_multiple(zrow, f, pairs):
        pairs = list(pairs)
        want = list(zrow)
        for j, p in pairs:
            want[j] -= f * p
        before = list(zrow)
        real_subtract(zrow, f, pairs)
        assert _exact(zrow) == _canonical(want)
        seen["cancelled"] += any(before[j] and not zrow[j] for j, _ in pairs)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def check(seed):
        rng = random.Random(seed)
        prog = _degenerate_program(rng) if rng.random() < 0.7 else _random_program(rng)
        secondary = ({v: Fraction(rng.randint(-3, 3)) for v in prog.variables}
                     if rng.random() < 0.5 else None)
        with mock.patch.multiple(lp_module, _reduced_costs=reduced_costs, _optimize=optimize,
                                 _subtract_multiple=subtract_multiple):
            try:
                solve(prog, secondary)
            except MalformedProgramError:
                pass

    check()
    assert all(seen.values()), seen


def test_pivot_matches_the_operator_update():
    seen = dict.fromkeys(["negative pivot", "integral pivot", "cancelled", "empty column"], 0)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def check(seed):
        rng = random.Random(seed)
        m, width = rng.randint(1, 6), rng.randint(2, 9)

        def canonical(x):
            return x.numerator if x.denominator == 1 else x

        def entry():
            if rng.random() < 0.6:
                return 0
            return canonical(Fraction(rng.choice([-1, 1]) * rng.randint(1, 40),
                                      rng.randint(1, 12)))

        tab = [[entry() for _ in range(width)] for _ in range(m)]
        for c in rng.sample(range(width), rng.randint(0, 2)):
            for row in tab:
                row[c] = 0
        i, j = rng.randrange(m), rng.randrange(width)
        pivot = entry() or canonical(Fraction(rng.choice([-3, 1, 2]), rng.randint(1, 5)))
        for k in range(m):
            if k != i and rng.random() < 0.4:
                # Row k is a multiple of the pivot row on some columns, so
                # the update cancels those entries to 0.
                g = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 4))
                for c in range(width):
                    if rng.random() < 0.7:
                        tab[k][c] = canonical(g * tab[i][c])
                tab[k][j] = canonical(g * pivot)
        tab[i][j] = pivot
        column = [row[j] for row in tab]
        basis = rng.sample(range(width + m), m)

        def run(kernel, form):
            t, b = [list(row) for row in tab], list(basis)
            pairs = kernel(t, b, i, j, list(column))
            return ([c for c, _ in pairs], form(x for _, x in pairs), [form(row) for row in t], b)

        got = run(lp_module._pivot, _exact)
        assert got == run(_operator_pivot, _canonical)
        seen["negative pivot"] += pivot < 0
        seen["integral pivot"] += type(pivot) is int
        seen["cancelled"] += any(
            tab[k][c] and not got[2][k][c][1]
            for k in range(m) if k != i and column[k] for c in range(width))
        seen["empty column"] += any(not any(row[c] for row in tab) for c in range(width))

    check()
    assert all(seen.values()), seen


def _division_leaving_row(tab, basis, column, width):
    """Bland's ratio test read off its definition: among the rows with the
    least quotient rhs / entry over the positive entries, the one with the
    lowest basic column."""
    ratios = {i: Fraction(tab[i][width]) / a for i, a in enumerate(column) if a > 0}
    if not ratios:
        return None
    least = min(ratios.values())
    return min((i for i, r in ratios.items() if r == least), key=basis.__getitem__)


def test_leaving_row_matches_fraction_division():
    seen = dict.fromkeys(["tied minimum", "zero rhs", "negative entry", "zero entry",
                          "no positive entry"], 0)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def check(seed):
        rng = random.Random(seed)
        m, width = rng.randint(1, 8), rng.randint(1, 3)

        def value():
            return Fraction(rng.randint(-6, 6), rng.randint(1, 6))

        column = [value() if rng.random() < 0.8 else Fraction(0) for _ in range(m)]
        rhs = [Fraction(0) if rng.random() < 0.4 else abs(value()) for _ in range(m)]
        for k in range(m):
            if rng.random() < 0.3:
                # A scaled copy of another row's pair: the same ratio from
                # different numerators and denominators.
                other, g = rng.randrange(m), Fraction(rng.randint(1, 5), rng.randint(1, 5))
                column[k], rhs[k] = g * column[other], g * rhs[other]
        tab = [[value() for _ in range(width)] + [b] for b in rhs]
        basis = rng.sample(range(width + 2 * m), m)
        got = lp_module._leaving_row(tab, basis, column, width)
        assert got == _division_leaving_row(tab, basis, column, width)
        ratios = [b / a for a, b in zip(column, rhs) if a > 0]
        seen["tied minimum"] += ratios.count(min(ratios, default=None)) > 1
        seen["zero rhs"] += 0 in ratios
        seen["negative entry"] += any(a < 0 for a in column)
        seen["zero entry"] += any(a == 0 for a in column)
        seen["no positive entry"] += got is None

    check()
    assert all(seen.values()), seen


@pytest.mark.parametrize("k, L, R, pivots", [
    (1, 3, 3, 59), (2, 2, 2, 98), (2, 3, 3, 157), (3, 3, 4, 490), (3, 3, 6, 725),
    (4, 3, 6, 1145)])
def test_synthesize_pivot_counts(k, L, R, pivots):
    # The chain family of the benchmark at threshold 4/5: every LP that
    # ``synthesize`` solves, one availability program in ``compute_E`` (the
    # family has a single MEC, and one solve uses it up) and the goal program.
    count = {"pivots": 0, "solves": 0}
    real_pivot, real_solve = lp_module._pivot, lp_module.solve

    def counting_pivot(*args):
        count["pivots"] += 1
        return real_pivot(*args)

    def counting_solve(*args, **kwargs):
        count["solves"] += 1
        return real_solve(*args, **kwargs)

    with mock.patch.object(lp_module, "_pivot", counting_pivot), \
            mock.patch.object(lp_module, "solve", counting_solve), \
            mock.patch.object(components_module, "solve", counting_solve):
        synthesize(chain_model(k, L), Fraction(4, 5), R)
    assert count == {"pivots": pivots, "solves": 2}


def _chain_programs(k, L, R):
    """The ``(program, secondary)`` pairs that ``synthesize`` solves on the
    chain family at threshold 4/5."""
    programs = []
    real_solve = lp_module.solve

    def recording_solve(prog, secondary=None):
        programs.append((prog, secondary))
        return real_solve(prog, secondary)

    with mock.patch.object(lp_module, "solve", recording_solve), \
            mock.patch.object(components_module, "solve", recording_solve):
        synthesize(chain_model(k, L), Fraction(4, 5), R)
    return programs


def test_simplex_raises_on_a_wrong_reduced_cost_row():
    # With the sign of the reduced-cost update flipped, Bland's rule follows
    # wrong reduced costs and, unchecked, pivots forever. A stage that
    # returns to a basis, or a phase 1 that comes out unbounded, raises
    # instead; the pivot cap only keeps a regression from hanging the suite.
    programs = [(_simple_maximum_program(), None), *_chain_programs(1, 3, 3)]
    for prog, secondary in programs:
        assert solve(prog, secondary).status == OPTIMAL

    def flipped(zrow, f, pairs):
        fn, fd = f.numerator, f.denominator
        for j, p in pairs:
            zrow[j] = _minus(zrow[j], -fn * p.numerator, fd * p.denominator)

    pivots = []
    real_pivot = lp_module._pivot

    def capped_pivot(*args):
        pivots.append(None)
        assert len(pivots) < 10 ** 4, "the simplex did not stop"
        return real_pivot(*args)

    with mock.patch.multiple(lp_module, _subtract_multiple=flipped, _pivot=capped_pivot):
        with pytest.raises(SolverError, match="earlier basis"):
            solve(programs[0][0])
        for prog, secondary in programs[1:]:
            with pytest.raises(SolverError):
                solve(prog, secondary)
    assert pivots, "no mutated run pivoted"


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.integers(-50, 50),
                 st.fractions(min_value=-50, max_value=50, max_denominator=60)),
       st.integers(-10 ** 4, 10 ** 4), st.integers(1, 60))
def test_minus_is_canonical(v, n, d):
    got = _minus(v, n, d)
    want = v - Fraction(n, d)
    assert got == want
    assert type(got) is (int if want.denominator == 1 else Fraction)


def test_stored_values_are_canonical_and_results_fractions():
    # Every value ``solve`` stores (tableau, right-hand sides, reduced costs)
    # is an int exactly when integral and never a float; what ``solve``
    # returns is a Fraction, so no caller divides two ints into a float.
    real_optimize = lp_module._optimize
    results = []

    def canonical(values):
        return all(type(x) is int or type(x) is Fraction and x.denominator != 1
                   for x in values)

    def optimize(tab, basis, zrow, width, allowed, seen):
        assert all(canonical(row) for row in tab) and canonical(zrow)
        status = real_optimize(tab, basis, zrow, width, allowed, seen)
        assert all(canonical(row) for row in tab) and canonical(zrow)
        return status

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def check(seed):
        rng = random.Random(seed)
        prog = _degenerate_program(rng) if rng.random() < 0.5 else _random_program(rng)
        with mock.patch.object(lp_module, "_optimize", optimize):
            sol = solve(prog)
        if sol.status == OPTIMAL:
            results.extend([*sol.assignment.values(), sol.objective_value])

    check()
    assert results and all(type(x) is Fraction for x in results)
    assert any(x.denominator == 1 for x in results)


def _fraction_verify(prog, assignment):
    """``lp._verify`` by the ``Fraction`` operators: each row's left-hand
    side summed and compared as a ``Fraction``, then the signs."""
    for c in prog.constraints:
        lhs = sum((Fraction(q) * assignment[v] for v, q in c.coeffs.items()), Fraction(0))
        ok = (lhs <= c.rhs if c.relation == LE else
              lhs == c.rhs if c.relation == EQ else lhs >= c.rhs)
        if not ok:
            raise SolverError(f"solver produced infeasible point: {lhs} {c.relation} {c.rhs}")
    for v in prog.variables:
        if assignment[v] < 0:
            raise SolverError(f"nonnegativity violated for {v}")


_exact_values = st.one_of(st.integers(-4, 4),
                          st.fractions(min_value=-4, max_value=4, max_denominator=6))


@st.composite
def _exact_programs(draw):
    """Programs with ``int`` and ``Fraction`` entries, right-hand sides of
    either sign and all three relations, kept bounded."""
    names = [f"v{k}" for k in range(draw(st.integers(1, 4)))]
    prog = lp(names, {v: draw(_exact_values) for v in names})
    for _ in range(draw(st.integers(1, 4))):
        support = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
        prog.constraints.append(Constraint({v: draw(_exact_values) for v in support},
                                           draw(st.sampled_from([LE, EQ, GE])),
                                           draw(_exact_values)))
    prog.add(dict.fromkeys(names, 1), LE, 10)
    return prog


def test_integer_verify_matches_the_fraction_form():
    seen = dict.fromkeys(["accepted", "accepted equality", "infeasible point",
                          "nonnegativity"], 0)

    def verdict(check, prog, point):
        try:
            check(prog, point)
        except SolverError as exc:
            return str(exc)
        return None

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def check(data):
        prog = data.draw(_exact_programs())
        names = prog.variables
        sol = solve(prog)
        base = sol.assignment if sol.status == OPTIMAL else {
            v: data.draw(st.fractions(min_value=0, max_value=4, max_denominator=6)) for v in names}
        v, k = data.draw(st.sampled_from(names)), data.draw(st.integers(1, 6))
        points = [base, {**base, v: base[v] + Fraction(1, k)},
                  {**base, v: base[v] - Fraction(1, k)}, {**base, v: Fraction(-1, k)}]
        for point in points:
            got = verdict(lp_module._verify, prog, point)
            assert got == verdict(_fraction_verify, prog, point)
            if got is None:
                seen["accepted"] += 1
                seen["accepted equality"] += any(
                    c.relation == EQ and any(point[u] for u in c.coeffs)
                    for c in prog.constraints)
            else:
                seen["infeasible point" if "infeasible" in got else "nonnegativity"] += 1

    check()
    assert all(seen.values()), seen


def test_solve_applies_no_fraction_operator():
    # ``solve`` computes through ``_minus``, ``_quotient`` and integer
    # reads only, on chain (1,3,3)'s two programs and on random programs
    # through every phase and outcome.
    rng = random.Random(11)
    unbounded = lp(["x", "y"], {"x": 1})
    unbounded.add({"x": 1}, LE, 2)
    programs = [*_chain_programs(1, 3, 3), (unbounded, {"y": Fraction(-1)}),
                (lp(["x"], {"x": Fraction(1, 2)}), None)]
    for _ in range(300):
        prog = _degenerate_program(rng) if rng.random() < 0.5 else _random_program(rng)
        secondary = ({v: Fraction(rng.randint(-3, 3)) for v in prog.variables}
                     if rng.random() < 0.5 else None)
        programs.append((prog, secondary))
    outcomes = []
    with fraction_operator_calls() as calls:
        for prog, secondary in programs:
            try:
                outcomes.append(solve(prog, secondary).status)
            except MalformedProgramError:
                outcomes.append(MalformedProgramError)
    assert calls == []
    assert set(outcomes) == {OPTIMAL, INFEASIBLE, UNBOUNDED, MalformedProgramError}


def test_linear_system_golden():
    sol = solve_linear_system([{0: 2, 1: 1}, {0: 1, 1: 3}], [[5], [10]], 2)
    assert sol == [[(1, 1)], [(3, 1)]]


def test_linear_system_overdetermined_consistent():
    sol = solve_linear_system([{0: 1}, {0: 2}], [[3], [6]], 1)
    assert sol == [[(3, 1)]]


def test_linear_system_singular():
    with pytest.raises(SingularSystemError):
        solve_linear_system([{0: 1, 1: 1}], [[0]], 2)
    with pytest.raises(SingularSystemError):
        solve_linear_system([{0: 1}, {0: 1}], [[1], [2]], 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_linear_system_random_roundtrip(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    xs = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2)]
          for _ in range(n)]
    rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    rhs = [[sum((rows[i][j] * xs[j][k] for j in range(n)), Fraction(0)) for k in range(2)]
           for i in range(n)]
    try:
        sol = solve_linear_system(*integer_system([dict(enumerate(r)) for r in rows], rhs), n)
    except SingularSystemError:
        assert _determinant(rows) == 0  # only a singular matrix may be refused
        return
    assert sol == fraction_pairs(xs)
    assert all(type(num) is int and type(den) is int for row in sol for num, den in row)


def _reference_solve(rows, rhs, n):
    """The solver before Markowitz pivoting: shortest row, lowest column,
    every remaining row scanned at each pivot."""
    a = [{j: q for j, q in row.items() if q} for row in rows]
    b = [list(values) for values in rhs]
    live = list(range(len(a)))
    pivots = []
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
    x = [[]] * n
    for r, c in reversed(pivots):
        x[c] = [v - sum((q * x[j][k] for j, q in a[r].items() if j != c), Fraction(0))
                for k, v in enumerate(b[r])]
    return x


def _outcome(solver, rows, rhs, n):
    try:
        return solver([dict(row) for row in rows], rhs, n)
    except SingularSystemError:
        return SingularSystemError


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_linear_system_matches_reference_on_sparse_systems(seed):
    # Row i of the base system holds column perm[i] with a coefficient larger
    # than the rest of the row together, so the base is nonsingular; rows are
    # then dropped, repeated, combined, emptied or made inconsistent.
    rng = random.Random(seed)
    n, k = rng.randint(1, 25), rng.randint(1, 3)
    xs = [[Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(k)] for _ in range(n)]

    def small():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))

    def rhs_of(row):
        return [sum((q * xs[j][c] for j, q in row.items()), Fraction(0)) for c in range(k)]

    perm = rng.sample(range(n), n)
    rows = []
    for i in range(n):
        row = {j: small() for j in rng.sample(range(n), rng.randint(0, min(3, n - 1)))}
        row[perm[i]] = 1 + sum(abs(q) for j, q in row.items() if j != perm[i])
        if rng.random() < 0.2:
            row[rng.randrange(n)] = Fraction(0)  # an explicit zero entry
        rows.append(row)
    rhs = [rhs_of(row) for row in rows]
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(["drop", "repeat", "combine", "empty", "inconsistent"])
        if kind == "drop" and rows:
            del rows[(i := rng.randrange(len(rows)))], rhs[i]
        elif kind == "repeat" and rows:
            i, f = rng.randrange(len(rows)), small()
            rows.append({j: f * q for j, q in rows[i].items()})
            rhs.append([f * v for v in rhs[i]])
        elif kind == "combine" and len(rows) > 1:
            i, j = rng.sample(range(len(rows)), 2)
            f, g = small(), small()
            row = {c: f * rows[i].get(c, 0) + g * rows[j].get(c, 0)
                   for c in set(rows[i]) | set(rows[j])}
            rows.append(row)
            rhs.append([f * u + g * v for u, v in zip(rhs[i], rhs[j])])
        elif kind == "empty":
            rows.append({})
            rhs.append([Fraction(0)] * k)
        elif kind == "inconsistent" and rows:
            i = rng.randrange(len(rows))
            rows.append(dict(rows[i]))
            rhs.append([v + (c == 0) for c, v in enumerate(rhs[i])])
    order = rng.sample(range(len(rows)), len(rows))
    rows, rhs = integer_system([rows[i] for i in order], [rhs[i] for i in order])

    got = _outcome(solve_linear_system, rows, rhs, n)
    want = _outcome(_reference_solve, rows, rhs, n)
    assert got == (want if want is SingularSystemError else fraction_pairs(want))
    if got is not SingularSystemError:  # a drop may leave a perturbed row alone
        for row, values in zip(rows, rhs):
            assert [sum((q * Fraction(*got[j][c]) for j, q in row.items()), Fraction(0))
                    for c in range(k)] == values


def _determinant(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total
