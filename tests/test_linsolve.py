"""The integer-row elimination and the chain analysis built on it, against
their plain ``Fraction`` references (``fraction_reference``)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resilient_mdp.linsolve as linsolve
from resilient_mdp import MrScheduler, induce_chain, transform, verify_resilient
from resilient_mdp.analyze import stationary_distribution
from resilient_mdp.graph import bottom_sccs
from resilient_mdp.linsolve import SingularSystemError, solve_linear_system

import fraction_reference
from conftest import random_model
from helpers import chain_rows
from test_docs_cli import chain_model, gamble_scheduler

KINDS = ("square", "overdetermined", "rank-deficient", "inconsistent")


def _value(rng: random.Random):
    """A nonzero coefficient, half the time an int and half a Fraction."""
    v = rng.choice([-5, -3, -2, -1, 1, 2, 3, 4, 7])
    return v if rng.random() < 0.5 else Fraction(v, rng.randint(1, 6))


def _system(rng: random.Random, kind: str):
    """A sparse n-unknown system with k right-hand sides built from a known
    solution, then altered to be of ``kind``. Row i of the base holds column
    perm[i] with a coefficient larger than the rest of the row together, so
    the base is nonsingular."""
    n, k = rng.randint(1, 20), rng.randint(1, 3)
    xs = [[_value(rng) if rng.random() < 0.8 else 0 for _ in range(k)] for _ in range(n)]

    def rhs_of(row):
        return [sum((q * xs[j][c] for j, q in row.items()), Fraction(0)) for c in range(k)]

    perm = rng.sample(range(n), n)
    rows = []
    for i in range(n):
        row = {j: _value(rng) for j in rng.sample(range(n), rng.randint(0, min(3, n - 1)))}
        row[perm[i]] = (1 + sum(abs(q) for j, q in row.items() if j != perm[i])) \
            * rng.choice([-1, 1])
        if n > 1 and rng.random() < 0.2:
            row[rng.choice([j for j in range(n) if j != perm[i]])] = 0  # an explicit zero
        rows.append(row)
    rhs = [rhs_of(row) for row in rows]
    if kind == "overdetermined":  # consistent extra rows: multiples, sums, an empty row
        for _ in range(rng.randint(1, 4)):
            i, j = rng.randrange(n), rng.randrange(n)
            f, g = _value(rng), _value(rng) if rng.random() < 0.5 else 0
            row = {c: f * rows[i].get(c, 0) + g * rows[j].get(c, 0)
                   for c in set(rows[i]) | set(rows[j])}
            rows.append(row)
            rhs.append(rhs_of(row))
        if rng.random() < 0.3:
            rows.append({})
            rhs.append([0] * k)
    elif kind == "rank-deficient":  # one base row replaced by a combination of others
        i = rng.randrange(n)
        others = [j for j in range(n) if j != i]
        row: dict = {}
        for j in rng.sample(others, min(len(others), rng.randint(0, 2))):
            f = _value(rng)
            for c, q in rows[j].items():
                row[c] = row.get(c, 0) + f * q
        rows[i], rhs[i] = row, rhs_of(row)
    elif kind == "inconsistent":  # a repeated row with one right-hand side moved
        i = rng.randrange(n)
        rows.append(dict(rows[i]))
        rhs.append([v + (c == 0) for c, v in enumerate(rhs[i])])
    order = rng.sample(range(len(rows)), len(rows))
    return [rows[i] for i in order], [rhs[i] for i in order], n, xs


def _outcome(solver, rows, rhs, n):
    try:
        return solver([dict(row) for row in rows], [list(v) for v in rhs], n)
    except SingularSystemError:
        return SingularSystemError


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from(KINDS))
def test_linear_system_matches_the_fraction_elimination(seed, kind):
    rows, rhs, n, xs = _system(random.Random(seed), kind)
    got = _outcome(solve_linear_system, rows, rhs, n)
    assert got == _outcome(fraction_reference.solve_linear_system, rows, rhs, n)
    if kind in ("square", "overdetermined"):
        assert got == xs
        assert all(type(v) is Fraction for row in got for v in row)
    else:
        assert got is SingularSystemError


def test_solutions_with_a_new_prime_in_every_denominator():
    # p_i·x_i = 1 and p_i·y_i - y_{i+1} = 1: every solved value brings a
    # factor that no value solved before it has.
    primes = [p for p in range(2, 300) if all(p % q for q in range(2, p))]
    n = len(primes)
    rhs = [[1]] * n
    x = solve_linear_system([{i: p} for i, p in enumerate(primes)], rhs, n)
    assert x == [[Fraction(1, p)] for p in primes]
    y = solve_linear_system([{i: p, i + 1: -1} if i + 1 < n else {i: p}
                             for i, p in enumerate(primes)], rhs, n)
    expected = [Fraction(1, primes[-1])]
    for p in reversed(primes[:-1]):
        expected.append((1 + expected[-1]) / p)
    assert y == [[v] for v in reversed(expected)]


class _CountingFraction(Fraction):
    """A ``Fraction`` that counts how many are made under its name."""

    made = 0

    def __new__(cls, *args, **kwargs):
        _CountingFraction.made += 1
        return super().__new__(cls, *args, **kwargs)


def _stationary_system(k: int, L: int, R: int):
    """The balance rows of the chain family's bottom SCC, as the verifier
    builds them: integer coefficients, one unknown fixed to 1."""
    mt = transform(chain_model(k, L), R)
    chain = induce_chain(mt, gamble_scheduler(mt), mt.initial)
    (comp,) = bottom_sccs(chain.succ_lists())
    col = {s: i for i, s in enumerate(comp)}
    rows = [{i: chain.dens[s]} for i, s in enumerate(comp)]
    for t in comp:
        for s, x in chain.nums[t].items():
            rows[col[s]][col[t]] = rows[col[s]].get(col[t], 0) - x
    rows[0] = {0: 1}
    return rows, [[1]] + [[0]] * (len(comp) - 1), len(comp)


def test_elimination_builds_fractions_only_for_the_solutions(monkeypatch):
    # Int and Fraction inputs alike: reading numerators and denominators
    # builds nothing, and the elimination and back-substitution work in
    # ints, so one solve makes at most one Fraction per solution value.
    rng = random.Random(5)
    systems = [_stationary_system(3, 3, 4), _stationary_system(2, 3, 12)]
    systems += [_system(rng, "square")[:3] for _ in range(20)]
    monkeypatch.setattr(linsolve, "Fraction", _CountingFraction)
    for rows, rhs, n in systems:
        _CountingFraction.made = 0
        x = solve_linear_system(rows, rhs, n)
        assert _CountingFraction.made <= n * len(rhs[0])
        assert x == fraction_reference.solve_linear_system(rows, rhs, n)


def test_solutions_are_fractions_also_when_integral():
    # Every value returned is a Fraction, integral ones and those of an
    # all-int system included, so no caller divides two ints into a float.
    rng = random.Random(7)
    systems = [_stationary_system(1, 3, 3)]
    systems += [_system(rng, kind)[:3] for kind in ("square", "overdetermined") for _ in range(40)]
    solved = [v for rows, rhs, n in systems for row in solve_linear_system(rows, rhs, n)
              for v in row]
    assert all(type(x) is Fraction for x in solved)
    assert any(x.denominator == 1 for x in solved)


def _random_scheduler(mt, rng: random.Random) -> MrScheduler:
    choices = {}
    for i in range(mt.n):
        acts = mt.enabled(i)
        if len(acts) > 1 and rng.random() < 0.5:
            p = Fraction(rng.randint(1, 5), 6)
            choices[i] = {acts[0]: p, acts[1]: 1 - p}
        else:
            choices[i] = {rng.choice(acts): Fraction(1)}
    return MrScheduler(choices)


def test_verify_matches_the_fraction_chain_analysis():
    # Random models and schedulers: reports agree byte for byte, and the
    # draws include chains with a transient initial state and several
    # bottom SCCs, where the reach probabilities are solved too.
    rng = random.Random(2024)
    shapes = set()
    for _ in range(250):
        mt = transform(random_model(rng, rng.random() < 0.3), rng.randint(0, 3))
        sched = _random_scheduler(mt, rng)
        threshold = rng.choice([Fraction(1, 3), Fraction(1, 2), Fraction(4, 5), Fraction(1)])
        got = verify_resilient(mt, sched, threshold).render(mt, threshold)
        want = fraction_reference.verify_resilient(mt, sched, threshold).render(mt, threshold)
        assert got == want
        chain = induce_chain(mt, sched, mt.initial)
        comps = bottom_sccs(chain.succ_lists())
        shapes.add((len(comps) > 1, not any(0 in comp for comp in comps)))
    assert (True, True) in shapes  # several BSCCs, initial state transient


@pytest.mark.parametrize("k, L, R", [(2, 3, 4), (3, 3, 4)])
def test_verify_matches_the_fraction_chain_analysis_on_the_chain_family(k, L, R):
    mt = transform(chain_model(k, L), R)
    sched = gamble_scheduler(mt)
    threshold = Fraction(4, 5)
    assert verify_resilient(mt, sched, threshold).render(mt, threshold) == \
        fraction_reference.verify_resilient(mt, sched, threshold).render(mt, threshold)
    chain = induce_chain(mt, sched, mt.initial)
    (comp,) = bottom_sccs(chain.succ_lists())
    states, _, rows = fraction_reference.induce_rows(mt, sched, mt.initial)
    assert chain.states == states and chain_rows(chain) == rows
    want = fraction_reference.stationary_distribution(rows, comp)
    assert stationary_distribution(chain, comp) == want
