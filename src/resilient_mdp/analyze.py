"""Exact quantitative analysis of scheduler-induced Markov chains.

Everything here is exact rational arithmetic, done in integers where it
can be: each row of an induced chain is kept as integer numerators over one
denominator, so every linear system is built in ``int``s and ``Fraction``s
are made only for the values returned. Until-probabilities and reach
probabilities solve one kind of system, (I - P restricted to a state set)
X = B, with the sparse exact solver of ``linsolve``; long-run averages
combine those reach probabilities with the stationary distributions of the
bottom strongly connected components, each computed once per chain; the
qualitative almost-sure checks are graph analysis. A seeded Monte Carlo
simulator and a small brute-force optimum search double as independent
cross-checks for the LP pipeline.

Synthesis values its end components without this module: ``components``
reads each availability off the program's own recurrent frequencies. The
chain availability computed here is therefore an independent check of the
program's objective in ``synth.synthesize``, and the verdict of ``verify``.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import deque
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .graph import bottom_sccs, reachable_from
from .linsolve import solve_linear_system
from .model import ERROR, OPERATIONAL
from .sched import MrScheduler
from .transform import TransformedMdp, build_weights


class SchedulerDomainError(ValueError):
    """The scheduler does not cover a reachable state."""


class InducedChain:
    """Markov chain induced by an MR-scheduler, restricted to reachable states.

    ``states`` are host indices in BFS discovery order (the initial state is
    local index 0), and ``index`` maps a host index to its local one. Row i
    is kept as integers: ``nums[i]`` maps local successor index t to the
    numerator of P(i, t) over the row's denominator ``dens[i]``, the lcm of
    the row's reduced denominators, so the linear systems below are built
    without ``Fraction`` work.
    """

    def __init__(self, states: list[int], nums: list[dict[int, int]], dens: list[int],
                 index: dict[int, int]):
        self.states = states
        self.nums = nums
        self.dens = dens
        self.index = index

    @property
    def n(self) -> int:
        return len(self.states)

    def succ_lists(self) -> list[list[int]]:
        return [sorted(num) for num in self.nums]


def induce_chain(host, scheduler: MrScheduler, init: int) -> InducedChain:
    """P(s, s') = sum_a sched(s)(a) * P(s, a, s') over states reachable from init.

    Each product sched(s)(a) * P(s, a, s') is kept as an integer numerator and
    denominator; a row's terms are brought to one denominator once."""
    states = [init]
    index = {init: 0}
    nums: list[dict[int, int]] = []
    dens: list[int] = []
    queue = deque([init])
    while queue:
        s = queue.popleft()
        if s not in scheduler.choices:
            raise SchedulerDomainError(f"scheduler undefined on reachable state {host.ids[s]}")
        terms = []
        for act, prob_a in sorted(scheduler.dist(s).items()):
            if prob_a == 0:
                continue
            dist = host.actions[s].get(act)
            if dist is None:
                raise SchedulerDomainError(f"action {act!r} not enabled in state {host.ids[s]}")
            an, ad = prob_a.numerator, prob_a.denominator
            for t, p in dist:
                if t not in index:
                    index[t] = len(states)
                    states.append(t)
                    queue.append(t)
                terms.append((index[t], an * p.numerator, ad * p.denominator))
        d = lcm(*(den for _, _, den in terms))
        row: dict[int, int] = {}
        for k, num, den in terms:
            num *= d // den
            row[k] = row[k] + num if k in row else num
        g = gcd(d, *row.values())  # a product's denominator need not be reduced
        if g > 1:
            d //= g
            row = {k: num // g for k, num in row.items()}
        nums.append(row)
        dens.append(d)
    return InducedChain(states, nums, dens, index)


def _solve_restricted(c: InducedChain, unknown: list[int], rhs_of) -> dict[int, list[Fraction]]:
    """Solve (I - P restricted to ``unknown``) X = B exactly.

    ``unknown`` lists local states. Row s of the system is scaled by
    ``c.dens[s]``, so its coefficients are integers, and ``rhs_of(s)`` is
    B's row for state s times ``c.dens[s]``. Returns X's row per local state.
    """
    col = {s: k for k, s in enumerate(unknown)}
    rows = []
    for s in unknown:
        row = {col[s]: c.dens[s]}
        for t, p in c.nums[s].items():
            if t in col:
                row[col[t]] = row.get(col[t], 0) - p
        rows.append(row)
    return dict(zip(unknown, solve_linear_system(rows, [rhs_of(s) for s in unknown],
                                                 len(unknown))))


def _step_mass(c: InducedChain, s: int, members) -> int:
    """``c.dens[s]`` times the probability of moving from local state s into
    ``members`` in one step."""
    return sum(p for t, p in c.nums[s].items() if t in members)


def until_probability(c: InducedChain, stay: set[int], target: set[int]) -> dict[int, Fraction]:
    """Exact Pr(stay U target) per state, host-indexed.

    States that cannot reach ``target`` through ``stay`` have probability 0 by
    graph analysis; the rest solve the standard linear system.
    """
    loc_stay = {c.index[s] for s in stay if s in c.index}
    loc_target = {c.index[s] for s in target if s in c.index}
    # Backward search from target; only stay\target states continue a path.
    pred: list[list[int]] = [[] for _ in range(c.n)]
    for i in loc_stay - loc_target:
        for j in c.nums[i]:
            pred[j].append(i)
    possible = reachable_from(pred, loc_target)
    sol = _solve_restricted(c, sorted(possible - loc_target),
                            lambda s: [_step_mass(c, s, loc_target)])
    return {s: Fraction(1) if i in loc_target else sol[i][0] if i in sol else Fraction(0)
            for i, s in enumerate(c.states)}


def almost_sure_reach(c: InducedChain, target: set[int]) -> dict[int, bool]:
    """Pr(eventually target) = 1, per state, by BSCC analysis.

    With target states made absorbing, reaching target almost surely is
    equivalent to not being able to reach a bottom SCC disjoint from target;
    one backward search from those BSCCs finds every state that can.
    """
    loc_target = {c.index[s] for s in target if s in c.index}
    succ = [[] if i in loc_target else sorted(row) for i, row in enumerate(c.nums)]
    bad = [v for comp in bottom_sccs(succ) if loc_target.isdisjoint(comp) for v in comp]
    pred: list[list[int]] = [[] for _ in range(c.n)]
    for i, row in enumerate(succ):
        for j in row:
            pred[j].append(i)
    doomed = reachable_from(pred, bad)
    return {s: i not in doomed for i, s in enumerate(c.states)}


def stationary_distribution(c: InducedChain, comp: list[int]) -> dict[int, Fraction]:
    """Stationary distribution of an irreducible BSCC, local-indexed.

    The unknowns are y_t = pi(t) / d_t with d_t = ``c.dens[t]``, so the
    balance rows d_s·y_s - sum_t y_t·nums[t][s] = 0 are integer. They sum to
    zero, so one of them is redundant. The longest, whose elimination would
    fill the most, is replaced by y_s = 1, and pi is y scaled to sum 1 at
    the end, with no dense sum row to eliminate.
    """
    col = {s: k for k, s in enumerate(comp)}
    rows = [{k: c.dens[s]} for k, s in enumerate(comp)]
    for t in comp:
        for s, p in c.nums[t].items():
            rows[col[s]][col[t]] = rows[col[s]].get(col[t], 0) - p
    fixed = max(range(len(comp)), key=lambda k: len(rows[k]))
    rows[fixed] = {fixed: 1}
    rhs = [[0]] * len(comp)
    rhs[fixed] = [1]
    ys = [y for (y,) in solve_linear_system(rows, rhs, len(comp))]
    den = lcm(*(y.denominator for y in ys))
    mass = [c.dens[s] * y.numerator * (den // y.denominator) for s, y in zip(comp, ys)]
    total = sum(mass)
    return {s: Fraction(m, total) for s, m in zip(comp, mass)}


def long_run_values(c: InducedChain, value_fns) -> list[Fraction]:
    """Expected mean of each value function from the initial state: the sum
    over BSCCs of (reach probability) x (stationary mean).

    The BSCCs, their reach probabilities (one system, one right-hand side per
    BSCC) and their stationary distributions are computed once for all
    functions. Each mean sums only the states where its function is nonzero,
    in integers over one denominator.
    """
    comps = bottom_sccs(c.succ_lists())
    members = [set(comp) for comp in comps]
    if any(0 in m for m in members):
        reach = [Fraction(0 in m) for m in members]
    else:
        transient = [i for i in range(c.n) if not any(i in m for m in members)]
        reach = _solve_restricted(c, transient, lambda s: [_step_mass(c, s, m) for m in members])[0]
    pis = [stationary_distribution(c, comp) for comp in comps]
    return [sum((r * _mean(pi, [(i, v) for i in comp if (v := f(c.states[i]))])
                 for r, comp, pi in zip(reach, comps, pis)), Fraction(0))
            for f in value_fns]


def _mean(pi: dict[int, Fraction], values: list) -> Fraction:
    """sum pi[i]·v over the pairs (i, v) of ``values``, made as one Fraction."""
    terms = [(pi[i].numerator * v.numerator, pi[i].denominator * v.denominator)
             for i, v in values]
    den = lcm(*(d for _, d in terms))
    return Fraction(sum(n * (den // d) for n, d in terms), den)


def long_run_value(c: InducedChain, value_of) -> Fraction:
    """Expected mean of value_of from the initial state."""
    return long_run_values(c, [value_of])[0]


def _lookup(weight: dict[int, Fraction]):
    return lambda s: weight.get(s, 0)


class ErrorCheck(NamedTuple):
    res_probability: Fraction
    res_ok: bool
    asrep_ok: bool


class VerificationReport(NamedTuple):
    per_error: dict[int, ErrorCheck]
    availability: Fraction
    mp: dict[int, Fraction]

    @property
    def ok(self) -> bool:
        return all(ch.res_ok and ch.asrep_ok for ch in self.per_error.values())

    def render(self, mt: TransformedMdp, threshold: Fraction) -> str:
        lines = [f"availability: {self.availability} (~{float(self.availability):.6g})"]
        for e in sorted(self.per_error):
            ch = self.per_error[e]
            lines.append(
                f"error {mt.ids[e]}: repair-success {ch.res_probability} "
                f"(~{float(ch.res_probability):.6g}) "
                f"{'>=' if ch.res_ok else '<'} {threshold}; "
                f"almost-sure repair: {'yes' if ch.asrep_ok else 'NO'}; "
                f"weight mean {self.mp.get(e, Fraction(0))}")
        lines.append("resilient: " + ("yes" if self.ok else "NO"))
        return "\n".join(lines)


def verify_resilient(mt: TransformedMdp, scheduler: MrScheduler,
                     threshold: Fraction) -> VerificationReport:
    """Check the repair-success and almost-sure-repair conditions exactly.

    ``scheduler`` must be memoryless on the transformed MDP; residual
    schedulers after any history then coincide with the scheduler itself, so
    per-state checks at each reachable error are sound and complete.
    """
    chain = induce_chain(mt, scheduler, mt.initial)
    triples = {i for i in range(mt.n) if mt.triple[i] is not None}
    op_states = {i for i in range(mt.n) if mt.is_op(i)}
    weights = build_weights(mt, threshold)

    per_error: dict[int, ErrorCheck] = {}
    asrep_all = almost_sure_reach(chain, op_states)
    # One solve for all errors: a path that stays among repair copies and
    # starts from a successor of e only visits copies of e, so the operational
    # copies it can reach are exactly Op_e.
    q = until_probability(chain, triples, triples & op_states)
    for e in mt.errors():
        if e not in chain.index:
            continue  # unreachable under this scheduler; nothing to check
        k = chain.index[e]
        res = sum((x * q[chain.states[t]] for t, x in chain.nums[k].items()),
                  Fraction(0)) / chain.dens[k]
        per_error[e] = ErrorCheck(res, res >= threshold, asrep_all[e])

    avail, *means = long_run_values(chain, [mt.payoff] + [_lookup(weights[e]) for e in per_error])
    return VerificationReport(per_error, avail, dict(zip(per_error, means)))


class BruteForceResult(NamedTuple):
    best_availability: Fraction | None
    witness: MrScheduler | None
    candidates: int


def brute_force_optimum(mt: TransformedMdp, threshold: Fraction,
                        grid_denominator: int = 1,
                        max_states: int = 14,
                        max_choice_states: int = 4) -> BruteForceResult:
    """Independent oracle: enumerate memoryless schedulers on the transformed MDP.

    All deterministic choices are covered; at states with two actions, the
    first action additionally ranges over probabilities k/grid_denominator.
    Only small instances are accepted, the enumeration is exponential.
    """
    if mt.n > max_states:
        raise ValueError(f"oracle limited to {max_states} states, got {mt.n}")
    choice_states = [i for i in range(mt.n) if len(mt.actions[i]) > 1]
    if len(choice_states) > max_choice_states:
        raise ValueError("oracle limited to few nondeterministic states")
    if any(len(mt.actions[i]) > 2 for i in choice_states):
        raise ValueError("oracle limited to two actions per state")

    base = {i: {mt.enabled(i)[0]: Fraction(1)} for i in range(mt.n) if i not in choice_states}
    options: list[list[dict[str, Fraction]]] = []
    for i in choice_states:
        a, b = mt.enabled(i)
        probs = sorted({Fraction(k, grid_denominator) for k in range(grid_denominator + 1)})
        options.append([{a: p, b: 1 - p} for p in probs])

    best: Fraction | None = None
    witness = None
    count = 0
    stack = [(0, dict(base))]
    while stack:
        k, partial = stack.pop()
        if k < len(choice_states):
            for choice in reversed(options[k]):
                nxt = dict(partial)
                nxt[choice_states[k]] = choice
                stack.append((k + 1, nxt))
            continue
        count += 1
        report = verify_resilient(mt, MrScheduler(partial), threshold)
        if report.ok and (best is None or report.availability > best):
            best = report.availability
            witness = MrScheduler(partial)
    return BruteForceResult(best, witness, count)


class SimulationStats(NamedTuple):
    trials: int
    steps: int
    mean_payoff_per_step: Fraction | None
    repair_episodes: int
    episodes_within_budget: int
    traces: list[list[str]] | None

    @property
    def budget_fraction(self) -> Fraction | None:
        if self.repair_episodes == 0:
            return None
        return Fraction(self.episodes_within_budget, self.repair_episodes)

    def render(self) -> str:
        if self.mean_payoff_per_step is None:
            return "no trials"
        lines = [
            f"trials: {self.trials}, steps per trial: {self.steps}",
            f"mean payoff per step: {self.mean_payoff_per_step} "
            f"(~{float(self.mean_payoff_per_step):.6g})",
            f"repair episodes: {self.repair_episodes}, "
            f"completed within budget: {self.episodes_within_budget}"
            + (f" (fraction {float(self.budget_fraction):.6g})"
               if self.repair_episodes else ""),
        ]
        return "\n".join(lines)


def simulate(m, policy, steps: int, trials: int, seed: int,
             cost_bound: int, keep_traces: bool = False) -> SimulationStats:
    """Seeded, reproducible trials of a finite-memory policy on the base MDP.

    Trial i draws from a stream derived from (seed, i), so results do not
    depend on execution order. ``policy`` must provide ``initial_memory``,
    ``decide(state, memory) -> {action: prob}`` and
    ``update(state, memory, action, next_state) -> memory``. Both must be pure
    functions of their arguments: within one call each decision, transition
    and memory update is computed once, as a draw table or successor, and
    reused. A step does only integer work; the mean payoff is formed once,
    from the visit counts.
    """
    visits = [0] * m.n
    is_error = [kind == ERROR for kind in m.kinds]
    is_op = [kind == OPERATIONAL for kind in m.kinds]
    cost = [m.cost(s) for s in range(m.n)]
    episodes = within = 0
    traces: list[list[str]] | None = [] if keep_traces else None
    nodes: dict = {}
    transitions: dict = {}

    def node(s: int, mem) -> _Node:
        found = nodes.get((s, mem))
        if found is None:
            found = nodes[s, mem] = _Node(s, mem)
        return found

    for trial in range(trials):
        draw = random.Random(f"{seed}:{trial}").getrandbits
        at = node(m.initial, policy.initial_memory)
        episode_cost = None
        trace = [m.ids[at.state]] if keep_traces else None
        for _ in range(steps):
            s = at.state
            visits[s] += 1
            if episode_cost is None:
                if is_error[s]:
                    episode_cost = cost[s]
            else:
                episode_cost += cost[s]
                if is_op[s]:
                    episodes += 1
                    if episode_cost <= cost_bound:
                        within += 1
                    episode_cost = None
            if at.bounds is None:
                at.actions, at.bounds = _draw_table(policy.decide(s, at.memory).items())
                at.moves = [None] * len(at.actions)
            i = bisect_right(at.bounds, draw(64))
            act = at.actions[i]
            move = at.moves[i]
            if move is None:
                table = transitions.get((s, act))
                if table is None:
                    if act not in m.actions[s]:
                        raise SchedulerDomainError(
                            f"action {act!r} not enabled in state {m.ids[s]}")
                    table = transitions[s, act] = _draw_table(m.actions[s][act])
                move = at.moves[i] = (*table, [None] * len(table[0]))
            targets, bounds, successors = move
            j = bisect_right(bounds, draw(64))
            nxt = successors[j]
            if nxt is None:
                t = targets[j]
                nxt = successors[j] = node(t, policy.update(s, at.memory, act, t))
            if keep_traces:
                trace.extend([act, m.ids[nxt.state]])
            at = nxt
        if keep_traces:
            traces.append(trace)
    total_payoff = sum(visits[s] * m.payoff(s) for s in range(m.n))
    mean = Fraction(total_payoff, trials * steps) if trials and steps else None
    return SimulationStats(trials, steps, mean, episodes, within, traces)


class _Node:
    """A (state, memory) pair reached by ``simulate``. Its decision table and
    per-action successors are filled on first use, so a pair that only the
    last step reaches is never decided."""

    __slots__ = ("state", "memory", "actions", "bounds", "moves")

    def __init__(self, state: int, memory):
        self.state = state
        self.memory = memory
        self.bounds = None


def _draw_table(pairs) -> tuple[list, list[int]]:
    """Keys in ``str`` order with the integer bounds ceil(cumulative · 2**64).

    Probabilities of a repeated key are summed, and must be nonnegative so
    the bounds never decrease. A 64-bit draw r picks the first key whose
    bound exceeds r, i.e. the first key whose cumulative probability exceeds
    r / 2**64, exactly; the last bound is raised to at least 2**64 so that
    the last key takes every draw past a total below one.
    """
    dist: dict = {}
    for key, p in pairs:
        dist[key] = dist.get(key, 0) + Fraction(p)
    keys = sorted(dist, key=str)
    bounds = []
    acc = Fraction(0)
    for key in keys:
        acc += dist[key]
        bounds.append(-((-acc.numerator << 64) // acc.denominator))
    bounds[-1] = max(bounds[-1], 1 << 64)
    return keys, bounds
