"""Exact quantitative analysis of scheduler-induced Markov chains.

Everything here is exact rational arithmetic, done in integers: each row of
an induced chain is kept as integer numerators over one denominator, every
linear system is built in ``int``s, and an input probability or threshold
is read through its numerator and denominator. No ``Fraction`` operator is
applied, and a ``Fraction`` is made only for a value a function returns
itself: an until-probability, a long-run mean, a report's values, a
simulated mean. Comparisons with the threshold cross-multiply. Values
passed between the layers stay integer: ``linsolve.solve_linear_system``
returns (numerator, denominator) pairs, and ``stationary_distribution``
returns integer masses over their sum.

Until-probabilities and reach probabilities solve one kind of system,
(I - P restricted to a state set) X = B, with the sparse exact solver of
``linsolve``; long-run averages combine those reach probabilities with the
stationary distributions of the bottom strongly connected components. The
bottom SCCs are found once per chain and serve the long-run averages and
the qualitative almost-sure check, which is graph analysis. Verification
solves each bottom SCC's stationary masses once and reads off them the
availability (``long_run_value``) and, for every error inside a bottom
SCC, its repair-success probability and weight mean: by renewal-reward,
since each visit to such an error starts one repair, whose outcome the
masses count (see ``verify_resilient``). Only errors outside every bottom
SCC need the until system. A seeded Monte Carlo simulator, whose draw
tables are integer cumulative sums, and a small brute-force optimum search
double as independent cross-checks for the LP pipeline.

Synthesis values its end components without this module: ``components``
reads each availability off the program's own recurrent frequencies. The
chain availability computed here is therefore an independent check of the
program's objective in ``synth.synthesize``, and the verdict of ``verify``.
"""

from __future__ import annotations

import itertools
import random
import sys
from array import array
from bisect import bisect_right
from collections import deque
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import NamedTuple

from .graph import bottom_sccs, predecessors, reachable_from
from .linsolve import solve_linear_system
from .model import ERROR, OPERATIONAL
from .sched import MrScheduler
from .transform import TransformedMdp, check_cost_bound, exact_threshold


# The values ``until_probability`` settles by graph analysis share these.
ZERO, ONE = Fraction(0), Fraction(1)


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

    @cached_property
    def bsccs(self) -> list[list[int]]:
        """The bottom SCCs, local-indexed and sorted by smallest member,
        found on first use and shared by every analysis of the chain."""
        return bottom_sccs(self.nums)


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
        for act, prob_a in sorted(scheduler.choices[s].items()):
            an, ad = prob_a.numerator, prob_a.denominator
            if not an:
                continue
            dist = host.actions[s].get(act)
            if dist is None:
                raise SchedulerDomainError(f"action {act!r} not enabled in state {host.ids[s]}")
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


def _solve_restricted(c: InducedChain, unknown: list[int],
                      rhs_of) -> dict[int, list[tuple[int, int]]]:
    """Solve (I - P restricted to ``unknown``) X = B exactly.

    ``unknown`` lists local states. Row s of the system is scaled by
    ``c.dens[s]``, so its coefficients are integers, and ``rhs_of(s)`` is
    B's row for state s times ``c.dens[s]``. Returns X's row per local
    state, as ``solve_linear_system``'s (numerator, denominator) pairs.
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


def _ratio_sum(terms: list[tuple[int, int]]) -> tuple[int, int]:
    """sum n/d over the (n, d) pairs of ``terms``, d > 0, as a numerator over
    the lcm of the d."""
    den = lcm(*(d for _, d in terms))
    return sum(n * (den // d) for n, d in terms), den


def until_probability(c: InducedChain, stay: set[int], target: set[int]) -> dict[int, Fraction]:
    """Exact Pr(stay U target) per state, host-indexed.

    States that cannot reach ``target`` through ``stay`` have probability 0 by
    graph analysis, and states in ``target`` 1; these share the constants
    ``ZERO`` and ``ONE``. The rest solve the standard linear system, and
    only their values are made as new ``Fraction``s.
    """
    loc_stay = {c.index[s] for s in stay if s in c.index}
    loc_target = {c.index[s] for s in target if s in c.index}
    # Backward search from target; only stay\target states continue a path.
    inner = loc_stay - loc_target
    succ = [row if i in inner else {} for i, row in enumerate(c.nums)]
    possible = reachable_from(predecessors(succ), loc_target)
    sol = _solve_restricted(c, sorted(possible - loc_target),
                            lambda s: [_step_mass(c, s, loc_target)])
    return {s: ONE if i in loc_target else Fraction(*sol[i][0]) if i in sol else ZERO
            for i, s in enumerate(c.states)}


def almost_sure_reach(c: InducedChain, target: set[int]) -> dict[int, bool]:
    """Pr(eventually target) = 1, per state, by BSCC analysis.

    With target states made absorbing, reaching target almost surely is
    equivalent to not being able to reach a bottom SCC disjoint from target.
    Those are the chain's own BSCCs that miss target: such a BSCC stays
    closed when target is made absorbing, and no other closed set is
    created. One backward search from them, through non-target states,
    finds every state that can reach one.
    """
    loc_target = {c.index[s] for s in target if s in c.index}
    bad = [v for comp in c.bsccs if loc_target.isdisjoint(comp) for v in comp]
    succ = [{} if i in loc_target else row for i, row in enumerate(c.nums)]
    doomed = reachable_from(predecessors(succ), bad)
    return {s: i not in doomed for i, s in enumerate(c.states)}


def stationary_distribution(c: InducedChain,
                            comp: list[int]) -> tuple[dict[int, int], int]:
    """Stationary distribution of an irreducible BSCC, local-indexed, as
    integer masses over their sum: pi(s) = masses[s] / total, with the
    masses positive and coprime, so the pair is unique.

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
    den = lcm(*(d for _, d in ys))
    mass = [c.dens[s] * y * (den // d) for s, (y, d) in zip(comp, ys)]
    g = gcd(*mass)
    masses = {s: m // g for s, m in zip(comp, mass)}
    return masses, sum(masses.values())


def _bscc_masses(c: InducedChain) -> list[tuple[list[int], tuple[int, int], dict[int, int], int]]:
    """(comp, reach, masses, total) per BSCC: its local states, the reach
    probability from the initial state as a (numerator, denominator) pair
    (one system, one right-hand side per BSCC, when the initial state is
    transient), and ``stationary_distribution``'s masses and total."""
    comps = c.bsccs
    members = [set(comp) for comp in comps]
    if any(0 in m for m in members):
        reach = [(int(0 in m), 1) for m in members]
    else:
        transient = [i for i in range(c.n) if not any(i in m for m in members)]
        reach = _solve_restricted(c, transient, lambda s: [_step_mass(c, s, m) for m in members])[0]
    return [(comp, r, *stationary_distribution(c, comp)) for comp, r in zip(comps, reach)]


def long_run_value(c: InducedChain, value_of, parts=None) -> Fraction:
    """Expected mean of ``value_of`` from the initial state: the sum over
    BSCCs of (reach probability) x (stationary mean).

    The BSCCs, their reach probabilities and their stationary distributions
    are computed here, or passed as ``parts``, the ``_bscc_masses(c)`` the
    caller holds. ``value_of`` returns ints or ``Fraction``s (or None for 0).
    The mean sums only the states where it is nonzero, in integers, and is
    made as one ``Fraction``.
    """
    terms = []
    for comp, (r, rd), masses, total in parts or _bscc_masses(c):
        num, den = _ratio_sum([(masses[i] * v.numerator, v.denominator)
                               for i in comp if (v := value_of(c.states[i]))])
        terms.append((r * num, rd * den * total))
    return Fraction(*_ratio_sum(terms))


class ErrorCheck(NamedTuple):
    """One reachable error's verdicts, and ``weight_mean``, the long-run mean
    of the error's row in ``components.repair_rows``."""

    res_probability: Fraction
    res_ok: bool
    asrep_ok: bool
    weight_mean: Fraction


class VerificationReport(NamedTuple):
    per_error: dict[int, ErrorCheck]
    availability: Fraction

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
                f"weight mean {ch.weight_mean}")
        lines.append("resilient: " + ("yes" if self.ok else "NO"))
        return "\n".join(lines)


def verify_resilient(mt: TransformedMdp, scheduler: MrScheduler,
                     threshold: Fraction) -> VerificationReport:
    """Check the repair-success and almost-sure-repair conditions exactly.

    ``scheduler`` must be memoryless on the transformed MDP; residual
    schedulers after any history then coincide with the scheduler itself, so
    per-state checks at each reachable error are sound and complete.

    An error e in a bottom SCC B is read off B's stationary masses m: e is
    entered only with no repair underway, so each visit starts one repair,
    which enters exactly one state of Op_e (the operational copies of e) if
    it succeeds within budget and none otherwise. So e's repair succeeds
    with probability m(Op_e)/m(e), and the mean of e's row in
    ``components.repair_rows`` (1 on Op_e, -p on e, p the threshold), its
    ``weight_mean``, is reach(B)·(m(Op_e) - p·m(e))/m(B). The until
    system is solved only for errors outside every bottom SCC, whose weight
    mean is 0. Almost-sure repair is graph analysis for every error: a
    model that breaks the repair assumption can hold a recurrent error that
    fails it.
    """
    threshold = exact_threshold(threshold)
    tn, td = threshold.numerator, threshold.denominator
    chain = induce_chain(mt, scheduler, mt.initial)
    op_states = {i for i in range(mt.n) if mt.is_op(i)}
    asrep_all = almost_sure_reach(chain, op_states)
    parts = _bscc_masses(chain)
    home = {i: part for part in parts for i in part[0]}  # BSCC state -> its part
    op_mass: dict[int, int] = {}  # base error -> m(Op_e), its operational copies' mass
    for i, (_, _, masses, _) in home.items():
        if mt.is_op(s := chain.states[i]) and isinstance(mem := mt.memory[s], tuple):
            op_mass[mem[0]] = op_mass.get(mem[0], 0) + masses[i]
    reached = [e for e in mt.errors() if e in chain.index]
    if any(chain.index[e] not in home for e in reached):
        # One solve for all transient errors: a path that stays among repair
        # copies and starts from a successor of e only visits copies of e, so
        # the operational copies it can reach are exactly Op_e.
        copies = {i for i, mem in enumerate(mt.memory) if isinstance(mem, tuple)}
        q = until_probability(chain, copies, copies & op_states)

    per_error: dict[int, ErrorCheck] = {}
    for e in reached:
        k = chain.index[e]
        if k in home:
            _, (r, rd), masses, total = home[k]
            num, den = op_mass.get(mt.back[e], 0), masses[k]
            mean = Fraction(r * (num * td - tn * den), rd * total * td)
        else:
            terms = [(x, q[chain.states[t]]) for t, x in chain.nums[k].items()]
            num, den = _ratio_sum([(x * p.numerator, p.denominator) for x, p in terms])
            den *= chain.dens[k]
            mean = ZERO
        per_error[e] = ErrorCheck(Fraction(num, den), num * td >= tn * den, asrep_all[e], mean)
    return VerificationReport(per_error, long_run_value(chain, mt.payoff, parts))


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
    for combo in itertools.product(*options):
        count += 1
        partial = base | dict(zip(choice_states, combo))
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
    reused. Probabilities are ints or ``Fraction``s. A step does only integer
    work, and the mean payoff is the one ``Fraction`` made, from the visit
    counts.

    Each step reads two successive ``getrandbits(64)`` draws, the action's
    and the successor's. A trial takes them ``_BLOCK`` steps at a time from
    one ``getrandbits(128 * n)`` call, read as little-endian 64-bit words:
    CPython fills that number with 32-bit words from the least significant
    end, so word i is the i-th ``getrandbits(64)`` draw, and the stream is
    the same as drawing one word at a time.
    """
    for name, count in (("steps", steps), ("trials", trials)):
        if count < 0:
            raise ValueError(f"{name} must be nonnegative")
    check_cost_bound(cost_bound)
    episodes = within = 0
    traces: list[list[str]] | None = [] if keep_traces else None
    nodes: dict = {}
    transitions: dict = {}

    def node(s: int, mem) -> _Node:
        found = nodes.get((s, mem))
        if found is None:
            found = nodes[s, mem] = _Node(m, s, mem)
        return found

    for trial in range(trials):
        draw = random.Random(f"{seed}:{trial}").getrandbits
        at = node(m.initial, policy.initial_memory)
        episode_cost = None
        trace = [m.ids[at.state]] if keep_traces else None
        for start in range(0, steps, _BLOCK):
            words = iter(_words(draw, min(_BLOCK, steps - start)))
            for r, q in zip(words, words):
                if at.op:  # no cost; ends a repair episode
                    at.visits += 1
                    if episode_cost is not None:
                        episodes += 1
                        if episode_cost <= cost_bound:
                            within += 1
                        episode_cost = None
                elif episode_cost is None:
                    if at.error:
                        episode_cost = at.cost
                else:
                    episode_cost += at.cost
                moves = at.moves
                if moves is None:
                    at.actions, at.bounds = _draw_table(policy.decide(at.state, at.memory).items())
                    at.split = _split(at.bounds)
                    moves = at.moves = [None] * len(at.actions)
                split = at.split  # ints 1 and 0 index lists faster than a bool
                i = bisect_right(at.bounds, r) if split is None else 1 if r >= split else 0
                move = moves[i]
                if move is None:
                    s, act = at.state, at.actions[i]
                    table = transitions.get((s, act))
                    if table is None:
                        if act not in m.actions[s]:
                            raise SchedulerDomainError(
                                f"action {act!r} not enabled in state {m.ids[s]}")
                        targets, bounds = _draw_table(m.actions[s][act])
                        table = transitions[s, act] = (targets, _split(bounds), bounds)
                    move = moves[i] = (*table, [None] * len(table[0]))
                targets, split, bounds, successors = move
                j = bisect_right(bounds, q) if split is None else 1 if q >= split else 0
                nxt = successors[j]
                if nxt is None:
                    t = targets[j]
                    nxt = successors[j] = node(
                        t, policy.update(at.state, at.memory, at.actions[i], t))
                if keep_traces:
                    trace.extend([at.actions[i], m.ids[nxt.state]])
                at = nxt
        if keep_traces:
            traces.append(trace)
    total_payoff = sum(nd.visits * m.payoff(nd.state) for nd in nodes.values())
    mean = Fraction(total_payoff, trials * steps) if trials and steps else None
    return SimulationStats(trials, steps, mean, episodes, within, traces)


_BLOCK = 1024  # steps per block of draws, 16 KiB of a trial's stream


def _words(draw, n: int) -> array:
    """The next 2n 64-bit draws of ``draw``, a ``getrandbits``, as one block."""
    block = array("Q", draw(128 * n).to_bytes(16 * n, "little"))
    if sys.byteorder == "big":
        block.byteswap()
    return block


class _Node:
    """A (state, memory) pair reached by ``simulate``, with all a step from
    it reads: the state's flags and repair cost, the visit count (kept for
    operational states, the only ones with a payoff), and the decision
    table, whose per-action moves hold a transition table and its successor
    nodes. The decision, each move and each successor are filled on first
    use, so a pair that only the last step reaches is never decided."""

    __slots__ = ("state", "memory", "error", "op", "cost", "visits",
                 "actions", "bounds", "split", "moves")

    def __init__(self, m, state: int, memory):
        self.state = state
        self.memory = memory
        self.error = m.kinds[state] == ERROR
        self.op = m.kinds[state] == OPERATIONAL
        self.cost = m.cost(state)
        self.visits = 0
        self.moves = None


def _draw_table(pairs) -> tuple[list, list[int]]:
    """Keys in ``str`` order with the integer bounds ceil(cumulative · 2**64).

    Probabilities of a repeated key are summed, and must be nonnegative so
    the bounds never decrease. A 64-bit draw r picks the first key whose
    bound exceeds r, i.e. the first key whose cumulative probability exceeds
    r / 2**64, exactly; the last bound is raised to at least 2**64 so that
    the last key takes every draw past a total below one. The cumulative
    probabilities are integer sums over the lcm of the denominators.
    """
    pairs = [(key, p.numerator, p.denominator) for key, p in pairs]
    den = lcm(*(d for _, _, d in pairs))
    mass: dict = {}
    for key, n, d in pairs:
        mass[key] = mass.get(key, 0) + n * (den // d)
    keys = sorted(mass, key=str)
    bounds = []
    acc = 0
    for key in keys:
        acc += mass[key]
        bounds.append(-((-acc << 64) // den))
    bounds[-1] = max(bounds[-1], 1 << 64)
    return keys, bounds


def _split(bounds: list[int]) -> int | None:
    """For a table of one or two keys, the draw from which on key 1 is
    picked (never, for one key, whose bound is at least 2**64 and so above
    every 64-bit draw); None for a longer table, read by bisection."""
    return bounds[0] if len(bounds) <= 2 else None
