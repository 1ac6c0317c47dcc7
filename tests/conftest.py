"""Shared fixtures: the running example model and a random-model generator.

The example is the five-state model with one error, one repair state offering
a safe zero-payoff action and a coin-flip action toward the payoff-1 state.
Random models are built so the repair-assumption holds by construction:
error and repair states only move to repair or operational states, unless
asked to let them move anywhere.
"""

import random
from fractions import Fraction

import pytest

from resilient_mdp import MdpWithRepair, MrScheduler, make_mdp
from resilient_mdp.transform import TransformedMdp


def fig1_model() -> MdpWithRepair:
    return make_mdp(
        states=[
            ("s_init", "op", 0),
            ("error", "err", 0),
            ("rep", "rep", 1),
            ("op1", "op", 0),
            ("op2", "op", 1),
        ],
        transitions=[
            ("s_init", "a", [("error", 1)]),
            ("error", "a", [("rep", 1)]),
            ("rep", "α", [("op1", 1)]),
            ("rep", "β", [("rep", Fraction(1, 2)), ("op2", Fraction(1, 2))]),
            ("op1", "a", [("op1", 1)]),
            ("op2", "a", [("op2", 1)]),
        ],
        initial="s_init",
    )


@pytest.fixture
def fig1() -> MdpWithRepair:
    return fig1_model()


def beta_always(mt: TransformedMdp) -> MrScheduler:
    """Play β wherever enabled, otherwise the single/first action."""
    choices = {}
    for i in range(mt.n):
        acts = mt.enabled(i)
        choices[i] = {("β" if "β" in acts else acts[0]): Fraction(1)}
    return MrScheduler(choices)


_PROB_SPLITS = [
    [Fraction(1)],
    [Fraction(1, 2), Fraction(1, 2)],
    [Fraction(1, 3), Fraction(2, 3)],
    [Fraction(1, 4), Fraction(3, 4)],
]


def random_model(rng: random.Random, any_target: bool = False) -> MdpWithRepair:
    """A small valid model: errors and repairs never move back into errors,
    so the repair assumption holds by construction. With ``any_target`` they
    may move to any state, so the assumption may fail."""
    n_op = rng.randint(1, 3)
    n_err = rng.randint(1, 2)
    n_rep = rng.randint(1, 2)
    states = []
    for k in range(n_op):
        states.append((f"o{k}", "op", rng.randint(0, 3)))
    for k in range(n_err):
        states.append((f"e{k}", "err", rng.randint(0, 2)))
    for k in range(n_rep):
        states.append((f"r{k}", "rep", rng.randint(0, 3)))
    all_ids = [s[0] for s in states]
    safe_ids = [s[0] for s in states if s[1] != "err"]

    transitions = []
    for sid, kind, _ in states:
        pool = all_ids if kind == "op" or any_target else safe_ids
        for a in range(rng.randint(1, 2)):
            split = rng.choice(_PROB_SPLITS)
            targets = rng.sample(pool, min(len(split), len(pool)))
            probs = split[:len(targets)]
            probs[-1] = 1 - sum(probs[:-1], Fraction(0))
            transitions.append((sid, f"a{a}", list(zip(targets, probs))))
    return make_mdp(states, transitions, "o0")
