"""Deterministic input generators for the benchmark.

Every generator returns JSON-ready model documents in the package's
``mdp-with-repair`` format and depends on nothing but its arguments, so the
same seed always gives byte-identical files. For the chain family the seed
only changes the listing order of states and transitions, which leaves the
model, and so the work done on it, unchanged; for the small batch it draws
the models themselves.
"""

from __future__ import annotations

import json
import random

MODEL_FORMAT = "mdp-with-repair"


def fig1_model() -> dict:
    """The running example: one error, one repair state with a safe action
    to a zero-payoff state and a coin flip toward the payoff-1 state."""
    def move(frm, act, *to):
        return {"from": frm, "action": act,
                "to": [{"target": t, "prob": p} for t, p in to]}
    return {"format": MODEL_FORMAT, "version": 1, "initial": "s_init",
            "states": [{"id": "s_init", "kind": "op", "reward": 0},
                       {"id": "error", "kind": "err", "reward": 0},
                       {"id": "rep", "kind": "rep", "reward": 1},
                       {"id": "op1", "kind": "op", "reward": 0},
                       {"id": "op2", "kind": "op", "reward": 1}],
            "transitions": [move("s_init", "a", ("error", "1")),
                            move("error", "a", ("rep", "1")),
                            move("rep", "α", ("op1", "1")),
                            move("rep", "β", ("rep", "1/2"), ("op2", "1/2")),
                            move("op1", "a", ("op1", "1")),
                            move("op2", "a", ("op2", "1"))]}


def chain_model(k: int, L: int) -> dict:
    """The chain family: one op state ``up``, a degraded op state ``deg``,
    k errors, each followed by an L-step repair chain offering ``safe``
    (advance; from the last step fall back to ``deg``) and ``gamble``
    (back to ``up`` or stay, 1/2 each)."""
    states = [{"id": "up", "kind": "op", "reward": 1},
              {"id": "deg", "kind": "op", "reward": 0}]
    states += [{"id": f"e_{i}", "kind": "err", "reward": 0} for i in range(1, k + 1)]
    states += [{"id": f"r_{i}_{j}", "kind": "rep", "reward": 1}
               for i in range(1, k + 1) for j in range(1, L + 1)]
    transitions = []
    for s in ("up", "deg"):
        to = [{"target": s, "prob": "1/2"}]
        to += [{"target": f"e_{i}", "prob": f"1/{2 * k}"} for i in range(1, k + 1)]
        transitions.append({"from": s, "action": "run", "to": to})
    for i in range(1, k + 1):
        transitions.append({"from": f"e_{i}", "action": "go",
                            "to": [{"target": f"r_{i}_1", "prob": "1"}]})
        for j in range(1, L + 1):
            r = f"r_{i}_{j}"
            nxt = f"r_{i}_{j + 1}" if j < L else "deg"
            transitions.append({"from": r, "action": "safe",
                                "to": [{"target": nxt, "prob": "1"}]})
            transitions.append({"from": r, "action": "gamble",
                                "to": [{"target": "up", "prob": "1/2"},
                                       {"target": r, "prob": "1/2"}]})
    return {"format": MODEL_FORMAT, "version": 1, "initial": "up",
            "states": states, "transitions": transitions}


def shuffled_listing(doc: dict, seed: int) -> dict:
    """Same model, states and transitions listed in a seed-chosen order.

    The package indexes transformed states by breadth-first discovery over
    sorted action ids and in-order successor lists, neither of which this
    touches, so the work done on the model does not depend on the seed."""
    rng = random.Random(f"listing:{seed}")
    out = dict(doc)
    out["states"] = rng.sample(doc["states"], len(doc["states"]))
    out["transitions"] = rng.sample(doc["transitions"], len(doc["transitions"]))
    return out


PROB_SPLITS = [["1"], ["1/2", "1/2"], ["1/3", "2/3"], ["1/4", "3/4"]]


def random_model(rng: random.Random, n_op: int, n_err: int, n_rep: int) -> dict:
    """A small valid model: error and repair states never move into errors,
    so the repair assumption holds by construction."""
    states = [(f"o{k}", "op", rng.randint(0, 3)) for k in range(n_op)]
    states += [(f"e{k}", "err", rng.randint(0, 2)) for k in range(n_err)]
    states += [(f"r{k}", "rep", rng.randint(0, 3)) for k in range(n_rep)]
    all_ids = [s[0] for s in states]
    safe_ids = [s[0] for s in states if s[1] != "err"]
    transitions = []
    for sid, kind, _ in states:
        pool = all_ids if kind == "op" else safe_ids
        for a in range(rng.randint(1, 2)):
            split = rng.choice(PROB_SPLITS)
            targets = rng.sample(pool, min(len(split), len(pool)))
            probs = split if len(targets) == len(split) else ["1"]
            transitions.append({"from": sid, "action": f"a{a}",
                                "to": [{"target": t, "prob": p}
                                       for t, p in zip(targets, probs)]})
    return {"format": MODEL_FORMAT, "version": 1, "initial": "o0",
            "states": [{"id": i, "kind": k, "reward": r} for i, k, r in states],
            "transitions": transitions}


def transformed_size(doc: dict, cost_bound: int) -> int:
    """States of the cost-tracking model reachable from the initial state.

    A copy of the package's transformation semantics, kept here so that the
    generated inputs never depend on the code being measured: repair copies
    (e, s, r) track the cost r spent since error e, pending copies stand for
    a repair past its budget, and an operational state ends either."""
    kind = {s["id"]: s["kind"] for s in doc["states"]}
    cost = {s["id"]: 0 if s["kind"] == "op" else s["reward"] for s in doc["states"]}
    succ: dict[str, list[str]] = {s: [] for s in kind}
    for t in doc["transitions"]:
        succ[t["from"]] += [x["target"] for x in t["to"]]

    def pending(target):
        return target if kind[target] != "rep" else ("!", target)

    def step(key, target):
        if isinstance(key, str):
            if kind[key] != "err":
                return target
            return (key, target, cost[key]) if cost[key] <= cost_bound else pending(target)
        if key[0] == "!":
            return pending(target)
        e, s, r = key
        if kind[s] == "op":
            return target
        return (e, target, r + cost[s]) if r + cost[s] <= cost_bound else pending(target)

    seen = {doc["initial"]}
    frontier = [doc["initial"]]
    while frontier:
        key = frontier.pop()
        base = key if isinstance(key, str) else key[1]
        for target in succ[base]:
            nxt = step(key, target)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen)


THRESHOLDS = ["1/2", "3/4", "9/10", "1"]
SIZES = range(2, 14)
PER_SIZE = 16


def small_batch(seed: int) -> list[tuple[dict, str, int]]:
    """PER_SIZE (model, threshold, cost bound) jobs for each transformed
    model size in SIZES, in a seed-shuffled order.

    The seed draws the state counts, rewards, transitions and cost bound
    (1 to 4) of each model; a draw whose transformed model has another size
    than the one wanted is replaced by the next draw. Fixing the sizes keeps
    the amount of work in a batch nearly the same from seed to seed.
    Thresholds cycle through THRESHOLDS, so the batch mixes positive and
    negative verdicts."""
    rng = random.Random(f"small-batch:{seed}")
    jobs = []
    for size in SIZES:
        for k in range(PER_SIZE):
            while True:
                doc = random_model(rng, rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 2))
                bound = rng.randint(1, 4)
                if transformed_size(doc, bound) == size:
                    break
            jobs.append((doc, THRESHOLDS[k % len(THRESHOLDS)], bound))
    rng.shuffle(jobs)
    return jobs


def dump(doc: dict) -> str:
    return json.dumps(doc, indent=1, ensure_ascii=False) + "\n"
