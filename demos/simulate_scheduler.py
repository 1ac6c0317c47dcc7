"""Execute a synthesized scheduler on the original model and compare the
empirical averages with the exact values.

The synthesized object is memoryless on the transformed model; on the
original model it needs a little memory, namely which error is being
repaired and the cost spent so far. Here we render that finite-memory form,
run seeded trials, and check the numbers line up with the exact analysis.
"""

import os
from fractions import Fraction

from resilient_mdp import FiniteMemoryScheduler, docs, simulate, synthesize

HERE = os.path.dirname(__file__)
m = docs.load_model(os.path.join(HERE, "models", "fig1.json"))
threshold = Fraction(4, 5)
cost_bound = 2

result = synthesize(m, threshold, cost_bound)
policy = FiniteMemoryScheduler(result.scheduler.mt, result.scheduler.mr)
mt = policy.mt
# ``mt.memory[i]`` is state i's label: (error, cost so far) for a repair copy,
# "pending" for a pending copy, None for a base state.
print("memory states (repair copies and pending copies):",
      ", ".join(mt.ids[i] for i in range(mt.n) if mt.memory[i] is not None))
print()

stats = simulate(m, policy, steps=2000, trials=50, seed=7,
                 cost_bound=cost_bound)
print(stats.render())
print()
print(f"exact long-run availability:   {result.availability} "
      f"(~{float(result.availability):.4f})")
print(f"empirical mean payoff per step: ~{float(stats.mean_payoff_per_step):.4f}")
print(f"required repair-success ratio:  {threshold} = {float(threshold):.2f}")
print(f"empirical within-budget ratio:  ~{float(stats.budget_fraction):.4f}")
print()
print("A short trace (state and action ids, repairs visible in the middle):")
trace = simulate(m, policy, steps=12, trials=1, seed=1,
                 cost_bound=cost_bound, keep_traces=True).traces[0]
print(" ", " ".join(trace))
