#!/usr/bin/env python3
"""Tour of the finite-player game on a small valley-shaped load.

Three identical EVs pick a two-slot charging window on a six-slot horizon
whose exogenous load dips in the middle.  The script enumerates every Nash
equilibrium, runs best-response dynamics from a few random starts, and
reports how far the worst equilibrium sits from the social optimum.
"""

import random

from chargegame import (
    AtomicInstance,
    Monomial,
    StrategyProfile,
    action_set,
    best_response_dynamics,
    efficiency,
    enumerate_equilibria,
    grid_total_cost,
    potential_atomic,
)

T, I, C = 6, 3, 2
EXOGENOUS = (1, 2, 3, 2, 1, 3)
COST = Monomial(1, 2)

instance = AtomicInstance.symmetric(T, I, C, exogenous=EXOGENOUS)
print(f"{I} EVs, duration {C}, horizon {T}, exogenous load {EXOGENOUS}, cost L^2")
print()

eq_set = enumerate_equilibria(instance, COST)
print(f"exhaustive scan, {eq_set.examined} of {eq_set.space_size} configurations:")
for config in eq_set.equilibria:
    tc = grid_total_cost(instance, COST, config)
    print(f"  starts {config.start_counts}  occupancy {config.occupancy}  total cost {tc}")
print()

rng = random.Random(7)
acts = [list(action_set(instance, i)) for i in range(I)]
for run in range(3):
    start = StrategyProfile(tuple(rng.choice(a) for a in acts))
    final, trace = best_response_dynamics(instance, COST, start)
    print(
        f"dynamics from starts {start.starts}: {len(trace) - 1} moves, "
        f"potential {trace[0]} -> {trace[-1]}, settles at {final.starts}"
    )
    assert potential_atomic(instance, COST, final) == trace[-1]
print()

report = efficiency(instance, COST)
print(f"worst equilibrium cost {report.worst_cost}, optimum {report.optimum_cost}")
print(f"efficiency {report.value} (exact {report.exact})")
