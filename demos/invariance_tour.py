#!/usr/bin/env python3
"""When does the continuum equilibrium ignore the cost function?

Three exogenous load shapes on a 10..11-slot horizon:

  flat     a constant background load; the equilibrium is the same for
           square-root, square and eighth-power costs and solvable in closed
           form from a small banded linear system
  surge    an evening bump with users gone after slot 10; the equilibrium
           support stays {1, 6} but the split moves with the cost curve
  cliff    a convex increasing ramp so steep that no nonnegative start mass
           equalizes the windows; the solver refuses with a certificate

The paper's condition on the load is printed alongside, but the solver does
not ask it: the sign of the exact equal-load solution alone decides.
"""

import numpy as np

from chargegame import (
    Monomial,
    NonatomicInstance,
    PositivityCertificateError,
    SquareRoot,
    check_invariance_condition,
    solve_equilibrium,
    solve_symmetric_invariant,
    wardrop_gap,
)

COSTS = (SquareRoot(), Monomial(1, 2), Monomial(1, 8))

print("flat: T=10, C=3, constant exogenous load")
flat = NonatomicInstance.symmetric(10, 3, exogenous=(1.0,) * 10)
check = check_invariance_condition(flat)
print(f"  condition: nondecreasing={check.nondecreasing} convex={check.convex} "
      f"inequality lhs {check.lhs:.3f} < 1: {check.inequality_holds}")
invariant, masses = solve_symmetric_invariant(flat)
mass = np.asarray(invariant.start_mass())
print(f"  closed-form start mass ({', '.join(map(str, masses))}) on slots 1..{len(masses)}")
for cost in COSTS:
    eq = solve_equilibrium(flat, cost)
    drift = float(np.max(np.abs(np.asarray(eq.profile.start_mass()) - mass)))
    print(f"  {cost!r}: solver mass within {drift:.2e}, "
          f"closed-form gap {wardrop_gap(flat, cost, invariant):.2e}")
print()

print("surge: T=11, C=5, departure 10, evening bump")
surge = NonatomicInstance.symmetric(
    11, 5, exogenous=(0.1, 0.2, 0.3, 0.4, 0.5, 0.2, 0.2, 0.3, 0.2, 0.1, 0.2), departure=10
)
for cost in COSTS:
    eq = solve_equilibrium(surge, cost)
    mass = eq.profile.start_mass()
    support = [int(t) for t in np.flatnonzero(mass > 1e-8) + 1]
    print(f"  {cost!r}: support {support}, slot-1 mass {float(mass[0]):.6f}")
print("  the slot-1 mass moves with the cost, so no cost-independent equilibrium")
print()

print("cliff: T=10, C=3, steep convex ramp")
cliff = NonatomicInstance.symmetric(10, 3, exogenous=(0.0,) * 7 + (1.0, 3.0, 6.0))
check = check_invariance_condition(cliff)
print(f"  condition: nondecreasing={check.nondecreasing} convex={check.convex} "
      f"inequality lhs {check.lhs:.3f} < 1: {check.inequality_holds}")
try:
    solve_symmetric_invariant(cliff)
except PositivityCertificateError as err:
    print(f"  {type(err).__name__}: {err}")

# a gentler cliff passes the paper's condition and still has no
# nonnegative solution: the condition is not what the solver asks
sneaky = NonatomicInstance.symmetric(10, 3, exogenous=(0.0,) * 9 + (9.0,))
if check_invariance_condition(sneaky):
    try:
        solve_symmetric_invariant(sneaky)
    except PositivityCertificateError as err:
        print(f"  sneaky ramp passes the inequality but: {err}")
