"""Solvers for the nonatomic (continuum-of-users) charging game.

The aggregate state is the per-class start distribution.  Because the game
admits the strictly concave potential

    Phi(x) = - sum_t  integral_0^{x_t} f(exo_t + P v) dv

(x the occupancy mass), the Wardrop equilibria are exactly the maximizers of
Phi, and the occupancy at equilibrium is unique whenever the cost is strictly
increasing.  ``solve_equilibrium`` exploits this twice over:

* a Frank-Wolfe phase (towards-the-cheapest-start direction, exact line
  search by bisection on the directional derivative) provides global progress
  from any feasible point;
* an active-set Newton phase then solves the equal-cost optimality system on
  the current support to machine precision, dropping supports that go
  negative and admitting cheaper unsupported slots as needed.

The termination certificate is the Wardrop gap: the worst, over classes, of
(most expensive supported start) minus (cheapest available start).

For symmetric instances whose exogenous load satisfies the invariance
inequality checked by ``check_invariance_condition``, the equilibrium does
not depend on the cost function at all and solves a small banded linear
system; ``solve_symmetric_invariant`` builds it, solves it, and certifies the
solution is nonnegative by a pivot-free Gaussian elimination argument rather
than by inspection of one floating-point solve.

Social optima reuse the same machinery through marginal pricing: minimizing
total grid cost is the same program as equilibrating the game whose per-slot
cost is f'(load), so the optimum is computed by the equilibrium solver under
the derivative cost and then independently re-verified with the Wardrop
checker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .atomic import EfficiencyReport, resolve_budget
from .model import (
    GridCostFunction,
    MixedProfile,
    Monomial,
    NonatomicInstance,
    SquareRoot,
    action_set,
    grid_total_cost,
    potential_nonatomic,
)

DEFAULT_SOLVER_BUDGET = 10**6


class ConvergenceError(RuntimeError):
    """The solver ran out of budget before reaching the requested gap.

    ``profile`` and ``gap`` expose the best iterate found.
    """

    def __init__(self, message: str, profile: Optional[MixedProfile], gap: float):
        super().__init__(message)
        self.profile = profile
        self.gap = gap


class InvarianceConditionError(ValueError):
    """The exogenous load fails the invariant-equilibrium inequality."""


class PositivityCertificateError(RuntimeError):
    """The elimination certificate could not prove the solution nonnegative."""


@dataclass(frozen=True)
class SymmetricLinearSystem:
    """The banded system whose solution is the cost-independent equilibrium.

    Row ``t`` (one per consecutive start pair) encodes "the load repeats with
    period C": occupancy(t) - occupancy(t+C) must equal the exogenous load
    increment.  The last row normalizes total start mass to one.  ``pivots``
    and ``certified`` report the elimination-based nonnegativity certificate.
    """

    matrix: tuple[tuple[float, ...], ...]
    rhs: tuple[float, ...]
    solution: tuple[float, ...]
    pivots: tuple[float, ...]
    certified: bool


@dataclass(frozen=True)
class NonatomicEquilibrium:
    """A solved Wardrop equilibrium.

    ``class_costs[k][t-1]`` is the cost of starting at slot ``t`` for class
    ``k`` (infinite outside the action set); ``wardrop_gap`` is the
    termination certificate actually achieved.
    """

    profile: MixedProfile
    wardrop_gap: float
    potential_value: float
    class_costs: tuple[tuple[float, ...], ...]
    iterations: int
    cost_evaluations: int


# ---------------------------------------------------------------------------
# shared kernels
# ---------------------------------------------------------------------------


def _instance_arrays(instance: NonatomicInstance):
    exo = np.asarray(instance.exogenous, dtype=float)
    P = float(instance.power)
    weights = np.array([c.weight for c in instance.classes])
    durations = [c.duration for c in instance.classes]
    act_idx = [np.array(action_set(instance, k)) - 1 for k in range(instance.K)]
    return exo, P, weights, durations, act_idx


def _occupancy_from(Y: np.ndarray, weights, durations) -> np.ndarray:
    T = Y.shape[1]
    x = np.zeros(T)
    idx = np.arange(T)
    for k in range(Y.shape[0]):
        csum = np.concatenate(([0.0], np.cumsum(weights[k] * Y[k])))
        lo = np.maximum(idx - durations[k] + 1, 0)
        x += csum[idx + 1] - csum[lo]
    return x


def _class_cost_vectors(cost, loads, durations, act_idx, T):
    """Cost of each start slot per class; +inf outside the action set."""
    fv = np.concatenate(([0.0], np.cumsum(cost(loads))))
    out = []
    for k, idx in enumerate(act_idx):
        row = np.full(T, math.inf)
        row[idx] = fv[idx + durations[k]] - fv[idx]
        out.append(row)
    return out


def _wardrop_gap_of(costs, Y, support_eps: float) -> float:
    gap = 0.0
    for k, row in enumerate(costs):
        supported = Y[k] > support_eps
        if not supported.any():
            continue
        gap = max(gap, float(np.max(row[supported]) - np.min(row)))
    return gap


def _profile_from_matrix(instance: NonatomicInstance, Y: np.ndarray) -> MixedProfile:
    Yc = np.where(np.abs(Y) < 1e-15, 0.0, Y)
    Yc = np.maximum(Yc, 0.0)
    Yc /= Yc.sum(axis=1, keepdims=True)
    return MixedProfile(instance, tuple(tuple(float(v) for v in row) for row in Yc))


# ---------------------------------------------------------------------------
# Wardrop checking (independent of the solver kernels above on purpose:
# plain per-slot summation against the model-level load)
# ---------------------------------------------------------------------------


def is_wardrop_equilibrium(
    instance: NonatomicInstance,
    cost: GridCostFunction,
    profile: MixedProfile,
    tol: float = 1e-9,
    support_threshold: float = 1e-8,
) -> bool:
    """Check the equilibrium condition directly from the definition.

    Every start slot carrying more than ``support_threshold`` of its class
    must cost within ``tol`` of the cheapest start available to that class.
    """
    return wardrop_gap(instance, cost, profile, support_threshold) <= tol


def wardrop_gap(
    instance: NonatomicInstance,
    cost: GridCostFunction,
    profile: MixedProfile,
    support_threshold: float = 1e-8,
) -> float:
    """Worst excess of a supported start's cost over the class minimum."""
    loads = np.asarray(instance.exogenous, dtype=float) + instance.power * profile.occupancy_mass()
    worst = 0.0
    for k in range(instance.K):
        C = instance.classes[k].duration
        costs = {}
        for t in action_set(instance, k):
            costs[t] = float(sum(cost(loads[tau - 1]) for tau in range(t, t + C)))
        cheapest = min(costs.values())
        for t, sigma in enumerate(profile.distributions[k], start=1):
            if sigma > support_threshold:
                worst = max(worst, costs[t] - cheapest)
    return worst


# ---------------------------------------------------------------------------
# equilibrium solver
# ---------------------------------------------------------------------------


def _newton_equal_cost(evaluate, g, P, weights, durations, Y, supports):
    """Newton iterations on the equal-cost system restricted to the support.

    Unknowns are the supported start masses and one multiplier per class;
    equations ask every supported start to cost exactly the multiplier and
    every class to have unit mass.  Returns the multipliers on success.
    """
    K = Y.shape[0]
    offsets = np.cumsum([0] + [len(s) for s in supports])
    nvar = offsets[-1] + K
    lam = np.zeros(K)

    def residual_and_costs():
        loads, costs = evaluate(Y)
        r = np.empty(nvar)
        for k, sup in enumerate(supports):
            r[offsets[k] : offsets[k + 1]] = costs[k][sup] - lam[k]
            r[offsets[-1] + k] = Y[k, sup].sum() - 1.0
        return r, loads, costs

    r, loads, costs = residual_and_costs()
    for k in range(K):
        sup = supports[k]
        lam[k] = float(np.mean(costs[k][sup]))
        r[offsets[k] : offsets[k + 1]] = costs[k][sup] - lam[k]

    scale = max(1.0, max(float(np.max(np.abs(c[np.isfinite(c)]))) for c in costs))
    for _ in range(60):
        if not np.isfinite(r).all():
            return None
        if float(np.max(np.abs(r))) <= 1e-13 * scale:
            return lam
        gp = g.deriv(loads)
        if not np.isfinite(gp).all():
            return None
        gpre = np.concatenate(([0.0], np.cumsum(gp)))
        J = np.zeros((nvar, nvar))
        for k, sup in enumerate(supports):
            Ck = durations[k]
            for a, u in enumerate(sup):
                row = offsets[k] + a
                for k2, sup2 in enumerate(supports):
                    C2 = durations[k2]
                    w2 = P * weights[k2]
                    for b, u2 in enumerate(sup2):
                        lo = max(u, u2)
                        hi = min(u + Ck, u2 + C2)
                        if hi > lo:
                            J[row, offsets[k2] + b] = w2 * (gpre[hi] - gpre[lo])
                J[row, offsets[-1] + k] = -1.0
            J[offsets[-1] + k, offsets[k] : offsets[k + 1]] = 1.0
        step = np.linalg.lstsq(J, -r, rcond=None)[0]
        for k, sup in enumerate(supports):
            Y[k, sup] += step[offsets[k] : offsets[k + 1]]
            lam[k] += step[offsets[-1] + k]
        r, loads, costs = residual_and_costs()
    return None


def _polish(evaluate, g, P, weights, durations, act_idx, Y):
    """Active-set refinement: returns a polished copy of Y or None."""
    K, T = Y.shape
    work = Y.copy()
    supports = []
    for k in range(K):
        sup = act_idx[k][work[k, act_idx[k]] > 1e-10]
        if sup.size == 0:
            sup = np.array([act_idx[k][int(np.argmax(work[k, act_idx[k]]))]])
        supports.append(sup)
    for _ in range(8 * T):
        lam = _newton_equal_cost(evaluate, g, P, weights, durations, work, supports)
        if lam is None:
            return None
        changed = False
        for k in range(K):
            mask = work[k, supports[k]] < -1e-12
            if mask.any():
                drop = supports[k][int(np.argmin(work[k, supports[k]]))]
                work[k, drop] = 0.0
                supports[k] = supports[k][supports[k] != drop]
                if supports[k].size == 0:
                    return None
                changed = True
        if changed:
            continue
        work = np.maximum(work, 0.0)
        _, costs = evaluate(work)
        for k in range(K):
            outside = np.setdiff1d(act_idx[k], supports[k], assume_unique=True)
            if outside.size == 0:
                continue
            cheapest = outside[int(np.argmin(costs[k][outside]))]
            if costs[k][cheapest] < lam[k] - 1e-12 * max(1.0, abs(lam[k])):
                supports[k] = np.sort(np.append(supports[k], cheapest))
                changed = True
        if changed:
            continue
        return work
    return None


def _solve_potential(
    instance: NonatomicInstance,
    g: GridCostFunction,
    tol: float,
    budget: int,
    support_threshold: float,
):
    """Maximize the potential built on per-slot cost ``g``; core of both solvers."""
    exo, P, weights, durations, act_idx = _instance_arrays(instance)
    K, T = instance.K, instance.horizon.T
    Y = np.zeros((K, T))
    for k, idx in enumerate(act_idx):
        Y[k, idx] = 1.0 / idx.size

    evals = 0
    best = (math.inf, None)

    def evaluate(Ymat):
        # loads and per-class start costs: the one place that spends budget
        nonlocal evals
        if evals >= budget:
            profile = _profile_from_matrix(instance, best[1]) if best[1] is not None else None
            raise ConvergenceError(
                f"no equilibrium within gap {tol:g} after {evals} cost evaluations"
                f" (best gap {best[0]:.3e})",
                profile,
                best[0],
            )
        evals += 1
        loads = exo + P * _occupancy_from(Ymat, weights, durations)
        return loads, _class_cost_vectors(g, loads, durations, act_idx, T)

    def gap_and_costs(Ymat):
        nonlocal best
        _, costs = evaluate(Ymat)
        gap = _wardrop_gap_of(costs, Ymat, support_threshold)
        if gap < best[0]:
            best = (gap, Ymat.copy())
        return gap, costs

    iteration = 0
    next_polish = 0
    while True:
        gap, costs = gap_and_costs(Y)
        if gap <= tol:
            return Y, gap, costs, iteration, evals
        if iteration >= next_polish:
            polished = _polish(evaluate, g, P, weights, durations, act_idx, Y)
            if polished is not None:
                pgap, pcosts = gap_and_costs(polished)
                if pgap <= tol:
                    return polished, pgap, pcosts, iteration, evals
                if pgap < gap:
                    Y = polished
                    gap, costs = pgap, pcosts
            next_polish = iteration + 25

        # Frank-Wolfe step with exact line search
        V = np.zeros_like(Y)
        for k, idx in enumerate(act_idx):
            V[k, idx[int(np.argmin(costs[k][idx]))]] = 1.0
        D = V - Y

        def slope(gamma):
            _, cg = evaluate(Y + gamma * D)
            s = 0.0
            for k, idx in enumerate(act_idx):
                s += weights[k] * float(np.dot(cg[k][idx], D[k, idx]))
            return s

        if slope(1.0) <= 0.0:
            gamma = 1.0
        else:
            lo_g, hi_g = 0.0, 1.0
            for _ in range(70):
                mid = 0.5 * (lo_g + hi_g)
                if slope(mid) <= 0.0:
                    lo_g = mid
                else:
                    hi_g = mid
                if hi_g - lo_g <= 1e-16:
                    break
            gamma = lo_g
        Y = Y + gamma * D
        iteration += 1


def solve_equilibrium(
    instance: NonatomicInstance,
    cost: GridCostFunction,
    tol: float = 1e-9,
    budget: Optional[int] = None,
    support_threshold: float = 1e-8,
) -> NonatomicEquilibrium:
    """Wardrop equilibrium of the nonatomic game to gap ``tol``.

    Per-class pricing maps are irrelevant here: they are strictly increasing,
    so they preserve each class's cost ordering and hence the equilibria.
    ``budget`` caps cost-vector evaluations (env ``CHARGE_GAME_BUDGET``
    applies when unset); exceeding it raises ``ConvergenceError`` with the
    best iterate attached.
    """
    if not cost.satisfies_a1:
        raise ValueError("equilibrium solving needs a strictly increasing grid cost")
    budget = resolve_budget(budget, DEFAULT_SOLVER_BUDGET)
    Y, gap, costs, iters, evals = _solve_potential(instance, cost, tol, budget, support_threshold)
    profile = _profile_from_matrix(instance, Y)
    return NonatomicEquilibrium(
        profile=profile,
        wardrop_gap=gap,
        potential_value=potential_nonatomic(instance, cost, profile),
        class_costs=tuple(tuple(float(v) for v in row) for row in costs),
        iterations=iters,
        cost_evaluations=evals,
    )


# ---------------------------------------------------------------------------
# invariant equilibria via the banded linear system
# ---------------------------------------------------------------------------


def _require_symmetric_full_window(instance: NonatomicInstance) -> tuple[int, int]:
    if instance.K != 1:
        raise ValueError("invariant-equilibrium analysis needs a single class")
    a, d, C = instance.window(0)
    T = instance.horizon.T
    if (a, d) != (1, T):
        raise ValueError("invariant-equilibrium analysis needs a full-horizon window")
    return T, C


@dataclass(frozen=True)
class InvarianceCheck:
    """Sub-check report for the cost-independence sufficient condition.

    Truthiness is the conjunction of the three sub-checks, so plain
    ``if check_invariance_condition(inst):`` reads naturally; ``lhs`` is the
    inequality's left side in power-normalized units and ``quotient`` its
    ``q = (T - C + 1) // C``.
    """

    nondecreasing: bool
    convex: bool
    inequality_holds: bool
    lhs: float
    quotient: int

    def __bool__(self) -> bool:
        return bool(self.nondecreasing and self.convex and self.inequality_holds)


def check_invariance_condition(instance: NonatomicInstance) -> InvarianceCheck:
    """Sufficient condition for a cost-independent equilibrium.

    Three sub-checks on the exogenous load: non-decreasing, discretely
    convex, and with ``q`` the quotient of ``T - C + 1`` by ``C``

        q * e[T-1] - sum_{k=1..q} e[T-1-kC]  <  1,

    ``e`` being the exogenous load divided by the charging power and slots
    numbered from one.  The condition is sufficient, not tight: the
    elimination certificate in ``solve_symmetric_invariant`` is what finally
    vouches for the solution.  Raises ``ValueError`` when the geometry makes
    index ``T-1-qC`` fall off the horizon (only possible when ``C`` plus the
    remainder of that division is below 3).
    """
    T, C = _require_symmetric_full_window(instance)
    q = (T - C + 1) // C
    e = [v / instance.power for v in instance.exogenous] if instance.exogenous else [0.0] * T
    diffs = [b - a for a, b in zip(e, e[1:])]
    nondecreasing = all(d >= 0.0 for d in diffs)
    convex = all(d2 >= d1 for d1, d2 in zip(diffs, diffs[1:]))
    if q == 0:
        return InvarianceCheck(bool(nondecreasing), bool(convex), True, 0.0, q)
    if T < 2 or T - 1 - q * C < 1:
        raise ValueError(
            f"invariance condition is undefined for T={T}, C={C}: "
            f"index T-1-qC = {T - 1 - q * C} leaves the horizon"
        )
    lhs = q * e[T - 2] - sum(e[T - 2 - k * C] for k in range(1, q + 1))
    # bool()/float() strip numpy scalars when the exogenous load is an ndarray
    return InvarianceCheck(bool(nondecreasing), bool(convex), bool(lhs < 1.0), float(lhs), q)


def _eliminate_with_certificate(A: np.ndarray, b: np.ndarray):
    """Pivot-free Gaussian elimination in natural row order.

    Returns (pivots, certified): the certificate holds when every pivot is
    positive, the transformed right-hand side stays nonnegative and the
    remaining above-diagonal entries are nonpositive, which together make
    back-substitution produce a nonnegative solution.
    """
    n = A.shape[0]
    M = A.astype(float).copy()
    v = b.astype(float).copy()
    tol = 1e-11
    for t in range(n):
        pivot = M[t, t]
        if pivot <= tol:
            return tuple(np.diag(M)), False
        for j in range(t + 1, n):
            if M[j, t] != 0.0:
                ratio = M[j, t] / pivot
                M[j, t:] -= ratio * M[t, t:]
                v[j] -= ratio * v[t]
                M[j, t] = 0.0
    pivots = tuple(float(M[t, t]) for t in range(n))
    certified = bool(
        all(p > tol for p in pivots)
        and np.all(v >= -tol)
        and all(M[t, u] <= tol for t in range(n) for u in range(t + 1, n))
    )
    return pivots, certified


def build_symmetric_system(instance: NonatomicInstance) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the banded equal-load system (one row per consecutive start
    pair, plus the unit-mass row)."""
    T, C = _require_symmetric_full_window(instance)
    N = T - C + 1
    P = instance.power
    e = [v / P for v in instance.exogenous]
    A = np.zeros((N, N))
    b = np.zeros(N)
    for t in range(1, N):  # row for start pair (t, t+1), 1-based
        A[t - 1, max(1, t - C + 1) - 1 : t] = 1.0
        A[t - 1, t : min(t + C, N)] = -1.0
        b[t - 1] = e[t + C - 1] - e[t - 1]
    A[N - 1, :] = 1.0
    b[N - 1] = 1.0
    return A, b


def solve_symmetric_invariant(
    instance: NonatomicInstance,
) -> tuple[MixedProfile, SymmetricLinearSystem]:
    """Cost-independent equilibrium of a symmetric instance, via linear algebra.

    Requires the invariance inequality to hold (``InvarianceConditionError``
    otherwise).  The solve is certified nonnegative by elimination
    (``PositivityCertificateError`` if the certificate fails) and, as a
    postcondition, re-verified to be a Wardrop equilibrium under square,
    fourth-power and square-root costs at gap 1e-7.
    """
    T, C = _require_symmetric_full_window(instance)
    check = check_invariance_condition(instance)
    if not check:
        raise InvarianceConditionError(
            "exogenous load fails the cost-independence condition "
            f"(nondecreasing={check.nondecreasing}, convex={check.convex}, "
            f"inequality={check.inequality_holds})"
        )
    A, b = build_symmetric_system(instance)
    x = np.linalg.solve(A, b)
    residual = float(np.max(np.abs(A @ x - b)))
    if residual > 1e-9:
        raise RuntimeError(f"linear solve residual {residual:.3e} is suspiciously large")
    pivots, certified = _eliminate_with_certificate(A, b)
    if not certified:
        raise PositivityCertificateError(
            "elimination could not certify a nonnegative start-mass solution"
        )

    N = T - C + 1
    mass = np.zeros(T)
    mass[:N] = np.maximum(x, 0.0)
    mass /= mass.sum()
    profile = MixedProfile.from_start_mass(instance, mass)

    for probe in (Monomial(1, 2), Monomial(1, 4), SquareRoot()):
        gap = wardrop_gap(instance, probe, profile)
        if gap > 1e-7:
            raise RuntimeError(
                f"invariant solution fails the Wardrop postcondition under {probe!r}"
                f" (gap {gap:.3e})"
            )
    system = SymmetricLinearSystem(
        matrix=tuple(tuple(float(v) for v in row) for row in A),
        rhs=tuple(float(v) for v in b),
        solution=tuple(float(v) for v in x),
        pivots=pivots,
        certified=certified,
    )
    return profile, system


# ---------------------------------------------------------------------------
# social optimum and efficiency
# ---------------------------------------------------------------------------


def social_optimum_nonatomic(
    instance: NonatomicInstance,
    cost: GridCostFunction,
    tol: float = 1e-9,
    budget: Optional[int] = None,
) -> tuple[MixedProfile, float]:
    """Profile minimizing total grid cost, with that cost.

    Total cost is convex exactly when the grid cost satisfies A2, and its
    minimizers are the Wardrop equilibria under the marginal cost f'.  The
    optimum is therefore computed by the equilibrium solver under f' and
    independently re-checked against the Wardrop definition.
    """
    if not cost.satisfies_a2:
        raise ValueError("social optimum needs a convex (A2) grid cost")
    budget = resolve_budget(budget, DEFAULT_SOLVER_BUDGET)
    marginal = cost.derivative()
    Y, gap, _, _, _ = _solve_potential(instance, marginal, tol, budget, 1e-8)
    profile = _profile_from_matrix(instance, Y)
    if not is_wardrop_equilibrium(instance, marginal, profile, tol=max(1e-7, 10 * gap)):
        raise RuntimeError("optimum candidate fails the marginal-cost Wardrop check")
    return profile, grid_total_cost(instance, cost, profile)


def efficiency_nonatomic(
    instance: NonatomicInstance,
    cost: GridCostFunction,
    tol: float = 1e-9,
    budget: Optional[int] = None,
) -> EfficiencyReport:
    """Equilibrium total cost over optimal total cost (the equilibrium is
    unique up to occupancy, so worst = unique).  ``equilibria`` is None:
    there is no finite enumeration in the continuum game."""
    eq = solve_equilibrium(instance, cost, tol=tol, budget=budget)
    eq_cost = grid_total_cost(instance, cost, eq.profile)
    opt_profile, opt_cost = social_optimum_nonatomic(instance, cost, tol=tol, budget=budget)
    return EfficiencyReport(
        value=float(eq_cost) / float(opt_cost),
        exact=None,
        worst_equilibrium=eq.profile,
        worst_cost=eq_cost,
        optimum=opt_profile,
        optimum_cost=opt_cost,
        equilibria=None,
    )
