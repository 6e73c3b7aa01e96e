"""Solvers for the nonatomic (continuum-of-users) charging game.

The aggregate state is the per-class start distribution.  Because the game
admits the strictly concave potential

    Phi(x) = - sum_t  integral_0^{x_t} f(exo_t + P v) dv

(x the occupancy mass), the Wardrop equilibria are exactly the maximizers of
Phi, and the occupancy at equilibrium is unique whenever the cost is strictly
increasing.  ``solve_equilibrium`` finds them with one active-set Newton
method started from the uniform profile: each step linearizes the
equal-cost optimality system on the active set (every active start of a
class costs the same, every class keeps unit mass).  A full step that would
make masses negative is projected: every blocking start is clipped to zero
and leaves the active set at once, and the projection is kept when it
strictly raises Phi, the merit function (projected Newton, Bertsekas 1982).
Otherwise the step is shortened to the boundary and drops the first blocking
start only.  Once the system holds, the cheapest inactive start of each
class enters if it undercuts the class's active starts.

The termination certificate is the Wardrop gap: the worst, over classes, of
(most expensive supported start) minus (cheapest available start).

For symmetric instances whose exogenous load satisfies the invariance
inequality checked by ``check_invariance_condition``, the equilibrium does
not depend on the cost function at all and solves a small banded linear
system; ``solve_symmetric_invariant`` builds it and solves it by one
pivot-free Gaussian elimination whose signs certify the solution
nonnegative, rather than by inspection of a floating-point solve.

Social optima reuse the same machinery through marginal pricing: minimizing
total grid cost is the same program as equilibrating the game whose per-slot
cost is f'(load), so the optimum is computed by the equilibrium solver under
the derivative cost and then independently re-verified with the Wardrop
checker.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
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
# a start slot carrying more than this share of its class counts as used
SUPPORT_THRESHOLD = 1e-8


def check_tol(tol) -> float:
    """``tol`` itself when it is a finite number above 0 (not a bool);
    ``ValueError`` otherwise."""
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < math.inf:
        raise ValueError(f"tol must be a finite number above 0, got {tol!r}")
    return tol


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
    termination certificate actually achieved.  ``iterations`` counts the
    solver's Newton steps and ``cost_evaluations`` its cost-vector
    evaluations, the quantity ``budget`` caps.

    ``stats`` counts ``steps``, the ``projected`` steps kept and the
    ``fallbacks`` shortened instead, the starts that ``drops`` and
    ``entries`` move out of and into the active set, and ``evals``.  It
    times the Jacobian assembly (``jacobian_s``), its ``lstsq`` solve
    (``solve_s``), cost and potential evaluations (``cost_s``) and the
    gap and balance checks (``check_s``); never compared.
    """

    profile: MixedProfile
    wardrop_gap: float
    potential_value: float
    class_costs: tuple[tuple[float, ...], ...]
    iterations: int
    cost_evaluations: int
    stats: dict = field(default_factory=dict, compare=False, repr=False)


# ---------------------------------------------------------------------------
# shared kernels
# ---------------------------------------------------------------------------


def _wardrop_gap_of(costs: np.ndarray, Y: np.ndarray) -> float:
    priciest = np.where(Y > SUPPORT_THRESHOLD, costs, -math.inf).max(axis=1)
    return max(0.0, float(np.max(priciest - costs.min(axis=1))))


def _profile_from_matrix(instance: NonatomicInstance, Y: np.ndarray) -> MixedProfile:
    return MixedProfile(instance, tuple(tuple(float(v) for v in row) for row in Y))


# ---------------------------------------------------------------------------
# Wardrop checking (independent of the solver kernels above on purpose:
# plain per-slot summation against the model-level load)
# ---------------------------------------------------------------------------


def is_wardrop_equilibrium(
    instance: NonatomicInstance,
    cost: GridCostFunction,
    profile: MixedProfile,
    tol: float = 1e-9,
) -> bool:
    """Check the equilibrium condition directly from the definition.

    Every start slot carrying more than ``SUPPORT_THRESHOLD`` of its class
    must cost within ``tol`` of the cheapest start available to that class.
    """
    return wardrop_gap(instance, cost, profile) <= tol


def wardrop_gap(
    instance: NonatomicInstance,
    cost: GridCostFunction,
    profile: MixedProfile,
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
            if sigma > SUPPORT_THRESHOLD:
                worst = max(worst, costs[t] - cheapest)
    return worst


# ---------------------------------------------------------------------------
# equilibrium solver
# ---------------------------------------------------------------------------


def _solve_potential(
    instance: NonatomicInstance,
    g: GridCostFunction,
    tol: float,
    budget: int,
):
    """Maximize the potential built on per-slot cost ``g``; core of both solvers.

    Active-set Newton from the uniform profile.  Each pass evaluates the
    costs of the row-normalised masses, the matrix that is certified and
    returned.  Until every active start of a class costs the same to float
    resolution, it takes one Newton step.  A full step that would make masses
    negative is first projected: those masses are clipped to zero, their
    starts leave the active set together, and each class is renormalised.
    The projection is kept only if it strictly raises the potential (one
    cost evaluation); otherwise the step is shortened so that no mass turns
    negative and only the first blocking start leaves.  Once the system
    holds, each class's cheapest inactive start enters if it undercuts the
    class's active ones.  Returns the matrix, its gap, its costs and the
    ``stats`` counters and phase times.

    The window-incidence matrix ``W``, built once, has one row per allowed
    (class, start) pair in ``np.nonzero`` order and a 1 in each slot that
    start charges in; it gives the loads, the start costs and Newton rows.
    """
    exo = np.asarray(instance.exogenous, dtype=float)
    P = float(instance.power)
    weights = np.array([c.weight for c in instance.classes])
    K, T = instance.K, instance.horizon.T
    allowed = np.array([[t in action_set(instance, k) for t in range(1, T + 1)] for k in range(K)])
    owner, starts = np.nonzero(allowed)
    ends = starts + np.array([c.duration for c in instance.classes])[owner]
    slots = np.arange(T)
    W = ((slots >= starts[:, None]) & (slots < ends[:, None])).astype(float)
    active = allowed.copy()
    Y = active / active.sum(axis=1, keepdims=True)
    stats = dict.fromkeys(("steps", "projected", "fallbacks", "drops", "entries", "evals"), 0)
    stats.update(dict.fromkeys(("jacobian_s", "solve_s", "cost_s", "check_s"), 0.0))
    best = (math.inf, Y)

    def refuse(why: str):
        raise ConvergenceError(
            f"no equilibrium within gap {tol:g} after {stats['evals']} cost evaluations"
            f" (best gap {best[0]:.3e}): {why}",
            _profile_from_matrix(instance, best[1]),
            best[0],
        )

    def loads_of(Y: np.ndarray) -> np.ndarray:
        if stats["evals"] >= budget:
            refuse("budget spent")
        stats["evals"] += 1
        return exo + P * ((weights[:, None] * Y)[allowed] @ W)

    while True:
        Y /= Y.sum(axis=1, keepdims=True)
        t0 = time.perf_counter()
        loads = loads_of(Y)
        costs = np.full((K, T), math.inf)
        costs[allowed] = W @ g(loads)
        t1 = time.perf_counter()
        gap = _wardrop_gap_of(costs, Y)
        if gap < best[0]:
            best = (gap, Y.copy())
        scale = max(1.0, float(np.max(np.abs(costs[allowed]))))
        owner, starts = np.nonzero(active)
        c = costs[owner, starts]
        level = np.bincount(owner, c, K) / np.bincount(owner, minlength=K)
        balanced = float(np.max(np.abs(c - level[owner]))) <= 1e-13 * scale
        t2 = time.perf_counter()
        stats["cost_s"] += t1 - t0
        stats["check_s"] += t2 - t1
        if balanced:
            if gap <= tol:
                return Y, gap, costs, stats
            undercut = np.where(allowed & ~active, costs, math.inf)
            cheapest = undercut.argmin(axis=1)
            enters = undercut[np.arange(K), cheapest] < level - 1e-12 * np.maximum(1.0, np.abs(level))
            if not enters.any():
                refuse("the active set is solved and no cheaper start enters")
            active[enters, cheapest[enters]] = True
            stats["entries"] += int(enters.sum())
            owner, starts = np.nonzero(active)
            c = costs[owner, starts]

        # Newton step on the equal-cost equations over mass-preserving
        # moves: each class's first active start (its base) balances the
        # others, and a move shifts mass from the base to another start.
        # The class multipliers drop out, so the least-squares system has no
        # border whose scale differs from the costs'.  Its matrix is the
        # Jacobian (W * g') @ W.T * P * weight taken between moves: the rows
        # of W become D, the difference of the two rows a move connects.
        # g' is taken at a tiny positive load where the load is zero: it may
        # be infinite there (square root), and an empty slot must still fill.
        n = owner.size
        first = np.searchsorted(owner, owner)
        moved = np.flatnonzero(first != np.arange(n))
        base = first[moved]
        at = np.flatnonzero(active[allowed])  # the W row of each active start
        D = W[at[moved]] - W[at[base]]
        gp = g.deriv(np.maximum(loads, 1e-12 * loads.max()))
        J = (D * gp) @ D.T * (P * weights[owner[moved]])
        t3 = time.perf_counter()
        try:
            z = np.linalg.lstsq(J, c[base] - c[moved], rcond=None)[0]
        except np.linalg.LinAlgError as err:
            refuse(f"the Newton system could not be solved ({err})")
        del J  # the largest array of a pass; the next pass builds its own
        t4 = time.perf_counter()
        stats["jacobian_s"] += t3 - t2
        stats["solve_s"] += t4 - t3
        stats["steps"] += 1
        dy = np.zeros(n)
        dy[moved] = z
        dy -= np.bincount(base, z, n)
        y = Y[owner, starts]
        full = y + dy
        blocked = full < 0
        if not blocked.any():
            Y[owner, starts] = np.maximum(full, 0.0)
            continue

        # projected step: drop every blocking start at once, kept only if
        # the potential -sum F(load) strictly rises (F(exo) cancels out)
        trial = Y.copy()
        trial[owner, starts] = np.maximum(full, 0.0)
        trial /= trial.sum(axis=1, keepdims=True)
        t5 = time.perf_counter()
        rises = np.sum(g.antiderivative(loads_of(trial))) < np.sum(g.antiderivative(loads))
        stats["cost_s"] += time.perf_counter() - t5
        if rises:
            Y = trial
            active[owner[blocked], starts[blocked]] = False
            stats["projected"] += 1
            stats["drops"] += int(blocked.sum())
            continue

        # fallback: shorten the step so that no mass turns negative; the
        # first blocking start leaves the active set
        ratios = np.full(n, math.inf)
        shrinking = dy < 0
        ratios[shrinking] = y[shrinking] / -dy[shrinking]
        hit = int(np.argmin(ratios))
        alpha = min(1.0, float(ratios[hit]))
        Y[owner, starts] = np.maximum(y + alpha * dy, 0.0)
        stats["fallbacks"] += 1
        if alpha < 1.0:
            Y[owner[hit], starts[hit]] = 0.0
            active[owner[hit], starts[hit]] = False
            stats["drops"] += 1


def solve_equilibrium(
    instance: NonatomicInstance,
    cost: GridCostFunction,
    tol: float = 1e-9,
    budget: Optional[int] = None,
) -> NonatomicEquilibrium:
    """Wardrop equilibrium of the nonatomic game to gap ``tol``.

    Per-class pricing maps are irrelevant here: they are strictly increasing,
    so they preserve each class's cost ordering and hence the equilibria.
    ``budget`` caps cost-vector evaluations (env ``CHARGE_GAME_BUDGET``
    applies when unset); exceeding it raises ``ConvergenceError`` with the
    best iterate attached.
    """
    check_tol(tol)
    if not cost.satisfies_a1:
        raise ValueError("equilibrium solving needs a strictly increasing grid cost")
    budget = resolve_budget(budget, DEFAULT_SOLVER_BUDGET)
    Y, gap, costs, stats = _solve_potential(instance, cost, tol, budget)
    profile = _profile_from_matrix(instance, Y)
    return NonatomicEquilibrium(
        profile=profile,
        wardrop_gap=gap,
        potential_value=potential_nonatomic(instance, cost, profile),
        class_costs=tuple(tuple(float(v) for v in row) for row in costs),
        iterations=stats["steps"],
        cost_evaluations=stats["evals"],
        stats=stats,
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
    e = [v / instance.power for v in instance.exogenous]
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
    """Pivot-free Gaussian elimination in natural row order, then
    back-substitution.

    Returns (pivots, certified, solution): the certificate holds when every
    pivot is positive, the transformed right-hand side stays nonnegative and
    the remaining above-diagonal entries are nonpositive, which together make
    the back-substituted solution nonnegative.  ``solution`` is None when a
    pivot vanishes.
    """
    n = A.shape[0]
    M = A.astype(float).copy()
    v = b.astype(float).copy()
    tol = 1e-11
    for t in range(n):
        pivot = M[t, t]
        if pivot <= tol:
            return tuple(np.diag(M)), False, None
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
    x = np.zeros(n)
    for t in reversed(range(n)):
        x[t] = (v[t] - M[t, t + 1 :] @ x[t + 1 :]) / M[t, t]
    return pivots, certified, x


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
    pivots, certified, x = _eliminate_with_certificate(A, b)
    if not certified:
        raise PositivityCertificateError(
            "elimination could not certify a nonnegative start-mass solution"
        )
    residual = float(np.max(np.abs(A @ x - b)))
    if residual > 1e-9:
        raise RuntimeError(f"linear solve residual {residual:.3e} is suspiciously large")

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
    check_tol(tol)
    if not cost.satisfies_a2:
        raise ValueError("social optimum needs a convex (A2) grid cost")
    budget = resolve_budget(budget, DEFAULT_SOLVER_BUDGET)
    marginal = cost.derivative()
    Y, gap, _, _ = _solve_potential(instance, marginal, tol, budget)
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
