"""Solvers for the nonatomic (continuum-of-users) charging game.

The aggregate state is the per-class start distribution.  Because the game
admits the strictly concave potential

    Phi(x) = - sum_t  integral_0^{x_t} f(exo_t + P v) dv

(x the occupancy mass), the Wardrop equilibria are exactly the maximizers of
Phi, and the occupancy at equilibrium is unique whenever the cost is strictly
increasing.  ``solve_equilibrium`` finds them with one active-set Newton
method.  It starts each class evenly on its starts that cost at most the
class's mean start cost at the uniform profile's loads, so the first steps
need not drop the starts that are dear from the outset.  Each step
linearizes the equal-cost optimality system on the active set (every
active start of a class costs the same, every class keeps unit mass).
That system has rank at most T, and its minimum-norm solution comes from
``eigh`` of a Gram matrix in the smaller of the move and slot spaces.  A full step that would make
masses negative is projected: every blocking start is clipped to zero and
leaves the active set at once, and the projection is kept when it strictly
raises Phi, the merit function.  If it does not, the steps of 1/2, 1/4 and
1/8 of the Newton direction are projected in turn, along the projection arc
of Bertsekas (1982).  When none of them raises Phi, the step is shortened to
the boundary and drops the first blocking start only.  Once the system
holds, the cheapest inactive start of each class enters if it undercuts the
class's active starts.

The termination certificate is the Wardrop gap: the worst, over classes, of
(most expensive supported start) minus (cheapest available start).

For symmetric instances whose exogenous load satisfies the invariance
inequality checked by ``check_invariance_condition``, the equilibrium does
not depend on the cost function at all and solves a small banded linear
system; ``solve_symmetric_invariant`` solves it in closed form, one
chain of start slots per residue mod the duration, in exact rationals of
the data.  A nonnegative solution makes the load C-periodic, so every
start sees the same window loads under any cost: the sign of the exact
solution is the whole certificate, and the solution itself, the exact
start masses, is returned with the profile.

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
from fractions import Fraction
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

    def __reduce__(self):
        # rebuilt from all three fields, as when a sweep's worker process raises it
        return type(self), (*self.args, self.profile, self.gap)


class InvarianceConditionError(ValueError):
    """The exogenous load fails the invariant-equilibrium inequality."""


class PositivityCertificateError(RuntimeError):
    """The exact solution of the equal-load system needs negative mass."""


@dataclass(frozen=True)
class NonatomicEquilibrium:
    """A solved Wardrop equilibrium.

    ``class_costs[k][t-1]`` is the cost of starting at slot ``t`` for class
    ``k`` (infinite outside the action set); ``wardrop_gap`` is the
    termination certificate actually achieved.  ``iterations`` counts the
    solver's Newton steps and ``cost_evaluations`` its cost-vector
    evaluations, the quantity ``budget`` caps.

    ``stats`` counts ``steps``, the ``projected`` steps kept (``arc`` of
    them shorter than the full Newton step) and the ``fallbacks`` shortened
    to the boundary instead, the starts that ``drops`` and ``entries`` move
    out of and into the active set, and ``evals``.  It times the Jacobian
    assembly (``jacobian_s``), its ``eigh`` solve (``solve_s``), cost and
    potential evaluations (``cost_s``) and the gap and balance checks
    (``check_s``); never compared.
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
    return MixedProfile(instance, tuple(map(tuple, Y.tolist())))


def _gram_solve(B: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Minimum-norm solution ``pinv(B Bᵀ) r`` for an m×T matrix ``B``.

    ``eigh`` of the smaller Gram matrix: ``B Bᵀ`` when m ≤ T, otherwise
    ``Bᵀ B = V Λ Vᵀ``, from which ``pinv(B Bᵀ) = B V Λ⁻² Vᵀ Bᵀ``.
    Eigenvalues at or below ``eps · max(m, T) · λmax``, ``lstsq``'s default
    cutoff, count as zero.
    """
    m, T = B.shape
    small = m <= T
    lam, V = np.linalg.eigh(B @ B.T if small else B.T @ B)
    keep = lam > np.finfo(float).eps * max(m, T) * lam[-1]
    lam, V = lam[keep], V[:, keep]
    if small:
        return V @ ((V.T @ r) / lam)
    return B @ (V @ ((V.T @ (B.T @ r)) / lam**2))


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
    slot_costs = cost(loads).tolist()  # one cost call; each window sums in slot order
    worst = 0.0
    for k in range(instance.K):
        C = instance.classes[k].duration
        costs = {}
        for t in action_set(instance, k):
            costs[t] = float(sum(slot_costs[t - 1 : t - 1 + C]))
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
    """Maximize the potential built on per-slot cost ``g``; core of ``solve_equilibrium``.

    Active-set Newton.  One cost evaluation at the uniform profile's loads
    prices every start, and each class starts evenly on the starts that
    cost at most its mean there (its cheapest at least; all of them when
    they cost the same).  Each pass evaluates the costs of the
    row-normalised masses, the matrix that is certified and returned.
    Until every active start of a class costs the same, to float resolution
    and within half of ``tol``, it takes one Newton step.  A full step that
    would make masses negative is first projected: those masses are clipped
    to zero, their starts leave the active set together, and each class is
    renormalised.  The projection is kept only if it strictly raises the
    potential (one cost evaluation); otherwise the projections of the half,
    quarter and eighth step are tried in turn, one evaluation each.  If none
    is kept, the step is shortened so that no mass turns negative and only
    the first blocking start leaves.  Once the system holds, each class's
    cheapest inactive start enters if it undercuts the class's active ones.  Returns the matrix, its gap, its costs and the
    ``stats`` counters and phase times.  When the budget runs out, the best
    iterate is returned if its gap is within ``tol``, else refused.

    The window-incidence matrix ``W``, built once, has one row per allowed
    (class, start) pair in ``np.nonzero`` order and a 1 in each slot that
    start charges in; it gives the loads, the start costs and Newton rows.
    """
    exo = np.asarray(instance.exogenous, dtype=float)
    P = float(instance.power)
    weights = np.array([c.weight for c in instance.classes])
    K, T = instance.K, instance.horizon.T
    arrival, last, duration = np.array([instance.window(k) for k in range(K)]).T
    last -= duration - 1  # each class's action set is arrival..last, 1-based
    slots = np.arange(T)
    allowed = (slots >= arrival[:, None] - 1) & (slots < last[:, None])
    owner, starts = np.nonzero(allowed)
    ends = starts + duration[owner]
    W = ((slots >= starts[:, None]) & (slots < ends[:, None])).astype(float)
    Y = allowed / allowed.sum(axis=1, keepdims=True)
    stats = dict.fromkeys(("steps", "projected", "arc", "fallbacks", "drops", "entries", "evals"), 0)
    stats.update(dict.fromkeys(("jacobian_s", "solve_s", "cost_s", "check_s"), 0.0))

    def refuse(why: str):
        raise ConvergenceError(
            f"no equilibrium within gap {tol:g} after {stats['evals']} cost evaluations"
            f" (best gap {best[0]:.3e}): {why}",
            _profile_from_matrix(instance, best[1]),
            best[0],
        )

    def spent():
        # the budget is out: a best iterate already within tol is an answer
        if best[0] > tol:
            refuse("budget spent")
        return best[1], best[0], best[2], stats

    def loads_of(Y: np.ndarray) -> np.ndarray:
        stats["evals"] += 1
        return exo + P * ((weights[:, None] * Y)[allowed] @ W)

    # the start: each class spread evenly over its starts that cost at most
    # the class's mean at the uniform profile's loads; the rounded mean of
    # equal costs can fall below them, so the cheapest start always counts
    t0 = time.perf_counter()
    costs = np.full((K, T), math.inf)
    costs[allowed] = W @ g(loads_of(Y))
    best = (_wardrop_gap_of(costs, Y), Y, costs)  # budget >= 1 paid for it
    mean = np.where(allowed, costs, 0.0).sum(axis=1) / allowed.sum(axis=1)
    active = costs <= np.maximum(mean, costs.min(axis=1))[:, None]
    Y = active / active.sum(axis=1, keepdims=True)
    stats["cost_s"] += time.perf_counter() - t0

    while True:
        Y /= Y.sum(axis=1, keepdims=True)
        if stats["evals"] >= budget:
            return spent()
        t0 = time.perf_counter()
        loads = loads_of(Y)
        costs = np.full((K, T), math.inf)
        costs[allowed] = W @ g(loads)
        t1 = time.perf_counter()
        gap = _wardrop_gap_of(costs, Y)
        if gap < best[0]:
            best = (gap, Y.copy(), costs)
        scale = max(1.0, float(np.max(np.abs(costs[allowed]))))
        owner, starts = np.nonzero(active)
        c = costs[owner, starts]
        level = np.bincount(owner, c, K) / np.bincount(owner, minlength=K)
        balanced = float(np.max(np.abs(c - level[owner]))) <= min(1e-13 * scale, tol / 2)
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
        # The class multipliers drop out, so the system has no border whose
        # scale differs from the costs'.  Its matrix is the Jacobian
        # (W * g') @ W.T * P * weight taken between moves: the rows of W
        # become D, the difference of the two rows a move connects.  With
        # B = D diag(sqrt(g')) and u = P * weight * z it is B Bᵀ u = r, of
        # rank at most T, solved at minimum norm in the smaller of the move
        # and slot spaces.  g' is taken at a tiny positive load where the
        # load is zero: it may be infinite there (square root), and an empty
        # slot must still fill.
        n = owner.size
        first = np.searchsorted(owner, owner)
        moved = np.flatnonzero(first != np.arange(n))
        base = first[moved]
        at = np.flatnonzero(active[allowed])  # the W row of each active start
        gp = g.deriv(np.maximum(loads, 1e-12 * loads.max()))
        B = (W[at[moved]] - W[at[base]]) * np.sqrt(gp)
        t3 = time.perf_counter()
        try:
            z = _gram_solve(B, c[base] - c[moved]) / (P * weights[owner[moved]])
        except np.linalg.LinAlgError as err:
            refuse(f"the Newton system could not be solved ({err})")
        t4 = time.perf_counter()
        stats["jacobian_s"] += t3 - t2
        stats["solve_s"] += t4 - t3
        stats["steps"] += 1
        dy = np.zeros(n)
        dy[moved] = z
        dy -= np.bincount(base, z, n)
        y = Y[owner, starts]
        full = y + dy
        if not (full < 0).any():
            Y[owner, starts] = full
            continue

        # projected steps along the arc alpha = 1, 1/2, 1/4, 1/8: masses the
        # step turns negative are clipped to zero and their starts leave the
        # active set; the first step that strictly raises the potential
        # -sum F(load) is kept (F(exo) cancels out)
        t5 = time.perf_counter()
        now = np.sum(g.antiderivative(loads))
        for alpha in (1.0, 0.5, 0.25, 0.125):
            if stats["evals"] >= budget:
                return spent()
            step = y + alpha * dy
            trial = Y.copy()
            trial[owner, starts] = np.maximum(step, 0.0)
            trial /= trial.sum(axis=1, keepdims=True)
            if np.sum(g.antiderivative(loads_of(trial))) < now:
                break
        else:
            alpha = 0.0
        stats["cost_s"] += time.perf_counter() - t5
        if alpha:
            Y = trial
            clipped = step < 0
            active[owner[clipped], starts[clipped]] = False
            stats["projected"] += 1
            stats["arc"] += int(alpha < 1.0)
            stats["drops"] += int(clipped.sum())
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
    applies when unset).  When it runs out, the best iterate so far is the
    answer if its gap is within ``tol``; otherwise ``ConvergenceError`` is
    raised with that iterate attached.
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
        class_costs=tuple(map(tuple, costs.tolist())),
        iterations=stats["steps"],
        cost_evaluations=stats["evals"],
        stats=stats,
    )


# ---------------------------------------------------------------------------
# invariant equilibria via the banded linear system
# ---------------------------------------------------------------------------


def _require_symmetric_full_window(instance: NonatomicInstance) -> tuple[int, int, list[Fraction]]:
    """``T``, ``C`` and the exogenous load in units of the charging power, in
    exact rationals of the data: ints, floats and ``Fraction``s are read as
    they are, none rounded."""
    if instance.K != 1:
        raise ValueError("invariant-equilibrium analysis needs a single class")
    a, d, C = instance.window(0)
    T = instance.horizon.T
    if (a, d) != (1, T):
        raise ValueError("invariant-equilibrium analysis needs a full-horizon window")
    P, *exo = map(Fraction, (instance.power, *instance.exogenous))
    return T, C, [v / P for v in exo]


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
    numbered from one.  All three are decided in exact rationals of the
    data, and ``lhs`` is the float of the exact left side.  The condition is
    sufficient, not tight: the sign of the exact solution in
    ``solve_symmetric_invariant`` is what finally vouches for the
    equilibrium.  Raises ``ValueError`` when the geometry makes index
    ``T-1-qC`` fall off the horizon (only possible when ``C`` plus the
    remainder of that division is below 3).
    """
    T, C, e = _require_symmetric_full_window(instance)
    q = (T - C + 1) // C
    diffs = [b - a for a, b in zip(e, e[1:])]
    nondecreasing = all(d >= 0 for d in diffs)
    convex = all(d2 >= d1 for d1, d2 in zip(diffs, diffs[1:]))
    if q == 0:
        return InvarianceCheck(nondecreasing, convex, True, 0.0, q)
    if T - 1 - q * C < 1:
        raise ValueError(
            f"invariance condition is undefined for T={T}, C={C}: "
            f"index T-1-qC = {T - 1 - q * C} leaves the horizon"
        )
    lhs = q * e[T - 2] - sum(e[T - 2 - k * C] for k in range(1, q + 1))
    return InvarianceCheck(nondecreasing, convex, lhs < 1, float(lhs), q)


def _chain_masses(instance: NonatomicInstance) -> list[Fraction]:
    """Exact solution of the equal-load system, the masses of the
    ``N = T - C + 1`` starts, in rationals of the data.

    In prefix masses ``S_k = x_1 + ... + x_k`` (0 for ``k <= 0``, 1 from
    ``k = N`` on) slot ``t`` carries ``e_t + S_t - S_{t-C}``, so equal
    loads at ``t`` and ``t + C`` (``t = 1..N-1``) read
    ``S_{t+C} = 2 S_t - S_{t-C} - (e_{t+C} - e_t)``.  The indices of one
    residue ``r`` mod ``C`` form a chain ``S_{r+jC} = (j+1) S_r - c_j``,
    and its first index at or past ``N``, ``r + (J+1) C``, where ``S = 1``,
    fixes ``S_r = (1 + c_{J+1}) / (J + 2)``.  Returns ``x_s = S_s - S_{s-1}``.
    """
    T, C, e = _require_symmetric_full_window(instance)
    N = T - C + 1
    S = [Fraction(0)] * N + [Fraction(1)]
    for r in range(1, min(C, N - 1) + 1):
        chain = range(r, N, C)
        c = [Fraction(0), Fraction(0)]  # c[j + 1] = c_j, from c_{-1} = c_0 = 0
        for t in chain:
            c.append(2 * c[-1] - c[-2] + e[t + C - 1] - e[t - 1])
        head = (1 + c[-1]) / (len(chain) + 1)
        S[r:N:C] = [(j + 1) * head - c_j for j, c_j in enumerate(c[1:-1])]
    return [b - a for a, b in zip(S, S[1:])]


def solve_symmetric_invariant(
    instance: NonatomicInstance,
) -> tuple[MixedProfile, tuple[Fraction, ...]]:
    """Cost-independent equilibrium of a symmetric instance, via linear algebra.

    Requires the invariance inequality to hold (``InvarianceConditionError``
    otherwise).  The banded system always has exactly one solution, found
    chain by chain in exact rationals of the data (see ``_chain_masses``),
    and it is the equilibrium exactly when it is nonnegative
    (``PositivityCertificateError`` otherwise).  Returns the profile and
    that solution: the exact masses of the ``T - C + 1`` starts, whose
    floats the profile holds.  As a postcondition the profile is
    re-verified to be a Wardrop equilibrium under square, fourth-power and
    square-root costs at gap 1e-7.
    """
    check = check_invariance_condition(instance)
    if not check:
        raise InvarianceConditionError(
            "exogenous load fails the cost-independence condition "
            f"(nondecreasing={check.nondecreasing}, convex={check.convex}, "
            f"inequality={check.inequality_holds})"
        )
    x = _chain_masses(instance)
    if min(x) < 0:
        raise PositivityCertificateError(f"the equal-load system needs negative start mass {float(min(x)):.3g}")
    mass = [float(c) for c in x]
    profile = MixedProfile.from_start_mass(instance, mass + [0.0] * (instance.horizon.T - len(mass)))
    for probe in (Monomial(1, 2), Monomial(1, 4), SquareRoot()):
        gap = wardrop_gap(instance, probe, profile)
        if gap > 1e-7:
            raise RuntimeError(f"invariant solution fails the Wardrop postcondition under {probe!r} (gap {gap:.3e})")
    return profile, tuple(x)


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
    optimum is therefore solved for as the equilibrium under f' and
    independently re-checked against the Wardrop definition.
    """
    profile = _social_optimum(instance, cost, tol, budget).profile
    return profile, grid_total_cost(instance, cost, profile)


def _social_optimum(instance, cost, tol, budget) -> NonatomicEquilibrium:
    """The equilibrium under f' whose ``profile`` is the optimum; all its
    other fields (``stats``, ``potential_value``, ...) are of the game under f'."""
    if not cost.satisfies_a2:
        raise ValueError("social optimum needs a convex (A2) grid cost")
    marginal = cost.derivative()
    eq = solve_equilibrium(instance, marginal, tol=tol, budget=budget)
    if not is_wardrop_equilibrium(instance, marginal, eq.profile, tol=max(1e-7, 10 * eq.wardrop_gap)):
        raise RuntimeError("optimum candidate fails the marginal-cost Wardrop check")
    return eq


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
