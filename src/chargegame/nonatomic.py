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
class's active starts.  The solver's state is flat, over the (class, start)
pairs of the action sets; K×T matrices are built only for the answer.

The termination certificate is the Wardrop gap: the worst, over classes, of
(most expensive supported start) minus (cheapest available start).

For symmetric instances on the full horizon, ``solve_symmetric_invariant``
solves the equal-load system (slot ``t`` carries the load of slot
``t + C``, unit mass) in closed form, one chain of start slots per residue
mod the duration, in exact rationals of the data.  A nonnegative solution
makes the load C-periodic, so every start sees the same window loads and
the profile is an equilibrium under any cost: the sign of the exact
solution alone decides, and the solution itself, the exact start masses,
is returned with the profile.  ``check_invariance_condition`` reports the
paper's condition on the exogenous load, which the solver does not ask.

Social optima reuse the same machinery through marginal pricing: minimizing
total grid cost is the same program as equilibrating the game whose per-slot
cost is f'(load), so the optimum is computed by the equilibrium solver under
the derivative cost and then independently re-verified with the Wardrop
checker.  An invariant profile is also the optimum under an A2 cost, so
``efficiency_nonatomic`` reports exactly 1 wherever it exists.
"""

from __future__ import annotations

import itertools
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
    NonatomicInstance,
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
    return wardrop_gap(instance, cost, profile) <= check_tol(tol)


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

    The active-set Newton method of the module docstring.  Each pass prices
    the class-normalised masses, the iterate that is certified, and takes a
    Newton step until every active start of a class costs the same, to float
    resolution and within half of ``tol``.  Returns the K×T masses, their
    gap, their K×T start costs and the ``stats``.  When the budget runs out,
    the best iterate is the answer if its gap is within ``tol``, else refused.

    The state lives on the allowed (class, start) pairs in ``np.nonzero``
    order, one segment per class: masses, ``active`` mask and costs
    ``W @ g(loads)``, ``W`` having a row per pair with a 1 in each slot that
    start charges in.  Class minima and maxima are exact ``reduceat``s over
    the segments, but class sums run along the rows of a K×T scratch matrix:
    a segment sum associates the additions differently, and where the masses
    are not unique one rounding apart sends the solve down another path.
    """
    exo = np.asarray(instance.exogenous, dtype=float)
    P = float(instance.power)
    K, T = instance.K, instance.horizon.T
    arrival, last, duration = np.array([instance.window(k) for k in range(K)]).T
    last -= duration - 1  # each class's action set is arrival..last, 1-based
    slots = np.arange(T)
    allowed = (slots >= arrival[:, None] - 1) & (slots < last[:, None])
    owner, starts = np.nonzero(allowed)
    weights = np.array([c.weight for c in instance.classes])[owner]  # of each pair
    pairs, segments = np.arange(owner.size), np.searchsorted(owner, np.arange(K))  # each class's first pair
    ends = starts + duration[owner]
    W = ((slots >= starts[:, None]) & (slots < ends[:, None])).astype(float)
    cells, rows = np.flatnonzero(allowed), np.zeros(K * T)
    stats = dict.fromkeys(("steps", "projected", "arc", "fallbacks", "drops", "entries", "evals"), 0)
    stats.update(dict.fromkeys(("jacobian_s", "solve_s", "cost_s", "check_s"), 0.0))

    def refuse(why: str):
        raise ConvergenceError(
            f"no equilibrium within gap {tol:g} after {stats['evals']} cost evaluations"
            f" (best gap {best[0]:.3e}): {why}",
            MixedProfile(instance, answer(*best)[0].tolist()),
            best[0],
        )

    def answer(gap: float, y: np.ndarray, c: np.ndarray):
        Y, costs = np.zeros((K, T)), np.full((K, T), math.inf)
        Y[allowed], costs[allowed] = y, c
        return Y, gap, costs, stats

    def spent():
        # the budget is out: a best iterate already within tol is an answer
        if best[0] > tol:
            refuse("budget spent")
        return answer(*best)

    def class_sums(v: np.ndarray) -> np.ndarray:
        rows[cells] = v
        return rows.reshape(K, T).sum(axis=1)

    def gap_of(c: np.ndarray, y: np.ndarray) -> float:
        priciest = np.maximum.reduceat(np.where(y > SUPPORT_THRESHOLD, c, -math.inf), segments)
        return max(0.0, float((priciest - np.minimum.reduceat(c, segments)).max()))

    def loads_of(y: np.ndarray) -> np.ndarray:
        stats["evals"] += 1
        return exo + P * ((weights * y) @ W)

    # the start: each class spread evenly over its starts that cost at most
    # the class's mean at the uniform profile's loads; the rounded mean of
    # equal costs can fall below them, so the cheapest start always counts
    t0 = time.perf_counter()
    y = 1.0 / np.bincount(owner)[owner]
    c = W @ g(loads_of(y))
    best = (gap_of(c, y), y, c)  # budget >= 1 paid for it
    mean = class_sums(c) / np.bincount(owner)
    active = c <= np.maximum(mean, np.minimum.reduceat(c, segments))[owner]
    y = active / np.bincount(owner[active], minlength=K)[owner]
    stats["cost_s"] += time.perf_counter() - t0

    while True:
        y /= class_sums(y)[owner]
        if stats["evals"] >= budget:
            return spent()
        t0 = time.perf_counter()
        loads = loads_of(y)
        c = W @ g(loads)
        t1 = time.perf_counter()
        gap = gap_of(c, y)
        if gap < best[0]:
            best = (gap, y.copy(), c)
        scale = max(1.0, float(np.abs(c).max()))
        at = active.nonzero()[0]
        cls, ca = owner[at], c[at]
        level = np.bincount(cls, ca, K) / np.bincount(cls, minlength=K)
        balanced = float(np.abs(ca - level[cls]).max()) <= min(1e-13 * scale, tol / 2)
        t2 = time.perf_counter()
        stats["cost_s"] += t1 - t0
        stats["check_s"] += t2 - t1
        if balanced:
            if gap <= tol:
                return answer(gap, y, c)
            undercut = np.where(active, math.inf, c)
            cheapest = np.minimum.reduceat(undercut, segments)
            enters = cheapest < level - 1e-12 * np.maximum(1.0, np.abs(level))
            if not enters.any():
                refuse("the active set is solved and no cheaper start enters")
            first = np.minimum.reduceat(np.where(undercut == cheapest[owner], pairs, pairs.size), segments)
            active[first[enters]] = True  # each entering class's first start at its minimum
            stats["entries"] += int(enters.sum())
            at = active.nonzero()[0]
            cls, ca = owner[at], c[at]

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
        n = at.size
        first = np.searchsorted(cls, cls)
        moved = np.flatnonzero(first != np.arange(n))
        base = first[moved]
        gp = g.deriv(np.maximum(loads, 1e-12 * loads.max()))
        B = (W[at[moved]] - W[at[base]]) * np.sqrt(gp)
        t3 = time.perf_counter()
        try:
            z = _gram_solve(B, ca[base] - ca[moved]) / (P * weights[at[moved]])
        except np.linalg.LinAlgError as err:
            refuse(f"the Newton system could not be solved ({err})")
        t4 = time.perf_counter()
        stats["jacobian_s"] += t3 - t2
        stats["solve_s"] += t4 - t3
        stats["steps"] += 1
        dy = np.zeros(n)
        dy[moved] = z
        dy -= np.bincount(base, z, n)
        ya = y[at]
        full = ya + dy
        if not (full < 0).any():
            y[at] = full
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
            step = ya + alpha * dy
            trial = y.copy()
            trial[at] = np.maximum(step, 0.0)
            trial /= class_sums(trial)[owner]
            if np.sum(g.antiderivative(loads_of(trial))) < now:
                break
        else:
            alpha = 0.0
        stats["cost_s"] += time.perf_counter() - t5
        if alpha:
            y = trial
            clipped = step < 0
            active[at[clipped]] = False
            stats["projected"] += 1
            stats["arc"] += int(alpha < 1.0)
            stats["drops"] += int(clipped.sum())
            continue

        # fallback: shorten the step so that no mass turns negative; the
        # first blocking start leaves the active set
        ratios = np.full(n, math.inf)
        shrinking = dy < 0
        ratios[shrinking] = ya[shrinking] / -dy[shrinking]
        hit = int(np.argmin(ratios))
        alpha = min(1.0, float(ratios[hit]))
        y[at] = np.maximum(ya + alpha * dy, 0.0)
        stats["fallbacks"] += 1
        if alpha < 1.0:
            y[at[hit]] = 0.0
            active[at[hit]] = False
            stats["drops"] += 1


def _solver_budget(cost: GridCostFunction, tol, budget) -> int:
    """``budget`` resolved, once ``tol`` and A1 are checked; ``ValueError`` otherwise."""
    check_tol(tol)
    if not cost.satisfies_a1:
        raise ValueError("equilibrium solving needs a strictly increasing grid cost")
    return resolve_budget(budget, DEFAULT_SOLVER_BUDGET)


def _require_a2(cost: GridCostFunction) -> None:
    if not cost.satisfies_a2:
        raise ValueError("social optimum needs a convex (A2) grid cost")


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
    Y, gap, costs, stats = _solve_potential(instance, cost, tol, _solver_budget(cost, tol, budget))
    profile = MixedProfile(instance, Y.tolist())
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
    """The paper's condition for a cost-independent equilibrium.

    Three sub-checks on the exogenous load: non-decreasing, discretely
    convex, and with ``q`` the quotient of ``T - C + 1`` by ``C``

        q * e[T-1] - sum_{k=1..q} e[T-1-kC]  <  1,

    ``e`` being the exogenous load divided by the charging power and slots
    numbered from one.  All three are decided in exact rationals of the
    data, and ``lhs`` is the float of the exact left side.  The condition is
    neither necessary nor sufficient: a load can fail convexity and still
    have a nonnegative equal-load solution, or pass all three and have none.
    ``solve_symmetric_invariant`` does not ask it; the sign of its exact
    solution alone decides.  Raises ``ValueError`` when the geometry makes
    index ``T-1-qC`` fall off the horizon (only possible when ``C`` plus the
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


def _chain_masses(T: int, C: int, e: list[Fraction]) -> list[Fraction]:
    """Exact solution of the equal-load system, the masses of the
    ``N = T - C + 1`` starts, for the exogenous load ``e`` over the power.

    In prefix masses ``S_k = x_1 + ... + x_k`` (0 for ``k <= 0``, 1 from
    ``k = N`` on) slot ``t`` carries ``e_t + S_t - S_{t-C}``, so equal
    loads at ``t`` and ``t + C`` (``t = 1..N-1``) read
    ``S_{t+C} = 2 S_t - S_{t-C} - (e_{t+C} - e_t)``.  The indices of one
    residue ``r`` mod ``C`` form a chain ``S_{r+jC} = (j+1) S_r - c_j``,
    and its first index at or past ``N``, ``r + (J+1) C``, where ``S = 1``,
    fixes ``S_r = (1 + c_{J+1}) / (J + 2)``.  Returns ``x_s = S_s - S_{s-1}``.
    """
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
    """Cost-independent equilibrium of a symmetric instance.

    The equal-load system always has exactly one solution, found chain by
    chain in exact rationals of the data (see ``_chain_masses``).  It is the
    answer exactly when it is nonnegative: the load is then C-periodic, so
    every start costs the same under any cost.  A negative mass raises
    ``PositivityCertificateError``; nothing else is asked of the load.
    Returns the profile and that solution: the exact masses of the
    ``T - C + 1`` starts, whose floats the profile holds.  As a
    postcondition the exact solution is re-checked against the definition:
    unit mass, and equal loads at slots ``t`` and ``t + C``.
    """
    T, C, e = _require_symmetric_full_window(instance)
    x = _chain_masses(T, C, e)
    if min(x) < 0:
        raise PositivityCertificateError(f"the equal-load system needs negative start mass {float(min(x)):.3g}")
    N = len(x)
    S = list(itertools.accumulate(x, initial=Fraction(0)))  # S[k] = x_1 + ... + x_k
    loads = [e[t] + S[min(t + 1, N)] - S[max(t + 1 - C, 0)] for t in range(T)]
    if S[N] != 1 or any(loads[t] != loads[t + C] for t in range(N - 1)):
        raise RuntimeError("the invariant solution fails the equal-load definition")
    return MixedProfile.from_start_mass(instance, x + [0] * (T - N)), tuple(x)


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
    _require_a2(cost)
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
    there is no finite enumeration in the continuum game.

    On a single class with a full-horizon window, ``solve_symmetric_invariant``
    is asked first.  When it answers, its profile is the equilibrium under
    every cost, the marginal cost f' of an A2 cost included, so it is also
    the optimum: the ratio is exactly 1 (``exact=Fraction(1)``) and no solve
    runs.
    """
    _solver_budget(cost, tol, budget)
    _require_a2(cost)
    if instance.K == 1 and instance.window(0)[:2] == (1, instance.horizon.T):
        try:
            profile, _ = solve_symmetric_invariant(instance)
        except PositivityCertificateError:
            pass
        else:
            total = grid_total_cost(instance, cost, profile)
            return EfficiencyReport(1.0, Fraction(1), profile, total, profile, total, None)
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
