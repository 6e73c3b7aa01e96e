"""Solvers for the finite-player charging game.

Equilibrium logic never goes through utilities or pricing maps: pricing is
strictly increasing, so "deviation is improving" is equivalent to "raw window
cost strictly decreases", and raw window costs stay exact integers whenever
the instance data and the cost function are integral.  All comparisons below
are therefore free of floating-point ties on integer instances.

Symmetric instances (every player shares the same window and duration) are
enumerated in configuration space: a configuration counts how many players
start in each slot, which shrinks the search from ``A**I`` profiles to
``C(I+A-1, A-1)`` compositions.  Asymmetric instances fall back to the full
profile product space.  Both enumerations are deterministic (lexicographic)
and budget-capped.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Union

import numpy as np

from .model import (
    AtomicInstance,
    ChargingConfiguration,
    GridCostFunction,
    Number,
    StrategyProfile,
    _coerce_profile,
    _window_cost,
    action_set,
    grid_total_cost,
    load,
    occupancy,
    potential_atomic,
)

BUDGET_ENV_VAR = "CHARGE_GAME_BUDGET"
DEFAULT_BUDGET = 10**8


class BudgetExceededError(RuntimeError):
    """An exhaustive answer was requested but the search budget ran out.

    ``partial`` carries whatever was computed before the cap, for diagnosis.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class IterationBudgetError(RuntimeError):
    """Best-response dynamics exceeded its sweep budget.

    The potential argument guarantees termination, so hitting this means the
    improvement test is broken.
    """


@dataclass(frozen=True)
class EquilibriumSet:
    """Outcome of an equilibrium enumeration.

    ``equilibria`` holds one ``ChargingConfiguration`` per distinct Nash
    equilibrium (profiles that permute identical players are collapsed),
    sorted by start counts so the listing does not depend on the scan method.
    ``costs`` holds the scan's own total grid cost of each, in the same
    order.  ``complete`` is False when the budget stopped the scan early, in
    which case the set is a lower bound only.
    """

    equilibria: tuple[ChargingConfiguration, ...]
    costs: tuple[Number, ...]
    complete: bool
    examined: int
    space_size: int
    method: str


@dataclass(frozen=True)
class EfficiencyReport:
    """Worst-equilibrium total cost relative to the social optimum.

    ``value`` is ``worst_cost / optimum_cost`` (>= 1); ``exact`` is the same
    ratio as a ``Fraction`` when both costs are integers, else None.  Atomic
    scans attach the full equilibrium set and configurations; the nonatomic
    solver stores profiles instead and leaves ``equilibria`` as None.
    """

    value: float
    exact: Optional[Fraction]
    worst_equilibrium: Union[ChargingConfiguration, "object"]
    worst_cost: Number
    optimum: Union[ChargingConfiguration, "object"]
    optimum_cost: Number
    equilibria: Optional[EquilibriumSet]


def resolve_budget(budget: Optional[int], default: int = DEFAULT_BUDGET) -> int:
    """Explicit argument, else ``CHARGE_GAME_BUDGET`` env var, else the default.

    Raises ``ValueError`` on a budget below 1, whichever source it came from.
    """
    if budget is None:
        budget = os.environ.get(BUDGET_ENV_VAR) or default
    budget = int(budget)
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    return budget


# ---------------------------------------------------------------------------
# single-profile operations (exact arithmetic)
# ---------------------------------------------------------------------------


_REL_MARGIN = 1e-12


def _strictly_less(new, cur):
    """Strict-improvement test with a relative margin for inexact costs.

    Rounding in float window sums can turn an exact tie into a phantom
    improvement of a few ulp, which would misclassify equilibria and make
    the scan methods disagree; floats must clear ``1e-12 * scale``.  Exact
    integer and Fraction costs compare exactly.
    """
    if isinstance(new, float) or isinstance(cur, float):
        return new < cur - _REL_MARGIN * max(1.0, abs(cur))
    return new < cur


def _deviations(instance: AtomicInstance, cost: GridCostFunction, loads, starts, player: int):
    """Current window cost of ``player`` and a lazy ``(slot, cost)`` stream.

    ``loads`` is the full load vector of ``starts``.  The stream visits the
    player's whole action set in slot order, current slot included, and
    gives the raw window cost with the player moved there.  ``_eval_block``
    is the vectorised twin for symmetric blocks.
    """
    s, C, P = starts[player], instance.durations[player], instance.power
    # load in each slot once the player charges there: its own window already
    # carries it, every other slot gains P
    moved = [L + P for L in loads]
    moved[s - 1 : s - 1 + C] = loads[s - 1 : s - 1 + C]
    stream = ((t, _window_cost(cost, moved, t, C)) for t in action_set(instance, player))
    return _window_cost(cost, loads, s, C), stream


def best_response(instance: AtomicInstance, cost: GridCostFunction, profile, player: int) -> int:
    """Best start slot for ``player`` against the others' current choices.

    Ties break toward the smallest slot.  No pricing map is needed: any
    strictly increasing one keeps the argmin of the raw window cost.
    """
    profile = _coerce_profile(instance, profile)
    _, stream = _deviations(instance, cost, load(instance, profile), profile.starts, player)
    return min(stream, key=lambda slot_cost: slot_cost[1])[0]


def is_nash(instance: AtomicInstance, cost: GridCostFunction, profile) -> bool:
    """True when no player has a strictly improving unilateral deviation."""
    profile = _coerce_profile(instance, profile)
    loads = load(instance, profile)
    for i in range(instance.I):
        current, stream = _deviations(instance, cost, loads, profile.starts, i)
        if any(_strictly_less(c, current) for _, c in stream):
            return False
    return True


def best_response_dynamics(
    instance: AtomicInstance,
    cost: GridCostFunction,
    profile,
    max_sweeps: int = 10_000,
) -> tuple[StrategyProfile, tuple[Number, ...]]:
    """Round-robin best-response dynamics from a starting profile.

    Players are swept in index order; a player moves only when its best
    response strictly lowers its window cost.  Returns the final profile and
    the potential trace (initial value plus one entry per accepted move); the
    trace is strictly increasing, which is what guarantees termination.
    """
    profile = _coerce_profile(instance, profile)
    starts = list(profile.starts)
    trace = [potential_atomic(instance, cost, profile)]
    for _ in range(max_sweeps):
        moved = False
        for i in range(instance.I):
            current, stream = _deviations(instance, cost, load(instance, starts), starts, i)
            slot, best = min(stream, key=lambda slot_cost: slot_cost[1])
            if _strictly_less(best, current):
                starts[i] = slot
                trace.append(potential_atomic(instance, cost, starts))
                moved = True
        if not moved:
            return StrategyProfile(tuple(starts)), tuple(trace)
    raise IterationBudgetError(
        f"best-response dynamics did not settle within {max_sweeps} sweeps"
    )


# ---------------------------------------------------------------------------
# exhaustive scans
# ---------------------------------------------------------------------------


def _is_exact(instance: AtomicInstance, cost: GridCostFunction) -> bool:
    data = (*instance.exogenous, instance.power)
    return cost.is_exact_for_integers and all(isinstance(v, int) for v in data)


def _composition_count(total: int, parts: int) -> int:
    return math.comb(total + parts - 1, parts - 1)


def _composition_blocks(total: int, parts: int, max_rows: int) -> Iterator[np.ndarray]:
    # all count vectors of length `parts` summing to `total`, lexicographic,
    # in int64 blocks of at most `max_rows` rows.  Stars and bars: the bar
    # positions come out of `combinations` in lexicographic order, which is
    # the lexicographic order of the counts between them.
    n = total + parts - 1
    bars = itertools.combinations(range(n), parts - 1)
    left = _composition_count(total, parts)
    while left:
        m = min(left, max_rows)
        flat = itertools.chain.from_iterable(itertools.islice(bars, m))
        positions = np.fromiter(flat, np.int64, m * (parts - 1)).reshape(m, parts - 1)
        yield np.diff(positions, axis=1, prepend=-1, append=n) - 1
        left -= m


def _scan_dtype(instance: AtomicInstance, cost: GridCostFunction):
    # int64 when every intermediate fits comfortably, exact objects otherwise
    if not _is_exact(instance, cost):
        return np.float64
    max_load = max(instance.exogenous) + instance.power * (instance.I + 1)
    if instance.horizon.T * cost(max_load) < 2**62:
        return np.int64
    return object


def _eval_block(instance: AtomicInstance, cost: GridCostFunction, counts: np.ndarray, dtype):
    """NE flags and total costs for a block of symmetric configurations."""
    a, d, C = instance.window(0)
    T = instance.horizon.T
    A = counts.shape[1]
    P = instance.power
    m = counts.shape[0]

    if dtype is np.float64:
        work = counts.astype(np.float64)
        exo = np.asarray(instance.exogenous, dtype=np.float64)
    elif dtype is object:
        work = counts.astype(object)
        exo = np.array([int(v) for v in instance.exogenous], dtype=object)
    else:
        work = counts
        exo = np.asarray(instance.exogenous, dtype=np.int64)

    # occupancy per slot: windowed sum of start counts; starts sit in columns
    # a-1 .. a+A-2 of the horizon
    starts_full = np.zeros((m, T), dtype=dtype if dtype is not object else object)
    starts_full[:, a - 1 : a - 1 + A] = work
    spre = np.concatenate([np.zeros((m, 1), dtype=starts_full.dtype), np.cumsum(starts_full, axis=1)], axis=1)
    cols = np.arange(T)
    lo = np.maximum(cols - C + 1, 0)
    occ = spre[:, cols + 1] - spre[:, lo]

    loads = exo[None, :] + P * occ
    F = cost(loads)
    G = cost(loads + P)
    zero = np.zeros((m, 1), dtype=F.dtype if dtype is not object else object)
    Fpre = np.concatenate([zero, np.cumsum(F, axis=1)], axis=1)
    Gpre = np.concatenate([zero, np.cumsum(G, axis=1)], axis=1)

    def fsum(col: int):  # sum of F over horizon columns [col, col+C)
        return Fpre[:, col + C] - Fpre[:, col]

    def gsum(col: int):
        return Gpre[:, col + C] - Gpre[:, col]

    tc = Fpre[:, T]
    ne = np.ones(m, dtype=bool)
    for j in range(A):
        occupied = counts[:, j] > 0
        if not occupied.any():
            continue
        cj = a - 1 + j
        current = fsum(cj)
        if dtype is np.float64:
            bar = current - _REL_MARGIN * np.maximum(1.0, np.abs(current))
        else:
            bar = current
        for j2 in range(A):
            if j2 == j:
                continue
            cj2 = a - 1 + j2
            olo, ohi = max(cj, cj2), min(cj, cj2) + C
            if ohi > olo:
                new_cost = gsum(cj2) - (Gpre[:, ohi] - Gpre[:, olo]) + (Fpre[:, ohi] - Fpre[:, olo])
            else:
                new_cost = gsum(cj2)
            ne &= ~(occupied & (new_cost < bar))
    return ne, tc, occ


def _config_from_counts(instance: AtomicInstance, counts, occ) -> ChargingConfiguration:
    a, _, _ = instance.window(0)
    T = instance.horizon.T
    start_counts = [0] * T
    for j, c in enumerate(counts):
        start_counts[a - 1 + j] = int(c)
    return ChargingConfiguration(tuple(start_counts), tuple(int(v) for v in occ))


def _scan_symmetric(instance: AtomicInstance, cost: GridCostFunction, budget: int):
    a, d, C = instance.window(0)
    A = d - C + 2 - a
    I = instance.I
    space = _composition_count(I, A)
    dtype = _scan_dtype(instance, cost)

    ne_configs: list[ChargingConfiguration] = []
    ne_costs: list = []
    best = None  # (cost, counts tuple, occ)
    examined = 0
    for counts in _composition_blocks(I, A, 1 << 13):  # bounded blocks keep memory flat
        if examined >= budget:
            break
        counts = counts[: budget - examined]
        ne, tc, occ = _eval_block(instance, cost, counts, dtype)
        examined += counts.shape[0]
        for idx in np.flatnonzero(ne):
            ne_configs.append(_config_from_counts(instance, counts[idx], occ[idx]))
            ne_costs.append(tc[idx].item() if dtype is not object else tc[idx])
        idx = int(np.argmin(tc))  # first occurrence: lexicographically smallest counts
        block_cost = tc[idx].item() if dtype is not object else tc[idx]
        if best is None or block_cost < best[0]:
            best = (block_cost, tuple(int(v) for v in counts[idx]), occ[idx].copy())
    complete = examined >= space
    return ne_configs, ne_costs, best, examined, space, complete


def _scan_profiles(instance: AtomicInstance, cost: GridCostFunction, budget: int):
    spaces = [list(action_set(instance, i)) for i in range(instance.I)]
    space = math.prod(len(s) for s in spaces)
    # NE status is a property of the profile, not the configuration, once
    # players are heterogeneous: dedup only among profiles that ARE equilibria
    ne_seen: set[ChargingConfiguration] = set()
    ne_configs: list[ChargingConfiguration] = []
    ne_costs: list = []
    ne_count = 0  # NE profiles, the unit matching ``space`` for this method
    best = None  # (cost, config)
    examined = 0
    for starts in itertools.product(*spaces):
        if examined >= budget:
            break
        examined += 1
        config = occupancy(instance, StrategyProfile(starts))
        tc = grid_total_cost(instance, cost, config)
        if best is None or tc < best[0]:
            best = (tc, config)
        if is_nash(instance, cost, StrategyProfile(starts)):
            ne_count += 1
            if config not in ne_seen:
                ne_seen.add(config)
                ne_configs.append(config)
                ne_costs.append(tc)
    complete = examined >= space
    return ne_configs, ne_costs, ne_count, best, examined, space, complete


def _scan(instance: AtomicInstance, cost: GridCostFunction, budget: Optional[int], method: str):
    budget = resolve_budget(budget)
    if method == "auto":
        method = "configurations" if instance.is_symmetric else "profiles"
    if method == "configurations":
        if not instance.is_symmetric:
            raise ValueError("configuration-space enumeration requires a symmetric instance")
        ne_configs, ne_costs, best, examined, space, complete = _scan_symmetric(instance, cost, budget)
        ne_count = len(ne_configs)
        if best is not None:
            best = (best[0], _config_from_counts(instance, best[1], best[2]))
    elif method == "profiles":
        ne_configs, ne_costs, ne_count, best, examined, space, complete = _scan_profiles(
            instance, cost, budget
        )
    else:
        raise ValueError(f"unknown enumeration method {method!r}")
    return ne_configs, ne_costs, ne_count, best, examined, space, complete, method


def _equilibrium_set(ne_configs, ne_costs, complete, examined, space, method) -> EquilibriumSet:
    pairs = sorted(zip(ne_configs, ne_costs), key=lambda pair: pair[0].start_counts)
    configs = tuple(config for config, _ in pairs)
    costs = tuple(cost for _, cost in pairs)
    return EquilibriumSet(configs, costs, complete, examined, space, method)


def enumerate_equilibria(
    instance: AtomicInstance,
    cost: GridCostFunction,
    budget: Optional[int] = None,
    method: str = "auto",
) -> EquilibriumSet:
    """All Nash-equilibrium configurations, by exhaustive deterministic scan.

    ``method`` is ``"configurations"`` (symmetric instances only),
    ``"profiles"`` (always valid, exponentially larger), or ``"auto"``.
    When the budget runs out first the returned set is flagged incomplete.
    """
    ne_configs, ne_costs, _, _, examined, space, complete, method = _scan(
        instance, cost, budget, method
    )
    return _equilibrium_set(ne_configs, ne_costs, complete, examined, space, method)


def social_optimum(
    instance: AtomicInstance,
    cost: GridCostFunction,
    budget: Optional[int] = None,
    method: str = "auto",
) -> tuple[ChargingConfiguration, Number]:
    """Configuration minimizing total grid cost, with its cost.

    Ties break deterministically: configuration scans keep the
    lexicographically smallest start-count vector, profile scans the first
    minimizing profile in lexicographic start order.  Raises
    ``BudgetExceededError`` if the scan could not finish: a partial minimum
    is not an optimum.
    """
    _, _, _, best, examined, space, complete, _ = _scan(instance, cost, budget, method)
    if not complete:
        raise BudgetExceededError(
            f"social optimum scan stopped after {examined} of {space} configurations",
            partial=best,
        )
    return best[1], best[0]


def efficiency(
    instance: AtomicInstance,
    cost: GridCostFunction,
    budget: Optional[int] = None,
    method: str = "auto",
) -> EfficiencyReport:
    """Worst-case Nash total cost over the social optimum, exhaustively.

    Exact rational arithmetic is used whenever both costs are integers.
    Raises ``BudgetExceededError`` on an incomplete scan.
    """
    ne_configs, ne_costs, _, best, examined, space, complete, method = _scan(
        instance, cost, budget, method
    )
    eq_set = _equilibrium_set(ne_configs, ne_costs, complete, examined, space, method)
    if not complete:
        raise BudgetExceededError(
            f"efficiency scan stopped after {examined} of {space} configurations",
            partial=eq_set,
        )
    if not ne_configs:
        raise RuntimeError("no Nash equilibrium found; the potential argument forbids this")
    worst_idx = max(range(len(ne_costs)), key=lambda i: ne_costs[i])
    worst_cost = ne_costs[worst_idx]
    opt_config, opt_cost = best[1], best[0]
    if isinstance(worst_cost, (int, np.integer)) and isinstance(opt_cost, (int, np.integer)):
        exact = Fraction(int(worst_cost), int(opt_cost))
        value = float(exact)
    else:
        exact = None
        value = float(worst_cost) / float(opt_cost)
    return EfficiencyReport(
        value=value,
        exact=exact,
        worst_equilibrium=ne_configs[worst_idx],
        worst_cost=worst_cost,
        optimum=opt_config,
        optimum_cost=opt_cost,
        equilibria=eq_set,
    )


def ne_proportion(
    instance: AtomicInstance,
    cost: GridCostFunction,
    budget: Optional[int] = None,
    method: str = "auto",
) -> float:
    """Fraction of the scanned space that is a Nash equilibrium.

    The numerator matches the method's unit: equilibrium configurations out
    of all configurations, or equilibrium profiles out of all profiles.
    """
    _, _, ne_count, _, examined, space, complete, method = _scan(instance, cost, budget, method)
    if not complete:
        raise BudgetExceededError(
            f"proportion scan stopped after {examined} of {space} configurations",
            partial=None,
        )
    return ne_count / space
