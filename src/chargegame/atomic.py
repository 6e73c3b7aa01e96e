"""Solvers for the finite-player charging game.

Equilibrium logic never goes through utilities or pricing maps: pricing is
strictly increasing, so "deviation is improving" is equivalent to "raw window
cost strictly decreases", and raw window costs stay exact integers whenever
the instance data and the cost function are integral.  All comparisons below
are therefore free of floating-point ties on integer instances.

The exhaustive scans run over class configurations.  Players that share a
window ``(a, d, C)`` form a group and are interchangeable, so a class
configuration says only how many players of each group start in each slot:
one composition per group.  A group of ``n`` players with ``A`` start slots
has ``C(n+A-1, A-1)`` compositions in place of ``A**n`` profiles; a
symmetric instance is the one-group case, and an instance whose windows are
all distinct scans its profile space itself.  The scan is deterministic
(lexicographic, groups in sorted window order) and budget-capped.

Past int64, a float64 pass with a rigorous error bound (``_eval_block``) rules
out most configurations; exact integers decide the rest and give every answer.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field
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
    sorted by start counts, then occupancy, so the listing does not depend
    on the scan order.  ``costs`` holds the scan's own total grid cost of
    each, in the same order.  ``examined`` and ``space_size`` count class
    configurations.  ``complete`` is False when the budget stopped the scan
    early, in which case the set is a lower bound only.

    ``stats`` counts ``blocks`` and the ``exact_rows`` the float pass left to
    integers, and times generation, evaluation and reduction; never compared.
    """

    equilibria: tuple[ChargingConfiguration, ...]
    costs: tuple[Number, ...]
    complete: bool
    examined: int
    space_size: int
    stats: dict = field(default_factory=dict, compare=False, repr=False)


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
    try:
        budget = int(budget)
    except (TypeError, ValueError):
        raise ValueError(f"budget must be an integer, got {budget!r}") from None
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
    the scalar and block kernels disagree; floats must clear
    ``1e-12 * scale``.  Exact integer and Fraction costs compare exactly.
    """
    if isinstance(new, float) or isinstance(cur, float):
        return new < cur - _REL_MARGIN * max(1.0, abs(cur))
    return new < cur


def _deviations(instance: AtomicInstance, cost: GridCostFunction, loads, starts, player: int):
    """Current window cost of ``player`` and a lazy ``(slot, cost)`` stream.

    ``loads`` is the full load vector of ``starts``.  The stream visits the
    player's whole action set in slot order, current slot included, and
    gives the raw window cost with the player moved there.  ``_eval_block``
    is the vectorised twin for blocks of class configurations.
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
    config = occupancy(instance, profile)
    occ = list(config.occupancy)  # follows each accepted move, like the loads
    loads, trace = load(instance, config), [potential_atomic(instance, cost, config)]
    for _ in range(max_sweeps):
        moved = False
        for i in range(instance.I):
            current, stream = _deviations(instance, cost, loads, starts, i)
            slot, best = min(stream, key=lambda slot_cost: slot_cost[1])
            if _strictly_less(best, current):
                for t in range(instance.durations[i]):
                    occ[starts[i] - 1 + t] -= 1
                    occ[slot - 1 + t] += 1
                starts[i] = slot
                config = ChargingConfiguration(tuple(map(starts.count, range(1, len(occ) + 1))), tuple(occ))
                loads = load(instance, config)
                trace.append(potential_atomic(instance, cost, config))
                moved = True
        if not moved:
            return StrategyProfile(tuple(starts)), tuple(trace)
    raise IterationBudgetError(
        f"best-response dynamics did not settle within {max_sweeps} sweeps"
    )


# ---------------------------------------------------------------------------
# exhaustive scans
# ---------------------------------------------------------------------------


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


def _configuration_blocks(shape, max_rows: int) -> Iterator[np.ndarray]:
    # the product of the groups' compositions, one (total, parts) pair per
    # group: each row is one composition per group side by side, the rows in
    # lexicographic order, in int64 blocks of at most `max_rows` rows
    (total, parts), rest = shape[0], shape[1:]
    if not rest:
        yield from _composition_blocks(total, parts, max_rows)
        return
    tail_size = math.prod(_composition_count(*group) for group in rest)
    for heads in _composition_blocks(total, parts, max(1, max_rows // tail_size)):
        for tail in _configuration_blocks(rest, max_rows):
            # every head row followed by every tail row, heads varying slowest
            yield np.concatenate([np.repeat(heads, len(tail), axis=0), np.tile(tail, (len(heads), 1))], axis=1)


def _class_groups(instance: AtomicInstance) -> list[tuple[int, int, int, int, int]]:
    """Players grouped by window, in sorted window order.

    One ``(a, C, n, first, A)`` per group: ``n`` players with duration ``C``
    and start slots ``a..a+A-1``, whose start counts sit in the columns
    ``first..first+A-1`` of a class configuration.
    """
    windows = Counter(zip(instance.arrivals, instance.departures, instance.durations))
    groups, first = [], 0
    for (a, d, C), n in sorted(windows.items()):
        A = d - C + 2 - a
        groups.append((a, C, n, first, A))
        first += A
    return groups


def _scan_dtype(instance: AtomicInstance, cost: GridCostFunction):
    # int64 when every intermediate fits comfortably, exact objects otherwise
    if not (cost.is_exact_for_integers and all(isinstance(v, int) for v in (*instance.exogenous, instance.power))):
        return np.float64
    max_load = max(instance.exogenous) + instance.power * (instance.I + 1)
    if instance.horizon.T * cost(max_load) < 2**62:
        return np.int64
    return object


def _eval_block(groups, table: np.ndarray, counts: np.ndarray, certify: bool = False):
    """NE flags, total costs, occupancy and error bounds for a block.

    Each row of ``counts`` holds one composition per group of
    ``_class_groups``: column ``first + j`` counts the group's players
    starting in slot ``a + j``; ``table[t, v]`` is slot ``t``'s cost at
    occupancy ``v``.  With ``certify`` (a float image of an exact table) a
    row is non-NE only if a deviation gains more than its error bound ``err``.
    """
    T = table.shape[0]
    m = counts.shape[0]

    # occupancy per slot: each group's start counts summed over its own
    # duration, added up over the groups.  Slot column t holds the group's
    # starts in columns t-a-C+2 .. t-a+1 of its block.  The fancy indexing
    # makes occ column-major, like everything derived from it, which the
    # deviation loop's whole-column reads depend on for speed.
    cols = np.arange(T)
    occ = 0
    for a, C, _, first, A in groups:
        spre = np.concatenate([np.zeros((m, 1), dtype=counts.dtype), np.cumsum(counts[:, first : first + A], axis=1)], axis=1)
        occ = occ + spre[:, np.clip(cols - a + 2, 0, A)] - spre[:, np.clip(cols - a - C + 2, 0, A)]

    F = table[cols, occ]
    G = table[cols, occ + 1]
    zero = np.zeros((m, 1), dtype=F.dtype)
    Fpre = np.concatenate([zero, np.cumsum(F, axis=1)], axis=1)
    Gpre = np.concatenate([zero, np.cumsum(G, axis=1)], axis=1)

    # Error bound of a certified row: u = 2**-53, eta = 2**-1074, S_X the
    # row's sum of |X| for X = F, G, and S = S_F + S_G.  A table entry is off
    # by at most u|x| + eta/2 (correct rounding, underflow).  cumsum adds in
    # order, so a prefix of k <= T entries is off from the exact sum of its
    # rounded entries by (k-1)u/(1-(k-1)u) times their absolute sum at most
    # (Higham 2002, 4.2); a prefix of X is off by at most Tu(1+Tu)S_X +
    # T eta/2.  A deviation test puts four F and four G prefixes through seven
    # roundings of values below 2S: off by at most 4Tu(1+Tu)S + 14uS + 4T eta,
    # under err/2 for T < 2**31 (room to round S and err); a total, by less.
    err = (8 * T + 32) * 2.0**-53 * (abs(F).sum(1) + abs(G).sum(1)) + 16 * T * 2.0**-1074 if certify else None

    tc = Fpre[:, T]
    ne = np.ones(m, dtype=bool)
    for a, C, _, first, A in groups:
        for j in range(A):
            occupied = counts[:, first + j] > 0
            if not occupied.any():
                continue
            cj = a - 1 + j
            current = Fpre[:, cj + C] - Fpre[:, cj]
            if certify:
                bar = current - err
            elif table.dtype == np.float64:
                bar = current - _REL_MARGIN * np.maximum(1.0, np.abs(current))
            else:
                bar = current
            for j2 in range(A):
                if j2 == j:
                    continue
                # moving one player from horizon column cj to cj2: the new
                # window gains P except where it overlaps the old one
                cj2 = a - 1 + j2
                new_cost = Gpre[:, cj2 + C] - Gpre[:, cj2]
                olo, ohi = max(cj, cj2), min(cj, cj2) + C
                if ohi > olo:
                    new_cost = new_cost - (Gpre[:, ohi] - Gpre[:, olo]) + (Fpre[:, ohi] - Fpre[:, olo])
                ne &= ~(occupied & (new_cost < bar))
    return ne, tc, occ, err


def _config_from_counts(instance: AtomicInstance, groups, counts, occ) -> ChargingConfiguration:
    start_counts = [0] * instance.horizon.T
    for a, _, _, first, A in groups:
        for j in range(A):
            start_counts[a - 1 + j] += int(counts[first + j])
    return ChargingConfiguration(tuple(start_counts), tuple(int(v) for v in occ))


def _profile_count(groups, counts) -> int:
    # profiles behind one class configuration: a multinomial per group
    return math.prod(
        math.factorial(n) // math.prod(math.factorial(c) for c in counts[first : first + A].tolist())
        for _, _, n, first, A in groups
    )


def _scan(instance: AtomicInstance, cost: GridCostFunction, budget: Optional[int]):
    """Scan the class configurations in lexicographic order, up to the budget.

    Returns the equilibrium set, the number of NE profiles behind it, and
    the first minimum-cost class configuration as ``(cost, configuration)``.
    Players sharing a window are interchangeable, so NE status and cost
    depend on the class configuration alone; distinct class configurations
    can still share a ``ChargingConfiguration``, which is listed once.
    """
    budget = resolve_budget(budget)
    groups = _class_groups(instance)
    shape = [(n, A) for _, _, n, _, A in groups]
    space = math.prod(_composition_count(n, A) for n, A in shape)
    dtype = _scan_dtype(instance, cost)
    # table[t, v] = f(exo_t + P v), v = 0..I+1, as `cost` gives it in this dtype
    v = np.arange(instance.I + 2).astype(dtype)
    table = cost(np.asarray(instance.exogenous, dtype=dtype)[:, None] + instance.power * v)
    # int / int rounds correctly; the shift by a power of two keeps row sums finite
    shift = max(0, max(abs(int(x)).bit_length() for x in table.flat) - 960) if dtype is object else 0
    approx = np.array([int(x) / (1 << shift) for x in table.flat]).reshape(table.shape) if dtype is object else None
    native = float if dtype is np.float64 else int

    ne_found: dict[ChargingConfiguration, Number] = {}
    ne_profiles = 0
    best = None  # (cost, configuration)
    examined = 0
    stats = {"blocks": 0, "exact_rows": 0, "generate_s": 0.0, "evaluate_s": 0.0, "reduce_s": 0.0}
    t0 = time.perf_counter()
    for counts in _configuration_blocks(shape, 1 << 13):  # bounded blocks keep memory flat
        if examined >= budget:
            break
        t1 = time.perf_counter()
        counts = counts[: budget - examined]
        examined += counts.shape[0]
        if approx is not None:
            # exact integers decide the rows that may be NE or tie the minimum
            maybe_ne, tc, _, err = _eval_block(groups, approx, counts, certify=True)
            counts = counts[maybe_ne | (tc - err <= np.min(tc + err))]
            stats["exact_rows"] += counts.shape[0]
        ne, tc, occ, _ = _eval_block(groups, table, counts)
        t2 = time.perf_counter()
        for idx in np.flatnonzero(ne):
            ne_profiles += _profile_count(groups, counts[idx])
            config = _config_from_counts(instance, groups, counts[idx], occ[idx])
            ne_found.setdefault(config, native(tc[idx]))
        idx = int(np.argmin(tc))  # first occurrence: first in scan order
        if best is None or native(tc[idx]) < best[0]:
            best = (native(tc[idx]), _config_from_counts(instance, groups, counts[idx], occ[idx]))
        stats["blocks"] += 1
        stats["generate_s"] += t1 - t0
        stats["evaluate_s"] += t2 - t1
        t0 = time.perf_counter()
        stats["reduce_s"] += t0 - t2

    # listed by start counts, then occupancy, whatever the scan order
    listing = sorted(ne_found.items(), key=lambda pair: (pair[0].start_counts, pair[0].occupancy))
    eq_set = EquilibriumSet(
        equilibria=tuple(config for config, _ in listing),
        costs=tuple(c for _, c in listing),
        complete=examined >= space,
        examined=examined,
        space_size=space,
        stats=stats,
    )
    return eq_set, ne_profiles, best


def enumerate_equilibria(
    instance: AtomicInstance,
    cost: GridCostFunction,
    budget: Optional[int] = None,
) -> EquilibriumSet:
    """All Nash-equilibrium configurations, by exhaustive deterministic scan.

    When the budget runs out first the returned set is flagged incomplete.
    """
    return _scan(instance, cost, budget)[0]


def social_optimum(
    instance: AtomicInstance,
    cost: GridCostFunction,
    budget: Optional[int] = None,
) -> tuple[ChargingConfiguration, Number]:
    """Configuration minimizing total grid cost, with its cost.

    Ties break toward the first class configuration in scan order; on a
    symmetric instance that is the lexicographically smallest start-count
    vector.  Raises ``BudgetExceededError`` if the scan could not finish: a
    partial minimum is not an optimum.
    """
    eq_set, _, best = _scan(instance, cost, budget)
    if not eq_set.complete:
        raise BudgetExceededError(
            f"social optimum scan stopped after {eq_set.examined} of {eq_set.space_size} configurations",
            partial=best,
        )
    return best[1], best[0]


def efficiency(
    instance: AtomicInstance,
    cost: GridCostFunction,
    budget: Optional[int] = None,
) -> EfficiencyReport:
    """Worst-case Nash total cost over the social optimum, exhaustively.

    The worst equilibrium is the first costliest one in the listing order of
    ``EquilibriumSet``.  Exact rational arithmetic is used whenever both
    costs are integers.  Raises ``BudgetExceededError`` on an incomplete scan.
    """
    eq_set, _, best = _scan(instance, cost, budget)
    if not eq_set.complete:
        raise BudgetExceededError(
            f"efficiency scan stopped after {eq_set.examined} of {eq_set.space_size} configurations",
            partial=eq_set,
        )
    if not eq_set.equilibria:
        raise RuntimeError("no Nash equilibrium found; the potential argument forbids this")
    worst_idx = max(range(len(eq_set.costs)), key=eq_set.costs.__getitem__)
    worst_cost = eq_set.costs[worst_idx]
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
        worst_equilibrium=eq_set.equilibria[worst_idx],
        worst_cost=worst_cost,
        optimum=opt_config,
        optimum_cost=opt_cost,
        equilibria=eq_set,
    )


def ne_proportion(
    instance: AtomicInstance,
    cost: GridCostFunction,
    budget: Optional[int] = None,
) -> float:
    """Fraction of the game's outcomes that are Nash equilibria.

    A symmetric instance counts configurations: equilibrium configurations
    out of all configurations.  Any other instance counts profiles:
    equilibrium profiles out of all profiles.
    """
    eq_set, ne_profiles, _ = _scan(instance, cost, budget)
    if not eq_set.complete:
        raise BudgetExceededError(
            f"proportion scan stopped after {eq_set.examined} of {eq_set.space_size} configurations",
            partial=None,
        )
    if instance.is_symmetric:
        return len(eq_set.equilibria) / eq_set.space_size
    return ne_profiles / math.prod(len(action_set(instance, i)) for i in range(instance.I))
