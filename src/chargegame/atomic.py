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
(lexicographic, groups in sorted window order) and budget-capped.  It runs
over blocks of 4,096 configurations, and ``_BlockKernel`` evaluates each block
slot-major: one array row per slot, one column per configuration.

Past int64, a float64 pass with a rigorous error bound (``_BlockKernel`` with
``certify``) rules out most configurations; exact integers decide the rest and
give every answer.

The single-profile functions (``best_response``, ``is_nash``,
``best_response_dynamics``) read the same slot-cost table as the scan,
``f(exo_t + P v)`` for ``v = 0..I+1``, built by one ``cost`` call per call
in the data's own number types (int, Fraction or float, never rounded).
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
    action_set,
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
# round-robin sweeps best-response dynamics may take before giving up
_MAX_SWEEPS = 10_000


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


def _window_costs(F, G, s: int, C: int, targets: range):
    """A player's window cost at start ``s``, and at each start of ``targets``.

    ``F[t]`` and ``G[t]`` are slot ``t``'s cost at its occupancy and with one
    more player.  Moved to a target, the player's own window keeps its
    occupancy and every other slot gains it.  Sums run in slot order.
    """
    lo, hi = s - 1, s - 1 + C
    moved = G[:lo] + F[lo:hi] + G[hi:]
    return sum(F[lo:hi]), [sum(moved[t - 1 : t - 1 + C]) for t in targets]


def _slot_state(instance: AtomicInstance, cost: GridCostFunction, starts):
    """Slot-cost table, occupancy of ``starts``, and its ``F`` and ``G`` rows.

    ``rows[t][v] = f(exo_t + P v)`` for ``v = 0..I+1`` is the scan's table,
    from one ``cost`` call on objects: every entry is the Python number (int,
    Fraction or float) that ``potential_atomic`` computes for that slot and
    occupancy.  ``F[t] = rows[t][occ[t]]`` and ``G[t] = rows[t][occ[t] + 1]``;
    all four are plain lists.
    """
    v = np.array(range(instance.I + 2), dtype=object)
    rows = cost(np.array(instance.exogenous, dtype=object)[:, None] + instance.power * v).tolist()
    occ = [0] * instance.horizon.T
    for s, C in zip(starts, instance.durations):
        for t in range(s - 1, s - 1 + C):
            occ[t] += 1
    return rows, occ, [row[n] for row, n in zip(rows, occ)], [row[n + 1] for row, n in zip(rows, occ)]


def _potential(rows, occ) -> Number:
    # potential_atomic's sum, term by term in its order, off the table
    total = 0
    for row, n in zip(rows, occ):
        for x in row[: n + 1]:
            total += x
    return -total


def best_response(instance: AtomicInstance, cost: GridCostFunction, profile, player: int) -> int:
    """Best start slot for ``player`` against the others' current choices.

    Ties break toward the smallest slot.  No pricing map is needed: any
    strictly increasing one keeps the argmin of the raw window cost.  Window
    costs are read off the slot-cost table of ``_slot_state``.
    """
    profile = _coerce_profile(instance, profile)
    _, _, F, G = _slot_state(instance, cost, profile.starts)
    targets = action_set(instance, player)
    _, costs = _window_costs(F, G, profile.starts[player], instance.durations[player], targets)
    return targets[costs.index(min(costs))]


def is_nash(instance: AtomicInstance, cost: GridCostFunction, profile) -> bool:
    """True when no player has a strictly improving unilateral deviation.

    One slot-cost table serves every player: ``cost`` runs once per call.
    As in ``best_response_dynamics``, a player's cheapest target must clear
    ``_strictly_less`` against its current cost.
    """
    profile = _coerce_profile(instance, profile)
    _, _, F, G = _slot_state(instance, cost, profile.starts)
    for i, (s, C) in enumerate(zip(profile.starts, instance.durations)):
        current, costs = _window_costs(F, G, s, C, action_set(instance, i))
        if _strictly_less(min(costs), current):
            return False
    return True


def best_response_dynamics(
    instance: AtomicInstance,
    cost: GridCostFunction,
    profile,
) -> tuple[StrategyProfile, tuple[Number, ...]]:
    """Round-robin best-response dynamics from a starting profile.

    Players are swept in index order; a player moves only when its best
    response strictly lowers its window cost.  Returns the final profile and
    the potential trace (initial value plus one entry per accepted move); the
    trace is strictly increasing, which is what guarantees termination.

    Costs come from one slot-cost table per call.  A move updates the
    occupancy of the slots it touches, and each trace entry adds up the
    table in ``potential_atomic``'s order, so it equals that potential.
    ``IterationBudgetError`` after ``_MAX_SWEEPS`` sweeps without settling.
    """
    profile = _coerce_profile(instance, profile)
    starts = list(profile.starts)
    rows, occ, F, G = _slot_state(instance, cost, profile.starts)
    trace = [_potential(rows, occ)]
    players = [(i, C, action_set(instance, i)) for i, C in enumerate(instance.durations)]
    for _ in range(_MAX_SWEEPS):
        moved = False
        for i, C, targets in players:
            s = starts[i]
            current, costs = _window_costs(F, G, s, C, targets)
            best = min(costs)
            if _strictly_less(best, current):
                slot = targets[costs.index(best)]
                # the mover's old window, then its new one
                touched = (*range(s - 1, s - 1 + C), *range(slot - 1, slot - 1 + C))
                for t in touched[:C]:
                    occ[t] -= 1
                for t in touched[C:]:
                    occ[t] += 1
                for t in touched:
                    F[t], G[t] = rows[t][occ[t]], rows[t][occ[t] + 1]
                starts[i] = slot
                trace.append(_potential(rows, occ))
                moved = True
        if not moved:
            return StrategyProfile(tuple(starts)), tuple(trace)
    raise IterationBudgetError(
        f"best-response dynamics did not settle within {_MAX_SWEEPS} sweeps"
    )


# ---------------------------------------------------------------------------
# exhaustive scans
# ---------------------------------------------------------------------------


# rows of a scan block, and most rows of a composition tail table: the block
# kernel's arrays, sized by the block, set a scan's peak memory
_BLOCK_ROWS = 1 << 12


def _composition_count(total: int, parts: int) -> int:
    return math.comb(total + parts - 1, parts - 1)


def _composition_blocks(total: int, parts: int, max_rows: int) -> Iterator[np.ndarray]:
    # all count vectors of length `parts` summing to `total`, lexicographic,
    # in int64 blocks of `max_rows` rows (the last one shorter).  Stars and
    # bars: the k = parts - 1 bar positions, lexicographic combinations of
    # range(n), give the counts between them in lexicographic order.  The
    # last h bars come from one table of the h-combinations of range(n), at
    # most _BLOCK_ROWS long: the rows whose first entry is at least c are the
    # table's last comb(n - c, h), in order, so a head of k - h bars ending
    # at c - 1 is followed by exactly that suffix.  Only the heads come out
    # of `combinations` one by one.
    n, k = total + parts - 1, parts - 1
    h = max(h for h in range(k + 1) if math.comb(n, h) <= _BLOCK_ROWS)
    size = math.comb(n, h)
    bars = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n), h)), np.int64, size * h)
    # the counts after each tail's first bar, and before it as if no bar came
    # earlier: a head ending at c - 1 takes c off that first count
    tails = np.diff(bars.reshape(size, h), axis=1, prepend=-1, append=n) - 1
    pieces, rows = [], 0  # (head, c, first, stop): the head over tails[first:stop]
    for head in itertools.combinations(range(n - h), k - h):
        c = head[-1] + 1 if head else 0
        first = size - math.comb(n - c, h)
        while first < size:
            stop = min(size, first + max_rows - rows)
            pieces.append((head, c, first, stop))
            rows += stop - first
            first = stop
            if rows == max_rows:
                yield _join_pieces(pieces, tails)
                pieces, rows = [], 0
    if pieces:
        yield _join_pieces(pieces, tails)


def _join_pieces(pieces, tails: np.ndarray) -> np.ndarray:
    # each head's counts repeated over its tail rows, the tails by one fancy index
    heads = np.array([head for head, *_ in pieces], dtype=np.int64)
    c, first, stop = np.array([piece[1:] for piece in pieces], dtype=np.int64).T
    lens = stop - first
    at = np.arange(lens.sum()) + np.repeat(first - (np.cumsum(lens) - lens), lens)
    head_counts = np.diff(heads, axis=1, prepend=-1) - 1
    counts = np.concatenate([np.repeat(head_counts, lens, axis=0), tails[at]], axis=1)
    counts[:, heads.shape[1]] -= np.repeat(c, lens)
    return counts


def _configuration_blocks(shape, max_rows: int) -> Iterator[np.ndarray]:
    # the product of the groups' compositions, one (total, parts) pair per
    # group: each row is one composition per group side by side, the rows in
    # lexicographic order, in int64 blocks of at most `max_rows` rows
    (total, parts), rest = shape[0], shape[1:]
    if not rest:
        yield from _composition_blocks(total, parts, max_rows)
        return
    tail_size = math.prod(_composition_count(*group) for group in rest)
    # a tail that fits in one block is built once and serves every head block
    tails = list(_configuration_blocks(rest, max_rows)) if tail_size <= max_rows else None
    for heads in _composition_blocks(total, parts, max(1, max_rows // tail_size)):
        for tail in tails or _configuration_blocks(rest, max_rows):
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


class _BlockKernel:
    """NE flags, total costs, occupancy and error bounds, block by block.

    Each row of a block holds one composition per group of ``_class_groups``:
    column ``first + j`` counts the group's players starting in slot
    ``a + j``; ``table[t, v]`` is slot ``t``'s cost at occupancy ``v``.  With
    ``certify`` (a float image of an exact table) a row is non-NE only if a
    deviation gains more than its error bound ``err``.

    The work is slot-major: every array holds one row per slot (or start)
    and one column per configuration, so each step is a whole-row numpy
    operation on contiguous memory.  The arrays are allocated for the
    largest block so far, and every call writes into them: touching fresh
    pages costs more than the arithmetic on them.  A call returns
    ``(ne, tc, occ, err)``, views that the next call overwrites; ``occ`` is
    ``(m, T)``.
    """

    def __init__(self, groups, table: np.ndarray, certify: bool = False):
        self.groups, self.table, self.certify = groups, table, certify
        T, V = table.shape
        self.offsets = np.arange(0, T * V, V)[:, None]  # flat index of table[t, 0]
        self.rows = 0

    def _allocate(self, rows: int):
        T, dtype = self.table.shape[0], self.table.dtype
        A = max(A for *_, A in self.groups)
        self.rows = rows
        self.starts = np.empty((sum(A for *_, A in self.groups), rows), dtype=np.int64)  # counts.T
        self.occ = np.empty((T, rows), dtype=np.int64)
        self.at = np.empty((T, rows), dtype=np.int64)
        # Fpre[k], Gpre[k]: sums of F = table[t, occ[t]] and G = table[t, occ[t] + 1]
        # over the slots t < k; row 0 stays zero
        self.Fpre = np.zeros((T + 1, rows), dtype=dtype)
        self.Gpre = np.zeros((T + 1, rows), dtype=dtype)
        self.bar, self.moved, self.og, self.of, self.tmp = (np.empty((A, rows), dtype=dtype) for _ in range(5))
        self.better = np.empty((A, rows), dtype=bool)
        self.hit = np.empty((A, rows), dtype=bool)
        self.ne = np.empty(rows, dtype=bool)

    def __call__(self, counts: np.ndarray):
        table = self.table
        T = table.shape[0]
        m = counts.shape[0]
        if m > self.rows:
            self._allocate(m)
        starts = self.starts[:, :m]
        np.copyto(starts, counts.T)

        # occupancy: each start count covers its group's C slots
        occ = self.occ[:, :m]
        occ.fill(0)
        for a, C, _, first, A in self.groups:
            for j in range(A):
                occ[a - 1 + j : a - 1 + j + C] += starts[first + j]

        # F and G land in the prefix rows, which then add up in place.  The
        # indices are in range: "clip" only spares `take` a buffer for `out`.
        at = np.add(occ, self.offsets, out=self.at[:, :m])
        Fpre, Gpre = self.Fpre[:, :m], self.Gpre[:, :m]
        table.take(at, out=Fpre[1:], mode="clip")
        at += 1
        table.take(at, out=Gpre[1:], mode="clip")

        # Error bound of a certified row: u = 2**-53, eta = 2**-1074, S_X the
        # row's sum of |X| for X = F, G, and S = S_F + S_G.  A table entry is off
        # by at most u|x| + eta/2 (correct rounding, underflow).  The prefixes add
        # in order, so a prefix of k <= T entries is off from the exact sum of its
        # rounded entries by (k-1)u/(1-(k-1)u) times their absolute sum at most
        # (Higham 2002, 4.2); a prefix of X is off by at most Tu(1+Tu)S_X +
        # T eta/2.  A deviation test puts four F and four G prefixes through seven
        # roundings of values below 2S: off by at most 4Tu(1+Tu)S + 14uS + 4T eta,
        # under err/2 for T < 2**31 (room to round S and err); a total, by less.
        # The slot-major layout leaves this intact: each element is the same
        # expression, each prefix adds in cumsum's order, and S is summed per
        # configuration over a row-major copy, the order numpy sums a row in.
        err = None
        if self.certify:
            S = np.abs(Fpre[1:]).T.copy().sum(1) + np.abs(Gpre[1:]).T.copy().sum(1)
            err = (8 * T + 32) * 2.0**-53 * S + 16 * T * 2.0**-1074
        for k in range(1, T):  # cumsum's order, as x + y rounds like y + x
            Fpre[k + 1] += Fpre[k]
            Gpre[k + 1] += Gpre[k]

        ne = self.ne[:m]
        ne.fill(True)
        hit = self.hit[:, :m]
        for a, C, _, first, A in self.groups:
            lo = a - 1
            # window cost at each start as it is (turned into the bar a move
            # must get under) and with one more player
            bar = np.subtract(Fpre[lo + C : lo + C + A], Fpre[lo : lo + A], out=self.bar[:A, :m])
            moved = np.subtract(Gpre[lo + C : lo + C + A], Gpre[lo : lo + A], out=self.moved[:A, :m])
            if self.certify:
                bar -= err
            elif table.dtype == np.float64:
                bar -= _REL_MARGIN * np.maximum(1.0, np.abs(bar))
            better = self.better[:A, :m]  # some move from the start gains
            better.fill(False)
            # targets at least C away share no slot with the mover's window:
            # the cheapest of them on either side decides.  fmin never rounds,
            # and it skips NaN, which no comparison finds smaller.
            if A > C:
                cheapest = self.tmp[: A - C, :m]
                np.copyto(cheapest, moved[: A - C])  # cheapest of moved[0..i]
                for i in range(1, A - C):
                    np.fmin(cheapest[i - 1], cheapest[i], out=cheapest[i])
                better[C:] |= np.less(cheapest, bar[C:], out=hit[: A - C])
                np.copyto(cheapest, moved[C:])  # cheapest of moved[i+C..A-1]
                for i in range(A - C - 1, 0, -1):
                    np.fmin(cheapest[i], cheapest[i - 1], out=cheapest[i - 1])
                better[: A - C] |= np.less(cheapest, bar[: A - C], out=hit[: A - C])
            # starts p and p + d < p + C share the slots lo+p+d .. lo+p+C-1, in
            # either direction of the move: the new window gains P except there
            for d in range(1, min(A, C)):
                n = A - d
                og = np.subtract(Gpre[lo + C : lo + C + n], Gpre[lo + d : lo + A], out=self.og[:n, :m])
                of = np.subtract(Fpre[lo + C : lo + C + n], Fpre[lo + d : lo + A], out=self.of[:n, :m])
                for target, mover in ((slice(d, A), slice(0, n)), (slice(0, n), slice(d, A))):
                    new = np.subtract(moved[target], og, out=self.tmp[:n, :m])
                    new += of
                    better[mover] |= np.less(new, bar[mover], out=hit[:n])
            better &= np.greater(starts[first : first + A], 0, out=hit[:A])
            ne &= ~better.any(0)
        return ne, Fpre[T], occ.T, err


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
    evaluate = _BlockKernel(groups, table)
    prefilter = _BlockKernel(groups, approx, certify=True) if approx is not None else None
    t0 = time.perf_counter()
    for counts in _configuration_blocks(shape, _BLOCK_ROWS):
        if examined >= budget:
            break
        t1 = time.perf_counter()
        counts = counts[: budget - examined]
        examined += counts.shape[0]
        if prefilter is not None:
            # exact integers decide the rows that may be NE or tie the minimum
            maybe_ne, tc, _, err = prefilter(counts)
            counts = counts[maybe_ne | (tc - err <= np.min(tc + err))]
            stats["exact_rows"] += counts.shape[0]
        ne, tc, occ, _ = evaluate(counts)
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
