"""Solvers for the finite-player charging game.

Equilibrium logic never goes through utilities or pricing maps: pricing is
strictly increasing, so "deviation is improving" is equivalent to "raw window
cost strictly decreases".  Every answer, of the scans and of the
single-profile functions alike, reads one slot-cost table per (instance,
cost), ``f(exo_t + P v)`` for ``v = 0..I+1`` (``_slot_table``), and its
entries decide the arithmetic.  Rational data (ints and Fractions) under a
rational polynomial cost gives ints and Fractions, compared exactly, in
int64 where every sum fits.  A table holding a float is float64, and a move
must then gain more than a relative margin of 1e-12.  The single-profile
functions keep their table (``_game``), so ``cost`` runs once per
(instance, cost) pair of objects, not once per call.

The exhaustive scans run over class configurations.  Players that share a
window ``(a, d, C)`` form a group and are interchangeable, so a class
configuration says only how many players of each group start in each slot:
one composition per group.  A group of ``n`` players with ``A`` start slots
has ``C(n+A-1, A-1)`` compositions in place of ``A**n`` profiles; a
symmetric instance is the one-group case, and an instance whose windows are
all distinct scans its profile space itself.  The scan is deterministic
(lexicographic, groups in sorted window order) and budget-capped.  It runs
over blocks of 4,096 configurations, slot-major: one array row per slot, one
column per configuration.  One scan serves any number of grid costs
(``efficiencies``): ``_Block`` loads each block's start counts and occupancy
once, and ``_BlockKernel`` evaluates every cost's slot-cost table on them.
The one-cost functions are that scan with a single cost.

Any other exact table is scanned in Python numbers behind a float64 pass
with a rigorous error bound (``_BlockKernel`` with ``certify``) that rules
out most configurations; exact sums decide the rest and every answer.
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
    _is_int,
    _player,
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
    on the scan order.  ``costs`` holds the total grid cost of each, in the
    same order, as ``grid_total_cost`` gives it: an int or Fraction on an
    exact slot-cost table, a float on one holding a float.  ``examined`` and
    ``space_size`` count class configurations.  ``complete`` is False when
    the budget stopped the scan early, in which case the set is a lower
    bound only.

    ``stats`` is never compared.  ``blocks`` and ``generate_s`` describe the
    configuration stream, which every cost of one scan shares
    (``efficiencies``): the blocks scanned, and the seconds spent generating
    them and loading their start counts and occupancy.  The other keys are
    this cost's own work: the ``exact_rows`` its float pass left to
    exact sums, and the seconds spent evaluating its table (``evaluate_s``,
    exact rows included) and reducing the results (``reduce_s``).
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
    ratio as a ``Fraction`` when the slot-cost table is exact, else None.
    Atomic scans attach the full equilibrium set and configurations; the
    nonatomic solver stores profiles instead and leaves ``equilibria`` None.
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

    Raises ``ValueError`` on a budget below 1 from either source, or an
    explicit budget that is not an int (a bool is not).
    """
    if budget is None:
        budget = os.environ.get(BUDGET_ENV_VAR) or default
        try:
            budget = int(budget)
        except ValueError:
            raise ValueError(f"budget must be an integer, got {budget!r}") from None
    elif not _is_int(budget):
        raise ValueError(f"budget must be an integer, got {budget!r}")
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    return budget


# ---------------------------------------------------------------------------
# the slot-cost table, and single-profile operations
# ---------------------------------------------------------------------------


# on a float table a move must gain more than this times max(1, |its cost|):
# rounding can turn an exact tie into a phantom gain of a few ulp
_REL_MARGIN = 1e-12
# round-robin sweeps best-response dynamics may take before giving up
_MAX_SWEEPS = 10_000


def _slot_table(instance: AtomicInstance, cost: GridCostFunction):
    """``rows[t][v] = f(exo_t + P v)`` for ``v = 0..I+1``, and the dtype it decides.

    One ``cost`` call on Python numbers gives each entry as
    ``grid_total_cost`` computes it.  Their types decide the arithmetic of
    every answer read off the table: int64 when every entry is an int and
    ``T * max < 2**62``, so no sum of ``T`` entries overflows; objects (exact
    sums) when every entry is an int or a Fraction; float64 otherwise.
    """
    v = np.array(range(instance.I + 2), dtype=object)
    rows = cost(np.array(instance.exogenous, dtype=object)[:, None] + instance.power * v).tolist()
    kinds = {type(x) for row in rows for x in row}
    if kinds <= {int}:  # f is nondecreasing: the last column holds each row's maximum
        return rows, np.int64 if instance.horizon.T * max(row[-1] for row in rows) < 2**62 else object
    return rows, object if kinds <= {int, Fraction} else np.float64


# single-profile state kept by (instance, cost) object identity: instances
# that compare equal may hold numbers of different types, and so different
# tables.  An entry holds both objects, so their ids cannot be reused while
# it lives.  The dict is emptied whole when it fills, which threads survive
_GAMES: dict = {}
_GAMES_KEPT = 8


def _game(instance: AtomicInstance, cost: GridCostFunction):
    """Table rows, margin and players of one (instance, cost) pair, kept.

    ``rows`` is the table of ``_slot_table``.  A move gains when it costs
    less than ``cur - margin * max(1, abs(cur))``: ``_REL_MARGIN`` on a float
    table, else an int 0, which keeps Fractions exact.  ``players`` holds one
    ``(C, targets, windows)`` per player: its duration, its action set and
    the slots each target's window covers, as slices.
    """
    key = (id(instance), id(cost))
    game = _GAMES.get(key)
    if game is None:
        rows, dtype = _slot_table(instance, cost)
        players = []
        for i, C in enumerate(instance.durations):
            targets = action_set(instance, i)
            players.append((C, targets, [slice(t - 1, t - 1 + C) for t in targets]))
        if len(_GAMES) >= _GAMES_KEPT:
            _GAMES.clear()
        game = _GAMES[key] = (instance, cost, rows, _REL_MARGIN if dtype is np.float64 else 0, players)
    return game[2:]


def _window_costs(F, G, s: int, C: int, windows):
    """A player's window cost at start ``s``, and at each of ``windows``.

    ``F[t]`` and ``G[t]`` are slot ``t``'s cost at its occupancy and with one
    more player.  Moved to a target, the player's own window keeps its
    occupancy and every other slot gains it.  Sums run in slot order.
    """
    own = slice(s - 1, s - 1 + C)
    moved = G.copy()
    moved[own] = F[own]
    return sum(F[own]), [sum(moved[w]) for w in windows]


def _slot_state(instance: AtomicInstance, cost: GridCostFunction, starts):
    """The game of ``_game``, the occupancy of ``starts``, its ``F`` and ``G`` rows.

    ``F[t] = rows[t][occ[t]]`` and ``G[t] = rows[t][occ[t] + 1]``, all
    plain lists.
    """
    rows, margin, players = _game(instance, cost)
    occ = [0] * instance.horizon.T
    for s, (C, _, _) in zip(starts, players):
        for t in range(s - 1, s - 1 + C):
            occ[t] += 1
    F, G = [row[n] for row, n in zip(rows, occ)], [row[n + 1] for row, n in zip(rows, occ)]
    return rows, margin, players, occ, F, G


def _potential(rows, occ, sums, lo: int) -> Number:
    # potential_atomic's sum, term by term in its order, off the table.
    # sums[t] is its running total before slot t; the slots before lo are
    # unchanged, so the sum resumes there
    total = sums[lo]
    for t in range(lo, len(occ)):
        for x in rows[t][: occ[t] + 1]:
            total += x
        sums[t + 1] = total
    return -total


def best_response(instance: AtomicInstance, cost: GridCostFunction, profile, player: int) -> int:
    """Best start slot for ``player`` against the others' current choices.

    Ties break toward the smallest slot.  No pricing map is needed: any
    strictly increasing one keeps the argmin of the raw window cost.  Window
    costs are read off the slot-cost table of ``_game``.  ``ValueError`` on
    a player that is not an int in ``0..I-1``.
    """
    profile = _coerce_profile(instance, profile)
    player = _player(instance, player)
    _, _, players, _, F, G = _slot_state(instance, cost, profile.starts)
    C, targets, windows = players[player]
    _, costs = _window_costs(F, G, profile.starts[player], C, windows)
    return targets[costs.index(min(costs))]


def is_nash(instance: AtomicInstance, cost: GridCostFunction, profile) -> bool:
    """True when no player has a strictly improving unilateral deviation.

    One slot-cost table serves every player: ``cost`` runs once per
    (instance, cost) pair (``_game``).  As in the dynamics and the scan, a
    player's cheapest target must gain on its current cost by the margin of
    ``_game``.
    """
    profile = _coerce_profile(instance, profile)
    _, margin, players, _, F, G = _slot_state(instance, cost, profile.starts)
    for s, (C, _, windows) in zip(profile.starts, players):
        current, costs = _window_costs(F, G, s, C, windows)
        if min(costs) < current - margin * max(1, abs(current)):
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
    trace is strictly increasing, which is what guarantees termination.  The
    run stops once the last mover and every player asked after it are at a
    best response.  The mover is not asked again: after its move, its window
    costs are the table entries, summed in the same order, that it chose
    from.

    Costs come from one slot-cost table per (instance, cost) pair
    (``_game``).  A move updates the occupancy of the slots it touches, and
    each trace entry adds up the table in ``potential_atomic``'s order, so
    it equals that potential; the sum resumes at the first slot the move
    touched.  ``IterationBudgetError`` after ``_MAX_SWEEPS`` sweeps without
    settling.
    """
    profile = _coerce_profile(instance, profile)
    starts = list(profile.starts)
    rows, margin, players, occ, F, G = _slot_state(instance, cost, starts)
    sums = [0] * (len(occ) + 1)
    trace = [_potential(rows, occ, sums, 0)]
    settled = 0  # players at a best response since the last move, the mover included
    for _ in range(_MAX_SWEEPS):
        for i, (C, targets, windows) in enumerate(players):
            s = starts[i]
            current, costs = _window_costs(F, G, s, C, windows)
            best = min(costs)
            if best < current - margin * max(1, abs(current)):
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
                trace.append(_potential(rows, occ, sums, min(s, slot) - 1))
                settled = 0
            settled += 1
            if settled == len(players):
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


class _Block:
    """Start counts and occupancy of one block, shared by every table scanned.

    Each row of ``counts`` holds one composition per group of
    ``_class_groups``: column ``first + j`` counts the group's players
    starting in slot ``a + j``.  ``load`` lays a block out slot-major, one
    column per configuration: ``present`` has a row per start, true where
    some player starts there, and ``occ`` a row per slot.  ``at`` holds the
    flat index of ``table[t, occ[t]]`` in any ``(T, I + 2)`` slot-cost
    table, so ``at + 1`` is that of ``table[t, occ[t] + 1]``.  The
    arrays are allocated for the largest block so far and overwritten by the
    next ``load``.
    """

    def __init__(self, groups, T: int, V: int):
        self.groups = groups
        self.offsets = np.arange(0, T * V, V)[:, None]  # flat index of table[t, 0]
        self.rows = 0

    def _allocate(self, rows: int):
        starts, T = sum(A for *_, A in self.groups), self.offsets.shape[0]
        self.rows = rows
        self._starts = np.empty((starts, rows), dtype=np.int64)
        self._present = np.empty((starts, rows), dtype=bool)
        self._occ, self._at = (np.empty((T, rows), dtype=np.int64) for _ in range(2))

    def load(self, counts: np.ndarray) -> "_Block":
        m = self.m = counts.shape[0]
        if m > self.rows:
            self._allocate(m)
        starts = self._starts[:, :m]  # counts.T
        np.copyto(starts, counts.T)
        self.present = np.greater(starts, 0, out=self._present[:, :m])
        # occupancy: each start count covers its group's C slots
        occ = self.occ = self._occ[:, :m]
        occ.fill(0)
        for a, C, _, first, A in self.groups:
            for j in range(A):
                occ[a - 1 + j : a - 1 + j + C] += starts[first + j]
        self.at = np.add(occ, self.offsets, out=self._at[:, :m])
        return self


class _BlockKernel:
    """NE flags, total costs and error bounds of a loaded block, per table.

    ``table[t, v]`` is slot ``t``'s cost at occupancy ``v``, of the dtype the
    kernel was made for.  With ``certify`` (a float image of an exact table)
    a row is non-NE only if a deviation gains more than its error bound
    ``err``.

    The work is slot-major: every array holds one row per slot (or start)
    and one column per configuration, so each step is a whole-row numpy
    operation on contiguous memory.  The arrays are allocated for the
    largest block so far, and every call writes into them, whichever table
    it evaluates: touching fresh pages costs more than the arithmetic on
    them.  A call returns ``(ne, tc, err)``, views that the next call
    overwrites.
    """

    def __init__(self, groups, dtype):
        self.groups, self.dtype = groups, dtype
        self.rows = 0

    def _allocate(self, T: int, rows: int):
        A = max(A for *_, A in self.groups)
        self.rows = rows
        # Fpre[k], Gpre[k]: sums of F = table[t, occ[t]] and G = table[t, occ[t] + 1]
        # over the slots t < k; row 0 stays zero
        self.Fpre = np.zeros((T + 1, rows), dtype=self.dtype)
        self.Gpre = np.zeros((T + 1, rows), dtype=self.dtype)
        self.bar, self.moved, self.og, self.of, self.tmp = (np.empty((A, rows), dtype=self.dtype) for _ in range(5))
        self.better = np.empty((A, rows), dtype=bool)
        self.hit = np.empty((A, rows), dtype=bool)
        self.ne = np.empty(rows, dtype=bool)

    def __call__(self, block: _Block, table: np.ndarray, certify: bool = False):
        T = table.shape[0]
        m = block.m
        if m > self.rows:
            self._allocate(T, m)

        # F and G land in the prefix rows, which then add up in place; G's
        # entries sit one place after F's, so it reads the flat table shifted
        # by one.  The indices are in range: "clip" only spares `take` a
        # buffer for `out`.
        Fpre, Gpre = self.Fpre[:, :m], self.Gpre[:, :m]
        flat = table.ravel()
        flat.take(block.at, out=Fpre[1:], mode="clip")
        flat[1:].take(block.at, out=Gpre[1:], mode="clip")

        # Error bound of a certified row: u = 2**-53, eta = 2**-1074, S_X the
        # row's sum of |X| for X = F, G, and S = S_F + S_G.  A table entry is off
        # by at most u|x| + eta/2 (correct rounding, underflow).  The prefixes add
        # in order, so a prefix of k <= T entries is off from the exact sum of its
        # rounded entries by (k-1)u/(1-(k-1)u) times their absolute sum at most
        # (Higham 2002, 4.2); a prefix of X is off by at most Tu(1+Tu)S_X +
        # T eta/2.  A deviation test puts four F and four G prefixes through seven
        # roundings of values below 2S: off by at most 4Tu(1+Tu)S + 14uS + 4T eta;
        # a total, by less.  S adds 2T nonnegative terms, here in slot order (any
        # order would do), so it comes out low by at most (2T-1)u/(1-(2T-1)u)
        # times S (the same bound), and err, two more roundings, by about
        # 16T^2 u^2 S + eta below its exact value: still above the test's error
        # for T < 2**31.
        err = None
        if certify:
            S = np.abs(Fpre[1:]).sum(0) + np.abs(Gpre[1:]).sum(0)
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
            if certify:
                bar -= err
            elif self.dtype == np.float64:
                bar -= _REL_MARGIN * np.maximum(1.0, np.abs(bar))
            present = block.present[first : first + A]
            # the prefixes a move within C slots reads: rows lo+1 .. lo+A+C-2
            Fnear, Gnear = Fpre[lo + 1 : lo + A + C - 1], Gpre[lo + 1 : lo + A + C - 1]
            cols = None
            # targets at least C away share no slot with the mover's window:
            # the cheapest of them on either side decides.  fmin never rounds,
            # and it skips NaN, which no comparison finds smaller.  On the
            # bundled sweeps this test leaves a few percent of the rows, so
            # the nearer moves below see only the columns still NE, gathered
            # into fresh arrays.
            if A > C:
                better = self.better[:A, :m]  # some distant move from the start gains
                better.fill(False)
                cheapest = self.tmp[: A - C, :m]
                np.copyto(cheapest, moved[: A - C])  # cheapest of moved[0..i]
                for i in range(1, A - C):
                    np.fmin(cheapest[i - 1], cheapest[i], out=cheapest[i])
                better[C:] |= np.less(cheapest, bar[C:], out=hit[: A - C])
                np.copyto(cheapest, moved[C:])  # cheapest of moved[i+C..A-1]
                for i in range(A - C - 1, 0, -1):
                    np.fmin(cheapest[i], cheapest[i - 1], out=cheapest[i - 1])
                better[: A - C] |= np.less(cheapest, bar[: A - C], out=hit[: A - C])
                better &= present
                ne &= ~better.any(0)
                cols = np.flatnonzero(ne)
                if C == 1 or not cols.size:
                    continue
                bar, moved, present, Fnear, Gnear = (x.take(cols, axis=1) for x in (bar, moved, present, Fnear, Gnear))
            k = bar.shape[1]
            better = self.better[:A, :k]  # some nearer move from the start gains
            better.fill(False)
            # starts p and p + d < p + C share the slots lo+p+d .. lo+p+C-1, in
            # either direction of the move: the new window gains P except there
            for d in range(1, min(A, C)):
                n = A - d
                og = np.subtract(Gnear[C - 1 : C - 1 + n], Gnear[d - 1 : A - 1], out=self.og[:n, :k])
                of = np.subtract(Fnear[C - 1 : C - 1 + n], Fnear[d - 1 : A - 1], out=self.of[:n, :k])
                for target, mover in ((slice(d, A), slice(0, n)), (slice(0, n), slice(d, A))):
                    new = np.subtract(moved[target], og, out=self.tmp[:n, :k])
                    new += of
                    better[mover] |= np.less(new, bar[mover], out=hit[:n, :k])
            better &= present
            if cols is None:
                ne &= ~better.any(0)
            else:
                ne[cols] = ~better.any(0)
        return ne, Fpre[T], err


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


class _CostScan:
    """One cost's part of a scan: its slot-cost tables and running answers.

    ``table`` is ``_slot_table`` in its dtype; on an object table ``approx``
    is its float image for the certified pass.  ``add`` folds in the NE
    flags and total costs, as Python numbers, of the rows of one block.
    """

    def __init__(self, instance: AtomicInstance, groups, cost: GridCostFunction):
        self.instance, self.groups = instance, groups
        rows, dtype = _slot_table(instance, cost)
        self.table = table = np.array(rows, dtype=dtype)
        self.approx = None
        if table.dtype == object:
            # n / d rounds correctly for x = n / d, an int or a Fraction; |x| is below
            # 2**(bits(n) - bits(d) + 1), so the shift by a power of two keeps row sums finite
            ratios = [x.as_integer_ratio() for x in table.flat]
            shift = max(0, max(abs(n).bit_length() - d.bit_length() + 1 for n, d in ratios) - 960)
            self.approx = np.array([n / (d << shift) for n, d in ratios]).reshape(table.shape)
        self.ne_found: dict[ChargingConfiguration, Number] = {}
        self.ne_profiles = 0
        self.best = None  # (cost, configuration)
        self.stats = {"exact_rows": 0, "evaluate_s": 0.0, "reduce_s": 0.0}

    def add(self, counts, ne, tc, occ) -> None:
        instance, groups = self.instance, self.groups
        for idx in np.flatnonzero(ne):
            self.ne_profiles += _profile_count(groups, counts[idx])
            config = _config_from_counts(instance, groups, counts[idx], occ[idx])
            self.ne_found.setdefault(config, tc.item(idx))
        idx = int(np.argmin(tc))  # first occurrence: first in scan order
        if self.best is None or tc.item(idx) < self.best[0]:
            self.best = (tc.item(idx), _config_from_counts(instance, groups, counts[idx], occ[idx]))


def _scan(instance: AtomicInstance, costs: tuple, budget: Optional[int]):
    """Scan the class configurations in lexicographic order, up to the budget.

    One stream of configurations serves every cost in ``costs``: each block
    is generated once, its start counts and occupancy are loaded once
    (``_Block``), and then each cost's slot-cost table is evaluated on them,
    the tables of one dtype in one reused ``_BlockKernel``.  On an object
    table the certified float pass reads the shared block, and the exact
    kernel loads only the rows that pass leaves to it.  The budget caps the
    stream, so every cost examines the same configurations.

    Returns, per cost, the equilibrium set, the number of NE profiles behind
    it, and the first minimum-cost class configuration as
    ``(cost, configuration)``.  Players sharing a window are interchangeable,
    so NE status and cost depend on the class configuration alone; distinct
    class configurations can still share a ``ChargingConfiguration``, which
    is listed once.
    """
    if not costs:
        raise ValueError("an atomic scan needs at least one cost")
    budget = resolve_budget(budget)
    groups = _class_groups(instance)
    shape = [(n, A) for _, _, n, _, A in groups]
    space = math.prod(_composition_count(n, A) for n, A in shape)
    T, V = instance.horizon.T, instance.I + 2
    scans = [_CostScan(instance, groups, cost) for cost in costs]
    # one kernel, and so one set of scratch arrays, per table dtype
    tables = [table for scan in scans for table in (scan.table, scan.approx) if table is not None]
    kernels = {table.dtype: _BlockKernel(groups, table.dtype) for table in tables}
    stream = _Block(groups, T, V)
    exact = _Block(groups, T, V)  # the rows a certified pass leaves to exact sums

    examined, blocks, generate_s = 0, 0, 0.0
    t0 = time.perf_counter()
    for counts in _configuration_blocks(shape, _BLOCK_ROWS):
        if examined >= budget:
            break
        counts = counts[: budget - examined]
        examined += counts.shape[0]
        stream.load(counts)
        blocks += 1
        generate_s += time.perf_counter() - t0
        for scan in scans:
            t1 = time.perf_counter()
            rows, block = counts, stream
            if scan.approx is not None:
                # exact sums decide the rows that may be NE or tie the minimum
                maybe_ne, tc, err = kernels[scan.approx.dtype](stream, scan.approx, certify=True)
                rows = counts[maybe_ne | (tc - err <= np.min(tc + err))]
                scan.stats["exact_rows"] += rows.shape[0]
                block = exact.load(rows)
            ne, tc, _ = kernels[scan.table.dtype](block, scan.table)
            t2 = time.perf_counter()
            scan.add(rows, ne, tc, block.occ.T)
            scan.stats["evaluate_s"] += t2 - t1
            scan.stats["reduce_s"] += time.perf_counter() - t2
        t0 = time.perf_counter()

    results = []
    for scan in scans:
        # listed by start counts, then occupancy, whatever the scan order
        listing = sorted(scan.ne_found.items(), key=lambda pair: (pair[0].start_counts, pair[0].occupancy))
        eq_set = EquilibriumSet(
            equilibria=tuple(config for config, _ in listing),
            costs=tuple(c for _, c in listing),
            complete=examined >= space,
            examined=examined,
            space_size=space,
            stats={"blocks": blocks, "generate_s": generate_s, **scan.stats},
        )
        results.append((eq_set, scan.ne_profiles, scan.best))
    return results


def enumerate_equilibria(
    instance: AtomicInstance,
    cost: GridCostFunction,
    budget: Optional[int] = None,
) -> EquilibriumSet:
    """All Nash-equilibrium configurations, by exhaustive deterministic scan.

    When the budget runs out first the returned set is flagged incomplete.
    """
    ((eq_set, _, _),) = _scan(instance, (cost,), budget)
    return eq_set


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
    ((eq_set, _, best),) = _scan(instance, (cost,), budget)
    if not eq_set.complete:
        raise BudgetExceededError(
            f"social optimum scan stopped after {eq_set.examined} of {eq_set.space_size} configurations",
            partial=best,
        )
    return best[1], best[0]


def efficiencies(
    instance: AtomicInstance,
    costs,
    budget: Optional[int] = None,
) -> tuple[EfficiencyReport, ...]:
    """``efficiency`` under each cost of ``costs``, from one scan.

    The configurations are generated and their occupancy built once, and
    every cost's slot-cost table is evaluated on them (see ``_scan``); each
    report equals the one ``efficiency`` gives for its cost alone.  Raises
    ``ValueError`` on no cost, and ``BudgetExceededError`` when the budget
    stops the scan, with the first cost's partial equilibrium set.
    """
    reports = []
    for eq_set, _, best in _scan(instance, tuple(costs), budget):
        if not eq_set.complete:
            raise BudgetExceededError(
                f"efficiency scan stopped after {eq_set.examined} of {eq_set.space_size} configurations",
                partial=eq_set,
            )
        if not eq_set.equilibria:
            raise RuntimeError("no Nash equilibrium found; the potential argument forbids this")
        worst_idx = max(range(len(eq_set.costs)), key=eq_set.costs.__getitem__)
        worst_cost = eq_set.costs[worst_idx]
        opt_cost, opt_config = best
        # a float table's costs are all floats; an exact one's, ints and Fractions
        exact = None if isinstance(worst_cost, float) else Fraction(worst_cost) / opt_cost
        value = worst_cost / opt_cost if exact is None else float(exact)
        reports.append(
            EfficiencyReport(
                value=value,
                exact=exact,
                worst_equilibrium=eq_set.equilibria[worst_idx],
                worst_cost=worst_cost,
                optimum=opt_config,
                optimum_cost=opt_cost,
                equilibria=eq_set,
            )
        )
    return tuple(reports)


def efficiency(
    instance: AtomicInstance,
    cost: GridCostFunction,
    budget: Optional[int] = None,
) -> EfficiencyReport:
    """Worst-case Nash total cost over the social optimum, exhaustively.

    The worst equilibrium is the first costliest one in the listing order of
    ``EquilibriumSet``.  The ratio is an exact ``Fraction`` whenever the
    slot-cost table is exact (see ``_slot_table``).  Raises
    ``BudgetExceededError`` on an incomplete scan.
    """
    return efficiencies(instance, (cost,), budget)[0]


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
    ((eq_set, ne_profiles, _),) = _scan(instance, (cost,), budget)
    if not eq_set.complete:
        raise BudgetExceededError(
            f"proportion scan stopped after {eq_set.examined} of {eq_set.space_size} configurations",
            partial=None,
        )
    if instance.is_symmetric:
        return len(eq_set.equilibria) / eq_set.space_size
    return ne_profiles / math.prod(len(action_set(instance, i)) for i in range(instance.I))
