"""Solvers for the finite-player charging game.

Equilibrium logic never goes through utilities or pricing maps: pricing is
strictly increasing, so "deviation is improving" is equivalent to "raw window
cost strictly decreases".  Every answer, of the scans and of the
single-profile functions alike, reads one slot-cost table per (instance,
cost), ``f(exo_t + P v)`` for ``v = 0..I+1`` (``_slot_table``), whose int,
Fraction and float entries are exact rationals, held as integers over one
common denominator: a move gains when its integer window sum is strictly
smaller.  The single-profile functions keep their table (``_game``), so
``cost`` runs once per (instance, cost) pair of objects, not once per call,
and each player's best response (``_move``) by its window, its start and the
occupancy of its action span: its window costs read no other slot.  A game
keeps at most ``_MOVES_KEPT`` of them, about ``150 + 8 * span`` bytes each, so
the ``_GAMES_KEPT`` games hold at most 5.3 MiB at T = 24 and 14 MiB at T = 96.

The exhaustive scans run over class configurations.  Players that share a
window ``(a, d, C)`` form a group and are interchangeable, so a class
configuration says only how many players of each group start in each slot:
one composition per group.  A group of ``n`` players with ``A`` start slots
has ``C(n+A-1, A-1)`` compositions in place of ``A**n`` profiles; a
symmetric instance is the one-group case, and an instance whose windows are
all distinct scans its profile space itself.  The scan is deterministic
(lexicographic, groups in sorted window order) and budget-capped.  It runs
over blocks of 4,096 configurations, slot-major: one array row per slot, one
column per configuration.  Each group's compositions are joined from a
stream of heads and one table of tails (``_composition_blocks``).  One scan
serves any number of grid costs (``efficiencies``): ``_Block`` loads each
block's start counts and occupancy once, and ``_BlockKernel`` evaluates
every cost's slot-cost table on them.
The one-cost functions are that scan with a single cost.

Reversing time maps a class configuration to its mirror: start counts
reversed within the window's starts, occupancy reversed.  On a symmetric
instance with a centred window (``a - 1 == T - d``) whose slot-cost tables
read the same reversed, the mirror has the same NE status and total cost,
so a scan of the whole space streams one configuration of each mirror pair
(``_mirror_blocks``, about half of them) and counts the mirrors in
``_CostScan.add``: every answer is the full scan's.  The paper's sweeps (zero
exogenous load, full window) are all of this kind.

A table too large for int64 is scanned in Python ints behind a float64 pass
with a rigorous error bound (``_BlockKernel`` on its float image) that rules
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
    _index,
    _is_int,
    _slot_cost,
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
    same order, as ``grid_total_cost`` gives it (``_slot_table``).
    ``examined`` and ``space_size`` count class configurations.
    ``complete`` is False when the budget stopped the scan early, in which
    case the set is a lower bound only.

    ``stats`` is never compared.  ``blocks``, ``generate_s`` and ``load_s``
    describe the configuration stream, which every cost of one scan shares
    (``efficiencies``): the blocks scanned, the seconds spent generating
    them, and those spent loading their start counts and occupancy
    (``_Block.load``).  The other keys are
    this cost's own work: the ``exact_rows`` its float pass left to
    exact sums, and the seconds spent evaluating its table (``evaluate_s``,
    exact rows included) and reducing the results (``reduce_s``).
    ``mirrored`` is True when the stream held one configuration of each
    mirror pair (see the module docstring); ``blocks`` and ``exact_rows``
    then count the rows scanned, about half of ``examined``.
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

    ``value`` is ``worst_cost / optimum_cost`` (>= 1), on atomic scans the
    nearest float of ``exact``, the ratio of the exact sums as a ``Fraction``.
    Atomic scans attach the full equilibrium set and configurations; the
    nonatomic solver stores profiles instead and leaves both None.
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


# round-robin sweeps best-response dynamics may take before giving up
_MAX_SWEEPS = 10_000


def _slot_table(instance: AtomicInstance, cost: GridCostFunction):
    """``rows[t][v] = D f(exo_t + P v)`` for ``v = 0..I+1`` in integers, their dtype, and ``number``.

    Each entry is one ``cost`` call on a Python number, as ``grid_total_cost``
    makes it (``_slot_cost``), read as the exact rational it is; ``D`` is the
    lcm of the denominators.  int64 when ``T * max < 2**62``, so no sum of
    ``T`` entries overflows, else objects.  ``number`` turns a sum of entries
    into the number ``grid_total_cost`` gives for its terms.  ``ValueError``
    on an entry that is not finite, a float power past the float range included.
    """
    P, V = instance.power, range(instance.I + 2)
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _slot_cost instead
        entries = [[_slot_cost(cost, t, e + P * v) for v in V] for t, e in enumerate(instance.exogenous, 1)]
    ratios = [[x.as_integer_ratio() for x in row] for row in entries]
    D = math.lcm(*(d for row in ratios for _, d in row))
    rows = [[n * (D // d) for n, d in row] for row in ratios]
    kinds = {type(x) for row in entries for x in row}
    number = (lambda n: n / D) if float in kinds else (lambda n: Fraction(n, D)) if Fraction in kinds else int
    return rows, np.int64 if instance.horizon.T * max(map(max, rows)) < 2**62 else object, number


# single-profile state kept by (instance, cost) object identity: instances that
# compare equal may hold numbers of different types, and so different tables.
# An entry holds both objects, so their ids cannot be reused while it lives.
# The dict and each game's moves are emptied whole when full.  No thread
# shares it: a forked sweep worker gets its own copy, in which the objects
# keep their ids, and what the worker adds stays in that copy
_GAMES: dict = {}
_GAMES_KEPT = 8
_MOVES_KEPT = 2048


def _game(instance: AtomicInstance, cost: GridCostFunction):
    """Table rows, reported number, players and kept moves of one (instance, cost) pair.

    ``rows`` and ``number`` are those of ``_slot_table``: a move gains when
    its window sum of integer entries is strictly smaller.  ``players``
    holds each player's action span, slots ``lo..hi-1``, and duration as
    ``(lo, hi, C)``; ``moves``, at most ``_MOVES_KEPT`` answers of ``_move``.
    """
    key = (id(instance), id(cost))
    game = _GAMES.get(key)
    if game is None:
        rows, _, number = _slot_table(instance, cost)
        players = [(a - 1, d, C) for a, d, C in zip(instance.arrivals, instance.departures, instance.durations)]
        if len(_GAMES) >= _GAMES_KEPT:
            _GAMES.clear()
        game = _GAMES[key] = (instance, cost, rows, number, players, {})
    return game[2:]


def _move(game, i: int, occ, s: int) -> tuple[bool, int, int]:
    """Whether player ``i`` at start ``s`` gains by its best response, that response, and the gain.

    The response is the first target of least window cost, and the gain is
    the current window sum less that least one, in the table's integers.
    Those costs read only the slots of the player's action span, so the
    answer is kept by window, ``s`` and the span's occupancy.  A miss sums
    them in slot order: the player's own window keeps its occupancy, every
    other slot gains it.
    """
    rows, _, players, moves = game
    lo, hi, C = players[i]
    span = occ[lo:hi]
    key = (lo, C, s, *span)
    move = moves.get(key)
    if move is None:
        own = slice(s - 1 - lo, s - 1 - lo + C)
        here = [row[n] for row, n in zip(rows[lo:hi], span)]
        moved = [row[n + 1] for row, n in zip(rows[lo:hi], span)]
        moved[own] = here[own]
        current, costs = sum(here[own]), [sum(moved[j : j + C]) for j in range(hi - lo - C + 1)]
        best = min(costs)
        if len(moves) >= _MOVES_KEPT:
            moves.clear()
        move = moves[key] = (best < current, lo + 1 + costs.index(best), current - best)
    return move


def _slot_state(instance: AtomicInstance, cost: GridCostFunction, starts):
    """The game of ``_game`` and the occupancy of ``starts``, a plain list."""
    game = _game(instance, cost)
    occ = [0] * instance.horizon.T
    for s, (_, _, C) in zip(starts, game[2]):
        for t in range(s - 1, s - 1 + C):
            occ[t] += 1
    return game, occ


def best_response(instance: AtomicInstance, cost: GridCostFunction, profile, player: int) -> int:
    """Best start slot for ``player`` against the others' current choices.

    Ties break toward the smallest slot.  No pricing map is needed: any
    strictly increasing one keeps the argmin of the raw window cost.  The
    answer is ``_move``'s, read off the slot-cost table of ``_game`` or its
    kept best responses.  ``ValueError`` on a player that is not an int in
    ``0..I-1``.
    """
    profile = _coerce_profile(instance, profile)
    player = _index(instance, player)
    game, occ = _slot_state(instance, cost, profile.starts)
    return _move(game, player, occ, profile.starts[player])[1]


def is_nash(instance: AtomicInstance, cost: GridCostFunction, profile) -> bool:
    """True when no player has a strictly improving unilateral deviation.

    One slot-cost table serves every player: ``cost`` runs once per
    (instance, cost) pair (``_game``).  As in the dynamics and the scan, a
    player's cheapest target must have a strictly smaller exact window sum.
    Each player's answer is ``_move``'s, kept by its start and the occupancy
    of its action span.
    """
    profile = _coerce_profile(instance, profile)
    game, occ = _slot_state(instance, cost, profile.starts)
    return not any(_move(game, i, occ, s)[0] for i, s in enumerate(profile.starts))


def best_response_dynamics(
    instance: AtomicInstance,
    cost: GridCostFunction,
    profile,
) -> tuple[StrategyProfile, tuple[Number, ...]]:
    """Round-robin best-response dynamics from a starting profile.

    Players are swept in index order; a player moves only when its best
    response strictly lowers its window cost.  Returns the final profile and
    the potential trace (initial value plus one entry per accepted move); its
    exact values strictly increase, which guarantees termination.  The
    run stops once the last mover and every player asked after it are at a
    best response.  The mover is not asked again: after its move, its window
    costs are the table sums it chose from.

    Each player's answer is ``_move``'s, kept per (instance, cost) pair
    (``_game``).  A move updates the occupancy of the slots it touches.  The
    potential is one sum of the integer table at the start, and each move
    raises it by exactly the mover's gain, ``_move``'s third field; each
    trace entry is that integer reported as ``number``: it equals
    ``potential_atomic``, though two entries may round to one float.
    ``IterationBudgetError`` after ``_MAX_SWEEPS`` sweeps without settling.
    """
    profile = _coerce_profile(instance, profile)
    starts = list(profile.starts)
    game, occ = _slot_state(instance, cost, starts)
    rows, number, players = game[:3]
    # potential_atomic's sum off the table, in integers
    potential = -sum(x for row, n in zip(rows, occ) for x in row[: n + 1])
    trace = [number(potential)]
    settled = 0  # players at a best response since the last move, the mover included
    for _ in range(_MAX_SWEEPS):
        for i, (_, _, C) in enumerate(players):
            s = starts[i]
            gains, slot, gain = _move(game, i, occ, s)
            if gains:
                for t in range(s - 1, s - 1 + C):
                    occ[t] -= 1
                for t in range(slot - 1, slot - 1 + C):
                    occ[t] += 1
                starts[i] = slot
                potential += gain
                trace.append(number(potential))
                settled = 0
            settled += 1
            if settled == len(players):
                return StrategyProfile(tuple(starts)), tuple(trace)
    raise IterationBudgetError(f"best-response dynamics did not settle within {_MAX_SWEEPS} sweeps")


# ---------------------------------------------------------------------------
# exhaustive scans
# ---------------------------------------------------------------------------


# rows of a scan block, and most rows of a composition tail table: the block
# kernel's arrays, sized by the block, set a scan's peak memory
_BLOCK_ROWS = 1 << 12


def _composition_count(total: int, parts: int) -> int:
    return math.comb(total + parts - 1, parts - 1)


def _stars_and_bars(total: int, parts: int, max_rows: int) -> Iterator[np.ndarray]:
    # all count vectors of length `parts` summing to `total`, lexicographic,
    # in int64 blocks of `max_rows` rows (the last one shorter): the counts
    # between parts - 1 bars, lexicographic combinations of range(n), taken
    # from `combinations` one by one
    n, k = total + parts - 1, parts - 1
    size = math.comb(n, k)
    bars = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    for first in range(0, size, max_rows):
        rows = min(max_rows, size - first)
        at = np.fromiter(bars, np.int64, rows * k).reshape(rows, k)
        yield np.diff(at, axis=1, prepend=-1, append=n) - 1


def _composition_table(total: int, parts: int) -> np.ndarray:
    # the whole lexicographic table in one int64 array
    return next(_stars_and_bars(total, parts, _composition_count(total, parts)))


def _composition_blocks(total: int, parts: int, max_rows: int, ramp: bool = False) -> Iterator[np.ndarray]:
    # all count vectors of length `parts` summing to `total`, lexicographic,
    # in int64 blocks of `max_rows` rows (the last one shorter; see _join for
    # `ramp`).  Split a vector as [x | y], x of h counts and y summing to
    # r = total - sum(x): the heads [x | r] are the compositions of total
    # into h + 1 parts, in lexicographic order, and a head's tails are the
    # rows of W, the table of total into parts - h + 1 parts, whose first
    # count is total - r, that count dropped: one contiguous range.  Of the h
    # that keep W within _BLOCK_ROWS rows, h makes the fewest heads and tails
    # to build; the heads stream through this same generator, ramped: on a
    # wide shape each of its many levels would else build a whole block
    # before the first row.  A table that fits, or has no such h, comes from
    # stars and bars.
    splits = [h for h in range(1, parts - 1) if _composition_count(total, parts - h + 1) <= _BLOCK_ROWS]
    if not splits or _composition_count(total, parts) <= _BLOCK_ROWS:
        yield from _stars_and_bars(total, parts, max_rows)
        return
    h = min(splits, key=lambda h: _composition_count(total, h + 1) + _composition_count(total, parts - h + 1))
    W = _composition_table(total, parts - h + 1)
    start = np.array([len(W) - _composition_count(total - v, parts - h + 1) for v in range(total + 2)])  # of each v
    R = np.ascontiguousarray(W[:, 1:].T)
    pieces = (  # each head block x over its tails, v = total - r
        (np.ascontiguousarray(x[:, :h].T), R, start[total - x[:, h]], start[total + 1 - x[:, h]])
        for x in _composition_blocks(total, h + 1, _BLOCK_ROWS, ramp=True)
    )
    yield from _join(pieces, parts, max_rows, ramp)


def _join(pieces, parts: int, max_rows: int, ramp: bool = False) -> Iterator[np.ndarray]:
    # the rows of each piece (L, R, first, stop), in order: column s of L
    # over each of the columns first[s]..stop[s]-1 of R, both slot-major (a
    # row per count).  One searchsorted finds each row's column of L and two
    # `take`s copy its counts into int64 blocks of exactly `max_rows` rows
    # (the last one shorter), filled slot-major, as _Block loads them, and
    # handed out transposed.  Ramped, the blocks start at one row and double
    # up to `max_rows`
    size = 1 if ramp else max_rows
    block, rows = np.empty((parts, size), dtype=np.int64), 0
    for L, R, first, stop in pieces:
        h, ends = L.shape[0], np.cumsum(stop - first)
        k0, last = 0, ends[-1] if ends.size else 0
        while k0 < last:  # in pieces that fill the block
            k = np.arange(k0, min(last, k0 + size - rows))
            s = np.searchsorted(ends, k, side="right")
            k0, stop_row = k0 + len(k), rows + len(k)
            L.take(s, axis=1, out=block[:h, rows:stop_row], mode="clip")
            R.take(k - ends[s] + stop[s], axis=1, out=block[h:, rows:stop_row], mode="clip")
            rows = stop_row
            if rows == size:
                yield block.T
                size = min(max_rows, 2 * size)
                block, rows = np.empty((parts, size), dtype=np.int64), 0
    if rows:
        yield block[:, :rows].T


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


def _mirror_blocks(total: int, parts: int, max_rows: int) -> Iterator[np.ndarray]:
    # one count vector of each mirror pair {c, reversed c} of the vectors of
    # `_composition_blocks`, in int64 blocks of exactly `max_rows` rows (the
    # last one shorter), in no particular order.  Split a vector as
    # [L | m | R], L and R of h = parts // 2 counts and m only when parts is
    # odd: its mirror is [reversed R | m | reversed L].  So a mirror pair is
    # a middle count m with an unordered pair {x, y} of h counts, and
    # [x | m | reversed y] stands for it once: kept when sum(L) < sum(R), or
    # when the sums are equal and reversed(R) <= L.
    # G lists the compositions [v | x] of total into 1 + h parts in
    # lexicographic order: by sum(x) = total - v descending, lexicographic
    # among equal sums.  Each head, a row i of G with sum s <= total / 2, is
    # joined (`_join`) for every m <= total - 2 s with its tails: the rows
    # j <= i of G with v = m + s.  G streams in blocks of _BLOCK_ROWS rows,
    # each head block meeting the tail blocks up to it, and is built once
    # when it fits in one.
    h, odd = divmod(parts, 2)
    size = _composition_count(total, h + 1)
    kept = [_composition_table(total, h + 1)] if size <= _BLOCK_ROWS else None
    start = np.array([size - _composition_count(total - v, h + 1) for v in range(total + 1)] + [size])  # of each v

    def pieces():
        p = 0  # the head block's first row in G
        for heads in kept or _composition_blocks(total, h + 1, _BLOCK_ROWS):
            sums = total - heads[:, 0]
            # every head of sum s <= total / 2 with every m <= total - 2 s, and
            # its tails: rows of first count m + s, at most the head's own row
            i = np.flatnonzero(2 * sums <= total)
            reps = total - 2 * sums[i] + 1 if odd else np.ones_like(i)
            i = np.repeat(i, reps)
            m = np.arange(len(i)) - np.repeat(np.cumsum(reps) - reps, reps)
            lo, hi = start[m + sums[i]], np.minimum(start[m + sums[i] + 1], p + i + 1)
            L = np.vstack([heads[i, 1:].T] + [m] * odd)  # [x | m] of each (head, m) pair, slot-major
            q = 0  # the tail block's first row in G
            for tails in kept or _composition_blocks(total, h + 1, _BLOCK_ROWS):
                if not i.size or q >= p + len(heads):
                    break
                first, stop = np.maximum(lo, q) - q, np.minimum(hi, q + len(tails)) - q
                pair = np.flatnonzero(stop > first)  # the pairs with tails here
                yield L.take(pair, axis=1), np.ascontiguousarray(tails[:, :0:-1].T), first[pair], stop[pair]
                q += len(tails)
            p += len(heads)

    yield from _join(pieces(), parts, max_rows)


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
    kernel was made for: integers, compared exactly, or float64, the image of
    an object table that certifies: a row is then non-NE only if a deviation
    gains more than its error bound ``err``.

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

    def __call__(self, block: _Block, table: np.ndarray):
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

        # Error bound of a float row: u = 2**-53, eta = 2**-1074, S_X the
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
        if self.dtype == np.float64:
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
            if err is not None:
                bar -= err
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

    ``table`` and ``number`` are ``_slot_table``'s; on an object table
    ``approx`` is its float image for the certified pass.  ``add`` folds in
    the NE flags and integer sums of the rows of one block.  ``best`` holds
    the least ``(sum, start counts)`` and its configuration: the first
    minimum of the full scan, whose order is lexicographic.  On a mirrored
    scan (``_mirrored``) a row stands for itself and its mirror, its start
    counts and occupancy reversed, of the same NE status and sum: a NE row
    adds both, and the optimum is the least of both.
    """

    def __init__(self, instance: AtomicInstance, groups, cost: GridCostFunction):
        self.instance, self.groups = instance, groups
        rows, dtype, self.number = _slot_table(instance, cost)
        self.table = np.array(rows, dtype=dtype)
        self.approx = None
        if dtype is object:
            # x / 2**shift rounds correctly, and as every x is below 2**bits(x),
            # the shift keeps row sums finite
            shift = max(0, max(map(max, rows)).bit_length() - 960)
            self.approx = np.array([[x / (1 << shift) for x in row] for row in rows])
        self.ne_found: dict[ChargingConfiguration, int] = {}
        self.ne_profiles = 0
        self.best = None  # (sum, start counts, configuration)
        self.stats = {"exact_rows": 0, "evaluate_s": 0.0, "reduce_s": 0.0}

    def add(self, counts, ne, tc, occ, mirrored: bool) -> None:
        instance, groups = self.instance, self.groups
        for idx in np.flatnonzero(ne):
            images = [(counts[idx], occ[idx])]
            if mirrored and (counts[idx] != counts[idx, ::-1]).any():
                images.append((counts[idx, ::-1], occ[idx, ::-1]))
            for c, o in images:
                self.ne_profiles += _profile_count(groups, c)
                self.ne_found.setdefault(_config_from_counts(instance, groups, c, o), tc.item(idx))
        ties = np.flatnonzero(tc == tc.min())
        if self.best is None or tc.item(ties[0]) <= self.best[0]:
            rows, occs = counts[ties], occ[ties]
            if mirrored:
                rows, occs = np.concatenate([rows, rows[:, ::-1]]), np.concatenate([occs, occs[:, ::-1]])
            first = np.lexsort(rows.T[::-1])[0]
            key = (tc.item(ties[0]), rows[first].tolist())
            if self.best is None or key < self.best[:2]:
                self.best = (*key, _config_from_counts(instance, groups, rows[first], occs[first]))


def _mirrored(instance: AtomicInstance, groups, scans) -> bool:
    """Whether reversing time maps every class configuration to one of the
    same NE status and sum under every table of ``scans``.

    So it does on one window group whose window is centred, ``a - 1 == T -
    d``, and whose tables read the same reversed, ``rows[t] == rows[T-1-t]``
    exactly: the start counts reverse within the window's starts, and the
    occupancy over the horizon.
    """
    if len(groups) != 1:
        return False
    a, C, _, _, A = groups[0]  # d = a + A + C - 2
    return a - 1 == instance.horizon.T - (a + A + C - 2) and all(
        np.array_equal(scan.table, scan.table[::-1]) for scan in scans
    )


def _scan(instance: AtomicInstance, costs: tuple, budget: Optional[int]):
    """Scan the class configurations in lexicographic order, up to the budget.

    One stream of configurations serves every cost in ``costs``: each block
    is generated once, its start counts and occupancy are loaded once
    (``_Block``), and then each cost's slot-cost table is evaluated on them,
    the tables of one dtype in one reused ``_BlockKernel``.  On an object
    table the certified float pass reads the shared block, and the exact
    kernel loads only the rows that pass leaves to it.  The budget caps the
    stream, so every cost examines the same configurations.

    A scan that covers the whole space of a time-symmetric instance
    (``_mirrored``) streams one configuration of each mirror pair
    (``_mirror_blocks``) and adds the mirrors in ``_CostScan.add``:
    ``examined`` still counts every configuration, and every answer is the
    full scan's.

    Returns, per cost, the equilibrium set and the cost's ``_CostScan``: its
    exact sums, the NE profiles behind the set and the least minimum-sum
    class configuration.  Players sharing a window are interchangeable,
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
    mirrored = budget >= space and _mirrored(instance, groups, scans)

    configurations = _mirror_blocks(*shape[0], _BLOCK_ROWS) if mirrored else _configuration_blocks(shape, _BLOCK_ROWS)

    examined, blocks, generate_s, load_s = 0, 0, 0.0, 0.0
    t0 = time.perf_counter()
    for counts in configurations:
        if examined >= budget:
            break
        counts = counts[: budget - examined]
        examined += counts.shape[0]
        t1 = time.perf_counter()
        stream.load(counts)
        blocks += 1
        generate_s += t1 - t0
        load_s += time.perf_counter() - t1
        for scan in scans:
            t1 = time.perf_counter()
            rows, block = counts, stream
            if scan.approx is not None:
                # exact sums decide the rows that may be NE or tie the minimum
                maybe_ne, tc, err = kernels[scan.approx.dtype](stream, scan.approx)
                rows = counts[maybe_ne | (tc - err <= np.min(tc + err))]
                scan.stats["exact_rows"] += rows.shape[0]
                block = exact.load(rows)
            ne, tc, _ = kernels[scan.table.dtype](block, scan.table)
            t2 = time.perf_counter()
            scan.add(rows, ne, tc, block.occ.T, mirrored)
            scan.stats["evaluate_s"] += t2 - t1
            scan.stats["reduce_s"] += time.perf_counter() - t2
        t0 = time.perf_counter()
    if mirrored:
        examined = space  # each row stood for its mirror too

    results = []
    for scan in scans:
        # listed by start counts, then occupancy, whatever the scan order
        listing = sorted(scan.ne_found.items(), key=lambda pair: (pair[0].start_counts, pair[0].occupancy))
        eq_set = EquilibriumSet(
            equilibria=tuple(config for config, _ in listing),
            costs=tuple(scan.number(c) for _, c in listing),
            complete=examined >= space,
            examined=examined,
            space_size=space,
            stats={"blocks": blocks, "generate_s": generate_s, "load_s": load_s, "mirrored": mirrored, **scan.stats},
        )
        results.append((eq_set, scan))
    return results


def enumerate_equilibria(
    instance: AtomicInstance,
    cost: GridCostFunction,
    budget: Optional[int] = None,
) -> EquilibriumSet:
    """All Nash-equilibrium configurations, by exhaustive deterministic scan.

    When the budget runs out first the returned set is flagged incomplete.
    """
    ((eq_set, _),) = _scan(instance, (cost,), budget)
    return eq_set


def social_optimum(
    instance: AtomicInstance,
    cost: GridCostFunction,
    budget: Optional[int] = None,
) -> tuple[ChargingConfiguration, Number]:
    """Configuration minimizing total grid cost, with its cost.

    Ties break toward the lexicographically least class configuration, the
    first in the full scan's order, whichever configurations the scan
    streamed; on a symmetric instance that is the smallest start-count
    vector.  Raises ``BudgetExceededError`` if the scan could not finish: a
    partial minimum is not an optimum.
    """
    ((eq_set, scan),) = _scan(instance, (cost,), budget)
    total, config = scan.number(scan.best[0]), scan.best[2]
    if not eq_set.complete:
        raise BudgetExceededError(
            f"social optimum scan stopped after {eq_set.examined} of {eq_set.space_size} configurations",
            partial=(total, config),
        )
    return config, total


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
    for eq_set, scan in _scan(instance, tuple(costs), budget):
        if not eq_set.complete:
            raise BudgetExceededError(
                f"efficiency scan stopped after {eq_set.examined} of {eq_set.space_size} configurations",
                partial=eq_set,
            )
        if not eq_set.equilibria:
            raise RuntimeError("no Nash equilibrium found; the potential argument forbids this")
        sums = [scan.ne_found[config] for config in eq_set.equilibria]
        worst_idx = max(range(len(sums)), key=sums.__getitem__)
        opt_sum, _, opt_config = scan.best
        exact = Fraction(sums[worst_idx], opt_sum)
        reports.append(
            EfficiencyReport(
                value=float(exact),
                exact=exact,
                worst_equilibrium=eq_set.equilibria[worst_idx],
                worst_cost=eq_set.costs[worst_idx],
                optimum=opt_config,
                optimum_cost=scan.number(opt_sum),
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
    ``EquilibriumSet``, by exact sums.  The ratio is an exact ``Fraction``
    of the exact sums (see ``_slot_table``).  Raises
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
    ((eq_set, scan),) = _scan(instance, (cost,), budget)
    if not eq_set.complete:
        raise BudgetExceededError(
            f"proportion scan stopped after {eq_set.examined} of {eq_set.space_size} configurations",
            partial=None,
        )
    if instance.is_symmetric:
        return len(eq_set.equilibria) / eq_set.space_size
    return scan.ne_profiles / math.prod(len(action_set(instance, i)) for i in range(instance.I))
