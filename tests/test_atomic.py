"""Tests for the finite-player game: enumeration, dynamics, efficiency.

The reference oracle below recomputes everything from the definitions in
plain Python (no numpy, no shared kernels) so the vectorized scans are
checked against an independent implementation.
"""

import dataclasses
import itertools
import json
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from chargegame import (
    AtomicInstance,
    BudgetExceededError,
    CostSum,
    GridCostFunction,
    IterationBudgetError,
    Monomial,
    PricingMap,
    SquareRoot,
    StrategyProfile,
    action_set,
    best_response,
    best_response_dynamics,
    efficiencies,
    efficiency,
    enumerate_equilibria,
    grid_total_cost,
    is_nash,
    load,
    ne_proportion,
    occupancy,
    potential_atomic,
    social_optimum,
    utility_atomic,
)
from chargegame import atomic
from chargegame.atomic import (
    _Block,
    _BlockKernel,
    _class_groups,
    _composition_blocks,
    _configuration_blocks,
    _CostScan,
    _slot_table,
    resolve_budget,
)
from chargegame.fileio import instance_to_dict


# ---------------------------------------------------------------------------
# reference oracle, straight from the definitions


def exact(x):
    """A cost as the exact rational it is: a float becomes its Fraction."""
    return Fraction(x) if isinstance(x, float) else x


def oracle_loads(inst, starts):
    """``exo_t + P n_t`` per slot, ``n_t`` the players charging in slot ``t``."""
    return [e + inst.power * n for e, n in zip(inst.exogenous, oracle_occupancy(inst, starts))]


def oracle_window_cost(inst, cost, starts, i):
    loads = oracle_loads(inst, starts)
    s, C = starts[i], inst.durations[i]
    return sum(exact(cost(loads[t - 1])) for t in range(s, s + C))


def oracle_is_ne(inst, cost, starts):
    # a deviation gains when its exact window cost is strictly smaller
    for i in range(inst.I):
        here = oracle_window_cost(inst, cost, starts, i)
        for alt in action_set(inst, i):
            trial = list(starts)
            trial[i] = alt
            if oracle_window_cost(inst, cost, tuple(trial), i) < here:
                return False
    return True


def oracle_best_response(inst, cost, starts, i):
    best_slot, best_cost = None, None
    for alt in action_set(inst, i):
        trial = list(starts)
        trial[i] = alt
        c = oracle_window_cost(inst, cost, tuple(trial), i)
        if best_cost is None or c < best_cost:
            best_slot, best_cost = alt, c
    return best_slot


def oracle_potential(inst, cost, starts):
    """``-sum_t sum_{v <= n_t} f(exo_t + P v)``, straight from the definition, exactly."""
    return -sum(
        exact(cost(e + inst.power * v))
        for e, n in zip(inst.exogenous, oracle_occupancy(inst, starts))
        for v in range(n + 1)
    )


def as_reported(inst, cost, value):
    """An exact sum as the atomic answers report it: rounded once to the
    nearest float when the slot-cost table holds a float."""
    table = [cost(e + inst.power * v) for e in inst.exogenous for v in range(inst.I + 2)]
    return float(value) if any(isinstance(x, float) for x in table) else value


def oracle_dynamics(inst, cost, starts):
    """Round-robin best responses, each taken when it strictly gains."""
    starts = list(starts)
    trace = [oracle_potential(inst, cost, starts)]
    moved = True
    while moved:
        moved = False
        for i in range(inst.I):
            here = oracle_window_cost(inst, cost, tuple(starts), i)
            trial = starts[:i] + [oracle_best_response(inst, cost, tuple(starts), i)] + starts[i + 1 :]
            if oracle_window_cost(inst, cost, tuple(trial), i) < here:
                starts = trial
                trace.append(oracle_potential(inst, cost, starts))
                moved = True
    return tuple(starts), trace


def oracle_occupancy(inst, starts):
    T = inst.horizon.T
    occ = [0] * T
    for i, s in enumerate(starts):
        for t in range(s, s + inst.durations[i]):
            occ[t - 1] += 1
    return tuple(occ)


def oracle_configuration(inst, starts):
    """(start counts, occupancy) of a profile."""
    counts = [0] * inst.horizon.T
    for s in starts:
        counts[s - 1] += 1
    return tuple(counts), oracle_occupancy(inst, starts)


def oracle_scan(inst, cost):
    """Distinct NE configurations with costs, NE profile count, optimum cost."""
    spaces = [list(action_set(inst, i)) for i in range(inst.I)]
    ne = {}
    ne_profiles = 0
    opt = None
    for starts in itertools.product(*spaces):
        tc = sum(exact(cost(v)) for v in oracle_loads(inst, starts))
        if opt is None or tc < opt:
            opt = tc
        if oracle_is_ne(inst, cost, starts):
            ne_profiles += 1
            ne[oracle_configuration(inst, starts)] = tc
    return ne, ne_profiles, opt


def scan_dtype(inst, cost):
    """The dtype of the slot-cost table a scan of ``inst`` under ``cost`` reads."""
    return _CostScan(inst, _class_groups(inst), cost).table.dtype


def listed(eq):
    """An equilibrium set as the oracle keys it: configuration -> cost."""
    return {(c.start_counts, c.occupancy): cost for c, cost in zip(eq.equilibria, eq.costs)}


def one_profile(inst, config):
    """Some profile with ``config``'s start counts and occupancy, by search."""

    def search(i, left, starts):
        if i == inst.I:
            return starts if oracle_occupancy(inst, starts) == config.occupancy else None
        # players sharing a window are interchangeable: keep their starts sorted
        lowest = starts[-1] if i and inst.window(i) == inst.window(i - 1) else 0
        for s in action_set(inst, i):
            if s >= lowest and left[s - 1]:
                left[s - 1] -= 1
                found = search(i + 1, left, starts + (s,))
                left[s - 1] += 1
                if found:
                    return found
        return None

    return search(0, list(config.start_counts), ())


def random_symmetric_instance(rng, max_T=7, max_I=4, max_C=3):
    T = rng.randint(3, max_T)
    C = rng.randint(1, min(max_C, T))
    I = rng.randint(1, max_I)
    exo = tuple(rng.randint(0, 5) for _ in range(T))
    return AtomicInstance.symmetric(T=T, I=I, C=C, exogenous=exo)


def random_heterogeneous_instance(rng, max_T=7, max_I=3):
    T = rng.randint(4, max_T)
    players = []
    for _ in range(rng.randint(1, max_I)):
        a = rng.randint(1, T - 1)
        d = rng.randint(a + 1, T)
        C = rng.randint(1, d - a + 1)
        players.append((a, d, C))
    exo = tuple(rng.randint(0, 4) for _ in range(T))
    return AtomicInstance.create(T=T, players=players, exogenous=exo)


def random_repeated_window_instance(rng, max_T=7, max_I=5, pool=3):
    # players draw their windows from a pool of at most `pool`, so windows
    # repeat and the scan's groups hold several players
    T = rng.randint(3, max_T)
    windows = []
    for _ in range(rng.randint(2, pool)):
        a = rng.randint(1, T - 1)
        d = rng.randint(a + 1, T)
        windows.append((a, d, rng.randint(1, min(3, d - a))))  # at least two start slots
    players = [rng.choice(windows) for _ in range(rng.randint(2, max_I))]
    exo = tuple(rng.randint(0, 4) for _ in range(T))
    return AtomicInstance.create(T=T, players=players, exogenous=exo)


# ---------------------------------------------------------------------------
# best response and equilibrium checks


def test_best_response_matches_oracle():
    rng = random.Random(101)
    f = Monomial(1, 2)
    for _ in range(40):
        inst = random_symmetric_instance(rng)
        starts = tuple(rng.choice(list(action_set(inst, i))) for i in range(inst.I))
        for i in range(inst.I):
            assert best_response(inst, f, StrategyProfile(starts), i) == \
                oracle_best_response(inst, f, starts, i)


def test_best_response_ignores_monotone_pricing():
    # the first slot maximising the priced utility is the best response
    rng = random.Random(102)
    f = Monomial(1, 2)
    cube = PricingMap(lambda x: x**3, "cube")
    for _ in range(20):
        inst = random_heterogeneous_instance(rng)
        starts = tuple(rng.choice(list(action_set(inst, i))) for i in range(inst.I))
        for i in range(inst.I):

            def priced(t):
                moved = starts[:i] + (t,) + starts[i + 1 :]
                return utility_atomic(inst, f, moved, i, pricing=cube)

            first_argmax = max(action_set(inst, i), key=priced)
            assert first_argmax == best_response(inst, f, StrategyProfile(starts), i)


def test_is_nash_matches_oracle():
    rng = random.Random(103)
    f = Monomial(1, 2)
    for _ in range(30):
        inst = random_heterogeneous_instance(rng)
        starts = tuple(rng.choice(list(action_set(inst, i))) for i in range(inst.I))
        assert is_nash(inst, f, StrategyProfile(starts)) == oracle_is_ne(inst, f, starts)


def test_known_counterexample_instance():
    inst = AtomicInstance.symmetric(T=6, I=3, C=2, exogenous=(1, 2, 3, 2, 1, 3))
    f = Monomial(1, 2)
    eq = enumerate_equilibria(inst, f)
    occupancies = sorted(c.occupancy for c in eq.equilibria)
    assert occupancies == [(1, 1, 0, 1, 2, 1), (1, 1, 0, 2, 2, 0), (2, 2, 0, 1, 1, 0)]
    assert eq.complete
    report = efficiency(inst, f)
    assert report.exact == Fraction(56, 56)
    assert report.worst_cost == 56
    assert report.optimum_cost == 56


# ---------------------------------------------------------------------------
# best-response dynamics


def test_dynamics_reaches_equilibrium_with_increasing_trace():
    rng = random.Random(104)
    f = Monomial(1, 2)
    for _ in range(30):
        inst = random_symmetric_instance(rng)
        starts = tuple(rng.choice(list(action_set(inst, i))) for i in range(inst.I))
        final, trace = best_response_dynamics(inst, f, StrategyProfile(starts))
        assert is_nash(inst, f, final)
        assert all(b > a for a, b in zip(trace, trace[1:]))
        assert trace[-1] == potential_atomic(inst, f, final)


def test_dynamics_from_equilibrium_is_a_fixed_point():
    inst = AtomicInstance.symmetric(T=6, I=3, C=2, exogenous=(1, 2, 3, 2, 1, 3))
    f = Monomial(1, 2)
    start = StrategyProfile((1, 4, 5))
    assert is_nash(inst, f, start)
    final, trace = best_response_dynamics(inst, f, start)
    assert final.starts == start.starts
    assert len(trace) == 1


def test_dynamics_do_not_ask_the_last_mover_again(monkeypatch):
    # one player started off its best slot moves once and is done: after the
    # move, its window costs are the ones it chose from
    inst = AtomicInstance.symmetric(3, 1, 1, exogenous=(2, 0, 1))
    # a fresh game, so every lookup of a player's move is evaluated
    inst = dataclasses.replace(inst)
    move, calls = atomic._move, []
    monkeypatch.setattr(atomic, "_move", lambda *args: calls.append(args) or move(*args))
    final, trace = best_response_dynamics(inst, Monomial(1, 2), (1,))
    assert final.starts == (2,) and len(trace) == 2
    assert len(calls) == 1


def test_dynamics_sweep_budget(monkeypatch):
    inst = AtomicInstance.symmetric(T=6, I=3, C=2, exogenous=(1, 2, 3, 2, 1, 3))
    f = Monomial(1, 2)
    monkeypatch.setattr(atomic, "_MAX_SWEEPS", 0)
    with pytest.raises(IterationBudgetError):
        best_response_dynamics(inst, f, StrategyProfile((1, 1, 1)))


def test_dynamics_is_nash_and_scan_agree_on_mixed_fraction_float_costs():
    # slot 2 is an exact Fraction gain of 1e-14 over slot 1, slot 3 a float
    # one of about 2e-14 over slot 1: read exactly, slot 3 is the one
    # equilibrium, and every start moves there
    inst = AtomicInstance.create(
        3, [(1, 3, 1)], exogenous=(Fraction(1), 1 - Fraction(1, 10**14), 1 - 2e-14)
    )
    f = Monomial(1, 1)
    listed_starts = {conf.start_counts.index(1) + 1 for conf in enumerate_equilibria(inst, f).equilibria}
    assert listed_starts == {3}
    for s in (1, 2, 3):
        final, _ = best_response_dynamics(inst, f, StrategyProfile((s,)))
        assert final.starts == (3,)
        assert is_nash(inst, f, (s,)) == (s == 3)


# exogenous load of one slot, and the power, of each kind of data; a Fraction
# load may sit 1e-14 above its neighbour's, a gain only an exact sum sees
DATA_KINDS = {
    "int": (lambda rng: rng.randint(0, 4), lambda rng: rng.randint(1, 3)),
    "float": (lambda rng: rng.uniform(0.0, 4.0), lambda rng: rng.choice([1, 0.7])),
    "mixed": (lambda rng: rng.choice([rng.randint(0, 4), rng.uniform(0.0, 4.0)]), lambda rng: rng.randint(1, 2)),
    "fraction": (
        lambda rng: Fraction(rng.randint(0, 8), rng.randint(1, 2)) + Fraction(rng.randint(0, 1), 10**14),
        lambda rng: Fraction(rng.randint(1, 5), rng.randint(1, 3)),
    ),
    "numpy-int": (lambda rng: np.int64(rng.randint(0, 4)), lambda rng: np.int64(rng.randint(1, 3))),
}
DATA_KIND_COSTS = (Monomial(1, 2), Monomial(1, 3), SquareRoot(), CostSum((Monomial(1, 1), Monomial(2, 2))), Monomial(1, 30))


def data_kind_instances(kind, seed, count=30):
    """Random small repeated-window instances with ``kind`` data, each with a cost."""
    rng = random.Random(f"{kind} {seed}")
    make_exo, make_power = DATA_KINDS[kind]
    for n in range(count):
        inst = random_repeated_window_instance(rng, max_T=5, max_I=4)
        exo = [make_exo(rng) for _ in range(inst.horizon.T)]
        yield dataclasses.replace(inst, exogenous=exo, power=make_power(rng)), DATA_KIND_COSTS[n % len(DATA_KIND_COSTS)]


@pytest.mark.parametrize("kind", sorted(DATA_KINDS))
def test_scan_and_is_nash_agree_on_every_kind_of_data(kind):
    # the scan's equilibrium set is exactly the configurations of the
    # profiles is_nash accepts: both read one table, by one rule
    for inst, f in data_kind_instances(kind, 1901):
        profiles = itertools.product(*(action_set(inst, i) for i in range(inst.I)))
        accepted = {occupancy(inst, p) for p in profiles if is_nash(inst, f, p)}
        assert set(enumerate_equilibria(inst, f).equilibria) == accepted, (inst, f)


@pytest.mark.parametrize("kind", sorted(DATA_KINDS))
def test_reported_costs_equal_grid_total_cost(kind):
    # every equilibrium cost and the optimum cost is the number
    # grid_total_cost gives for its configuration, type and all; the ratio
    # is that of the exact entry sums on every kind of data
    for inst, f in data_kind_instances(kind, 1902):
        report = efficiency(inst, f)
        eq = report.equilibria
        for config, cost in [*zip(eq.equilibria, eq.costs), (report.optimum, report.optimum_cost)]:
            total = grid_total_cost(inst, f, config)
            assert cost == total and type(cost) is type(total), (inst, f, config)
        worst, opt = (sum(exact(f(L)) for L in load(inst, c)) for c in (report.worst_equilibrium, report.optimum))
        assert report.exact == Fraction(worst) / opt and report.value == float(report.exact)


def test_float_scan_finds_equilibria_behind_a_steep_slot():
    # slot 3's L**30 cost (~1e30 with a mover in it) dwarfs the later
    # windows' (~1e23): a float prefix-sum kernel would leave a rounding
    # error of ~1e14 in them and read player 0's exact tie between slots 4
    # and 5 as a gain.  Integer sums keep the tie
    inst = AtomicInstance.create(5, [(4, 5, 1), (2, 5, 2), (2, 5, 2)], power=2, exogenous=(4, 1.1146355811934034, 4, 4, 4))
    f = Monomial(1, 30)
    assert is_nash(inst, f, (4, 2, 2)) and is_nash(inst, f, (5, 2, 2))
    assert {occupancy(inst, p) for p in [(4, 2, 2), (5, 2, 2)]} == set(enumerate_equilibria(inst, f).equilibria)


def test_fraction_gain_below_the_float_margin_is_decided_exactly():
    # charging in slot 2 costs 1e-14 more than in slot 1: an exact table sees
    # the gain.  Both starts cost the grid the same
    inst = AtomicInstance.create(2, [(1, 2, 1)], exogenous=(Fraction(1), Fraction(1) + Fraction(1, 10**14)))
    f = Monomial(1, 1)
    report = efficiency(inst, f)
    assert [c.start_counts for c in report.equilibria.equilibria] == [(1, 0)]
    assert report.worst_cost == report.optimum_cost == grid_total_cost(inst, f, (1,)) == 3 + Fraction(1, 10**14)
    assert type(report.worst_cost) is Fraction and report.exact == 1
    assert is_nash(inst, f, (1,)) and not is_nash(inst, f, (2,))
    assert best_response_dynamics(inst, f, (2,))[0].starts == (1,)


@pytest.mark.parametrize("f", [Monomial(1, 2), SquareRoot()], ids=["L2", "sqrtL"])
def test_float_gain_below_1e12_relative_is_decided_exactly(f):
    # slot 2's exogenous load sits 1e-14 above slot 1's: read as the exact
    # binary rationals they are, slot 1 is strictly cheaper for the mover
    inst = AtomicInstance.symmetric(2, 1, 1, exogenous=(1.0, 1.0 + 1e-14))
    assert [c.start_counts for c in enumerate_equilibria(inst, f).equilibria] == [(1, 0)]
    assert is_nash(inst, f, (1,)) and not is_nash(inst, f, (2,))
    final, trace = best_response_dynamics(inst, f, (2,))
    assert final.starts == (1,)
    assert trace == (potential_atomic(inst, f, (2,)), potential_atomic(inst, f, (1,)))


def test_slot_costs_that_are_not_finite_are_refused():
    # under 1e307 L**2, slot 1 costs inf at every load and slot 2 a finite
    # 2.25e307 at load 1.5: no answer may compare the two
    inst = AtomicInstance.symmetric(2, 1, 1, exogenous=(10.5, 1.5))
    f = Monomial(1e307, 2)
    calls = [
        lambda: enumerate_equilibria(inst, f),
        lambda: efficiency(inst, f),
        lambda: is_nash(inst, f, (2,)),
        lambda: best_response_dynamics(inst, f, (2,)),
        lambda: grid_total_cost(inst, f, (1,)),
        lambda: potential_atomic(inst, f, (2,)),
        lambda: utility_atomic(inst, f, (1,), 0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"slot 1 costs inf at load 1[01]\.5"):
            call()


@pytest.mark.parametrize(
    "exogenous, cost",
    [(np.array([5, 4, 6]), Monomial(1, 30)), (np.array([0.1, 0.2, 0.1], dtype=np.float32), Monomial(1, 2))],
    ids=["int64", "float32"],
)
def test_numpy_scalars_become_python_numbers(exogenous, cost):
    # an instance built from a numpy array is the instance built from the
    # Python numbers of its entries: same loads, JSON and answers
    inst = AtomicInstance.symmetric(3, 2, 1, exogenous=exogenous, power=np.int64(1))
    plain = AtomicInstance.symmetric(3, 2, 1, exogenous=exogenous.tolist(), power=1)
    assert inst == plain
    assert all(type(x) is type(y) for x, y in zip((*inst.exogenous, inst.power), (*plain.exogenous, plain.power)))
    assert {type(x) for x in inst.exogenous} == {int if exogenous.dtype == np.int64 else float}
    assert json.loads(json.dumps(instance_to_dict(inst))) == instance_to_dict(plain)
    profiles = list(itertools.product(range(1, 4), repeat=2))
    assert [is_nash(inst, cost, p) for p in profiles] == [is_nash(plain, cost, p) for p in profiles]
    assert best_response_dynamics(inst, cost, (1, 1)) == best_response_dynamics(plain, cost, (1, 1))
    assert efficiency(inst, cost) == efficiency(plain, cost)


TABLE_PATH_DATA = {
    # exogenous loads and power of each kind of data; √L turns exact loads into floats
    "int": (lambda rng, T: [rng.randint(0, 4) for _ in range(T)], lambda rng: rng.randint(1, 3)),
    "fraction": (
        lambda rng, T: [Fraction(rng.randint(0, 12), rng.randint(1, 5)) for _ in range(T)],
        lambda rng: Fraction(rng.randint(1, 5), rng.randint(1, 3)),
    ),
    "float-exogenous": (lambda rng, T: [rng.uniform(0.0, 4.0) for _ in range(T)], lambda rng: 1),
    "float-power": (lambda rng, T: [rng.randint(0, 4) for _ in range(T)], lambda rng: 0.7),
}


@pytest.mark.parametrize("data", sorted(TABLE_PATH_DATA))
@pytest.mark.parametrize(
    "f", [Monomial(1, 2), Monomial(1, 3), SquareRoot(), CostSum((Monomial(1, 1), Monomial(2, 2)))], ids=repr
)
def test_table_path_matches_oracle(data, f):
    # best_response, is_nash and best_response_dynamics read one slot-cost
    # table per call; the oracles sum window costs off plain load lists
    rng = random.Random(f"{data} {f!r}")
    make_exo, make_power = TABLE_PATH_DATA[data]
    for _ in range(12):
        inst = random_heterogeneous_instance(rng, max_T=8, max_I=4)
        inst = dataclasses.replace(inst, exogenous=tuple(make_exo(rng, inst.horizon.T)), power=make_power(rng))
        starts = tuple(rng.choice(list(action_set(inst, i))) for i in range(inst.I))
        for i in range(inst.I):
            assert best_response(inst, f, starts, i) == oracle_best_response(inst, f, starts, i)
        assert is_nash(inst, f, starts) == oracle_is_ne(inst, f, starts)
        final, trace = best_response_dynamics(inst, f, starts)
        final_oracle, trace_oracle = oracle_dynamics(inst, f, starts)
        assert final.starts == final_oracle
        assert is_nash(inst, f, final) and oracle_is_ne(inst, f, final.starts)
        assert trace[-1] == potential_atomic(inst, f, final)
        reported = [as_reported(inst, f, phi) for phi in trace_oracle]
        assert list(trace) == reported
        assert [type(phi) for phi in trace] == [type(phi) for phi in reported]


class CountingSquare(GridCostFunction):
    """``L**2`` that counts the slot costs it evaluates."""

    powers = ((1, 2),)

    def __init__(self):
        self.evaluated = 0

    def __call__(self, load):
        self.evaluated += np.size(load)
        return load**2


def test_is_nash_evaluates_one_table_of_slot_costs():
    # T=10, I=6, C=3: one cost per slot and occupancy 0..I+1 at most, not one
    # per slot of every window tried (6 players x 9 windows x 3 slots)
    inst = AtomicInstance.symmetric(10, 6, 3, exogenous=(3, 1, 0, 2, 4, 1, 0, 3, 2, 1))
    config = enumerate_equilibria(inst, Monomial(1, 2)).equilibria[0]
    f = CountingSquare()
    assert is_nash(inst, f, one_profile(inst, config))
    assert 0 < f.evaluated <= 10 * (6 + 2)


def test_one_table_serves_every_call_on_one_pair():
    # the table is kept per (instance, cost) pair: repeated calls evaluate
    # no further slot cost, and a copy of the instance gets a table of its own
    inst = AtomicInstance.symmetric(6, 3, 2, exogenous=(1, 2, 3, 2, 1, 3))
    f = CountingSquare()
    one_table = 6 * (3 + 2)
    answers = []
    for copy in (inst, dataclasses.replace(inst)):
        answers.append(
            [
                is_nash(copy, f, (1, 4, 5)),
                is_nash(copy, f, (1, 1, 1)),
                [best_response(copy, f, (1, 1, 1), i) for i in range(3)],
                best_response_dynamics(copy, f, (1, 1, 1)),
                best_response_dynamics(copy, f, (2, 3, 4)),
            ]
        )
        assert f.evaluated == one_table * len(answers)
    assert answers[0] == answers[1]
    assert answers[0][:2] == [True, False]


def test_kept_tables_stay_bounded_and_never_change_an_answer():
    rng = random.Random(2001)
    f = Monomial(1, 2)
    games = [random_heterogeneous_instance(rng) for _ in range(3 * atomic._GAMES_KEPT)]
    starts = [tuple(rng.choice(list(action_set(inst, i))) for i in range(inst.I)) for inst in games]

    def answers(inst, cost, s):
        return is_nash(inst, cost, s), best_response(inst, cost, s, 0), best_response_dynamics(inst, cost, s)

    first = [answers(inst, f, s) for inst, s in zip(games, starts)]
    assert len(atomic._GAMES) <= atomic._GAMES_KEPT
    # again, interleaved, then on fresh copies under a fresh cost
    again = [answers(inst, f, s) for inst, s in zip(games[::-1], starts[::-1])][::-1]
    fresh = [answers(dataclasses.replace(inst), Monomial(1, 2), s) for inst, s in zip(games, starts)]
    assert first == again == fresh
    assert [a[0] for a in first] == [oracle_is_ne(inst, f, s) for inst, s in zip(games, starts)]
    assert len(atomic._GAMES) <= atomic._GAMES_KEPT


@pytest.mark.parametrize("data", ["int", "fraction", "float-exogenous"])
@pytest.mark.parametrize("f", [Monomial(1, 2), Monomial(1, 3), SquareRoot()], ids=repr)
def test_kept_best_responses_stay_bounded_and_never_change_an_answer(monkeypatch, data, f):
    # each game keeps its players' best responses by start and span
    # occupancy; a small cap empties the tables mid-run, and answers from a
    # table warmed in one profile order must be those of another order
    monkeypatch.setattr(atomic, "_GAMES", {})
    monkeypatch.setattr(atomic, "_MOVES_KEPT", 6)
    rng = random.Random(f"kept moves {data} {f!r}")
    make_exo, make_power = TABLE_PATH_DATA[data]
    for _ in range(8):
        inst = random_heterogeneous_instance(rng, max_T=8, max_I=4)
        inst = dataclasses.replace(inst, exogenous=tuple(make_exo(rng, inst.horizon.T)), power=make_power(rng))
        profiles = [tuple(rng.choice(list(action_set(inst, i))) for i in range(inst.I)) for _ in range(6)]
        answers = []
        for order in (profiles, profiles[::-1]):
            copy = dataclasses.replace(inst)  # a fresh game, warmed in this order
            answers.append(
                {
                    p: (is_nash(copy, f, p), [best_response(copy, f, p, i) for i in range(inst.I)], best_response_dynamics(copy, f, p))
                    for p in order
                }
            )
            assert all(len(game[-1]) <= atomic._MOVES_KEPT for game in atomic._GAMES.values())
        assert answers[0] == answers[1]
        for p, (nash, responses, (final, trace)) in answers[0].items():
            assert nash == oracle_is_ne(inst, f, p)
            for i, slot in enumerate(responses):
                assert slot == oracle_best_response(inst, f, p, i)
            assert final.starts == oracle_dynamics(inst, f, p)[0]
            assert trace[-1] == potential_atomic(inst, f, final)

    # player 1 starts outside player 0's span, slots 1..3, in both profiles:
    # player 0 is answered from one entry, which both profiles must agree with
    exo = make_exo(rng, 6)
    inst = AtomicInstance.create(6, [(1, 3, 1), (4, 6, 2), (1, 6, 2)], power=make_power(rng), exogenous=exo)
    profiles = ((2, 4, 1), (2, 5, 1))
    responses = [best_response(inst, f, p, 0) for p in profiles]
    assert len(atomic._game(inst, f)[-1]) == 1  # the second lookup hit the first's entry
    for p, slot in zip(profiles, responses):
        assert slot == oracle_best_response(inst, f, p, 0)
        assert is_nash(inst, f, p) == oracle_is_ne(inst, f, p)


@pytest.mark.parametrize("order", ["float-first", "fraction-first"])
def test_kept_tables_are_told_apart_by_identity_not_equality(order):
    # equal and hashing equal, with the same exact entries, yet one table
    # reports floats and the other Fractions: neither may be given the
    # other's numbers
    floats = AtomicInstance.symmetric(2, 1, 1, exogenous=(1, 1.0 + 1e-14))
    fracs = AtomicInstance.symmetric(2, 1, 1, exogenous=(1, Fraction(1.0 + 1e-14)))
    assert floats == fracs and hash(floats) == hash(fracs)
    f = Monomial(1, 1)
    for inst in (floats, fracs) if order == "float-first" else (fracs, floats):
        kind = float if inst is floats else Fraction
        for start in (1, 2):
            final, trace = best_response_dynamics(inst, f, (start,))
            assert {type(phi) for phi in trace} == {kind}
            assert final.starts == (1,)
        assert not is_nash(inst, f, (2,))
        assert best_response(inst, f, (2,), 0) == 1


# exogenous load of one slot of each kind of data, and the power; slot 1 is
# the steep one: under L**30 its terms dwarf the others', so only an exact
# sum keeps the other slots' terms
STEEP_DATA = {
    "float": (lambda rng: rng.uniform(0.0, 2.0), lambda rng: rng.choice([1, 0.7])),
    "mixed": (lambda rng: rng.choice([rng.randint(0, 2), rng.uniform(0.0, 2.0)]), lambda rng: rng.randint(1, 2)),
    "fraction": (
        lambda rng: Fraction(rng.randint(0, 4), rng.randint(1, 3)) + Fraction(rng.randint(0, 1), 10**14),
        lambda rng: Fraction(rng.randint(1, 3), rng.randint(1, 2)),
    ),
}


def replayed_profiles(inst, cost, starts):
    """The profiles round-robin best responses pass through, one per move.

    A move is taken when its exact window cost is strictly smaller.
    """
    profiles = [tuple(starts)]
    moved = True
    while moved:
        moved = False
        for i in range(inst.I):
            here = profiles[-1]
            trial = here[:i] + (best_response(inst, cost, here, i),) + here[i + 1 :]
            if oracle_window_cost(inst, cost, trial, i) < oracle_window_cost(inst, cost, here, i):
                profiles.append(trial)
                moved = True
    return profiles


@pytest.mark.parametrize("kind", sorted(STEEP_DATA))
def test_every_trace_entry_is_the_potential_of_its_profile(kind):
    rng = random.Random(f"steep {kind}")
    make_exo, make_power = STEEP_DATA[kind]
    f = Monomial(1, 30)
    moves = 0
    for _ in range(40):
        inst = random_heterogeneous_instance(rng, max_T=6, max_I=4)
        exo = [3 + make_exo(rng)] + [make_exo(rng) for _ in range(inst.horizon.T - 1)]
        inst = dataclasses.replace(inst, exogenous=exo, power=make_power(rng))
        starts = tuple(rng.choice(list(action_set(inst, i))) for i in range(inst.I))
        final, trace = best_response_dynamics(inst, f, starts)
        profiles = replayed_profiles(inst, f, starts)
        assert final.starts == profiles[-1]
        assert len(trace) == len(profiles)
        for phi, profile in zip(trace, profiles):
            expected = potential_atomic(inst, f, profile)
            assert phi == expected and type(phi) is type(expected), (inst, profile)
        moves += len(trace) - 1
    assert moves >= 20


def test_malformed_starts_and_players_are_refused():
    inst = AtomicInstance.symmetric(4, 2, 2, exogenous=(1, 2, 0, 1))
    f = Monomial(1, 2)
    for starts in [(1.0, 2), (True, 2), (1, np.float64(2.0)), (1, np.bool_(True)), (1, "2")]:
        for call in (
            lambda: is_nash(inst, f, starts),
            lambda: best_response_dynamics(inst, f, starts),
            lambda: best_response(inst, f, starts, 0),
            lambda: StrategyProfile.checked(inst, starts),
        ):
            with pytest.raises(ValueError, match="start of player"):
                call()
    for player in (-1, 2, True, 0.0, np.float64(1.0), None):
        for answer in (best_response, utility_atomic):
            with pytest.raises(ValueError, match="player"):
                answer(inst, f, (1, 2), player)
    # a numpy integer is the Python int it holds
    assert best_response(inst, f, (1, 2), np.int64(1)) == best_response(inst, f, (1, 2), 1)
    final, trace = best_response_dynamics(inst, f, (np.int64(1), np.int32(3)))
    assert (final, trace) == best_response_dynamics(inst, f, (1, 3))
    assert {type(s) for s in final.starts} == {int}


# ---------------------------------------------------------------------------
# exhaustive scans against the oracle


@pytest.mark.parametrize("view", ["configurations", "profiles"])
def test_enumeration_matches_oracle_symmetric(view):
    # configurations: the listing and the optimum; profiles: the profiles
    # behind the listing are exactly the oracle's NE profiles
    rng = random.Random(105)
    f = Monomial(1, 2)
    for _ in range(25):
        inst = random_symmetric_instance(rng)
        ne, ne_profiles, opt = oracle_scan(inst, f)
        eq = enumerate_equilibria(inst, f)
        assert eq.complete
        assert set(listed(eq)) == set(ne)
        if view == "configurations":
            assert listed(eq) == ne
            opt_config, opt_cost = social_optimum(inst, f)
            assert opt_cost == opt
            assert sum(opt_config.occupancy) == inst.I * inst.durations[0]
        else:
            behind = 0
            for config in eq.equilibria:
                assert oracle_is_ne(inst, f, one_profile(inst, config))
                behind += math.factorial(inst.I) // math.prod(map(math.factorial, config.start_counts))
            assert behind == ne_profiles


def test_enumeration_matches_oracle_heterogeneous():
    rng = random.Random(106)
    f = Monomial(1, 2)
    for _ in range(20):
        inst = random_heterogeneous_instance(rng)
        ne, ne_profiles, opt = oracle_scan(inst, f)
        eq = enumerate_equilibria(inst, f)
        assert listed(eq) == ne
        _, opt_cost = social_optimum(inst, f)
        assert opt_cost == opt


def test_scan_matches_oracle_on_every_small_symmetric_instance():
    # T <= 8, every duration, I <= 4, three exogenous loads each; one profile
    # per multiset of starts stands for its configuration in the oracle
    rng = np.random.default_rng(7103)
    f = Monomial(1, 2)
    for T in range(2, 9):
        for C in range(1, T + 1):
            exos = [(0,) * T] + [tuple(int(v) for v in rng.integers(0, 5, size=T)) for _ in range(2)]
            for I in range(1, 5):
                for exo in exos:
                    inst = AtomicInstance.symmetric(T, I, C, exogenous=exo)
                    ne = {
                        oracle_configuration(inst, starts): sum(map(f, oracle_loads(inst, starts)))
                        for starts in itertools.combinations_with_replacement(action_set(inst, 0), I)
                        if oracle_is_ne(inst, f, starts)
                    }
                    eq = enumerate_equilibria(inst, f)
                    assert eq.complete and listed(eq) == ne, (T, C, I, exo)


@pytest.mark.parametrize("f", [Monomial(1, 2), SquareRoot()], ids=["L2", "sqrtL"])
def test_repeated_window_scan_matches_oracle(f):
    rng = random.Random(110)
    for _ in range(60):
        inst = random_repeated_window_instance(rng)
        ne, ne_profiles, opt = oracle_scan(inst, f)
        report = efficiency(inst, f)
        eq = report.equilibria
        got = listed(eq)
        assert eq.complete and got == {k: as_reported(inst, f, v) for k, v in ne.items()}
        assert social_optimum(inst, f)[1] == as_reported(inst, f, opt)
        assert report.exact == Fraction(max(ne.values())) / opt and report.value == float(report.exact)
        # listed by start counts, then occupancy; the worst is the first costliest
        assert list(got) == sorted(got)
        assert report.worst_equilibrium == eq.equilibria[eq.costs.index(max(eq.costs))]
        spaces = [len(action_set(inst, i)) for i in range(inst.I)]
        if inst.is_symmetric:  # one group: configurations, as for any symmetric game
            expected = len(ne) / math.comb(inst.I + spaces[0] - 1, spaces[0] - 1)
        else:
            expected = ne_profiles / math.prod(spaces)
        assert ne_proportion(inst, f) == pytest.approx(expected, rel=1e-15)


def test_efficiency_matches_oracle_exactly():
    rng = random.Random(107)
    f = Monomial(1, 2)
    for _ in range(15):
        inst = random_symmetric_instance(rng)
        ne, _, opt = oracle_scan(inst, f)
        report = efficiency(inst, f)
        assert report.exact == Fraction(max(ne.values()), opt)
        assert report.value == pytest.approx(float(report.exact))
        assert report.exact >= 1


def test_ne_proportion_units():
    rng = random.Random(108)
    f = Monomial(1, 2)
    for _ in range(10):
        inst = random_symmetric_instance(rng, max_T=6, max_I=3)
        ne, ne_profiles, _ = oracle_scan(inst, f)
        spaces = [len(list(action_set(inst, i))) for i in range(inst.I)]
        A, I = spaces[0], inst.I
        config_space = math.comb(I + A - 1, A - 1)
        assert ne_proportion(inst, f) == pytest.approx(len(ne) / config_space)
    # any other instance counts profiles
    for _ in range(10):
        inst = random_heterogeneous_instance(rng, max_T=6)
        if inst.is_symmetric:
            continue
        ne, ne_profiles, _ = oracle_scan(inst, f)
        spaces = [len(action_set(inst, i)) for i in range(inst.I)]
        assert ne_proportion(inst, f) == pytest.approx(ne_profiles / math.prod(spaces))


def test_big_exponent_uses_exact_arithmetic():
    # loads up to 21 with k = 20 overflow int64; results must still be exact
    inst = AtomicInstance.symmetric(T=6, I=6, C=2, power=3, exogenous=(1, 0, 2, 0, 1, 0))
    f = Monomial(1, 20)
    ne, _, opt = oracle_scan(inst, f)
    report = efficiency(inst, f)
    assert report.exact == Fraction(max(ne.values()), opt)
    assert max(ne.values()) > 2**62  # the scan really left the int64 range
    assert isinstance(report.worst_cost, int)


@pytest.mark.parametrize("base", [2**31, 2**40, 3**30, 2**52], ids=["2^31", "2^40", "3^30", "2^52"])
@pytest.mark.parametrize("f", [Monomial(1, 2), Monomial(1, 3)], ids=["L2", "L3"])
def test_float_filter_matches_oracle_on_near_ties(base, f):
    # exogenous loads a few units above a large base: window costs differ in
    # the last bits of a float64, so the filter must hand near ties to exact
    # integers rather than decide them
    rng = random.Random(base % 1009 + f.exponent)
    for _ in range(50):
        T, I = rng.randint(3, 7), rng.randint(2, 4)
        exo = tuple(base + rng.randint(0, 3) for _ in range(T))
        inst = AtomicInstance.symmetric(T, I, rng.randint(1, min(3, T)), exogenous=exo)
        assert scan_dtype(inst, f) == object
        ne, _, opt = oracle_scan(inst, f)
        report = efficiency(inst, f)
        assert listed(report.equilibria) == ne
        assert report.optimum_cost == opt
        assert report.exact == Fraction(max(ne.values()), opt)


def test_float_filter_survives_costs_beyond_the_float_range():
    # every cost exceeds the largest float64: a plain float copy of the cost
    # table would overflow
    inst = AtomicInstance.symmetric(T=6, I=4, C=2, exogenous=(5, 4, 6, 4, 5, 4))
    f = Monomial(1, 400)
    ne, _, opt = oracle_scan(inst, f)
    report = efficiency(inst, f)
    assert listed(report.equilibria) == ne
    assert report.exact == Fraction(max(ne.values()), opt)
    assert report.optimum_cost == opt > 2**1024


def test_float_filter_keeps_an_optimum_that_is_no_equilibrium():
    # the optimum costs less than every equilibrium, so only the optimum
    # race, not the NE test, can keep its row for the exact pass
    inst = AtomicInstance.symmetric(T=6, I=2, C=4, exogenous=(0, 6, 6, 4, 3, 6))
    f = Monomial(3**40, 2)
    assert scan_dtype(inst, f) == object
    ne, _, opt = oracle_scan(inst, f)
    assert min(ne.values()) > opt
    report = efficiency(inst, f)
    assert report.optimum_cost == opt
    assert report.exact == Fraction(max(ne.values()), opt)


def test_float_filter_sends_few_rows_to_exact_integers():
    inst = AtomicInstance.symmetric(T=10, I=12, C=3, exogenous=(2, 0, 3, 1, 0, 2, 3, 1, 0, 2))
    eq = enumerate_equilibria(inst, Monomial(1, 24))
    assert scan_dtype(inst, Monomial(1, 24)) == object
    assert eq.examined == eq.space_size == 50388
    assert eq.stats["blocks"] == 13  # 50,388 rows in blocks of 4,096
    assert 0 < eq.stats["exact_rows"] < 0.01 * eq.examined
    assert min(eq.stats[k] for k in ("generate_s", "evaluate_s", "reduce_s")) > 0


def test_scan_stats_stay_out_of_comparisons():
    eq = enumerate_equilibria(AtomicInstance.symmetric(T=6, I=3, C=2, exogenous=(1, 2, 3, 2, 1, 3)), Monomial(1, 2))
    assert eq.stats["blocks"] == 1 and eq.stats["exact_rows"] == 0  # int64 scans need no exact pass
    assert dataclasses.replace(eq, stats={}) == eq
    assert "stats" not in repr(eq)


def test_float_cost_path():
    inst = AtomicInstance.symmetric(T=6, I=3, C=2, exogenous=(1, 2, 3, 2, 1, 3))
    f = SquareRoot()
    ne, _, opt = oracle_scan(inst, f)
    eq = enumerate_equilibria(inst, f)
    assert set(listed(eq)) == set(ne)
    assert listed(eq) == {config: float(total) for config, total in ne.items()}
    report = efficiency(inst, f)
    assert report.exact == Fraction(max(ne.values())) / opt
    assert report.value == float(report.exact)


# a T=10, I=12, C=3 instance: 50,388 configurations, 13 blocks
MIXED_DATA = dict(T=10, I=12, C=3, exogenous=(2, 0, 3, 1, 0, 2, 3, 1, 0, 2))


@pytest.mark.parametrize(
    "inst, costs",
    [
        *[(AtomicInstance.symmetric(10, 12, C), tuple(Monomial(1, k) for k in range(2, 11))) for C in (3, 4, 5)],
        (AtomicInstance.symmetric(**MIXED_DATA), (Monomial(1, 24),)),
        (
            AtomicInstance.symmetric(8, 5, 2, exogenous=(0.5, 1.25, 0.75, 2.5, 0.1, 1.5, 3.25, 0.5)),
            (SquareRoot(), SquareRoot(2), Monomial(1.5, 2)),
        ),
        # int64, object through the float filter, float data in int64: each kind of kernel
        (AtomicInstance.symmetric(**MIXED_DATA), (Monomial(1, 2), Monomial(1, 24), SquareRoot())),
        (AtomicInstance.symmetric(**MIXED_DATA), (SquareRoot(), Monomial(1, 24), Monomial(1, 2))),
        (
            AtomicInstance.create(10, [(1, 10, 2)] * 3 + [(2, 9, 3)] * 2 + [(3, 10, 4)] * 2),
            (Monomial(1, 2), Monomial(1, 3), SquareRoot(), Monomial(1, 38)),
        ),
    ],
    ids=["int64-C3", "int64-C4", "int64-C5", "object", "float", "mixed", "mixed-reversed", "heterogeneous"],
)
def test_efficiencies_equal_one_cost_scans(inst, costs):
    reports = efficiencies(inst, costs)
    assert len(reports) == len(costs)
    for report, f in zip(reports, costs):
        alone = efficiency(inst, f)
        assert report == alone  # stats stay out of the comparison
        shared, own = report.equilibria.stats, alone.equilibria.stats
        assert shared["exact_rows"] == own["exact_rows"]
        assert shared["blocks"] == own["blocks"]
    # only big-integer tables leave rows to the exact pass
    assert [r.equilibria.stats["exact_rows"] > 0 for r in reports] == [scan_dtype(inst, f) == object for f in costs]
    # the shared stream's keys are the same for every cost of one scan
    assert len({(r.equilibria.stats["blocks"], r.equilibria.stats["generate_s"]) for r in reports}) == 1


def test_efficiencies_share_the_budget():
    inst = AtomicInstance.symmetric(**MIXED_DATA)
    costs = (Monomial(1, 2), Monomial(1, 3), SquareRoot())
    for budget in (4095, 4096, 4097, 50388):
        scans = atomic._scan(inst, costs, budget)
        assert [eq.examined for eq, _ in scans] == [min(budget, 50388)] * 3
        assert [eq.space_size for eq, _ in scans] == [50388] * 3
        if budget < 50388:
            with pytest.raises(BudgetExceededError) as err:
                efficiencies(inst, costs, budget=budget)
            assert err.value.partial.examined == budget
            for f in costs:
                with pytest.raises(BudgetExceededError):
                    efficiency(inst, f, budget=budget)
        else:
            assert efficiencies(inst, costs, budget=budget) == tuple(efficiency(inst, f, budget=budget) for f in costs)
    with pytest.raises(ValueError):
        efficiencies(inst, ())


@pytest.mark.parametrize(
    "inst, f, dtype",
    [
        # T * f(max load) = 4 * 3**37 < 2**62 <= 4 * 3**38: the switch from both sides
        (AtomicInstance.symmetric(4, 2, 2), Monomial(1, 37), np.int64),
        (AtomicInstance.symmetric(4, 2, 2), Monomial(1, 38), object),
        # float data is exact too: integers over a power-of-two denominator
        (AtomicInstance.symmetric(4, 2, 2, exogenous=(0.5, 1.25, 0.75, 2.5)), SquareRoot(), np.int64),
        # the same switch with two window groups
        (AtomicInstance.create(4, [(1, 4, 2), (2, 4, 1)]), Monomial(1, 37), np.int64),
        (AtomicInstance.create(4, [(1, 4, 2), (2, 4, 1)]), Monomial(1, 38), object),
        (AtomicInstance.create(4, [(1, 4, 2), (2, 4, 1)], exogenous=(0.5, 1.25, 0.75, 2.5)), SquareRoot(), np.int64),
    ],
)
def test_block_kernel_matches_scalar_kernel_on_every_dtype(inst, f, dtype):
    assert scan_dtype(inst, f) == dtype
    ne, _, opt = oracle_scan(inst, f)
    eq = enumerate_equilibria(inst, f)
    assert set(listed(eq)) == set(ne)
    assert all(is_nash(inst, f, one_profile(inst, c)) for c in eq.equilibria)
    assert listed(eq) == {config: as_reported(inst, f, total) for config, total in ne.items()}
    assert efficiency(inst, f).exact == Fraction(max(ne.values())) / opt


def row_oracle(inst, cost, groups, row):
    """NE flag, exact total cost and occupancy of one class configuration.

    Plain Python from the definitions: the row becomes a profile, every
    window cost is summed exactly off ``load`` of that profile or of the
    profile with one player moved, and a move gains when it is strictly
    smaller.
    """
    queues = {}  # window (a, d, C) -> the starts its players take
    for a, C, _, first, A in groups:
        queues[a, a + A + C - 2, C] = [a + j for j in range(A) for _ in range(int(row[first + j]))]
    starts = [queues[inst.window(i)].pop() for i in range(inst.I)]
    loads = load(inst, starts)
    is_ne = True
    for i, s in enumerate(starts):
        C = inst.durations[i]
        here = sum(exact(cost(L)) for L in loads[s - 1 : s - 1 + C])
        for s2 in action_set(inst, i):
            moved = load(inst, starts[:i] + [s2] + starts[i + 1 :])
            if sum(exact(cost(L)) for L in moved[s2 - 1 : s2 - 1 + C]) < here:
                is_ne = False
    return is_ne, sum(exact(cost(L)) for L in loads), list(occupancy(inst, starts).occupancy)


KERNEL_COSTS = {"int64": Monomial(1, 3), "object": Monomial(1, 38), "float": SquareRoot(), "certified": Monomial(1, 38)}


def kernel_table(inst, cost, dtype):
    """The slot-cost table a kernel of ``dtype`` reads, and its scale ``D``.

    Float data draws loads of at least 0.5, so that its exact table fits
    int64; ``certified`` is the float image of the object table."""
    rows, kind, _ = _slot_table(inst, cost)
    if dtype in ("int64", "float"):
        assert kind == np.int64
    # in the kernel's dtype even where the scan would pick int64
    table = np.array(rows, dtype=np.int64 if dtype in ("int64", "float") else object)
    scale = math.lcm(*(Fraction(cost(e + inst.power * v)).denominator for e in inst.exogenous for v in range(inst.I + 2)))
    return (table.astype(np.float64) if dtype == "certified" else table), scale


@pytest.mark.parametrize("dtype", ["int64", "object", "float", "certified"])
def test_block_kernel_matches_plain_python_rows(dtype):
    # random symmetric and multi-group instances, some where no target lies
    # a whole window away (A <= C) and some with targets on both sides
    # (A > 2C); one loader and one kernel take every block of an instance,
    # blocks cut small and thinned like the exact pass, so their arrays are
    # reused and grow
    rng = random.Random(3301)
    cost = KERNEL_COSTS[dtype]
    shapes = {"A<=C": 0, "A>2C": 0}
    for trial in range(24):
        T = rng.randint(3, 11)
        if trial % 2:
            C = rng.randint(1, max(1, (T - 1) // 3))  # A = T - C + 1 > 2C
            windows = [(1, T, C)] * rng.randint(1, 4)
        else:
            windows = []
            for _ in range(rng.randint(1, 3)):
                a = rng.randint(1, T - 1)
                d = rng.randint(a, T)
                windows += [(a, d, rng.randint(max(1, (d - a + 2) // 2), d - a + 1))] * rng.randint(1, 2)
        exo = [rng.randint(0, 3) if dtype != "float" else rng.uniform(0.5, 3.0) for _ in range(T)]
        inst = AtomicInstance.create(T, windows, exogenous=exo)
        groups = _class_groups(inst)
        for a, C, _, _, A in groups:
            shapes["A<=C"] += A <= C
            shapes["A>2C"] += A > 2 * C
        # table[t, v]: D times slot t's cost at occupancy v
        table, scale = kernel_table(inst, cost, dtype)
        loaded, kernel = _Block(groups, inst.horizon.T, inst.I + 2), _BlockKernel(groups, table.dtype)
        for block in _configuration_blocks([(n, A) for _, _, n, _, A in groups], rng.randint(1, 7)):
            block = block[sorted(rng.sample(range(len(block)), rng.randint(1, len(block))))]
            ne, tc, err = kernel(loaded.load(block), table)
            occ = loaded.occ.T
            for r, row in enumerate(block):
                is_ne, total, occupied = row_oracle(inst, cost, groups, row)
                assert occ[r].tolist() == occupied
                if dtype == "certified":
                    # a row is ruled out only on a gain beyond its error bound
                    assert ne[r] or not is_ne
                    assert abs(Fraction(tc[r]) - total * scale) <= Fraction(err[r])
                else:
                    assert ne[r] == is_ne
                    assert tc[r] == total * scale
    assert min(shapes.values()) > 0


@pytest.mark.parametrize("dtype", ["int64", "object", "float", "certified"])
@pytest.mark.parametrize("shape", ["A<=C", "A=C+1", "A>>C"])
def test_block_kernel_screen_keeps_every_flag(dtype, shape):
    # the distant-move test screens the rows before the nearer moves, which
    # see only the columns still NE; with A <= C there is no distant target
    # and nothing is screened.  A second, shorter window on some trials makes
    # the columns another group refuted drop out of the screen as well
    rng = random.Random(3302)
    cost = KERNEL_COSTS[dtype]
    for trial in range(6):
        C = rng.randint(1, 4)
        A = {"A<=C": rng.randint(1, C), "A=C+1": C + 1, "A>>C": 3 * C + rng.randint(1, 3)}[shape]
        T = A + C - 1
        windows = [(1, T, C)] * rng.randint(1, 4) + [(2, T, min(C, T - 1))] * (trial % 2)
        exo = [rng.randint(0, 3) if dtype != "float" else rng.uniform(0.5, 3.0) for _ in range(T)]
        inst = AtomicInstance.create(T, windows, exogenous=exo)
        groups = _class_groups(inst)
        table, scale = kernel_table(inst, cost, dtype)
        loaded, kernel = _Block(groups, T, inst.I + 2), _BlockKernel(groups, table.dtype)
        for block in _configuration_blocks([(n, A) for _, _, n, _, A in groups], rng.randint(1, 50)):
            ne, tc, err = kernel(loaded.load(block), table)
            for r, row in enumerate(block):
                is_ne, total, _ = row_oracle(inst, cost, groups, row)
                if dtype == "certified":
                    assert ne[r] or not is_ne
                    assert abs(Fraction(tc[r]) - total * scale) <= Fraction(err[r])
                else:
                    assert ne[r] == is_ne, (T, windows, row.tolist())


@pytest.mark.parametrize("max_rows", [1, 3, 7, 10**6])
def test_composition_blocks_match_brute_force(max_rows):
    for total in range(5):
        for parts in range(1, 5):
            blocks = list(_composition_blocks(total, parts, max_rows))
            assert all(b.dtype == np.int64 and 1 <= b.shape[0] <= max_rows for b in blocks)
            brute = [
                row for row in itertools.product(range(total + 1), repeat=parts) if sum(row) == total
            ]
            assert np.vstack(blocks).tolist() == [list(row) for row in brute]


def lexicographic_compositions(total, parts):
    """Count vectors of length ``parts`` summing to ``total``, lexicographic."""
    if parts == 1:
        yield [total]
        return
    for head in range(total + 1):
        for rest in lexicographic_compositions(total - head, parts - 1):
            yield [head] + rest


@pytest.mark.parametrize("table_rows", [1, 5, 36, 1 << 12])
def test_composition_blocks_cut_every_tail_table(monkeypatch, table_rows):
    # the tail table holds at most `table_rows` rows: at 1 every row is a
    # head of its own, at 5 and 36 most blocks join several heads, and any
    # table longer than `max_rows` puts one head's tail in several blocks
    monkeypatch.setattr(atomic, "_BLOCK_ROWS", table_rows)
    for parts in range(1, 10):
        for total in range(5):
            brute = list(lexicographic_compositions(total, parts))
            for max_rows in range(1, 51):
                blocks = list(_composition_blocks(total, parts, max_rows))
                assert all(b.dtype == np.int64 and 1 <= len(b) <= max_rows for b in blocks)
                assert all(len(b) == max_rows for b in blocks[:-1])  # only the last block is short
                assert np.vstack(blocks).tolist() == brute


@pytest.mark.parametrize("max_rows", [1, 3, 7, 10**6])
def test_configuration_blocks_match_product_of_compositions(max_rows):
    def compositions(total, parts):
        return [list(r) for r in itertools.product(range(total + 1), repeat=parts) if sum(r) == total]

    for shape in ([(2, 3)], [(2, 3), (1, 2)], [(1, 1), (2, 2), (1, 3)], [(3, 2), (2, 3)]):
        blocks = list(_configuration_blocks(shape, max_rows))
        assert all(b.dtype == np.int64 and 1 <= b.shape[0] <= max_rows for b in blocks)
        brute = [sum(rows, []) for rows in itertools.product(*(compositions(*g) for g in shape))]
        assert np.vstack(blocks).tolist() == brute


def test_configuration_blocks_build_a_fitting_tail_once(monkeypatch):
    # 495 x 330 class configurations: the 330-row tail fits in one block, so
    # each group's compositions are generated once, not once per head block
    calls = Counter()

    def counted(total, parts, max_rows):
        calls[total, parts] += 1
        return _composition_blocks(total, parts, max_rows)

    monkeypatch.setattr(atomic, "_composition_blocks", counted)
    inst = AtomicInstance.create(10, [(1, 10, 2)] * 4 + [(1, 10, 3)] * 4)
    assert enumerate_equilibria(inst, Monomial(1, 2)).complete
    assert calls == {(4, 9): 1, (4, 8): 1}
    # the stream and its block cuts: 12 head rows over the whole tail a block
    blocks = list(_configuration_blocks([(4, 9), (4, 8)], atomic._BLOCK_ROWS))
    assert [len(b) for b in blocks] == [12 * 330] * 41 + [3 * 330]
    brute = [h + t for h, t in itertools.product(lexicographic_compositions(4, 9), lexicographic_compositions(4, 8))]
    assert np.vstack(blocks).tolist() == brute


def test_two_durations_scan_at_a_new_scale():
    # 4 EVs at C=2 and 4 at C=3 on the full T=10 window: two groups whose
    # class configurations are far fewer than the profiles
    inst = AtomicInstance.create(10, [(1, 10, 2)] * 4 + [(1, 10, 3)] * 4)
    f = Monomial(1, 2)
    eq = enumerate_equilibria(inst, f)
    assert eq.complete
    assert eq.space_size == math.comb(12, 4) * math.comb(11, 4) == 163350
    assert math.prod(len(action_set(inst, i)) for i in range(inst.I)) == 26873856
    assert eq.equilibria
    for config in eq.equilibria:
        assert is_nash(inst, f, one_profile(inst, config))


# ---------------------------------------------------------------------------
# budgets


def test_budget_flags_incomplete_enumeration():
    inst = AtomicInstance.symmetric(T=8, I=4, C=2)
    f = Monomial(1, 2)
    eq = enumerate_equilibria(inst, f, budget=10)
    assert not eq.complete
    assert eq.examined <= 10 < eq.space_size


def test_budget_aborts_optimum_and_efficiency():
    inst = AtomicInstance.symmetric(T=8, I=4, C=2)
    f = Monomial(1, 2)
    with pytest.raises(BudgetExceededError):
        social_optimum(inst, f, budget=10)
    with pytest.raises(BudgetExceededError) as err:
        efficiency(inst, f, budget=10)
    assert err.value.partial is not None and not err.value.partial.complete
    with pytest.raises(BudgetExceededError):
        ne_proportion(inst, f, budget=10)


def test_resolve_budget_sources(monkeypatch):
    monkeypatch.delenv("CHARGE_GAME_BUDGET", raising=False)
    assert resolve_budget(None) == 10**8
    assert resolve_budget(None, default=55) == 55
    assert resolve_budget(123) == 123
    monkeypatch.setenv("CHARGE_GAME_BUDGET", "777")
    assert resolve_budget(None) == 777
    assert resolve_budget(42) == 42  # explicit argument still wins


def test_resolve_budget_rejects_budgets_below_one(monkeypatch):
    monkeypatch.delenv("CHARGE_GAME_BUDGET", raising=False)
    for bad in (0, -5, True, 2.5, "7", np.int64(7)):
        with pytest.raises(ValueError):
            resolve_budget(bad)
    monkeypatch.setenv("CHARGE_GAME_BUDGET", "-5")
    with pytest.raises(ValueError):
        resolve_budget(None)


def test_budget_is_exact_across_block_edges():
    # 50,388 configurations; the scan evaluates them in blocks of 4,096
    inst = AtomicInstance.symmetric(10, 12, 3)
    f = Monomial(1, 2)
    full = enumerate_equilibria(inst, f)
    assert full.complete and full.examined == full.space_size == 50388
    for budget in (4095, 4096, 4097, 8191, 8192, 8193, 50387, 50388):
        eq = enumerate_equilibria(inst, f, budget=budget)
        assert eq.examined == min(budget, full.space_size)
        assert eq.complete is (budget == 50388)
        assert set(eq.equilibria) <= set(full.equilibria)
        if eq.complete:
            assert eq.equilibria == full.equilibria and eq.costs == full.costs


def test_budget_is_exact_across_multi_group_block_edges():
    # two groups, 495 x 330 class configurations in blocks of 12 x 330 = 3960
    inst = AtomicInstance.create(10, [(1, 10, 2)] * 4 + [(1, 10, 3)] * 4)
    f = Monomial(1, 2)
    full = enumerate_equilibria(inst, f)
    for budget in (3959, 3960, 3961, 7919, 7920, 7921, 163349, 163350):
        eq = enumerate_equilibria(inst, f, budget=budget)
        assert eq.examined == budget
        assert eq.complete is (budget == 163350)
        assert set(eq.equilibria) <= set(full.equilibria)
        if eq.complete:
            assert eq.equilibria == full.equilibria and eq.costs == full.costs


def test_scan_memory_stays_flat():
    # the block kernel's arrays set a scan's peak memory, and so its peak RSS
    inst, f = AtomicInstance.symmetric(10, 12, 3), Monomial(1, 2)
    efficiency(inst, f)  # first-call imports and caches stay out of the peak
    tracemalloc.start()
    try:
        efficiency(inst, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 2**20


def test_budgeted_scan_never_builds_the_whole_space():
    # 2.2e34 configurations: the scan must stop at the budget, not build them
    eq = enumerate_equilibria(AtomicInstance.symmetric(96, 40, 2), Monomial(1, 2), budget=20000)
    assert eq.examined == 20000
    assert eq.space_size == 22463319921506831425909253320240400
    assert eq.complete is False


def test_budget_env_var_reaches_the_scan(monkeypatch):
    inst = AtomicInstance.symmetric(T=8, I=4, C=2)
    monkeypatch.setenv("CHARGE_GAME_BUDGET", "10")
    eq = enumerate_equilibria(inst, Monomial(1, 2))
    assert not eq.complete
