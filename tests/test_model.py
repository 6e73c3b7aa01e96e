"""Unit tests for the shared model layer: costs, instances, profiles, loads."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from chargegame import (
    AtomicInstance,
    ChargingConfiguration,
    CostSum,
    GridCostFunction,
    Identity,
    MixedProfile,
    Monomial,
    NonatomicInstance,
    PricingMap,
    SquareRoot,
    StrategyProfile,
    TimeHorizon,
    UserClass,
    action_set,
    grid_total_cost,
    load,
    occupancy,
    potential_atomic,
    potential_nonatomic,
    utility_atomic,
    utility_nonatomic,
)


# ---------------------------------------------------------------------------
# grid cost functions


def test_monomial_values_and_types():
    f = Monomial(1, 2)
    assert f(3) == 9
    assert isinstance(f(3), int)
    assert f(0) == 0
    g = Monomial(2, 3)
    assert g(2) == 16
    arr = f(np.array([1.0, 2.0, 3.0]))
    assert np.allclose(arr, [1.0, 4.0, 9.0])


def test_monomial_exact_on_fractions():
    f = Monomial(1, 2)
    v = f(Fraction(1, 3))
    assert v == Fraction(1, 9)


def test_sqrt_cost():
    f = SquareRoot()
    assert f(4) == pytest.approx(2.0)
    assert f(0) == 0
    g = SquareRoot(3)
    assert g(4) == pytest.approx(6.0)


def test_derivatives_match_numerically():
    rng = random.Random(7)
    funcs = [Monomial(1, 2), Monomial(3, 4), Monomial(2, 1), SquareRoot(2),
             CostSum((Monomial(1, 2), Monomial(2, 1))), CostSum((SquareRoot(), Monomial(1, 2))),
             CostSum((Monomial(5, 0), Monomial(1, 2))), CostSum((Monomial(5, 0),)), Monomial(1, 0.5)]
    for f in funcs:
        for _ in range(20):
            x = 0.5 + 4.0 * rng.random()
            h = 1e-6
            num = (f(x + h) - f(x - h)) / (2 * h)
            assert f.deriv(x) == pytest.approx(num, rel=1e-4)


def test_antiderivative_matches_numerically():
    funcs = [Monomial(1, 2), Monomial(1, 8), SquareRoot(), CostSum((Monomial(1, 3), SquareRoot(2))),
             CostSum((SquareRoot(), Monomial(1, 2))), CostSum((Monomial(5, 0), Monomial(1, 2))),
             CostSum((Monomial(5, 0),)), Monomial(1, 0.5)]
    rng = random.Random(11)
    for f in funcs:
        for _ in range(10):
            x = 4.0 * rng.random()
            # F(x) - F(0) should equal the integral of f over [0, x]
            grid = np.linspace(0.0, x, 20001)
            num = np.trapezoid(np.asarray(f(grid), dtype=float), grid)
            assert f.antiderivative(x) - f.antiderivative(0.0) == pytest.approx(num, rel=1e-5, abs=1e-6)


def test_derivative_object_round_trip():
    f = Monomial(2, 4)
    df = f.derivative()
    assert isinstance(df, GridCostFunction)
    assert df(3.0) == pytest.approx(f.deriv(3.0))
    with pytest.raises(ValueError):
        SquareRoot().derivative()
    with pytest.raises(ValueError):
        Monomial(1, 0).derivative()
    with pytest.raises(ValueError):
        CostSum((SquareRoot(), Monomial(1, 2))).derivative()
    with pytest.raises(ValueError):
        CostSum((Monomial(5, 0), Monomial(1, 2))).derivative()
    sum_ = CostSum((Monomial(1, 1), Monomial(3, 4)))
    for x in (0.5, 1.0, 3.0):
        assert sum_.derivative()(x) == pytest.approx(sum_.deriv(x))
    # a square root written as a monomial is the same cost
    for x in (0.0, 0.25, 2.0, 9.0):
        assert Monomial(1, 0.5)(x) == SquareRoot()(x)
        assert Monomial(1, 0.5).antiderivative(x) == pytest.approx(SquareRoot().antiderivative(x))
    for x in (0.25, 2.0, 9.0):
        assert Monomial(1, 0.5).deriv(x) == pytest.approx(SquareRoot().deriv(x))
    assert Monomial(1, 0.5).deriv(0.0) == SquareRoot().deriv(0.0) == math.inf


def test_assumption_flags():
    assert Monomial(1, 2).satisfies_a1
    assert Monomial(1, 2).satisfies_a2
    assert SquareRoot().satisfies_a1
    assert not SquareRoot().satisfies_a2
    assert Monomial(1, 1).satisfies_a1
    assert not Monomial(1, 1).satisfies_a2
    # a constant is neither strictly increasing nor strictly convex
    assert not Monomial(5, 0).satisfies_a1
    assert not Monomial(5, 0).satisfies_a2
    mix = CostSum((Monomial(1, 2), Monomial(2, 1)))
    assert mix.satisfies_a1 and mix.satisfies_a2
    # a concave term spoils convexity; a constant one spoils nothing
    concave = CostSum((SquareRoot(), Monomial(1, 2)))
    assert concave.satisfies_a1 and not concave.satisfies_a2
    shifted = CostSum((Monomial(5, 0), Monomial(1, 2)))
    assert shifted.satisfies_a1 and shifted.satisfies_a2
    constant = CostSum((Monomial(5, 0),))
    assert not constant.satisfies_a1 and not constant.satisfies_a2
    root = Monomial(1, 0.5)
    assert (root.satisfies_a1, root.satisfies_a2) == (SquareRoot().satisfies_a1, SquareRoot().satisfies_a2)
    assert root.is_exact_for_integers == SquareRoot().is_exact_for_integers


def test_cost_sum_values():
    f = CostSum((Monomial(1, 2), Monomial(3, 1)))
    assert f(2) == 10
    assert f.deriv(2.0) == pytest.approx(7.0)


def test_monomial_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Monomial(-1, 2)
    with pytest.raises(ValueError):
        Monomial(1, -1)
    with pytest.raises(ValueError):
        Monomial("x", 2)
    with pytest.raises(ValueError):
        Monomial(1, "x")
    with pytest.raises(ValueError):
        SquareRoot("x")
    with pytest.raises(ValueError):
        SquareRoot(0)
    with pytest.raises(ValueError):
        CostSum(())
    with pytest.raises(TypeError):
        CostSum((1,))


def test_pricing_functions():
    ident = Identity()
    assert ident(17) == 17
    double = PricingMap(lambda x: 2 * x, "double")
    assert double(5) == 10
    assert double.check_increasing([0, 1, 2, 5])
    shrink = PricingMap(lambda x: -x, "neg")
    assert not shrink.check_increasing([0, 1, 2])
    # a sequence gives one map per player (atomic) or per class (nonatomic)
    inst = AtomicInstance.symmetric(4, 2, 2, exogenous=(1, 0, 0, 1))
    per_player = [double, PricingMap(lambda x: x + 1)]
    assert [utility_atomic(inst, Monomial(1, 2), (1, 3), i, pricing=per_player) for i in (0, 1)] == [-10, -6]
    two = NonatomicInstance.create(T=4, classes=[(0.5, 1, 4, 2), (0.5, 1, 4, 2)])
    prof = MixedProfile(two, ((1, 0, 0, 0), (0, 0, 1, 0)))  # loads 0.5 everywhere
    assert [utility_nonatomic(two, Monomial(1, 2), prof, 1, k, pricing=per_player) for k in (0, 1)] == [-1.0, -1.5]


# ---------------------------------------------------------------------------
# horizons and instances


def test_time_horizon_validation():
    assert TimeHorizon(6).T == 6
    with pytest.raises(ValueError):
        TimeHorizon(0)


def test_atomic_instance_symmetric():
    inst = AtomicInstance.symmetric(T=6, I=3, C=2, exogenous=(1, 2, 3, 2, 1, 3))
    assert inst.I == 3
    assert inst.horizon.T == 6
    assert inst.is_symmetric
    assert inst.window(0) == (1, 6, 2)
    assert list(action_set(inst, 0)) == [1, 2, 3, 4, 5]


def test_atomic_instance_heterogeneous():
    inst = AtomicInstance.create(
        T=8,
        players=[(1, 6, 2), (3, 8, 3), (2, 7, 2)],
        exogenous=(0, 0, 1, 1, 0, 0, 2, 2),
    )
    assert not inst.is_symmetric
    assert inst.window(1) == (3, 8, 3)
    assert list(action_set(inst, 1)) == [3, 4, 5, 6]


def test_atomic_instance_rejects_bad_windows():
    with pytest.raises(ValueError):
        AtomicInstance.create(T=6, players=[(0, 6, 2)])  # arrival below first slot
    with pytest.raises(ValueError):
        AtomicInstance.create(T=6, players=[(1, 7, 2)])  # departure past horizon
    with pytest.raises(ValueError):
        AtomicInstance.create(T=6, players=[(4, 3, 1)])  # empty window
    with pytest.raises(ValueError):
        AtomicInstance.create(T=6, players=[(1, 3, 4)])  # duration exceeds window
    with pytest.raises(ValueError):
        AtomicInstance.symmetric(T=6, I=2, C=2, exogenous=(1, 2, 3))  # wrong exo length
    with pytest.raises(ValueError):
        AtomicInstance.symmetric(T=3, I=2, C=2, exogenous=(1, -1, 3))  # negative exo
    with pytest.raises(ValueError):
        AtomicInstance.symmetric(T=6, I=2, C=2, power=0)
    with pytest.raises(ValueError):
        AtomicInstance.create(T=6, players=[(1, 6, 0)])  # no charging slot
    with pytest.raises(ValueError):
        AtomicInstance(TimeHorizon(6), arrivals=(1, 1), departures=(6,), durations=(2, 2))
    with pytest.raises(ValueError):
        NonatomicInstance.create(4, [])  # no class


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "x"])
def test_instances_reject_non_finite_data(bad):
    with pytest.raises(ValueError):
        AtomicInstance.symmetric(4, 2, 2, exogenous=[bad] * 4)
    with pytest.raises(ValueError):
        AtomicInstance.symmetric(4, 2, 2, power=bad)
    with pytest.raises(ValueError):
        NonatomicInstance.symmetric(4, 2, exogenous=[bad] * 4)
    with pytest.raises(ValueError):
        NonatomicInstance.symmetric(4, 2, power=bad)


def test_duration_equal_to_window_gives_singleton_action_set():
    inst = AtomicInstance.symmetric(T=10, I=2, C=10)
    assert list(action_set(inst, 0)) == [1]


def test_nonatomic_instance_weights():
    inst = NonatomicInstance.create(T=6, classes=[(0.4, 1, 6, 2), (0.6, 2, 5, 3)])
    assert inst.K == 2
    assert inst.classes[0] == UserClass(0.4, 1, 6, 2)
    assert inst.window(1) == (2, 5, 3)
    with pytest.raises(ValueError):
        NonatomicInstance.create(T=6, classes=[(0.5, 1, 6, 2)])  # mass != 1
    with pytest.raises(ValueError):
        UserClass("x", 1, 6, 2)


def test_nonatomic_symmetric_builder():
    inst = NonatomicInstance.symmetric(T=11, C=5, exogenous=tuple([0.1] * 11))
    assert inst.K == 1
    assert inst.classes[0].weight == 1.0
    assert list(action_set(inst, 0)) == [1, 2, 3, 4, 5, 6, 7]


# ---------------------------------------------------------------------------
# profiles, occupancy, loads


def test_strategy_profile_validation():
    inst = AtomicInstance.symmetric(T=6, I=2, C=2)
    assert StrategyProfile.checked(inst, (1, 5)).starts == (1, 5)
    with pytest.raises(ValueError):
        StrategyProfile.checked(inst, (1, 6))  # start 6 would end past the horizon
    with pytest.raises(ValueError):
        StrategyProfile.checked(inst, (1,))  # wrong player count


def test_occupancy_and_load_by_hand():
    inst = AtomicInstance.symmetric(T=6, I=2, C=2, exogenous=(1, 2, 3, 2, 1, 3))
    config = occupancy(inst, StrategyProfile((1, 3)))
    assert config.occupancy == (1, 1, 1, 1, 0, 0)
    assert config.start_counts == (1, 0, 1, 0, 0, 0)
    loads = load(inst, StrategyProfile((1, 3)))
    assert loads == (2, 3, 4, 3, 1, 3)
    assert all(isinstance(v, int) for v in loads)


def test_overlapping_profile_load():
    inst = AtomicInstance.symmetric(T=6, I=3, C=2, power=2)
    loads = load(inst, StrategyProfile((1, 1, 2)))
    assert loads == (4, 6, 2, 0, 0, 0)


def test_grid_total_cost_by_hand():
    inst = AtomicInstance.symmetric(T=6, I=2, C=2, exogenous=(1, 2, 3, 2, 1, 3))
    tc = grid_total_cost(inst, Monomial(1, 2), StrategyProfile((1, 3)))
    assert tc == 48
    assert isinstance(tc, int)


def test_utility_atomic_by_hand():
    inst = AtomicInstance.symmetric(T=6, I=2, C=2, exogenous=(1, 2, 3, 2, 1, 3))
    prof = StrategyProfile((1, 3))
    assert utility_atomic(inst, Monomial(1, 2), prof, 0) == -(4 + 9)
    assert utility_atomic(inst, Monomial(1, 2), prof, 1) == -(16 + 9)
    double = PricingMap(lambda x: 2 * x, "double")
    assert utility_atomic(inst, Monomial(1, 2), prof, 0, pricing=double) == -26


def test_potential_atomic_by_hand():
    inst = AtomicInstance.symmetric(T=6, I=2, C=2, exogenous=(1, 2, 3, 2, 1, 3))
    value = potential_atomic(inst, Monomial(1, 2), StrategyProfile((1, 3)))
    # slot sums of f(exo + v) for v = 0..n_t: 5, 13, 25, 13, 1, 9
    assert value == -66
    # the configuration carries all the potential needs
    assert potential_atomic(inst, Monomial(1, 2), occupancy(inst, (1, 3))) == -66


def test_potential_change_equals_utility_change_identity_pricing():
    rng = random.Random(3)
    for _ in range(50):
        T = rng.randint(3, 8)
        I = rng.randint(1, 4)
        C = rng.randint(1, min(3, T))
        exo = tuple(rng.randint(0, 5) for _ in range(T))
        inst = AtomicInstance.symmetric(T=T, I=I, C=C, exogenous=exo)
        slots = list(action_set(inst, 0))
        starts = [rng.choice(slots) for _ in range(I)]
        mover = rng.randrange(I)
        alt = rng.choice(slots)
        before = StrategyProfile(tuple(starts))
        after_starts = list(starts)
        after_starts[mover] = alt
        after = StrategyProfile(tuple(after_starts))
        f = Monomial(1, 2)
        du = utility_atomic(inst, f, after, mover) - utility_atomic(inst, f, before, mover)
        dphi = potential_atomic(inst, f, after) - potential_atomic(inst, f, before)
        assert du == dphi


def test_mixed_profile_validation():
    inst = NonatomicInstance.symmetric(T=6, C=2)
    MixedProfile(inst, ((0.2, 0.2, 0.2, 0.2, 0.2, 0.0),))
    with pytest.raises(ValueError):
        MixedProfile(inst, ((0.5, 0.5, 0, 0, 0, 0.5),))  # mass off the action set
    with pytest.raises(ValueError):
        MixedProfile(inst, ((0.3, 0.3, 0, 0, 0, 0),))  # does not sum to one
    with pytest.raises(ValueError):
        MixedProfile(inst, ((1, 0, 0, 0, 0, 0),) * 2)  # a row per class
    with pytest.raises(ValueError):
        MixedProfile(inst, ((1, 0, 0, 0, 0),))  # a mass per slot
    two = NonatomicInstance.create(T=6, classes=[(0.5, 1, 6, 2), (0.5, 1, 6, 2)])
    with pytest.raises(ValueError):
        MixedProfile.from_start_mass(two, (1, 0, 0, 0, 0, 0))


def test_mixed_profile_names_the_first_offending_slot():
    # class 1 may start in slots 2..3 only
    inst = NonatomicInstance.create(T=6, classes=[(0.4, 1, 6, 2), (0.6, 2, 5, 3)])
    good = (0.2, 0.2, 0.2, 0.2, 0.2, 0.0)
    MixedProfile(inst, (good, (0.0, 0.5, 0.5, 1e-13, -1e-13, 0.0)))
    cases = [
        ((0.0, 0.5, 0.5, 0.0, 0.0, 0.25), "class 1: mass 0.25 outside action set in slot 6"),
        ((0.1, 0.5, 0.4, 0.0, 0.0, 0.0), "class 1: mass 0.1 outside action set in slot 1"),
        ((0.0, 1.5, -0.5, 0.0, 0.0, 0.0), "class 1: negative mass -0.5 in slot 3"),
        ((0.0, 1.5, 0.0, 0.0, -0.5, 0.0), "class 1: negative mass -0.5 in slot 5"),
        ((0.0, 0.75, -0.25, 0.5, 0.0, 0.0), "class 1: negative mass -0.25 in slot 3"),
        ((0.0, 0.5, 0.25, 0.0, 0.0, 0.0), "class 1: start distribution sums to 0.75, not 1"),
        ((0.0, 0.5, math.nan, 0.0, 0.0, 0.0), "class 1: start distribution sums to nan, not 1"),
    ]
    for row, message in cases:
        with pytest.raises(ValueError) as err:
            MixedProfile(inst, (good, row))
        assert str(err.value) == message


def test_mixed_profile_masses():
    inst = NonatomicInstance.symmetric(T=6, C=2)
    prof = MixedProfile.from_start_mass(inst, (0.5, 0, 0, 0, 0.5, 0))
    assert np.allclose(prof.start_mass(), (0.5, 0, 0, 0, 0.5, 0))
    assert np.allclose(prof.occupancy_mass(), (0.5, 0.5, 0, 0, 0.5, 0.5))
    uni = MixedProfile.uniform(inst)
    assert np.allclose(sum(uni.start_mass()), 1.0)


def test_mixed_profile_two_classes():
    inst = NonatomicInstance.create(T=6, classes=[(0.5, 1, 6, 2), (0.5, 3, 6, 3)])
    prof = MixedProfile(inst, (
        (1.0, 0, 0, 0, 0, 0),
        (0, 0, 0.5, 0.5, 0, 0),
    ))
    # class 0 contributes to slots 1-2, class 1 half to 3-5 and half to 4-6
    assert np.allclose(prof.start_mass(), (0.5, 0, 0.25, 0.25, 0, 0))
    assert np.allclose(prof.occupancy_mass(), (0.5, 0.5, 0.25, 0.5, 0.5, 0.25))


def test_nonatomic_load_and_total_cost():
    inst = NonatomicInstance.symmetric(T=4, C=2, power=2.0, exogenous=(0.5, 0.5, 0.5, 0.5))
    prof = MixedProfile.from_start_mass(inst, (0.5, 0, 0.5, 0))
    loads = load(inst, prof)
    assert np.allclose(loads, (1.5, 1.5, 1.5, 1.5))
    tc = grid_total_cost(inst, Monomial(1, 2), prof)
    assert tc == pytest.approx(4 * 1.5**2)
    with pytest.raises(TypeError):
        load(inst, (1, 2))  # starts are an atomic profile


def test_utility_nonatomic_by_hand():
    inst = NonatomicInstance.symmetric(T=4, C=2, exogenous=(0.1, 0.1, 0.1, 0.1))
    prof = MixedProfile.from_start_mass(inst, (1.0, 0, 0, 0))
    f = Monomial(1, 2)
    assert utility_nonatomic(inst, f, prof, 1) == pytest.approx(-2 * 1.1**2)
    assert utility_nonatomic(inst, f, prof, 2) == pytest.approx(-(1.1**2 + 0.1**2))
    assert utility_nonatomic(inst, f, prof, 3) == pytest.approx(-2 * 0.1**2)
    with pytest.raises(ValueError):
        utility_nonatomic(inst, f, prof, 4)  # start 4 ends past the horizon


def test_potential_nonatomic_matches_numeric_integral():
    inst = NonatomicInstance.symmetric(T=5, C=2, power=1.5, exogenous=(0.2, 0.4, 0.1, 0.3, 0.2))
    prof = MixedProfile.from_start_mass(inst, (0.4, 0.1, 0.3, 0.2, 0.0))
    x = prof.occupancy_mass()
    for f in (Monomial(1, 2), SquareRoot(), Monomial(2, 3)):
        expected = 0.0
        for e, xt in zip(inst.exogenous, x):
            grid = np.linspace(0.0, xt, 5001)
            expected -= np.trapezoid(np.asarray(f(e + inst.power * grid), dtype=float), grid)
        assert potential_nonatomic(inst, f, prof) == pytest.approx(expected, abs=1e-7)


def test_charging_configuration_consistency():
    inst = AtomicInstance.symmetric(T=5, I=3, C=2)
    config = occupancy(inst, StrategyProfile((1, 2, 4)))
    assert isinstance(config, ChargingConfiguration)
    assert sum(config.start_counts) == 3
    assert sum(config.occupancy) == 3 * 2
