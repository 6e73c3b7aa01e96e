"""Shared vocabulary for charging games on a slotted horizon.

Conventions used throughout the package:

* Time slots are 1-based: slot ``t`` is the t-th unit interval, ``1 <= t <= T``.
* Player and class indices are 0-based, as usual for Python sequences.
* A user who starts in slot ``s`` with duration ``C`` occupies slots
  ``s, s+1, ..., s+C-1``, so the admissible starts inside an availability
  window ``[a, d]`` are ``a, a+1, ..., d-C+1``.
* The grid load in slot ``t`` is the exogenous (non-flexible) load plus the
  charging power times the number of users charging in ``t`` (atomic case) or
  times the mass of users charging in ``t`` (nonatomic case).

All instance and profile types are immutable; every derived quantity is a pure
function of its inputs, which keeps them safe to share between the grid points
that a sweep evaluates concurrently.

Atomic costs add exactly: ints and Fractions as they are, and a float as the
exact binary rational it is, so a sum with a float term is the exact sum
rounded once to the nearest float.  Nonatomic costs are float arithmetic.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

import numpy as np

Number = Union[int, float]


# ---------------------------------------------------------------------------
# horizon
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeHorizon:
    """A finite horizon of ``T`` unit-length slots, numbered 1 to ``T``."""

    T: int

    def __post_init__(self) -> None:
        if not _is_int(self.T) or self.T < 1:
            raise ValueError(f"horizon length must be a positive integer, got {self.T!r}")


# ---------------------------------------------------------------------------
# grid cost functions
# ---------------------------------------------------------------------------


class GridCostFunction:
    """Per-slot grid cost ``f(load)``: a positive sum of power terms ``c * load**k``.

    Every cost is given by ``powers``, its ``(coefficient, exponent)`` pairs
    with ``c > 0`` and ``k >= 0``, and evaluates itself elementwise on
    scalars and numpy arrays alike through ``__call__``, which keeps exact
    integer arithmetic when every coefficient and exponent is an integer and
    the load is one.  Everything else is read off the exponents.  Each term is
    nondecreasing, so the two standing assumptions become:

    ``satisfies_a1``
        continuous and strictly increasing on ``load >= 0``: some ``k > 0``.
    ``satisfies_a2``
        continuously differentiable and strictly convex on ``load >= 0``:
        no concave term (``0 < k < 1``) and some ``k > 1``.

    ``__call__`` stays per subclass, written out for its own terms:
    ``potential_atomic`` and ``utility_atomic`` call it once per slot, and a
    shared loop over ``powers`` would make those calls about twice as slow.
    It must depend on the load alone for the object's life: the atomic
    single-profile functions keep one table of its values per (instance,
    cost) pair of objects.
    """

    def deriv(self, load):
        """First derivative ``f'(load)``, elementwise in float; infinite at
        zero load when some term has ``0 < k < 1``."""
        x = np.asarray(load, dtype=float)
        with np.errstate(divide="ignore"):
            return sum((c * k * x ** (k - 1) for c, k in self.powers if k), 0.0 * x)

    def antiderivative(self, load):
        """``F(load)`` with ``F(0) = 0`` and ``F' = f``, elementwise."""
        return sum(c / (k + 1) * load ** (k + 1) for c, k in self.powers)

    def derivative(self) -> "GridCostFunction":
        """Return ``f'`` as a grid cost function in its own right.

        Only a cost whose every exponent is at least 1 has a derivative that
        is again a sum of nonnegative powers; any other raises ``ValueError``.
        """
        if any(k < 1 for _, k in self.powers):
            raise ValueError(f"the derivative of {self!r} has a term that is not a grid cost")
        terms = tuple(Monomial(c * k, k - 1) for c, k in self.powers)
        return terms[0] if len(terms) == 1 else CostSum(terms)

    @property
    def satisfies_a1(self) -> bool:
        return any(k > 0 for _, k in self.powers)

    @property
    def satisfies_a2(self) -> bool:
        ks = [k for _, k in self.powers]
        return not any(0 < k < 1 for k in ks) and any(k > 1 for k in ks)


def _as_int_if_integral(x: Number) -> Number:
    if isinstance(x, float) and x.is_integer():
        return int(x)
    return x


def _is_finite(v) -> bool:
    # NaN is the only value unequal to itself; exact ints never overflow here
    return v == v and abs(v) != math.inf


def _slot_cost(cost, t: int, L) -> Number:
    """``cost(L)``, slot ``t``'s cost at load ``L``, or ``ValueError`` when it is not finite.

    A float power past the float range is not finite either: Python's float
    ``**`` raises ``OverflowError`` there, where ``*`` returns inf.
    """
    try:
        x = cost(L)
    except OverflowError:
        x = math.inf
    if _is_finite(x):
        return x
    raise ValueError(f"slot {t} costs {x!r} at load {L!r}")


def _is_real(v) -> bool:
    # JSON true/false arrive as bool, which Python counts as an int
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _is_int(v) -> bool:
    # the one rule for counts, slots and budgets read from outside
    return isinstance(v, int) and not isinstance(v, bool)


def _integer(value, what: str) -> int:
    """``value`` as a Python int, a numpy integer scalar included, or
    ``ValueError``: a float, a bool or a numpy bool is not one."""
    if isinstance(value, np.generic):
        value = value.item()
    if not _is_int(value):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _index(instance, i) -> int:
    """``i`` as an index into ``instance``'s players (atomic) or classes
    (nonatomic), or ``ValueError``."""
    what, count = ("player", instance.I) if isinstance(instance, AtomicInstance) else ("class", instance.K)
    i = _integer(i, what)
    if not 0 <= i < count:
        raise ValueError(f"{what} must be in 0..{count - 1}, got {i}")
    return i


def _real(value, what: str) -> Number:
    """``value`` as a Python number, an int when integral, or ``ValueError``
    unless it is a finite real number."""
    if isinstance(value, np.generic):  # a numpy scalar, as a Python int or float
        value = value.item()
    if not (_is_real(value) and _is_finite(value)):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return _as_int_if_integral(value)


@dataclass(frozen=True)
class Monomial(GridCostFunction):
    """``f(L) = coefficient * L ** exponent`` with positive coefficient.

    ``exponent == 0`` (a positive constant) is allowed so that derivatives of
    linear terms remain representable.
    """

    coefficient: Number = 1
    exponent: Number = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficient", _real(self.coefficient, "coefficient"))
        object.__setattr__(self, "exponent", _real(self.exponent, "exponent"))
        if self.coefficient <= 0:
            raise ValueError(f"coefficient must be positive, got {self.coefficient!r}")
        if self.exponent < 0:
            raise ValueError(f"exponent must be nonnegative, got {self.exponent!r}")

    @property
    def powers(self):
        return ((self.coefficient, self.exponent),)

    def __call__(self, load):
        return self.coefficient * load**self.exponent


@dataclass(frozen=True)
class SquareRoot(GridCostFunction):
    """``f(L) = coefficient * sqrt(L)``: strictly increasing but concave.

    Satisfies A1 only; it is the stock example of a cost outside A2 (its
    derivative blows up at zero load and decreases thereafter).
    """

    coefficient: Number = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficient", _real(self.coefficient, "coefficient"))
        if self.coefficient <= 0:
            raise ValueError(f"coefficient must be positive, got {self.coefficient!r}")

    @property
    def powers(self):
        return ((self.coefficient, 0.5),)

    def __call__(self, load):
        return self.coefficient * load**0.5


@dataclass(frozen=True)
class CostSum(GridCostFunction):
    """Pointwise sum of grid cost terms, e.g. ``L + L**2``."""

    terms: tuple[GridCostFunction, ...]

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise ValueError("CostSum needs at least one term")
        for term in terms:
            if not isinstance(term, GridCostFunction):
                raise TypeError(f"CostSum terms must be grid cost functions, got {term!r}")

    @property
    def powers(self):
        return tuple(p for term in self.terms for p in term.powers)

    def __call__(self, load):
        return sum(term(load) for term in self.terms)


# ---------------------------------------------------------------------------
# pricing functions
# ---------------------------------------------------------------------------


class PricingFunction:
    """Strictly increasing map applied to a user's raw charging cost.

    Utilities are the negated, pricing-filtered window cost; because the map
    is strictly increasing it never changes which deviations are improving,
    only the numeric utility scale.
    """

    def __call__(self, value):
        raise NotImplementedError

    def check_increasing(self, samples: Sequence[Number]) -> bool:
        """Spot-check strict monotonicity on a sorted sample of inputs."""
        xs = sorted(set(samples))
        ys = [self(x) for x in xs]
        return all(lo < hi for lo, hi in zip(ys, ys[1:]))


class Identity(PricingFunction):
    """The default pricing: users pay their raw grid cost, exactly."""

    def __call__(self, value):
        return value

    def __repr__(self) -> str:
        return "Identity()"


@dataclass(frozen=True)
class PricingMap(PricingFunction):
    """Wrap an arbitrary strictly increasing callable as a pricing function."""

    func: Callable[[Number], Number]
    label: str = ""

    def __call__(self, value):
        return self.func(value)


IDENTITY = Identity()


def _pricing_for(pricing, index: int) -> PricingFunction:
    # shared map, or one map per player/class
    if isinstance(pricing, PricingFunction):
        return pricing
    return pricing[index]


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


def _validate_exogenous(exogenous, T: int) -> tuple[Number, ...]:
    if exogenous is None:
        return (0,) * T
    exo = tuple(_real(v, "exogenous load") for v in exogenous)
    if len(exo) != T:
        raise ValueError(f"exogenous load has {len(exo)} entries for a {T}-slot horizon")
    if any(v < 0 for v in exo):
        raise ValueError("exogenous load must be nonnegative")
    return exo


def _validate_power(power) -> Number:
    power = _real(power, "charging power")
    if power <= 0:
        raise ValueError(f"charging power must be positive, got {power!r}")
    return power


def _validate_window(a: int, d: int, C: int, T: int, who: str) -> None:
    if not (_is_int(a) and _is_int(d) and _is_int(C)):
        raise ValueError(f"{who}: arrival, departure and duration must be integers")
    if not (1 <= a <= d <= T):
        raise ValueError(f"{who}: window [{a}, {d}] does not fit in 1..{T}")
    if C < 1:
        raise ValueError(f"{who}: duration must be at least one slot")
    if C > d - a + 1:
        raise ValueError(f"{who}: duration {C} exceeds window [{a}, {d}]")


@dataclass(frozen=True)
class AtomicInstance:
    """A finite-player charging game.

    Player ``i`` is available during slots ``arrivals[i]..departures[i]`` and
    must charge for ``durations[i]`` consecutive slots at power ``power``.
    ``exogenous[t-1]`` is the non-flexible grid load in slot ``t``.
    """

    horizon: TimeHorizon
    arrivals: tuple[int, ...]
    departures: tuple[int, ...]
    durations: tuple[int, ...]
    power: Number = 1
    exogenous: tuple[Number, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "arrivals", tuple(self.arrivals))
        object.__setattr__(self, "departures", tuple(self.departures))
        object.__setattr__(self, "durations", tuple(self.durations))
        object.__setattr__(self, "power", _validate_power(self.power))
        T = self.horizon.T
        if not (len(self.arrivals) == len(self.departures) == len(self.durations)):
            raise ValueError("arrivals, departures and durations must have equal length")
        if len(self.arrivals) == 0:
            raise ValueError("an atomic instance needs at least one player")
        for i, (a, d, C) in enumerate(zip(self.arrivals, self.departures, self.durations)):
            _validate_window(a, d, C, T, f"player {i}")
        object.__setattr__(self, "exogenous", _validate_exogenous(self.exogenous or None, T))

    @property
    def I(self) -> int:
        """Number of players."""
        return len(self.arrivals)

    def window(self, i: int) -> tuple[int, int, int]:
        """Arrival, departure, duration of player ``i``."""
        return self.arrivals[i], self.departures[i], self.durations[i]

    @property
    def is_symmetric(self) -> bool:
        return len({w for w in zip(self.arrivals, self.departures, self.durations)}) == 1

    @classmethod
    def create(cls, T, players, power=1, exogenous=None) -> "AtomicInstance":
        """Build from an iterable of ``(arrival, departure, duration)`` triples."""
        players = list(players)
        return cls(
            horizon=TimeHorizon(T),
            arrivals=tuple(p[0] for p in players),
            departures=tuple(p[1] for p in players),
            durations=tuple(p[2] for p in players),
            power=power,
            exogenous=tuple(exogenous) if exogenous is not None else (),
        )

    @classmethod
    def symmetric(cls, T, I, C, power=1, exogenous=None, departure=None) -> "AtomicInstance":
        """``I`` identical players, full-horizon window unless told otherwise."""
        if not _is_int(I):
            raise ValueError(f"player count must be an integer, got {I!r}")
        d = T if departure is None else departure
        return cls.create(T, [(1, d, C)] * I, power=power, exogenous=exogenous)


@dataclass(frozen=True)
class UserClass:
    """One class of a nonatomic population: a weight and a shared window."""

    weight: float
    arrival: int
    departure: int
    duration: int

    def __post_init__(self) -> None:
        if not (_is_real(self.weight) and 0 < self.weight <= 1):
            raise ValueError(f"class weight must lie in (0, 1], got {self.weight!r}")


@dataclass(frozen=True)
class NonatomicInstance:
    """A continuum-of-users charging game with finitely many classes.

    Class weights are population fractions and must sum to one.  ``power`` is
    the (common) charging power scale: a class of mass ``x`` charging in slot
    ``t`` adds ``power * x`` to the load there.
    """

    horizon: TimeHorizon
    classes: tuple[UserClass, ...]
    power: Number = 1
    exogenous: tuple[Number, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "power", _validate_power(self.power))
        T = self.horizon.T
        if not self.classes:
            raise ValueError("a nonatomic instance needs at least one class")
        for k, cls_ in enumerate(self.classes):
            _validate_window(cls_.arrival, cls_.departure, cls_.duration, T, f"class {k}")
        total = math.fsum(c.weight for c in self.classes)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"class weights must sum to 1, got {total!r}")
        object.__setattr__(self, "exogenous", _validate_exogenous(self.exogenous or None, T))

    @property
    def K(self) -> int:
        """Number of classes."""
        return len(self.classes)

    def window(self, k: int) -> tuple[int, int, int]:
        cls_ = self.classes[k]
        return cls_.arrival, cls_.departure, cls_.duration

    @classmethod
    def create(cls, T, classes, power=1, exogenous=None) -> "NonatomicInstance":
        """Build from ``(weight, arrival, departure, duration)`` tuples."""
        return cls(
            horizon=TimeHorizon(T),
            classes=tuple(UserClass(*c) for c in classes),
            power=power,
            exogenous=tuple(exogenous) if exogenous is not None else (),
        )

    @classmethod
    def symmetric(cls, T, C, power=1, exogenous=None, departure=None) -> "NonatomicInstance":
        """A single class of unit mass with a full-horizon window by default."""
        d = T if departure is None else departure
        return cls.create(T, [(1.0, 1, d, C)], power=power, exogenous=exogenous)


Instance = Union[AtomicInstance, NonatomicInstance]


def action_set(instance: Instance, i: int) -> range:
    """Admissible start slots of player/class ``i``: ``arrival..departure-duration+1``.
    ``ValueError`` unless ``i`` is an int in ``0..I-1`` (``0..K-1``)."""
    a, d, C = instance.window(_index(instance, i))
    return range(a, d - C + 2)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrategyProfile:
    """One start slot per player."""

    starts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "starts", tuple(self.starts))

    @classmethod
    def checked(cls, instance: AtomicInstance, starts) -> "StrategyProfile":
        return _coerce_profile(instance, starts)


def _coerce_profile(instance: AtomicInstance, profile) -> StrategyProfile:
    """``profile`` (or a sequence of starts) as a checked ``StrategyProfile``
    of Python ints, or ``ValueError``."""
    starts = profile.starts if isinstance(profile, StrategyProfile) else tuple(profile)
    if len(starts) != instance.I:
        raise ValueError(f"profile has {len(starts)} starts for {instance.I} players")
    if not all(type(s) is int for s in starts):  # the common case needs no conversion
        starts = tuple(_integer(s, f"start of player {i}") for i, s in enumerate(starts))
    for i, (s, a, d, C) in enumerate(zip(starts, instance.arrivals, instance.departures, instance.durations)):
        if not a <= s <= d - C + 1:  # s in action_set(instance, i), without building the range
            raise ValueError(
                f"start {s} of player {i} is outside its action set {list(action_set(instance, i))}"
            )
    return StrategyProfile(starts)


@dataclass(frozen=True)
class ChargingConfiguration:
    """Anonymous snapshot of a profile: start counts and slot occupancy.

    ``start_counts[t-1]`` is how many users begin in slot ``t``;
    ``occupancy[t-1]`` is how many are charging during slot ``t``.  Profiles
    that differ only by permuting identical users collapse to one
    configuration, which is the natural notion of "distinct equilibrium" in
    symmetric games.
    """

    start_counts: tuple[int, ...]
    occupancy: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "start_counts", tuple(self.start_counts))
        object.__setattr__(self, "occupancy", tuple(self.occupancy))


def occupancy(instance: AtomicInstance, profile) -> ChargingConfiguration:
    """Start counts and per-slot occupancy induced by a strategy profile; a
    ``ChargingConfiguration`` is its own."""
    if isinstance(profile, ChargingConfiguration):
        return profile
    profile = _coerce_profile(instance, profile)
    T = instance.horizon.T
    started = [0] * T
    occupied = [0] * T
    for i, s in enumerate(profile.starts):
        started[s - 1] += 1
        for t in range(s, s + instance.durations[i]):
            occupied[t - 1] += 1
    return ChargingConfiguration(tuple(started), tuple(occupied))


@dataclass(frozen=True)
class MixedProfile:
    """Per-class start-slot distributions for a nonatomic instance.

    ``distributions[k][t-1]`` is the fraction of class ``k`` starting in slot
    ``t``; each row is a probability vector supported on the class action set.
    The profile keeps a reference to its instance so the aggregate start mass
    and occupancy mass are well-defined without extra arguments.  The rows
    are also held as one read-only float K×T matrix, built and validated
    once; it is derived state, not a field, and a pickle rebuilds it.
    """

    instance: NonatomicInstance
    distributions: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        dists = tuple(tuple(map(float, row)) for row in self.distributions)
        object.__setattr__(self, "distributions", dists)
        inst = self.instance
        T = inst.horizon.T
        if len(dists) != inst.K:
            raise ValueError(f"{len(dists)} distributions for {inst.K} classes")
        # the rows before the first of the wrong length are checked first:
        # the first offending row, and in it the first offending slot, names the error
        sized = next((k for k, row in enumerate(dists) if len(row) != T), inst.K)
        M = np.array(dists[:sized], dtype=float).reshape(sized, T)
        a, d, C = np.array([inst.window(k) for k in range(sized)], dtype=int).reshape(sized, 3).T
        slots = np.arange(1, T + 1)
        outside = (slots < a[:, None]) | (slots > (d - C + 1)[:, None])  # off action_set(inst, k)
        bad = (M < -1e-12) | (outside & (np.abs(M) > 1e-12))
        totals = [math.fsum(row) for row in dists[:sized]]
        faulty = bad.any(axis=1) | ~(np.abs(np.array(totals) - 1.0) <= 1e-9)  # a NaN mass fails here
        if faulty.any():
            k = int(np.argmax(faulty))
            if not bad[k].any():
                raise ValueError(f"class {k}: start distribution sums to {totals[k]!r}, not 1")
            t = int(np.argmax(bad[k]))
            v = dists[k][t]
            if v < -1e-12:
                raise ValueError(f"class {k}: negative mass {v} in slot {t + 1}")
            raise ValueError(f"class {k}: mass {v} outside action set in slot {t + 1}")
        if sized < inst.K:
            raise ValueError(f"class {sized}: distribution has {len(dists[sized])} entries for T={T}")
        M.flags.writeable = False
        object.__setattr__(self, "_matrix", M)

    def __reduce__(self):
        # the fields alone: loading validates them and rebuilds the matrix
        return type(self), (self.instance, self.distributions)

    def _weighted(self) -> np.ndarray:
        # the class sums below start from +0.0, so a -0.0 mass adds as 0.0
        return np.array([c.weight for c in self.instance.classes], dtype=float)[:, None] * self._matrix

    def start_mass(self) -> np.ndarray:
        """Aggregate start mass per slot, weighted by class sizes."""
        return self._weighted().sum(axis=0, initial=0.0)

    def occupancy_mass(self) -> np.ndarray:
        """Mass charging in each slot: slot ``t`` collects class ``k``'s
        start masses in ``t-C_k+1..t``, scaled by the class weight (one
        cumulative sum along the slots of the weighted matrix, differenced
        per class; the classes are added in order)."""
        K, T = self._matrix.shape
        csum = np.zeros((K, T + 1))
        np.cumsum(self._weighted(), axis=1, out=csum[:, 1:])
        durations = np.array([c.duration for c in self.instance.classes])
        lo = np.maximum(np.arange(T) - durations[:, None] + 1, 0)
        return (csum[:, 1:] - np.take_along_axis(csum, lo, axis=1)).sum(axis=0, initial=0.0)

    @classmethod
    def from_start_mass(cls, instance: NonatomicInstance, mass) -> "MixedProfile":
        """Single-class convenience: interpret a start-mass vector as the profile."""
        if instance.K != 1:
            raise ValueError("from_start_mass applies to single-class instances only")
        return cls(instance, (tuple(float(v) for v in mass),))

    @classmethod
    def uniform(cls, instance: NonatomicInstance) -> "MixedProfile":
        """Each class spreads uniformly over its action set."""
        T = instance.horizon.T
        rows = []
        for k in range(instance.K):
            acts = action_set(instance, k)
            row = [0.0] * T
            for t in acts:
                row[t - 1] = 1.0 / len(acts)
            rows.append(tuple(row))
        return cls(instance, tuple(rows))


# ---------------------------------------------------------------------------
# loads, costs, utilities, potentials
# ---------------------------------------------------------------------------


def load(instance: Instance, profile):
    """Per-slot grid load under a profile.

    Atomic instances accept a ``StrategyProfile`` (or bare start sequence) or
    a ``ChargingConfiguration`` and return an exact tuple; nonatomic instances
    accept a ``MixedProfile`` and return a float array.
    """
    if isinstance(instance, NonatomicInstance):
        if not isinstance(profile, MixedProfile):
            raise TypeError("nonatomic load expects a MixedProfile")
        return np.asarray(instance.exogenous, dtype=float) + instance.power * profile.occupancy_mass()
    P = instance.power
    return tuple(e + P * n for e, n in zip(instance.exogenous, occupancy(instance, profile).occupancy))


def _exact_total(cost: GridCostFunction, slot_loads) -> Number:
    """``sum f(L)`` over ``(slot, L)`` pairs, exactly (module docstring).  ``ValueError`` on a cost
    that is not finite, ``OverflowError`` on a float total past the float range, as from ``math.fsum``."""
    total, rounded = 0, False
    for t, L in slot_loads:
        x = _slot_cost(cost, t, L)
        if isinstance(x, float):
            rounded, x = True, Fraction(x)
        total += x
    return float(total) if rounded else total


def grid_total_cost(instance: Instance, cost: GridCostFunction, profile):
    """Total grid cost ``sum_t f(load_t)`` under a profile, exact on an atomic instance."""
    loads = load(instance, profile)
    if isinstance(loads, np.ndarray):
        return float(np.sum(cost(loads)))
    return _exact_total(cost, enumerate(loads, 1))


def utility_atomic(
    instance: AtomicInstance,
    cost: GridCostFunction,
    profile,
    player: int,
    pricing=IDENTITY,
) -> Number:
    """Utility of one player: minus the priced sum of slot costs it charges through."""
    profile = _coerce_profile(instance, profile)
    player = _index(instance, player)
    loads = load(instance, profile)
    s = profile.starts[player]
    raw = _exact_total(cost, ((t, loads[t - 1]) for t in range(s, s + instance.durations[player])))
    return -_pricing_for(pricing, player)(raw)


def potential_atomic(instance: AtomicInstance, cost: GridCostFunction, profile) -> Number:
    """Ordinal potential of the atomic game.

    ``Phi = -sum_t sum_{v=0}^{n_t} f(exo_t + P v)``: any unilateral move
    changes ``Phi`` in the same direction as the mover's utility, and exactly
    by the utility change when pricing is the identity.
    """
    P, exo, occ = instance.power, instance.exogenous, occupancy(instance, profile).occupancy
    return -_exact_total(cost, ((t, exo[t - 1] + P * v) for t, n in enumerate(occ, 1) for v in range(n + 1)))


def utility_nonatomic(
    instance: NonatomicInstance,
    cost: GridCostFunction,
    profile: MixedProfile,
    start: int,
    cls: int = 0,
    pricing=IDENTITY,
) -> float:
    """Utility of a class-``cls`` user starting at ``start`` against a profile.
    ``ValueError`` unless ``cls`` is an int in ``0..K-1`` and ``start`` an int in its action set."""
    start = _integer(start, "start")
    if start not in action_set(instance, cls):
        raise ValueError(f"start {start} is outside the action set of class {cls}")
    loads = load(instance, profile)
    duration = instance.classes[cls].duration
    raw = float(np.sum(cost(loads[start - 1 : start - 1 + duration])))
    return -float(_pricing_for(pricing, cls)(raw))


def potential_nonatomic(instance: NonatomicInstance, cost: GridCostFunction, profile: MixedProfile) -> float:
    """Potential of the nonatomic game, in closed form.

    ``Phi = -sum_t integral_0^{x_t} f(exo_t + P v) dv`` where ``x`` is the
    occupancy mass; with ``F`` the antiderivative of ``f`` each slot term is
    ``(F(exo_t + P x_t) - F(exo_t)) / P``.  Strictly concave in the occupancy
    whenever the cost is strictly increasing.
    """
    x = profile.occupancy_mass()
    e = np.asarray(instance.exogenous, dtype=float)
    P = float(instance.power)
    return -float(np.sum(cost.antiderivative(e + P * x) - cost.antiderivative(e)) / P)
