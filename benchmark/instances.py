"""Seeded inputs for the benchmark workloads.

Every input is a function of the workload seed alone, and the solvers see
only the instances built here.  Two kinds of input exist:

* Reference pools for the exact atomic scans of ``atomic-mixed``.  Each pool
  is drawn once from ``POOL_SEED`` and its answers at the commit that added
  the benchmark are stored in ``expected/atomic_mixed.json``; the workload
  seed picks which pool members a run scans.  Members of one pool share
  their shape (horizon, player count, action-set sizes), so a scan costs the
  same whichever member a seed picks.
* Fresh draws: the starts of the best-response dynamics runs and the
  multi-class nonatomic fleets.  Their answers are certified by independent
  checks, so any seed is usable.  One fixed probe fleet rides along with
  the fleets (see ``fleet_inputs``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from chargegame import AtomicInstance, Monomial, NonatomicInstance, SquareRoot

POOL_SEED = 20150924

# --- atomic-mixed --------------------------------------------------------

BIGINT_T, BIGINT_C, BIGINT_COST = 10, 3, Monomial(1, 24)
BIGINT_PLAYERS = (12, 13)
FLOAT_T, FLOAT_C, FLOAT_COST = 10, 3, SquareRoot()
FLOAT_PLAYERS = (12, 13)
HETERO_COST = Monomial(1, 2)
# (T, action-set size per player): the profile space is the product of the
# sizes, so every member of a shape scans the same number of profiles
HETERO_SHAPES = ((10, (5, 6, 4, 5, 6)), (12, (4, 4, 4, 5, 4, 5)))
POOL_SIZE = 4
DYNAMICS_RUNS = 2000


@dataclass(frozen=True)
class ScanCase:
    """One exact scan of ``atomic-mixed`` and the key of its stored answer."""

    key: str
    instance: AtomicInstance
    cost: object


def _bigint_member(rng: random.Random, I: int) -> AtomicInstance:
    exo = [rng.randint(0, 3) for _ in range(BIGINT_T)]
    return AtomicInstance.symmetric(BIGINT_T, I, BIGINT_C, exogenous=exo)


def _float_member(rng: random.Random, I: int) -> AtomicInstance:
    # non-integral loads force the float64 scan path with its tie margin
    exo = [round(rng.uniform(0.5, 4.0), 3) for _ in range(FLOAT_T)]
    return AtomicInstance.symmetric(FLOAT_T, I, FLOAT_C, exogenous=exo)


def _hetero_member(rng: random.Random, T: int, sizes) -> AtomicInstance:
    players = []
    for size in sizes:
        C = rng.randint(2, 4)
        span = size + C - 1  # slots a..d hold exactly `size` starts
        a = rng.randint(1, T - span + 1)
        players.append((a, a + span - 1, C))
    exo = [rng.randint(0, 4) for _ in range(T)]
    return AtomicInstance.create(T, players, exogenous=exo)


def scan_pools() -> dict:
    """Family name -> list of pools; a pool is a list of ``ScanCase``."""
    rng = random.Random(POOL_SEED)
    return {
        "bigint": [
            [ScanCase(f"bigint-I{I}-{j}", _bigint_member(rng, I), BIGINT_COST) for j in range(POOL_SIZE)]
            for I in BIGINT_PLAYERS
        ],
        "float": [
            [ScanCase(f"float-I{I}-{j}", _float_member(rng, I), FLOAT_COST) for j in range(POOL_SIZE)]
            for I in FLOAT_PLAYERS
        ],
        "hetero": [
            [
                ScanCase(f"hetero-T{T}-{j}", _hetero_member(rng, T, sizes), HETERO_COST)
                for j in range(POOL_SIZE)
            ]
            for T, sizes in HETERO_SHAPES
        ],
    }


@dataclass(frozen=True)
class AtomicMixedInputs:
    bigint: tuple
    float: tuple
    hetero: tuple
    dynamics: tuple  # (instance, cost, starting profile) triples


def atomic_mixed_inputs(seed: int) -> AtomicMixedInputs:
    rng = random.Random(seed)
    picked = {
        family: tuple(rng.choice(pool) for pool in pools)
        for family, pools in scan_pools().items()
    }
    # dynamics start from random profiles of the picked heterogeneous
    # instances, under exact costs and under float costs with the tie margin
    games = [(case.instance, cost) for case in picked["hetero"] for cost in (HETERO_COST, FLOAT_COST)]
    dynamics = []
    for r in range(DYNAMICS_RUNS):
        instance, cost = games[r % len(games)]
        starts = []
        for i in range(instance.I):
            a, d, C = instance.window(i)
            starts.append(rng.randint(a, d - C + 1))
        dynamics.append((instance, cost, tuple(starts)))
    return AtomicMixedInputs(picked["bigint"], picked["float"], picked["hetero"], tuple(dynamics))


# --- nonatomic-fleet ------------------------------------------------------

FLEET_T = 96
# start-slot counts per class.  Solve time grows with the equilibrium
# support, so every pass solves fleets of both kinds, and several of each so
# that one seed's draw moves the pass time little.
FLEET_KINDS = {
    "narrow": (6, 8, 10, 12, 6, 8, 10, 12),
    "wide": (16, 20, 24, 28, 16, 20, 24, 28),
}
FLEET_COUNTS = {"narrow": 8, "wide": 2}
FLEET_DURATIONS = (4, 6, 8, 10, 4, 6, 8, 10)
# base load and daily swing.  Below about 1.3 the solver stops converging
# on some seeds (see README), so the drawn fleets sit at 2.0 and the
# fixed probe below keeps the low-load Frank-Wolfe fallback in every pass.
LOAD_BASE, LOAD_SWING = 2.0, 0.8
PROBE_SEED, PROBE_BASE, PROBE_SWING = 12, 0.8, 0.5


def fleet_instance(rng: random.Random, starts_per_class, base=LOAD_BASE, swing=LOAD_SWING) -> NonatomicInstance:
    """Daily sine load plus noise; the seed draws windows, durations and weights."""
    T = FLEET_T
    phase = rng.uniform(0, 2 * math.pi)
    exo = [
        max(0.05, base + swing * math.sin(2 * math.pi * t / T + phase) + rng.gauss(0, 0.05))
        for t in range(T)
    ]
    spans = list(starts_per_class)
    durations = list(FLEET_DURATIONS)
    rng.shuffle(spans)
    rng.shuffle(durations)
    raw = [rng.uniform(0.5, 1.5) for _ in spans]
    weights = [w / sum(raw) for w in raw]
    weights[-1] = 1.0 - sum(weights[:-1])
    classes = []
    for w, n, C in zip(weights, spans, durations):
        a = rng.randint(1, T - (n + C - 1) + 1)
        classes.append((w, a, a + n + C - 2, C))
    return NonatomicInstance.create(T, classes, exogenous=exo)


def fleet_inputs(seed: int) -> tuple:
    """(kind, instance) pairs: ``FLEET_COUNTS[kind]`` drawn fleets of each
    kind, then the fixed low-load probe on which sqrt(L) falls back to
    Frank-Wolfe and warns of a square root of a negative load."""
    rng = random.Random(seed)
    drawn = tuple(
        (kind, fleet_instance(rng, FLEET_KINDS[kind]))
        for kind, count in FLEET_COUNTS.items()
        for _ in range(count)
    )
    probe = fleet_instance(random.Random(PROBE_SEED), FLEET_KINDS["narrow"], PROBE_BASE, PROBE_SWING)
    return drawn + (("probe", probe),)
