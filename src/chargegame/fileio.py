"""JSON codecs for instances and cost functions.

Cost object::

    {"kind": "monomial", "coefficient": 1, "exponent": 2}
    {"kind": "sqrt", "coefficient": 1}
    {"kind": "sum", "terms": [<cost>, <cost>, ...]}

Instance object::

    {
      "T": 6,
      "power": 1,                      # optional, default 1
      "exogenous": [1, 2, 3, 2, 1, 3], # optional, default all zero
      "cost": <cost>,                  # optional
      "players": [{"arrival": 1, "departure": 6, "duration": 2}, ...]
    }

Nonatomic instances replace ``players`` with::

      "classes": [{"weight": 1.0, "arrival": 1, "departure": 11, "duration": 5}, ...]

An object holds no key but those shown, and every one of them but the
optional ones (a cost's ``coefficient`` and ``exponent``, default 1, and
the instance keys marked optional).  An unknown key, say a misspelled one,
a missing key and an object that is not a JSON object are refused with
``ValueError``.  Sweep specs are read by the same rule
(``experiments.SweepSpec.from_dict``).

Integers written as JSON integers stay Python integers on load, so exact
atomic arithmetic survives a round trip.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from .model import (
    AtomicInstance,
    CostSum,
    GridCostFunction,
    Monomial,
    NonatomicInstance,
    SquareRoot,
)


def _fields(data, keys, what: str, optional=()) -> tuple:
    """The values of ``keys`` in ``data``, or a ``ValueError`` naming the
    keys that are neither in ``keys`` nor in ``optional``, else the missing
    ones."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = [k for k in data if k not in keys and k not in optional]
    if unknown:
        raise ValueError(f"{what} has unknown keys {unknown}")
    missing = [k for k in keys if k not in data]
    if missing:
        raise ValueError(f"{what} is missing {', '.join(map(repr, missing))}")
    return tuple(data[k] for k in keys)


def _list(value, what: str) -> list:
    """``value`` itself, or a ``ValueError`` unless it is a JSON list."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, got {value!r}")
    return value


def cost_to_dict(cost: GridCostFunction) -> dict:
    if isinstance(cost, Monomial):
        return {"kind": "monomial", "coefficient": cost.coefficient, "exponent": cost.exponent}
    if isinstance(cost, SquareRoot):
        return {"kind": "sqrt", "coefficient": cost.coefficient}
    if isinstance(cost, CostSum):
        return {"kind": "sum", "terms": [cost_to_dict(t) for t in cost.terms]}
    raise TypeError(f"cannot serialize cost {cost!r}")


def cost_from_dict(data: dict) -> GridCostFunction:
    (kind,) = _fields(data, ("kind",), "cost", ("coefficient", "exponent", "terms"))
    if kind == "monomial":
        _fields(data, ("kind",), "monomial cost", ("coefficient", "exponent"))
        return Monomial(data.get("coefficient", 1), data.get("exponent", 1))
    if kind == "sqrt":
        _fields(data, ("kind",), "sqrt cost", ("coefficient",))
        return SquareRoot(data.get("coefficient", 1))
    if kind == "sum":
        _, terms = _fields(data, ("kind", "terms"), "sum cost")
        return CostSum(tuple(cost_from_dict(t) for t in _list(terms, "sum cost 'terms'")))
    raise ValueError(f"unknown cost kind {kind!r}")


def cost_label(cost: GridCostFunction) -> str:
    """Short filename-safe tag: L2, 3L4, sqrtL, L1+L2, ..."""
    if isinstance(cost, Monomial):
        prefix = "" if cost.coefficient == 1 else f"{cost.coefficient}"
        return f"{prefix}L{cost.exponent}"
    if isinstance(cost, SquareRoot):
        prefix = "" if cost.coefficient == 1 else f"{cost.coefficient}"
        return f"{prefix}sqrtL"
    if isinstance(cost, CostSum):
        return "+".join(cost_label(t) for t in cost.terms)
    raise TypeError(f"cannot label cost {cost!r}")


def instance_to_dict(instance: Union[AtomicInstance, NonatomicInstance], cost: Optional[GridCostFunction] = None) -> dict:
    data: dict = {
        "T": instance.horizon.T,
        "power": instance.power,
        "exogenous": list(instance.exogenous),
    }
    if cost is not None:
        data["cost"] = cost_to_dict(cost)
    if isinstance(instance, AtomicInstance):
        data["players"] = [
            {"arrival": a, "departure": d, "duration": c}
            for a, d, c in zip(instance.arrivals, instance.departures, instance.durations)
        ]
    else:
        data["classes"] = [
            {"weight": c.weight, "arrival": c.arrival, "departure": c.departure, "duration": c.duration}
            for c in instance.classes
        ]
    return data


def instance_from_dict(data: dict):
    """Returns (instance, cost-or-None); picks atomic vs nonatomic from the keys."""
    (T,) = _fields(data, ("T",), "instance", ("power", "exogenous", "cost", "players", "classes"))
    power = data.get("power", 1)
    exogenous = data.get("exogenous")
    if exogenous is not None:
        _list(exogenous, "'exogenous'")
    cost = cost_from_dict(data["cost"]) if "cost" in data else None
    if ("players" in data) == ("classes" in data):
        raise ValueError("instance needs either a 'players' or a 'classes' list")
    if "players" in data:
        players = [
            _fields(p, ("arrival", "departure", "duration"), f"player {i}")
            for i, p in enumerate(_list(data["players"], "'players'"))
        ]
        return AtomicInstance.create(T, players, power=power, exogenous=exogenous), cost
    classes = [
        _fields(c, ("weight", "arrival", "departure", "duration"), f"class {k}")
        for k, c in enumerate(_list(data["classes"], "'classes'"))
    ]
    return NonatomicInstance.create(T, classes, power=power, exogenous=exogenous), cost


def load_instance(path):
    """Read an instance JSON file; returns (instance, cost-or-None)."""
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def dump_json(data: dict, path) -> None:
    """Deterministic JSON writer (sorted keys, trailing newline)."""
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
