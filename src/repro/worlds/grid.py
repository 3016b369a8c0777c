"""Parameterized world grids: *which* workloads a sweep runs.

A :class:`WorldGrid` is the declarative spec of a scenario sweep — the
cartesian product of

* **generator families** (:class:`FamilySpec`): Erdős–Rényi,
  preferential attachment, small-world, power-law-cluster, stochastic
  Kronecker, and the erased configuration model, each with validated
  knobs (density, degree exponent, clustering, ...);
* **stream scenarios** (:class:`ScenarioSpec`): plain insertion order,
  degree-adversarial order, deletion-heavy churn, and sliding-window
  turnstile feeds from :mod:`repro.streams.datasets`;
* **estimators** × **patterns** × **space budgets** (FGP trial
  budgets per copy).

Everything is validated *at parse time* — a negative deletion rate, a
degree exponent ``<= 1``, or an empty family list raises
:class:`~repro.errors.WorldsError` (a ``ValueError``) before any cell
runs, never minutes into a sweep.  :meth:`WorldGrid.cells` expands the
product into runnable :class:`GridCell`\\ s, dropping incompatible
combinations (deletion scenarios only run the turnstile estimator;
the 2-pass estimator only takes star-decomposable patterns).

The companion :mod:`repro.worlds.sweep` executes a grid out-of-core
through :class:`~repro.streams.datasets.DiskEdgeStream`.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ReproError, StreamError, WorldsError
from repro.graph.generators import MAX_KRONECKER_POWER, RMAT_INITIATOR
from repro.patterns.pattern import Pattern
from repro.streaming.counters import FGP_COUNTERS, is_star_decomposable, is_turnstile
from repro.streams.cache import resolve_cache_policy

#: Estimator identifiers: the FGP counter kinds.
ESTIMATORS: Tuple[str, ...] = tuple(FGP_COUNTERS)

#: Scenario kinds, matching the ``streams.datasets`` generators.
SCENARIO_KINDS: Tuple[str, ...] = (
    "insertion",
    "adversarial",
    "deletion_heavy",
    "sliding_window",
)

#: Execution backends a sweep may drive cells through.
BACKENDS: Tuple[str, ...] = ("serial", "process")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise WorldsError(message)


def _as_int(value, name: str, minimum: int, maximum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise WorldsError(f"{name} must be an integer, got {value!r}")
    if value < minimum or (maximum is not None and value > maximum):
        bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise WorldsError(f"{name} must be {bound}, got {value}")
    return value


def _as_float(value, name: str, low: float, high: float,
              low_open: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WorldsError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise WorldsError(f"{name} must be finite, got {value}")
    if value > high or value < low or (low_open and value == low):
        left = "(" if low_open else "["
        raise WorldsError(f"{name} must be in {left}{low}, {high}], got {value}")
    return value


# -- generator families ----------------------------------------------------

# family name -> (default params, validator).  The validator receives the
# merged params and must raise WorldsError on anything out of range.

def _validate_gnp(p: Dict) -> None:
    _as_int(p["n"], "gnp n", 2)
    _as_float(p["p"], "gnp edge probability", 0.0, 1.0)


def _validate_ba(p: Dict) -> None:
    n = _as_int(p["n"], "ba n", 2)
    attach = _as_int(p["attach"], "ba attach", 1)
    _require(n > attach, f"ba needs n > attach, got n={n}, attach={attach}")


def _validate_ws(p: Dict) -> None:
    n = _as_int(p["n"], "ws n", 3)
    k = _as_int(p["k"], "ws ring degree k", 2)
    _require(k % 2 == 0 and k < n,
             f"ws needs even k < n, got k={k}, n={n}")
    _as_float(p["rewire_p"], "ws rewire probability", 0.0, 1.0)


def _validate_plc(p: Dict) -> None:
    n = _as_int(p["n"], "plc n", 2)
    attach = _as_int(p["attach"], "plc attach", 1)
    _require(n > attach, f"plc needs n > attach, got n={n}, attach={attach}")
    _as_float(p["triangle_p"], "plc triangle probability", 0.0, 1.0)


def _validate_kronecker(p: Dict) -> None:
    power = _as_int(p["power"], "kronecker power", 1, MAX_KRONECKER_POWER)
    edges = _as_int(p["edges"], "kronecker edges", 1)
    n = 1 << power
    _require(edges <= n * (n - 1) // 2,
             f"kronecker cannot place {edges} edges on {n} vertices")
    initiator = p["initiator"]
    _require(
        isinstance(initiator, (list, tuple)) and len(initiator) == 4,
        f"kronecker initiator must be 4 weights, got {initiator!r}",
    )
    for weight in initiator:
        _as_float(weight, "kronecker initiator weight", 0.0, math.inf,
                  low_open=True)


def _validate_config(p: Dict) -> None:
    n = _as_int(p["n"], "config n", 2)
    exponent = p["exponent"]
    if isinstance(exponent, bool) or not isinstance(exponent, (int, float)):
        raise WorldsError(f"config degree exponent must be a number, got {exponent!r}")
    if not math.isfinite(float(exponent)) or float(exponent) <= 1.0:
        raise WorldsError(f"config degree exponent must be > 1, got {exponent}")
    min_degree = _as_int(p["min_degree"], "config min_degree", 1)
    max_degree = p["max_degree"]
    if max_degree is not None:
        _as_int(max_degree, "config max_degree", min_degree, n - 1)


FAMILIES: Dict[str, Tuple[Dict, object]] = {
    "gnp": ({"n": 64, "p": 0.15}, _validate_gnp),
    "ba": ({"n": 96, "attach": 4}, _validate_ba),
    "ws": ({"n": 96, "k": 6, "rewire_p": 0.1}, _validate_ws),
    "plc": ({"n": 96, "attach": 4, "triangle_p": 0.6}, _validate_plc),
    "kronecker": (
        {"power": 7, "edges": 500, "initiator": list(RMAT_INITIATOR)},
        _validate_kronecker,
    ),
    "config": (
        {"n": 128, "exponent": 2.5, "min_degree": 2, "max_degree": None},
        _validate_config,
    ),
}


def _label(prefix: str, params: Dict) -> str:
    parts = []
    for key in sorted(params):
        value = params[key]
        if value is None:
            continue
        if isinstance(value, (list, tuple)):
            value = "/".join(f"{float(w):g}" for w in value)
        elif isinstance(value, float):
            value = f"{value:g}"
        parts.append(f"{key}={value}")
    return f"{prefix}({','.join(parts)})" if parts else prefix


@dataclass(frozen=True)
class FamilySpec:
    """One validated generator-family configuration."""

    family: str
    params: Tuple[Tuple[str, object], ...]

    @classmethod
    def create(cls, family: str, **params) -> "FamilySpec":
        _require(isinstance(family, str) and family in FAMILIES,
                 f"unknown generator family {family!r}; "
                 f"known: {', '.join(sorted(FAMILIES))}")
        defaults, validator = FAMILIES[family]
        unknown = set(params) - set(defaults)
        _require(not unknown,
                 f"unknown {family} parameter(s) {sorted(unknown)}; "
                 f"known: {sorted(defaults)}")
        merged = dict(defaults)
        merged.update(params)
        validator(merged)
        frozen = tuple(
            (key, tuple(value) if isinstance(value, list) else value)
            for key, value in sorted(merged.items())
        )
        return cls(family=family, params=frozen)

    @classmethod
    def from_spec(cls, spec: Union[str, Dict]) -> "FamilySpec":
        if isinstance(spec, str):
            return cls.create(spec)
        _require(isinstance(spec, dict) and isinstance(spec.get("family"), str),
                 f"family spec must be a name or a dict with 'family', got {spec!r}")
        params = {key: value for key, value in spec.items() if key != "family"}
        return cls.create(spec["family"], **params)

    def param_dict(self) -> Dict:
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in self.params}

    @property
    def label(self) -> str:
        return _label(self.family, self.param_dict())

    def to_dict(self) -> Dict:
        return {"family": self.family, **self.param_dict()}


# -- scenarios -------------------------------------------------------------

_SCENARIO_DEFAULTS: Dict[str, Dict] = {
    "insertion": {},
    "adversarial": {"hide_high_degree_last": True},
    "deletion_heavy": {"deletion_rate": 0.5, "churn_rounds": 1},
    "sliding_window": {"window_fraction": 0.5},
}


@dataclass(frozen=True)
class ScenarioSpec:
    """One validated stream-scenario configuration."""

    kind: str
    params: Tuple[Tuple[str, object], ...]

    @classmethod
    def create(cls, kind: str, **params) -> "ScenarioSpec":
        _require(isinstance(kind, str) and kind in SCENARIO_KINDS,
                 f"unknown scenario {kind!r}; known: {', '.join(SCENARIO_KINDS)}")
        defaults = _SCENARIO_DEFAULTS[kind]
        unknown = set(params) - set(defaults)
        _require(not unknown,
                 f"unknown {kind} scenario parameter(s) {sorted(unknown)}; "
                 f"known: {sorted(defaults)}")
        merged = dict(defaults)
        merged.update(params)
        if kind == "deletion_heavy":
            _as_float(merged["deletion_rate"], "deletion rate", 0.0, 1.0)
            _as_int(merged["churn_rounds"], "churn_rounds", 0)
        elif kind == "sliding_window":
            _as_float(merged["window_fraction"], "window fraction", 0.0, 1.0,
                      low_open=True)
        elif kind == "adversarial":
            _require(isinstance(merged["hide_high_degree_last"], bool),
                     "hide_high_degree_last must be a boolean")
        return cls(kind=kind, params=tuple(sorted(merged.items())))

    @classmethod
    def from_spec(cls, spec: Union[str, Dict]) -> "ScenarioSpec":
        if isinstance(spec, str):
            return cls.create(spec)
        _require(isinstance(spec, dict) and isinstance(spec.get("kind"), str),
                 f"scenario spec must be a kind or a dict with 'kind', got {spec!r}")
        params = {key: value for key, value in spec.items() if key != "kind"}
        return cls.create(spec["kind"], **params)

    def param_dict(self) -> Dict:
        return dict(self.params)

    @property
    def needs_deletions(self) -> bool:
        return self.kind in ("deletion_heavy", "sliding_window")

    @property
    def label(self) -> str:
        return _label(self.kind, self.param_dict())

    def to_dict(self) -> Dict:
        return {"kind": self.kind, **self.param_dict()}


# -- the grid --------------------------------------------------------------


@dataclass(frozen=True)
class GridCell:
    """One runnable point of the sweep product."""

    family: FamilySpec
    scenario: ScenarioSpec
    estimator: str
    pattern: str
    budget: int

    @property
    def key(self) -> str:
        """Stable identifier: the resume/filter handle of this cell."""
        return (f"{self.family.label}|{self.scenario.label}|"
                f"{self.estimator}|{self.pattern}|t{self.budget}")


class WorldGrid:
    """A fully validated sweep specification (see module docstring)."""

    def __init__(
        self,
        families: Sequence[Union[str, Dict, FamilySpec]],
        scenarios: Sequence[Union[str, Dict, ScenarioSpec]] = ("insertion",),
        estimators: Sequence[str] = ESTIMATORS,
        patterns: Sequence[str] = ("triangle",),
        budgets: Sequence[int] = (200, 800),
        copies: int = 3,
        epsilon: float = 0.5,
        seed: int = 2022,
        batch_size: int = 2048,
        backend: str = "serial",
        cache: str = "lru:4M",
    ) -> None:
        families = list(families or [])
        scenarios = list(scenarios or [])
        estimators = list(estimators or [])
        patterns = list(patterns or [])
        budgets = list(budgets or [])
        _require(families, "empty grid: no generator families given")
        _require(scenarios, "empty grid: no scenarios given")
        _require(estimators, "empty grid: no estimators given")
        _require(patterns, "empty grid: no patterns given")
        _require(budgets, "empty grid: no space budgets given")

        self.families = [
            spec if isinstance(spec, FamilySpec) else FamilySpec.from_spec(spec)
            for spec in families
        ]
        self.scenarios = [
            spec if isinstance(spec, ScenarioSpec) else ScenarioSpec.from_spec(spec)
            for spec in scenarios
        ]
        for estimator in estimators:
            _require(estimator in ESTIMATORS,
                     f"unknown estimator {estimator!r}; known: "
                     f"{', '.join(ESTIMATORS)}")
        self.estimators = list(estimators)
        self.patterns = [self._check_pattern(name) for name in patterns]
        self.budgets = [_as_int(budget, "space budget", 1) for budget in budgets]
        self.copies = _as_int(copies, "copies", 1)
        self.epsilon = _as_float(epsilon, "epsilon", 0.0, 1.0, low_open=True)
        self.seed = _as_int(seed, "seed", -(1 << 62), 1 << 62)
        self.batch_size = _as_int(batch_size, "batch_size", 1)
        _require(backend in BACKENDS,
                 f"unknown backend {backend!r}; known: {', '.join(BACKENDS)}")
        self.backend = backend
        try:
            resolve_cache_policy(cache)
        except StreamError as error:
            raise WorldsError(f"invalid cache policy {cache!r}: {error}") from error
        self.cache = cache
        # Fail on an all-incompatible product now, not after materializing.
        self._cells = self._build_cells()

    @staticmethod
    def _check_pattern(name: str) -> str:
        from repro.cli import parse_pattern

        _require(isinstance(name, str), f"pattern name must be a string, got {name!r}")
        try:
            parse_pattern(name)
        except ReproError as error:
            raise WorldsError(str(error)) from error
        return name

    def resolve_pattern(self, name: str) -> Pattern:
        from repro.cli import parse_pattern

        return parse_pattern(name)

    def _build_cells(self) -> List[GridCell]:
        cells: List[GridCell] = []
        for family in self.families:
            for scenario in self.scenarios:
                for estimator in self.estimators:
                    # Deletions demand the turnstile counter; the other
                    # estimators read insertion-only streams.
                    if scenario.needs_deletions and not is_turnstile(estimator):
                        continue
                    for pattern in self.patterns:
                        if FGP_COUNTERS[estimator].star_only and not is_star_decomposable(
                            self.resolve_pattern(pattern)
                        ):
                            continue
                        for budget in self.budgets:
                            cells.append(GridCell(
                                family=family,
                                scenario=scenario,
                                estimator=estimator,
                                pattern=pattern,
                                budget=budget,
                            ))
        _require(cells,
                 "grid has no runnable cells: every estimator x scenario x "
                 "pattern combination was incompatible")
        return cells

    def cells(self) -> List[GridCell]:
        """The runnable cells, in stable sweep order."""
        return list(self._cells)

    # -- (de)serialization ------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "families": [family.to_dict() for family in self.families],
            "scenarios": [scenario.to_dict() for scenario in self.scenarios],
            "estimators": list(self.estimators),
            "patterns": list(self.patterns),
            "budgets": list(self.budgets),
            "copies": self.copies,
            "epsilon": self.epsilon,
            "seed": self.seed,
            "batch_size": self.batch_size,
            "backend": self.backend,
            "cache": self.cache,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "WorldGrid":
        _require(isinstance(data, dict), f"grid spec must be an object, got {data!r}")
        known = {
            "families", "scenarios", "estimators", "patterns", "budgets",
            "copies", "epsilon", "seed", "batch_size", "backend", "cache",
        }
        unknown = set(data) - known
        _require(not unknown,
                 f"unknown grid key(s) {sorted(unknown)}; known: {sorted(known)}")
        _require("families" in data, "grid spec needs a 'families' list")
        kwargs = {key: data[key] for key in known if key in data}
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: Union[str, "os.PathLike[str]"]) -> "WorldGrid":
        path = os.fspath(path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except json.JSONDecodeError as error:
            raise WorldsError(f"{path}: not valid JSON ({error})") from error
        return cls.from_dict(data)

    def __repr__(self) -> str:
        return (f"WorldGrid(families={len(self.families)}, "
                f"scenarios={len(self.scenarios)}, "
                f"estimators={len(self.estimators)}, "
                f"patterns={len(self.patterns)}, budgets={len(self.budgets)}, "
                f"cells={len(self._cells)})")
