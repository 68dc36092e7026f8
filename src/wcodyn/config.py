"""Declarative scenario configs: parsing, validation, and object construction.

A scenario is a single JSON document (a key-value tree).  Validation errors
name the offending field, e.g. ``norm.q: must satisfy 1 <= q < p``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .criteria import CriterionError, DisjointSystem, OperatorFamily, Scenario, _as_system
from .domain import AffineLatticeMap, DomainError, Region
from .operators import OperatorError, WeightedCompositionOperator
from .spaces import (
    ConstantWeight,
    EllPNorm,
    ExpYoung,
    MorreyNorm,
    OrliczNorm,
    PowerYoung,
    ProductWeight,
    RadialPowerWeight,
    SpaceError,
    TableWeight,
    Weight,
    WeightError,
)

MODES = ("transitive", "disjoint", "semi")


class ConfigError(ValueError):
    """A malformed config; the message names the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field


def _as_dict(v, path: str) -> dict:
    if not isinstance(v, dict):
        raise ConfigError(path, f"expected an object, got {v!r}")
    return v


def _need(d: dict, key: str, path: str):
    if key not in _as_dict(d, path):
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return d[key]


def _as_number(v, path: str) -> float:
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ConfigError(path, f"expected a number, got {v!r}")
    return float(v)


def _as_int(v, path: str) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(path, f"expected an integer, got {v!r}")
    return v


def _as_list(v, path: str, length: Optional[int] = None) -> list:
    if not isinstance(v, list) or length not in (None, len(v)):
        size = "" if length is None else f" of {length} entries"
        raise ConfigError(path, f"expected a list{size}, got {v!r}")
    return v


def _as_ints(v, path: str, length: Optional[int] = None) -> tuple:
    return tuple(_as_int(c, path) for c in _as_list(v, path, length))


def _parse_young(d: dict, path: str):
    kind = _need(d, "kind", path)
    if kind == "power":
        return PowerYoung(_as_number(d.get("p", 2), f"{path}.p"))
    if kind == "exp":
        return ExpYoung()
    raise ConfigError(f"{path}.kind", f"unknown young function {kind!r}")


def parse_norm(d: dict, path: str = "norm"):
    kind = _need(d, "kind", path)
    try:
        if kind == "ell_p":
            p = d.get("p", 1)
            p = math.inf if p in ("inf", "infinity") else _as_number(p, f"{path}.p")
            return EllPNorm(p)
        if kind == "orlicz":
            young = _parse_young(d.get("young", {"kind": "power", "p": 2}), f"{path}.young")
            return OrliczNorm(young, _as_number(d.get("tol", 1e-10), f"{path}.tol"))
        if kind == "morrey":
            return MorreyNorm(
                _as_number(_need(d, "p", path), f"{path}.p"),
                _as_number(_need(d, "q", path), f"{path}.q"),
                _as_int(_need(d, "max_radius", path), f"{path}.max_radius"),
            )
    except SpaceError as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(f"{path}.kind", f"unknown norm kind {kind!r}")


def _table(rows, dimension: int) -> dict:
    """The weight table of ``(field, row)`` pairs, each row ``x_1, ..., x_d, value``
    with ``d = dimension`` integer coordinates and a point no earlier row gave."""
    table = {}
    for field, row in rows:
        if not isinstance(row, list) or len(row) != dimension + 1:
            raise ConfigError(field, f"expected {dimension} coordinates and a value, got {row!r}")
        pt = tuple(_as_int(c, field) for c in row[:-1])
        if pt in table:
            raise ConfigError(field, f"repeats the point {pt} of an earlier row")
        table[pt] = _as_number(row[-1], field)
    return table


def _csv_number(cell: str):
    """The number in a csv cell, an int when its value is integral."""
    try:
        return int(cell)
    except ValueError:
        v = float(cell)
        return int(v) if v.is_integer() else v


def _csv_rows(path: Path, field: str) -> list:
    """``(field, row)`` pairs of the numeric rows of a weight-table csv; a
    first row that is not numeric is a header."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(field, f"cannot read weight table: {exc}") from exc
    rows = []
    for i, row in enumerate(lines):
        if not row:
            continue
        try:
            rows.append((f"{field} row {i + 1}", [_csv_number(c) for c in row]))
        except ValueError:
            if i > 0:
                raise ConfigError(field, f"non-numeric row {i + 1} in {path}")
    return rows


def _parse_weight(d: dict, path: str, scale: float, base_dir: Optional[Path],
                  dimension: int) -> Weight:
    """The weight of ``d``; table rows must have ``dimension`` coordinates."""
    kind = _need(d, "kind", path)
    try:
        if kind == "constant":
            return ConstantWeight(_as_number(d.get("value", 1.0), f"{path}.value"))
        if kind == "radial_power":
            return RadialPowerWeight(
                _as_number(d.get("p", 1.0), f"{path}.p"), scale=scale
            )
        if kind == "table":
            default = d.get("default")
            if default is not None:
                default = _as_number(default, f"{path}.default")
            if "csv" in d:
                rows = _csv_rows((base_dir or Path.cwd()) / d["csv"], f"{path}.csv")
            else:
                values = _as_list(_need(d, "values", path), f"{path}.values")
                rows = [(f"{path}.values[{i}]", row) for i, row in enumerate(values)]
            return TableWeight(_table(rows, dimension), default=default)
        if kind == "product":
            factors = tuple(
                _parse_weight(fd, f"{path}.factors[{i}]", scale, base_dir, dimension)
                for i, fd in enumerate(_as_list(_need(d, "factors", path), f"{path}.factors"))
            )
            return ProductWeight(factors)
    except WeightError as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(f"{path}.kind", f"unknown weight kind {kind!r}")


def parse_map(d: dict, path: str, dimension: int) -> AffineLatticeMap:
    offset = _as_ints(_need(d, "offset", path), f"{path}.offset", dimension)
    linear = d.get("linear")
    try:
        if linear is None:
            return AffineLatticeMap.translation(offset)
        rows = _as_list(linear, f"{path}.linear", dimension)
        return AffineLatticeMap(tuple(_as_ints(r, f"{path}.linear", dimension) for r in rows), offset)
    except DomainError as exc:
        raise ConfigError(path, str(exc)) from exc


def parse_region(d: dict, path: str, dimension: int) -> Region:
    try:
        if "box" in _as_dict(d, path):
            box = _as_list(d["box"], f"{path}.box", dimension)
            return Region.box([_as_ints(pair, f"{path}.box", 2) for pair in box])
        if "points" in d:
            pts = _as_list(d["points"], f"{path}.points")
            return Region.of(_as_ints(p, f"{path}.points", dimension) for p in pts)
    except DomainError as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(path, "need either 'box' or 'points'")


def _is_signed_permutation(m: AffineLatticeMap) -> bool:
    for row in m.linear:
        nz = [abs(v) for v in row if v != 0]
        if nz != [1]:
            return False
    cols = list(zip(*m.linear))
    return all([abs(v) for v in col if v != 0] == [1] for col in cols)


def _build(field: str, make):
    """``make()``, with an error in building the system reported against ``field``."""
    try:
        return make()
    except (OperatorError, WeightError, DomainError) as exc:
        raise ConfigError(field, str(exc)) from exc


@dataclass
class ScenarioConfig:
    """A validated scenario with the system it runs: a ``Scenario``, a
    ``DisjointSystem`` or an ``OperatorFamily``, by mode."""

    name: str
    mode: str
    norm: object
    eta: Weight
    K: Region
    region: Region
    horizon: Optional[int]
    tol: Optional[float]
    epsilon: Optional[float]
    system: object
    raw: dict

    def warnings(self) -> list:
        if self.mode == "semi" or not isinstance(self.norm, MorreyNorm):
            return []
        return [
            "morrey norm: map is not a signed permutation plus shift, "
            "so norm invariance under the map is not guaranteed"
            for op in _as_system(self.system)[2]
            if not _is_signed_permutation(op.map)
        ]

    def build(self):
        """The system under test, built by :func:`parse_config`."""
        return self.system


def parse_config(doc: dict, base_dir: Optional[Path] = None) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError("", "config must be a JSON object")
    name = doc.get("name", "scenario")
    if not isinstance(name, str) or name in ("", ".", "..") or any(c in name for c in "/\\"):
        raise ConfigError("name", f"must be one file name (no '/' or '\\', not '.' or '..'), got {name!r}")
    mode = _need(doc, "mode", "")
    if mode not in MODES:
        raise ConfigError("mode", f"must be one of {MODES}, got {mode!r}")
    dom = _as_dict(doc.get("domain", {}), "domain")
    dimension = _as_int(dom.get("dimension", 1), "domain.dimension")
    if dimension < 1:
        raise ConfigError("domain.dimension", "must be >= 1")
    scale = _as_number(dom.get("scale", 1.0), "domain.scale")
    if scale <= 0:
        raise ConfigError("domain.scale", "must be positive")

    def weight(d, path):
        return _parse_weight(d, path, scale, base_dir, dimension)

    norm = parse_norm(_need(doc, "norm", ""), "norm")
    eta = weight(_need(doc, "eta", ""), "eta")
    K = parse_region(_need(doc, "K", ""), "K", dimension)
    if "region" in doc:
        region = parse_region(doc["region"], "region", dimension)
    else:
        pts = K.sorted_points()
        lo = [min(p[i] for p in pts) - 1 for i in range(dimension)]
        hi = [max(p[i] for p in pts) + 1 for i in range(dimension)]
        region = Region.box(list(zip(lo, hi)))

    def operator(od, path):
        mp = parse_map(_need(od, "map", path), f"{path}.map", dimension)
        symbol = weight(_need(od, "symbol", path), f"{path}.symbol")
        return _build(path, lambda: WeightedCompositionOperator(mp, symbol, region))

    horizon = tol = epsilon = None
    if mode in ("transitive", "disjoint"):
        horizon = _as_int(_need(doc, "horizon", ""), "horizon")
        if horizon < 1:
            raise ConfigError("horizon", "must be >= 1")
        tol = _as_number(_need(doc, "tol", ""), "tol")
        if not (0 < tol < 1):
            raise ConfigError("tol", "must lie in (0, 1)")
    if mode == "transitive":
        op = operator(_need(doc, "operator", ""), "operator")
        system = _build("operator", lambda: Scenario(norm, eta, op, region))
    elif mode == "disjoint":
        ods = _need(doc, "operators", "")
        if not isinstance(ods, list) or len(ods) < 2:
            raise ConfigError("operators", "need a list of at least two operators")
        ops = tuple(operator(od, f"operators[{i}]") for i, od in enumerate(ods))
        powers = _as_ints(_need(doc, "powers", ""), "powers", len(ops))
        try:
            system = _build("operators", lambda: DisjointSystem(norm, eta, ops, powers))
        except CriterionError as exc:
            raise ConfigError("powers", str(exc)) from exc
    else:  # semi
        epsilon = _as_number(_need(doc, "epsilon", ""), "epsilon")
        if not (0 < epsilon < 1):
            raise ConfigError("epsilon", "must lie in (0, 1)")
        fd = _as_dict(_need(doc, "family", ""), "family")
        if fd.get("kind", "scaled_translation") != "scaled_translation":
            raise ConfigError("family.kind", "only 'scaled_translation' is supported")
        direction = _as_ints(_need(fd, "direction", "family"), "family.direction", dimension)
        symbol = weight(fd.get("symbol", {"kind": "constant", "value": 1.0}), "family.symbol")
        n_ops = _as_int(_need(doc, "n_ops", ""), "n_ops")
        if n_ops < 1:
            raise ConfigError("n_ops", "must be >= 1")
        lo, hi = _as_ints(_need(doc, "index_range", ""), "index_range", 2)
        if hi < lo:
            raise ConfigError("index_range", "hi must be >= lo")
        system = OperatorFamily(
            norm=norm,
            eta=eta,
            n_ops=n_ops,
            index_set=range(lo, hi + 1),
            map_for=lambda t, l: AffineLatticeMap.translation(
                tuple(t * (l + 1) * c for c in direction)
            ),
            symbol_for=lambda t, l: symbol,
        )

    return ScenarioConfig(name=name, mode=mode, norm=norm, eta=eta, K=K, region=region,
                          horizon=horizon, tol=tol, epsilon=epsilon, system=system, raw=doc)


def _read_doc(path: Path):
    """The JSON document in the file at ``path``."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError("", f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError("", f"config {path} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON: {exc}") from exc


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    return parse_config(_read_doc(path), base_dir=path.parent)
