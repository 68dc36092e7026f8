"""Scenario documents for the benchmark workloads.

Each workload is a list of scenario documents (plain JSON-like dicts) that
``wcodyn.config.parse_config`` accepts.  The generated workloads are
stratified: every slot fixes the structural choices (mode, dimension, map
family, norm kind, weight kinds, horizon, size of ``K``) and the seed only
draws the numbers inside them.  A pass over a workload therefore costs about
the same for every seed, while the concrete maps, weights and tables change.

Generated scenarios are valid by construction:

* every map is unimodular and not hyperbolic (translations, glide
  reflections, signed permutations plus a shift, unipotent shears), so
  orbits grow at most polynomially and stay far inside the int64 range;
* every map has a drift, so iterated images of ``K`` leave ``K``;
* in disjoint mode the drifts ``r_l * b_l`` along the moving coordinate are
  non-zero and pairwise distinct, so the separation bound exists.
"""

from __future__ import annotations

import json
import random
from importlib import resources

WORKLOADS = ("bundled", "scan", "certify")


def _r(x: float) -> float:
    return round(x, 4)


def _box(half_widths):
    return {"box": [[-h, h] for h in half_widths]}


def _box_points(half_widths):
    pts = [()]
    for h in half_widths:
        pts = [p + (c,) for p in pts for c in range(-h, h + 1)]
    return pts


def _radial(rng: random.Random, lo: float, hi: float) -> dict:
    return {"kind": "radial_power", "p": _r(rng.uniform(lo, hi))}


def _table(rng: random.Random, half_widths, default: float) -> dict:
    """A table weight around the origin with values in [0.5, 2] and a default."""
    rows = [[*pt, _r(rng.uniform(0.5, 2.0))] for pt in _box_points(half_widths)]
    return {"kind": "table", "values": rows, "default": default}


def _growing(rng: random.Random) -> dict:
    return {"kind": "constant", "value": _r(rng.uniform(1.0005, 1.002))}


def _sign(rng: random.Random) -> int:
    return rng.choice((-1, 1))


def _norm(rng: random.Random, kind: str, max_radius=(1, 2)) -> dict:
    if kind == "ell_p":
        return {"kind": "ell_p", "p": rng.choice((1, 1.5, 2))}
    if kind == "orlicz":
        young = rng.choice(({"kind": "power", "p": 2}, {"kind": "power", "p": 1.5},
                            {"kind": "exp"}))
        return {"kind": "orlicz", "young": young, "tol": 1e-10}
    return {"kind": "morrey", "p": rng.choice((2, 3)), "q": 1,
            "max_radius": rng.randint(*max_radius)}


# ---------------------------------------------------------------------------
# Maps, as scenario-document entries.


def _translation(offset) -> dict:
    return {"offset": list(offset)}


def _glide(rng: random.Random, dim: int, b: int) -> dict:
    """``x -> (x1 + b, -x2 + c, x3 + c')``: a reflection composed with a shift."""
    lin = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    lin[1][1] = -1
    offset = [b] + [rng.randint(-2, 2) for _ in range(dim - 1)]
    return {"linear": lin, "offset": offset}


def _shear(rng: random.Random, dim: int, b: int) -> dict:
    """``x -> (x1 + x2 + c, x2 + b, ...)``: unipotent, drift ``b`` along x2."""
    lin = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    lin[0][1] = 1
    offset = [rng.randint(-2, 2), b] + [rng.randint(-2, 2) for _ in range(dim - 2)]
    return {"linear": lin, "offset": offset}


def _permutation(rng: random.Random, dim: int) -> dict:
    """A cyclic coordinate permutation plus a shift whose coordinates do not
    sum to zero, so the orbit drifts along (1, ..., 1)."""
    lin = [[1 if j == (i + 1) % dim else 0 for j in range(dim)] for i in range(dim)]
    while True:
        offset = [rng.randint(-2, 2) for _ in range(dim)]
        if sum(offset) != 0:
            return {"linear": lin, "offset": offset}


def _opposite_drifts(rng: random.Random, first: int, second: int) -> list:
    """Drifts ``first`` and ``second`` with opposite signs.

    Then ``r_1 b_1`` and ``r_2 b_2`` are non-zero and distinct, and the cross
    quantity moves ``K`` by ``n |r_1 b_1 - r_2 b_2|``, farther than either
    operator alone, so it stays below the backward quantity and does not
    block a stage that the forward and backward quantities admit.  (A
    blocked stage makes the checker recompute the cross quantity from scratch
    at every later iterate, and the cost would follow the seed.)
    """
    s = _sign(rng)
    return [s * first, -s * second]


# ---------------------------------------------------------------------------
# Workloads


def bundled_docs(seed: int) -> list:
    """The shipped scenarios, in an order drawn from the seed."""
    files = resources.files("wcodyn").joinpath("scenarios")
    names = sorted(p.name for p in files.iterdir() if p.name.endswith(".json"))
    docs = [json.loads(files.joinpath(n).read_text()) for n in names]
    random.Random(seed).shuffle(docs)
    return docs


def _transitive(name, dim, norm, eta, map_doc, symbol, K, horizon, tol,
                scale=1.0) -> dict:
    return {
        "name": name,
        "mode": "transitive",
        "domain": {"dimension": dim, "scale": scale},
        "norm": norm,
        "eta": eta,
        "operator": {"map": map_doc, "symbol": symbol},
        "K": K,
        "horizon": horizon,
        "tol": tol,
    }


def _disjoint(name, dim, norm, eta, ops, powers, K, horizon, tol, scale=1.0) -> dict:
    return {
        "name": name,
        "mode": "disjoint",
        "domain": {"dimension": dim, "scale": scale},
        "norm": norm,
        "eta": eta,
        "operators": [{"map": m, "symbol": s} for m, s in ops],
        "powers": list(powers),
        "K": K,
        "horizon": horizon,
        "tol": tol,
    }


# The scan tolerance is far below any sup term reachable within the horizon,
# so every scan runs to its horizon and its cost does not depend on the seed.
SCAN_TOL = 1e-12


def scan_docs(seed: int) -> list:
    """Two draws of every scan slot, so a pass averages over the seed's
    choices within each slot."""
    rng = random.Random(seed)
    return _scan_slots(rng, "a") + _scan_slots(rng, "b")


def _scan_slots(rng: random.Random, copy: str) -> list:
    docs = []
    # 1-D unit shift with a growing constant symbol (the Salas-type case).
    docs.append(_transitive(
        f"scan-unit-shift-1d-{copy}", 1, _norm(rng, "ell_p"), _radial(rng, 0.5, 1.5),
        _translation([_sign(rng)]), _growing(rng), _box([6]), 2500, SCAN_TOL))
    # 1-D longer translation, table symbol with a default, Orlicz norm.
    docs.append(_transitive(
        f"scan-shift-table-1d-{copy}", 1, _norm(rng, "orlicz"), _radial(rng, 0.5, 1.0),
        _translation([_sign(rng) * rng.randint(2, 3)]), _table(rng, [20], 1.0),
        _box([5]), 2000, SCAN_TOL))
    # 2-D glide reflection, Morrey norm, product weight with a table factor.
    docs.append(_transitive(
        f"scan-glide-2d-{copy}", 2, _norm(rng, "morrey"),
        {"kind": "product", "factors": [_radial(rng, 0.5, 1.0), _table(rng, [6, 6], 1.0)]},
        _glide(rng, 2, _sign(rng)), _growing(rng), _box([2, 2]), 1500, SCAN_TOL))
    # 2-D signed permutation plus a shift, product symbol.
    docs.append(_transitive(
        f"scan-permutation-2d-{copy}", 2, _norm(rng, "ell_p"), _radial(rng, 0.5, 1.0),
        _permutation(rng, 2),
        {"kind": "product", "factors": [_growing(rng), _table(rng, [5, 5], 1.0)]},
        _box([2, 2]), 1500, SCAN_TOL))
    # 2-D shear, Orlicz norm, table symbol.
    docs.append(_transitive(
        f"scan-shear-2d-{copy}", 2, _norm(rng, "orlicz"), _radial(rng, 0.3, 0.6),
        _shear(rng, 2, _sign(rng)), _table(rng, [5, 5], 1.0), _box([2, 2]), 1500,
        SCAN_TOL))
    # 3-D glide reflection, Morrey norm.
    docs.append(_transitive(
        f"scan-glide-3d-{copy}", 3, _norm(rng, "morrey", (1, 1)), _radial(rng, 0.5, 1.0),
        _glide(rng, 3, _sign(rng)), _growing(rng), _box([1, 1, 1]), 1200, SCAN_TOL))
    # 3-D cyclic permutation plus a shift, ell_p norm, table symbol.
    docs.append(_transitive(
        f"scan-permutation-3d-{copy}", 3, _norm(rng, "ell_p"), _radial(rng, 0.5, 1.0),
        _permutation(rng, 3), _table(rng, [3, 3, 3], 1.0), _box([1, 1, 1]), 1200,
        SCAN_TOL))
    # Disjoint operators.  Drift magnitudes and weight exponents are fixed
    # (only signs, offsets, norms and symbols are drawn), because the cross
    # quantity is recomputed from scratch at each accepted stage, so the
    # cost follows where the stages fall.
    powers = (1, 2)
    bs = _opposite_drifts(rng, 1, 2)
    docs.append(_disjoint(
        f"scan-disjoint-shifts-1d-{copy}", 1, _norm(rng, "ell_p"), _radial(rng, 0.9, 1.0),
        [(_translation([b]), _growing(rng)) for b in bs], powers, _box([4]), 1500,
        SCAN_TOL))
    bs = _opposite_drifts(rng, 1, 1)
    docs.append(_disjoint(
        f"scan-disjoint-glide-2d-{copy}", 2, _norm(rng, "morrey"), _radial(rng, 0.9, 1.0),
        [(_glide(rng, 2, b), _growing(rng)) for b in bs], powers, _box([1, 1]), 600,
        SCAN_TOL))
    powers = (1, 3)
    bs = _opposite_drifts(rng, 1, 1)
    docs.append(_disjoint(
        f"scan-disjoint-shear-2d-{copy}", 2, _norm(rng, "orlicz"), _radial(rng, 0.4, 0.45),
        [(_shear(rng, 2, b), _growing(rng)) for b in bs], powers, _box([1, 1]), 600,
        SCAN_TOL))
    return docs


def certify_docs(seed: int) -> list:
    """Transitive and disjoint scenarios that find a witness within a short
    horizon.  The domain scale 0.2 keeps ``eta = 1`` on a ball of radius 5,
    so six to eight stages are accepted and the last stage's ``n`` lies
    between about 45 and 105: the witness supports ``E`` and ``S^n(E)`` lie
    far apart."""
    rng = random.Random(seed)
    unit = {"kind": "constant", "value": 1.0}
    eta = {"kind": "radial_power", "p": 2}
    tol = 0.005
    docs = []
    for i in range(2):
        docs.append(_transitive(
            f"certify-unit-shift-1d-{i}", 1, _norm(rng, "morrey", (10, 10)), eta,
            _translation([_sign(rng)]), unit, _box([10]), 200, tol, scale=0.2))
    docs.append(_transitive(
        "certify-shift-1d", 1, _norm(rng, "orlicz"), eta,
        _translation([2 * _sign(rng)]), unit, _box([10]), 200, tol, scale=0.2))
    docs.append(_disjoint(
        "certify-disjoint-1d", 1, _norm(rng, "orlicz"), eta,
        [(_translation([b]), unit) for b in _opposite_drifts(rng, 1, 2)],
        (1, 2), _box([6]), 200, tol, scale=0.2))
    docs.append(_transitive(
        "certify-axis-2d", 2, _norm(rng, "orlicz"), eta,
        _translation(rng.choice(([-1, 0], [1, 0], [0, -1], [0, 1]))), unit,
        _box([3, 3]), 150, tol, scale=0.2))
    docs.append(_transitive(
        "certify-diagonal-2d", 2, _norm(rng, "morrey", (3, 3)), eta,
        _translation([_sign(rng), _sign(rng)]), unit, _box([3, 3]), 150, tol,
        scale=0.2))
    docs.append(_transitive(
        "certify-glide-2d", 2, _norm(rng, "morrey", (3, 3)), eta,
        _glide(rng, 2, _sign(rng)), unit, _box([3, 3]), 150, tol, scale=0.2))
    return docs


def workload_docs(name: str, seed: int) -> list:
    if name == "bundled":
        return bundled_docs(seed)
    if name == "scan":
        return scan_docs(seed)
    if name == "certify":
        return certify_docs(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
