"""Scenario front end: run declarative configs, emit JSON reports and CSV curves.

Exit status encodes the verdict class: 0 when a witness sequence or tail was
found, 2 for a no-witness/no-tail verdict, 1 for config or validation errors
and for outputs that cannot be written, and 3 when a witness was found but its
certification failed.
Re-running the same config produces byte-identical outputs (no timestamps,
sorted keys, shortest-roundtrip floats).
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path
from typing import Optional

from .config import ConfigError, ScenarioConfig, _read_doc, parse_config
from .criteria import (
    CriterionError,
    CriterionReport,
    DisjointReport,
    EpsilonReport,
    TAIL_FOUND,
    WITNESS_FOUND,
    _pair_key,
    _pairs,
    check_disjoint_transitivity,
    check_semi_transitivity,
    check_transitivity,
)
from .spaces import WeightError
from .operators import OperatorError
from .domain import DomainError
from .witness import _stage_sups, verify_report

EXIT_FOUND = 0
EXIT_ERROR = 1
EXIT_NO_WITNESS = 2
EXIT_CERT_FAILED = 3


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def emit_curves(report, path: str | Path) -> Path:
    """Write the report's stage curve as CSV with a fixed per-mode header.

    Numbers carry 17 significant digits so the file round-trips bit-stably.
    """
    if isinstance(report, CriterionReport):
        header = "k,n_k,sup_forward,sup_backward,chi_residual"
        rows = [
            (st.k, st.n, st.sup_forward, st.sup_backward, st.chi_residual)
            for st in report.stages
        ]
    elif isinstance(report, DisjointReport):
        pairs = _pairs(len(report.params["operators"]))
        gamma_cols = ["gamma_max_" + _pair_key(pair) for pair in pairs]
        header = "k,n_k,sup_forward,sup_backward," + ",".join(gamma_cols) + ",chi_residual"
        rows = [
            (st.k, st.n, max(st.sup_forward), max(st.sup_backward),
             *(st.gamma[p] for p in pairs), st.chi_residual)
            for st in report.stages
        ]
    elif isinstance(report, EpsilonReport):
        header = "t,pass_chi,pass_product,pass_cross,lambda_t"
        rows = [(r.t, r.pass_chi, r.pass_product, r.pass_cross, r.lambda_t) for r in report.rows]
    else:
        raise TypeError(f"cannot emit curves for {type(report).__name__}")
    lines = [header] + [",".join(_fmt(v) for v in row) for row in rows]
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    return path


def run_scenario(
    cfg: ScenarioConfig,
    out_dir: Optional[str | Path] = None,
    horizon: Optional[int] = None,
    tol: Optional[float] = None,
    epsilon: Optional[float] = None,
) -> tuple:
    """Run one scenario; returns ``(document, report, exit_status)``.

    When ``out_dir`` is given, writes ``<name>.report.json`` and
    ``<name>.curves.csv`` there.  An override that the mode does not read
    (``horizon`` or ``tol`` in semi mode, ``epsilon`` in the others) is a
    :class:`ConfigError`.
    """
    unread = {"horizon": horizon, "tol": tol} if cfg.mode == "semi" else {"epsilon": epsilon}
    for field, value in unread.items():
        if value is not None:
            raise ConfigError(field, f"must not be given in {cfg.mode} mode, which does not read it")
    system = cfg.system
    horizon = cfg.horizon if horizon is None else horizon
    tol = cfg.tol if tol is None else tol
    if cfg.mode == "transitive":
        report = check_transitivity(system, cfg.K, horizon, tol)
    elif cfg.mode == "disjoint":
        report = check_disjoint_transitivity(system, cfg.K, horizon, tol)
    else:
        epsilon = cfg.epsilon if epsilon is None else epsilon
        report = check_semi_transitivity(system, cfg.K, epsilon)

    certification = None
    if cfg.mode in ("transitive", "disjoint") and report.verdict == WITNESS_FOUND:
        certification = verify_report(system, report).to_dict()

    if report.verdict not in (WITNESS_FOUND, TAIL_FOUND):
        status = EXIT_NO_WITNESS
    elif certification is not None and not certification["ok"]:
        status = EXIT_CERT_FAILED
    else:
        status = EXIT_FOUND
    doc = {
        "name": cfg.name,
        "mode": cfg.mode,
        "verdict": report.verdict,
        "exit_status": status,
        "config": cfg.raw,
        "report": report.to_dict(),
        "witness_certification": certification,
        "warnings": cfg.warnings(),
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{cfg.name}.report.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
        emit_curves(report, out / f"{cfg.name}.curves.csv")
    return doc, report, status


def bundled_names() -> list:
    files = resources.files("wcodyn").joinpath("scenarios")
    return sorted(p.name[: -len(".json")] for p in files.iterdir() if p.name.endswith(".json"))


def _bundled_doc(name: str) -> dict:
    files = resources.files("wcodyn").joinpath("scenarios")
    entry = files.joinpath(f"{name}.json")
    if not entry.is_file():
        raise ConfigError(
            "scenario", f"no bundled scenario {name!r}; available: {', '.join(bundled_names())}"
        )
    return json.loads(entry.read_text())


def load_bundled(name: str) -> ScenarioConfig:
    return parse_config(_bundled_doc(name))


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="wcodyn",
        description="Run a transitivity scenario and emit its report and curves.",
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        help="path to a scenario JSON file, or the name of a bundled scenario",
    )
    parser.add_argument("--out", help="output directory for the report and curves")
    parser.add_argument("--horizon", type=int, help="override the scan horizon")
    parser.add_argument("--tol", type=float, help="override the verdict tolerance")
    parser.add_argument("--epsilon", type=float, help="override the semi-mode epsilon")
    parser.add_argument("--mode", choices=("transitive", "disjoint", "semi"),
                        help="override the scenario mode")
    parser.add_argument("--list", action="store_true", help="list bundled scenarios")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print the per-stage curve")
    args = parser.parse_args(argv)

    if args.list:
        for name in bundled_names():
            print(name)
        return EXIT_FOUND
    if not args.scenario:
        parser.print_usage(sys.stderr)
        print("wcodyn: error: a scenario path or bundled name is required", file=sys.stderr)
        return EXIT_ERROR

    try:
        path = Path(args.scenario)
        if path.exists():
            doc, base_dir = _read_doc(path), path.parent
        else:
            doc, base_dir = _bundled_doc(args.scenario), None
        if args.mode and isinstance(doc, dict):
            doc = dict(doc, mode=args.mode)
        cfg = parse_config(doc, base_dir)
        doc, report, status = run_scenario(
            cfg,
            out_dir=args.out,
            horizon=args.horizon,
            tol=args.tol,
            epsilon=args.epsilon,
        )
    except (ConfigError, CriterionError, WeightError, OperatorError, DomainError, OSError) as exc:
        print(f"wcodyn: error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    print(f"{cfg.name}: {doc['verdict']}")
    if cfg.mode in ("transitive", "disjoint"):
        last = report.last_stage()
        if last is not None:
            sup_f, sup_b, _ = _stage_sups(last)
            print(
                f"  stages: {len(report.stages)}  last n_k: {last.n}  "
                f"sup_forward: {max(sup_f):.6g}  sup_backward: {max(sup_b):.6g}  "
                f"chi_residual: {last.chi_residual:.6g}"
            )
        if doc["witness_certification"] is not None:
            print(f"  witness certification: {'ok' if doc['witness_certification']['ok'] else 'FAILED'}")
    else:
        print(f"  tail start: {report.tail_start}")
    if args.verbose:
        for st in getattr(report, "stages", []):
            print(f"    {st.to_dict()}")
        for row in getattr(report, "rows", []):
            print(f"    {row.to_dict()}")
    for w in doc["warnings"]:
        print(f"  warning: {w}")
    if args.out:
        print(f"  wrote {args.out}/{cfg.name}.report.json and .curves.csv")
    return status


if __name__ == "__main__":
    sys.exit(main())
