"""wcodyn benchmark: one command per workload, end-to-end or traced.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload {bundled,scan,certify} --seed N \\
        --seconds S --trace {0,1}

The run imports ``wcodyn`` from ``src/``, makes the workload's scenario
documents from the seed, parses and builds them (set-up), then runs whole
passes over the scenarios until ``--seconds`` of timed work have been done.
``setup_s`` is the median time of ``import wcodyn`` (in this process and in
fresh interpreters) plus the median time to make, parse and build the
documents; both are sampled at the start and again between passes.
Each scenario is timed alone with ``time.perf_counter_ns``; the checks of
``checks.py`` run between scenarios, outside the timed region (in full on
the first pass, and as a byte comparison of the report on later passes).
A scenario that raises or fails a check counts as failed and makes the
result incorrect.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics of ``spans.py`` with
``--trace 1``.  A copy with machine information and per-scenario times goes
to ``bench/results/``.  Everything runs in one process and one thread,
apart from the short-lived interpreters that time ``import wcodyn``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
OUT = BENCH / "out"

SETUP_REPS = 5  # set-up is repeated and its median reported
IMPORT_REPS = 4  # fresh interpreters timing `import wcodyn`, besides this one
# Set-up is timed again (one preparation, one fresh import) between passes
# after every this many seconds of timed work, so that its samples spread
# over the whole run rather than over one moment of the machine's load.
SETUP_EVERY_S = 1.5

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter_ns(); import wcodyn; print(time.perf_counter_ns() - t)"
)

END_TO_END = (
    ("setup_s", "s"),
    ("scenarios_per_s", "1/s"),
    ("scenario_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)


def machine_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads_env": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def time_fresh_imports(reps: int) -> list:
    out = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=60, check=True)
        out.append(int(proc.stdout.strip()))
    return out


class Case:
    """One scenario: its document, parsed config, built system and timings."""

    def __init__(self, doc, cfg, system):
        self.doc, self.cfg, self.system = doc, cfg, system
        self.name = cfg.name
        self.times_ns: list = []
        self.first_bytes = None


def prepare(workload: str, seed: int, config, workloads) -> list:
    docs = workloads.workload_docs(workload, seed)
    cfgs = [config.parse_config(d) for d in docs]
    return [Case(d, c, c.build()) for d, c in zip(docs, cfgs)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark wcodyn on one workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "wcodyn" / "__init__.py").is_file():
        print(f"error: no wcodyn sources under {SRC}", file=sys.stderr)
        return 2

    t_import = time.perf_counter_ns()
    sys.path.insert(0, str(SRC))
    import wcodyn  # timed: part of set-up
    import_ns = [time.perf_counter_ns() - t_import]
    if Path(wcodyn.__file__).resolve().parent != (SRC / "wcodyn").resolve():
        print(f"error: imported wcodyn from {wcodyn.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from wcodyn import cli, config, criteria, witness
    from wcodyn.criteria import WITNESS_FOUND, Scenario
    from wcodyn.spaces import SampleFunction

    import checks
    import spans as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    tracer.active = bool(args.trace)

    setup_snaps = []
    prep_ns = []
    for _ in range(SETUP_REPS):
        before = tracer.snapshot()
        t0 = time.perf_counter_ns()
        items = prepare(args.workload, args.seed, config, workloads)
        prep_ns.append(time.perf_counter_ns() - t0)
        setup_snaps.append(tracing.delta(tracer.snapshot(), before))
    tracer.active = False
    import_ns += time_fresh_imports(IMPORT_REPS)

    def sample_setup():
        t0 = time.perf_counter_ns()
        prepare(args.workload, args.seed, config, workloads)
        prep_ns.append(time.perf_counter_ns() - t0)
        import_ns.extend(time_fresh_imports(1))

    # Each pass writes into a fresh directory.  Overwriting an existing file
    # makes the file system flush the old contents first (tens of
    # milliseconds per file on a virtual disk, and erratic), which would
    # time the disk rather than the program.
    run_dir = OUT / f"{args.workload}-{os.getpid()}"
    attempted = failed = 0
    correct = True
    messages: list = []
    pass_ns: list = []
    pass_decided: list = []
    pass_snaps: list = []

    def run_one(sc: Case):
        """The timed work for one scenario; returns what the checks need."""
        cfg, system = sc.cfg, sc.system
        if args.workload == "bundled":
            doc, report, _ = cli.run_scenario(cfg, out_dir=out_dir)
            return report, doc["witness_certification"], None
        if cfg.mode == "transitive":
            report = criteria.check_transitivity(system, cfg.K, cfg.horizon, cfg.tol)
        else:
            report = criteria.check_disjoint_transitivity(system, cfg.K, cfg.horizon, cfg.tol)
        if args.workload == "scan":
            return report, None, None
        audit = witness.verify_report(system, report)
        last = audit.stages[-1]
        eps = 1.25 * max(last.residual_source, *last.residual_targets)
        source = witness.flatten(SampleFunction.indicator(report.K), cfg.eta)
        ops = (system.operator,) if cfg.mode == "transitive" else system.operators
        powers = (1,) if cfg.mode == "transitive" else system.powers
        results = [
            witness.feasibility_oracle(Scenario(cfg.norm, cfg.eta, op, op.region),
                                       r * report.last_stage().n, source, source, eps)
            for op, r in zip(ops, powers)
        ]
        return report, audit.to_dict(), (results, eps)

    def check_one(sc: Case, report, certification, oracle, first: bool) -> list:
        if args.workload == "bundled":
            blob = (out_dir / f"{sc.name}.report.json").read_bytes()
        else:
            blob = json.dumps(report.to_dict(), sort_keys=True).encode()
        if not first:
            return checks.same_bytes(sc.name, sc.first_bytes, blob)
        sc.first_bytes = blob
        if sc.cfg.mode == "semi":
            fails, iterates = [], len(sc.system.index_set)
        else:
            fails, iterates = checks.scan(sc.system, sc.cfg.K.sorted_points(),
                                          sc.cfg.horizon, sc.cfg.tol, report)
        if args.trace:
            tracer.add("criteria.iterates", items=iterates)
        if args.workload == "certify" and report.verdict != WITNESS_FOUND:
            fails.append(f"verdict {report.verdict}; every certify scenario finds a witness")
        fails += checks.sup_terms(sc.system, report) + checks.bounds(sc.system, report)
        fails += checks.salas(sc.doc, report)
        ok = certification["ok"] if certification is not None else None
        fails += checks.certification(report.verdict, ok)
        if oracle is not None:
            fails += checks.oracle(*oracle)
        return fails

    try:
        timed_ns = sampled_ns = 0
        first = True
        while first or timed_ns < args.seconds * 1e9:
            before = tracer.snapshot()
            this_pass = decided = 0
            out_dir = run_dir / f"pass{len(pass_ns)}"
            for sc in items:
                attempted += 1
                tracer.active = bool(args.trace)
                t0 = time.perf_counter_ns()
                try:
                    report, certification, oracle = run_one(sc)
                except Exception as exc:  # a failed scenario is counted, not fatal
                    report = None
                    messages.append(f"{sc.name}: {type(exc).__name__}: {exc}")
                dt = time.perf_counter_ns() - t0
                this_pass += dt
                tracer.active = False
                if report is None:
                    failed += 1
                    correct = False
                    continue
                if args.trace:
                    tracer.add("criteria.stages", items=len(getattr(report, "stages", ())))
                    if oracle is not None:
                        tracer.add("witness.oracle_iterations",
                                   items=sum(r.iterations for r in oracle[0]))
                decided += 1
                sc.times_ns.append(dt)
                try:
                    fails = check_one(sc, report, certification, oracle, first)
                except Exception as exc:  # a check that cannot run has failed
                    fails = [f"check raised {type(exc).__name__}: {exc}"]
                if fails:
                    failed += 1
                    correct = False
                    messages += [f"{sc.name}: {f}" for f in fails]
            pass_ns.append(this_pass)
            pass_decided.append(decided)
            pass_snaps.append(tracing.delta(tracer.snapshot(), before))
            timed_ns += this_pass
            first = False
            if timed_ns - sampled_ns >= SETUP_EVERY_S * 1e9:
                sample_setup()
                sampled_ns = timed_ns
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    setup_s = (statistics.median(import_ns) + statistics.median(prep_ns)) / 1e9
    done = [sc for sc in items if sc.times_ns]
    throughput = [n / (ns / 1e9) for n, ns in zip(pass_decided, pass_ns)]
    e2e = {
        "setup_s": setup_s,
        "scenarios_per_s": statistics.median(throughput) if throughput else 0.0,
        "scenario_p50_s": (statistics.median(statistics.median(sc.times_ns) for sc in done) / 1e9
                           if done else 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    layer = {}
    if args.trace:
        for metric, unit, span, field in tracing.per_layer_metrics():
            snaps = setup_snaps if span.startswith("config.") else pass_snaps
            vals = [s.get(span, (0, 0, 0, 0))[field] for s in snaps]
            if unit == "s":
                value = statistics.median(vals) / 1e9
            else:
                value = vals[0]
            layer[metric] = {"value": value, "unit": unit}

    metrics = layer if args.trace else {
        name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END
    }
    info = machine_info()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": info,
        "pass_s": [ns / 1e9 for ns in pass_ns],
        "setup_import_s": [ns / 1e9 for ns in import_ns],
        "setup_prepare_s": [ns / 1e9 for ns in prep_ns],
        "end_to_end": e2e,
        "per_layer": layer,
        "scenario_median_s": {sc.name: statistics.median(sc.times_ns) / 1e9 for sc in done},
        "messages": messages,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    for m in messages:
        print(f"FAIL {m}")
    print(f"machine: {json.dumps(info, sort_keys=True)}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(pass_ns)} passes of "
          f"{len(items)} scenarios, {e2e['scenarios_per_s']:.4f} scenarios/s"
          + (" (traced)" if args.trace else ""))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
