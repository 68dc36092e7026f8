"""Each benchmark check passes on a real result and fails on a corrupted one.

Run with ``python3 -m pytest bench/tests`` from the root of the repository.
"""

import copy
import shutil
import subprocess
import sys

import pytest

import checks
import workloads
from conftest import BENCH
from wcodyn.config import parse_config
from wcodyn.domain import AffineLatticeMap
from wcodyn.criteria import (
    NO_WITNESS,
    WITNESS_FOUND,
    check_disjoint_transitivity,
    check_transitivity,
)
from wcodyn.witness import OracleResult


def shift_doc(offset=(-1,), linear=None, eta=None, symbol=1.0, K=((-3, 3),),
              horizon=400, tol=0.01):
    mp = {"offset": list(offset)}
    if linear is not None:
        mp["linear"] = linear
    return {
        "name": "t",
        "mode": "transitive",
        "domain": {"dimension": len(offset), "scale": 1.0},
        "norm": {"kind": "ell_p", "p": 1},
        "eta": eta or {"kind": "radial_power", "p": 1},
        "operator": {"map": mp, "symbol": {"kind": "constant", "value": symbol}},
        "K": {"box": [list(b) for b in K]},
        "horizon": horizon,
        "tol": tol,
    }


def disjoint_doc(maps, K, horizon=300, tol=0.01):
    return {
        "name": "d",
        "mode": "disjoint",
        "domain": {"dimension": len(K), "scale": 1.0},
        "norm": {"kind": "ell_p", "p": 1},
        "eta": {"kind": "radial_power", "p": 1},
        "operators": [{"map": m, "symbol": {"kind": "constant", "value": 1.0}} for m in maps],
        "powers": [1, 2],
        "K": {"box": [list(b) for b in K]},
        "horizon": horizon,
        "tol": tol,
    }


def run(doc):
    cfg = parse_config(doc)
    system = cfg.build()
    check = check_transitivity if cfg.mode == "transitive" else check_disjoint_transitivity
    return system, check(system, cfg.K, cfg.horizon, cfg.tol)


@pytest.fixture(scope="module")
def shift():
    return run(shift_doc())


@pytest.fixture(scope="module")
def glide():
    return run(shift_doc(offset=(1, 0), linear=[[1, 0], [0, -1]], K=((-1, 1), (-1, 1)),
                         horizon=60, tol=1e-9))


@pytest.fixture(scope="module")
def disjoint():
    return run(disjoint_doc([{"offset": [-1]}, {"offset": [1]}], [(-2, 2)]))


@pytest.fixture(scope="module")
def disjoint_glide():
    maps = [{"linear": [[1, 0], [0, -1]], "offset": [1, 0]},
            {"linear": [[1, 0], [0, -1]], "offset": [-1, 1]}]
    return run(disjoint_doc(maps, [(-1, 1), (-1, 1)], horizon=60, tol=1e-9))


def test_results_used_below_are_real(shift, disjoint):
    assert shift[1].verdict == WITNESS_FOUND and shift[1].stages
    assert disjoint[1].verdict == WITNESS_FOUND and disjoint[1].stages


@pytest.mark.parametrize("field", ["sup_forward", "sup_backward"])
def test_sup_terms_catch_a_changed_transitive_sup(shift, field):
    system, report = shift
    assert checks.sup_terms(system, report) == []
    bad = copy.deepcopy(report)
    st = bad.stages[len(bad.stages) // 2]
    setattr(st, field, getattr(st, field) * (1 + 1e-9))
    assert checks.sup_terms(system, bad)


def test_sup_terms_catch_a_changed_disjoint_sup_and_gamma(disjoint):
    system, report = disjoint
    assert checks.sup_terms(system, report) == []
    bad = copy.deepcopy(report)
    st = bad.stages[-1]
    st.sup_backward = (st.sup_backward[0], st.sup_backward[1] * (1 + 1e-9))
    assert checks.sup_terms(system, bad)
    bad = copy.deepcopy(report)
    pair = next(iter(bad.stages[-1].gamma))
    bad.stages[-1].gamma[pair] *= 1 - 1e-9
    assert checks.sup_terms(system, bad)


def test_sup_terms_catch_a_changed_admissible_set(shift):
    system, report = shift
    bad = copy.deepcopy(report)
    st = next(s for s in bad.stages if len(s.admissible) < len(report.K))
    st.admissible = tuple(report.K)
    assert checks.sup_terms(system, bad)


def walk(doc, report, system=None):
    cfg = parse_config(doc)
    system = system or cfg.build()
    return checks.scan(system, cfg.K.sorted_points(), cfg.horizon, cfg.tol, report)


GLIDE_DOC = shift_doc(offset=(1, 0), linear=[[1, 0], [0, -1]], K=((-1, 1), (-1, 1)),
                      horizon=60, tol=1e-9)
DISJOINT_DOC = disjoint_doc([{"offset": [-1]}, {"offset": [1]}], [(-2, 2)])
NO_WITNESS_DOC = shift_doc(symbol=1.001, horizon=300, tol=1e-12)


@pytest.mark.parametrize("doc", [shift_doc(), GLIDE_DOC, DISJOINT_DOC, NO_WITNESS_DOC])
def test_scan_walk_accepts_real_reports_and_counts_iterates(doc):
    _, report = run(doc)
    fails, iterates = walk(doc, report)
    assert fails == []
    want = report.horizon if report.verdict == NO_WITNESS else report.stages[-1].n
    assert iterates == want
    assert report.stages, "the corruptions below need accepted stages"


@pytest.mark.parametrize("doc", [shift_doc(), DISJOINT_DOC, NO_WITNESS_DOC])
def test_scan_walk_catches_a_truncated_scan(doc):
    # A scanner that stops halfway through its scan but reports the full horizon.
    _, full = run(doc)
    _, stop = walk(doc, full)
    _, bad = run(dict(doc, horizon=stop // 2))
    bad.horizon = full.horizon
    assert bad.to_dict() != full.to_dict()
    assert walk(doc, bad)[0]
    bad = copy.deepcopy(full)
    bad.probes = bad.probes[:-1]  # the probe at the horizon (or the last stage) is gone
    assert walk(doc, bad)[0]


@pytest.mark.parametrize("doc", [shift_doc(), DISJOINT_DOC, NO_WITNESS_DOC])
def test_scan_walk_catches_a_late_or_early_stage(doc):
    _, report = run(doc)
    for i, st in enumerate(report.stages):
        later = report.stages[i + 1].n if i + 1 < len(report.stages) else report.horizon + 1
        if st.n + 1 < later:
            bad = copy.deepcopy(report)
            bad.stages[i].n += 1  # accepted one iterate late
            assert walk(doc, bad)[0], f"late stage {st.k} passed"
        earlier = report.stages[i - 1].n if i else 0
        if st.n - 1 > earlier:
            bad = copy.deepcopy(report)
            bad.stages[i].n -= 1  # accepted one iterate early
            assert walk(doc, bad)[0], f"early stage {st.k} passed"


def test_scan_walk_catches_a_changed_stage_verdict_or_probe(shift):
    system, report = shift
    doc = shift_doc()
    st = next(i for i, s in enumerate(report.stages) if len(s.admissible) > 1)
    bad = copy.deepcopy(report)
    bad.stages[st].admissible = bad.stages[st].admissible[1:]
    assert walk(doc, bad, system)[0]
    bad = copy.deepcopy(report)
    bad.stages[st].k += 1
    assert walk(doc, bad, system)[0]
    bad = copy.deepcopy(report)
    bad.stages = bad.stages[:-1]
    assert walk(doc, bad, system)[0]
    bad = copy.deepcopy(report)
    bad.verdict = NO_WITNESS
    assert walk(doc, bad, system)[0]
    bad = copy.deepcopy(report)
    bad.probes[0].sup_backward *= 1 + 1e-9
    assert walk(doc, bad, system)[0]
    bad = copy.deepcopy(report)
    bad.m_K *= 2
    assert walk(doc, bad, system)[0]


def test_scan_walk_catches_a_stage_past_the_witness(shift):
    system, report = shift
    bad = copy.deepcopy(report)
    extra = copy.deepcopy(bad.stages[-1])
    extra.k, extra.n = extra.k + 1, extra.n + 1
    bad.stages.append(extra)
    assert walk(shift_doc(), bad, system)[0]


@pytest.mark.parametrize("case", ["shift", "glide"])
def test_bounds_catch_a_changed_aperiodicity_bound(case, request):
    system, report = request.getfixturevalue(case)
    assert checks.bounds(system, report) == []
    for wrong in (report.aperiodicity_N + 1, report.aperiodicity_N - 1, None):
        bad = copy.deepcopy(report)
        bad.aperiodicity_N = wrong
        assert checks.bounds(system, bad)


@pytest.mark.parametrize("case", ["disjoint", "disjoint_glide"])
def test_bounds_catch_a_changed_separation_bound(case, request):
    system, report = request.getfixturevalue(case)
    assert checks.bounds(system, report) == []
    for wrong in (report.separation_bound + 1, report.separation_bound - 1):
        bad = copy.deepcopy(report)
        bad.separation_bound = wrong
        assert checks.bounds(system, bad)


def test_closed_form_bound_matches_hand_count():
    K = [(x,) for x in range(-2, 3)]  # K - K = {-4, ..., 4}
    assert checks.expected_aperiodicity(AffineLatticeMap.translation((3,)), K, 50) == 2
    assert checks.expected_aperiodicity(AffineLatticeMap.translation((1,)), K, 50) == 5
    assert checks.expected_aperiodicity(AffineLatticeMap.translation((0,)), K, 5) is None
    assert checks.expected_aperiodicity(AffineLatticeMap.translation((1,)), K, 4) is None


@pytest.mark.parametrize("doc, verdict", [
    (shift_doc(), WITNESS_FOUND),
    (shift_doc(eta={"kind": "constant", "value": 1.0}), NO_WITNESS),
    (shift_doc(symbol=2.0), NO_WITNESS),
])
def test_salas_prediction_and_a_flipped_verdict(doc, verdict):
    _, report = run(doc)
    assert report.verdict == verdict
    assert checks.salas(doc, report) == []
    bad = copy.deepcopy(report)
    bad.verdict = NO_WITNESS if verdict == WITNESS_FOUND else WITNESS_FOUND
    assert checks.salas(doc, bad)


def test_salas_accepts_either_verdict_between_tol_and_half_tol():
    # M(n) = 1 / (n - 3) reaches 1/147 at the horizon 150: below tol = 0.01
    # but above tol / 2, where the prediction is undecided.
    doc = shift_doc(horizon=150, tol=0.01)
    assert checks.salas_prediction(doc) == "undecided"
    _, report = run(doc)
    for verdict in (WITNESS_FOUND, NO_WITNESS):
        bad = copy.deepcopy(report)
        bad.verdict = verdict
        assert checks.salas(doc, bad) == []


def test_salas_applies_only_to_unit_shifts_with_constant_symbols():
    assert checks.salas_prediction(shift_doc(offset=(2,))) is None
    assert checks.salas_prediction(shift_doc(offset=(1, 0), K=((-1, 1), (-1, 1)))) is None


def test_certification_and_oracle_catch_failures():
    assert checks.certification(WITNESS_FOUND, True) == []
    assert checks.certification(NO_WITNESS, None) == []
    assert checks.certification(WITNESS_FOUND, False)
    assert checks.certification(WITNESS_FOUND, None)
    good = OracleResult(True, None, 0.1, 0.1, "witness-guided")
    bad = OracleResult(False, None, 0.3, 0.3, "inconclusive")
    assert checks.oracle([good, good], 0.2) == []
    assert checks.oracle([good, bad], 0.2)


def test_same_bytes_catches_a_changed_report():
    assert checks.same_bytes("x", b'{"a": 1}', b'{"a": 1}') == []
    assert checks.same_bytes("x", b'{"a": 1}', b'{"a": 2}')


@pytest.mark.parametrize("seed", [1, 2, 1009])
def test_generated_scenarios_are_valid_and_decided(seed):
    for name in ("scan", "certify"):
        docs = workloads.workload_docs(name, seed)
        assert len({d["name"] for d in docs}) == len(docs)
        for doc in docs:
            parse_config(doc)
            assert checks.salas_prediction(doc) in (None, WITNESS_FOUND, NO_WITNESS)
    assert workloads.workload_docs("scan", seed) == workloads.workload_docs("scan", seed)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "results", "out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bundled", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_the_metrics_the_runs_print():
    import json

    import run
    import spans

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == spans.benchmark_entries()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
