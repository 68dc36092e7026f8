import dataclasses
import hashlib
import importlib.util
import json
import math
from pathlib import Path

import pytest

from wcodyn import cli, config
from wcodyn.cli import (
    EXIT_CERT_FAILED,
    EXIT_ERROR,
    EXIT_FOUND,
    EXIT_NO_WITNESS,
    bundled_names,
    emit_curves,
    load_bundled,
    main,
    run_scenario,
)
from wcodyn.config import ConfigError, ScenarioConfig, load_config, parse_config
from wcodyn.criteria import DisjointSystem, OperatorFamily, Scenario
from wcodyn.operators import WeightedCompositionOperator
from wcodyn.witness import WitnessAudit


TRANSITIVE_DOC = {
    "name": "tiny-decay",
    "mode": "transitive",
    "domain": {"dimension": 1, "scale": 1.0},
    "norm": {"kind": "ell_p", "p": 1},
    "eta": {"kind": "radial_power", "p": 1},
    "operator": {"map": {"offset": [-1]}, "symbol": {"kind": "constant", "value": 1.0}},
    "K": {"box": [[-2, 2]]},
    "region": {"box": [[-4, 4]]},
    "horizon": 3000,
    "tol": 0.01,
}


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_bundled_registry_complete():
    names = bundled_names()
    for expected in (
        "decaying-weight-shift",
        "unweighted-shift",
        "growing-symbol-shift",
        "steeper-decay-shift",
        "orlicz-decaying-shift",
        "morrey-decaying-shift",
        "plane-decaying-shift",
        "disjoint-decaying-shifts",
        "disjoint-growing-symbol",
        "semi-shift-family",
    ):
        assert expected in names


def test_witness_scenario_exits_zero(tmp_path, capsys):
    path = write_config(tmp_path, TRANSITIVE_DOC)
    rc = main([str(path), "--out", str(tmp_path / "out")])
    assert rc == EXIT_FOUND
    out = capsys.readouterr().out
    assert "WitnessFound" in out
    report = json.loads((tmp_path / "out" / "tiny-decay.report.json").read_text())
    assert report["verdict"] == "WitnessFound"
    assert report["exit_status"] == EXIT_FOUND
    assert report["witness_certification"]["ok"] is True


def test_no_witness_scenario_exits_two(tmp_path):
    doc = dict(TRANSITIVE_DOC, name="tiny-flat", eta={"kind": "constant", "value": 1.0}, horizon=400)
    rc = main([str(write_config(tmp_path, doc))])
    assert rc == EXIT_NO_WITNESS


def test_bad_morrey_parameters_exit_one(tmp_path, capsys):
    doc = dict(TRANSITIVE_DOC, norm={"kind": "morrey", "p": 2, "q": 2, "max_radius": 5})
    rc = main([str(write_config(tmp_path, doc))])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert "norm" in err and "q" in err


def test_diagnostics_name_missing_field():
    with pytest.raises(ConfigError, match="mode"):
        parse_config({"name": "x"})
    with pytest.raises(ConfigError, match="operator"):
        parse_config({k: v for k, v in TRANSITIVE_DOC.items() if k != "operator"})
    with pytest.raises(ConfigError, match="horizon"):
        parse_config({k: v for k, v in TRANSITIVE_DOC.items() if k != "horizon"})


def test_unattainable_separation_exits_one(tmp_path, capsys):
    # an identity component can never separate the images, which is a
    # validation error rather than a no-witness verdict
    doc = {
        "name": "stuck",
        "mode": "disjoint",
        "domain": {"dimension": 1, "scale": 1.0},
        "norm": {"kind": "ell_p", "p": 1},
        "eta": {"kind": "radial_power", "p": 1},
        "operators": [
            {"map": {"offset": [0]}, "symbol": {"kind": "constant", "value": 1.0}},
            {"map": {"offset": [-2]}, "symbol": {"kind": "constant", "value": 1.0}},
        ],
        "powers": [1, 2],
        "K": {"box": [[-2, 2]]},
        "horizon": 60,
        "tol": 0.01,
    }
    rc = main([str(write_config(tmp_path, doc))])
    assert rc == EXIT_ERROR
    assert "separate" in capsys.readouterr().err


def test_vanishing_eta_in_semi_mode_names_a_point(tmp_path, capsys):
    # |x|**-400 underflows to 0.0 from |x| = 7 on; the error names where
    doc = dict(
        cli._bundled_doc("semi-shift-family"),
        eta={"kind": "radial_power", "p": 400},
        K={"box": [[-12, 12]]},
        region={"box": [[-14, 14]]},
    )
    assert main([str(write_config(tmp_path, doc))]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "non-positive on the region at (-12,) and 11 more points" in err


def test_unknown_bundled_name_exits_one(capsys):
    rc = main(["no-such-scenario"])
    assert rc == EXIT_ERROR
    assert "no bundled scenario" in capsys.readouterr().err


def test_list_prints_bundled(capsys):
    rc = main(["--list"])
    assert rc == EXIT_FOUND
    assert "decaying-weight-shift" in capsys.readouterr().out


def test_reports_are_byte_identical(tmp_path):
    cfg = load_config(write_config(tmp_path, TRANSITIVE_DOC))
    run_scenario(cfg, out_dir=tmp_path / "a")
    run_scenario(cfg, out_dir=tmp_path / "b")
    for suffix in ("report.json", "curves.csv"):
        a = (tmp_path / "a" / f"tiny-decay.{suffix}").read_bytes()
        b = (tmp_path / "b" / f"tiny-decay.{suffix}").read_bytes()
        assert a == b


def test_transitive_curves_schema(tmp_path):
    cfg = load_config(write_config(tmp_path, TRANSITIVE_DOC))
    _, report, _ = run_scenario(cfg)
    path = emit_curves(report, tmp_path / "c.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "k,n_k,sup_forward,sup_backward,chi_residual"
    first = lines[1].split(",")
    assert int(first[0]) == 1
    # 17 significant digits round-trip bit-stably
    assert float(first[2]) == report.stages[0].sup_forward


def test_disjoint_curves_schema(tmp_path):
    cfg = load_bundled("disjoint-decaying-shifts")
    doc = dict(cfg.raw, horizon=2000, tol=0.01)
    cfg = parse_config(doc)
    _, report, status = run_scenario(cfg)
    assert status == EXIT_FOUND
    lines = emit_curves(report, tmp_path / "d.csv").read_text().splitlines()
    assert lines[0] == (
        "k,n_k,sup_forward,sup_backward,gamma_max_s1_l2,gamma_max_s2_l1,chi_residual"
    )


def test_semi_curves_schema(tmp_path):
    cfg = load_bundled("semi-shift-family")
    _, report, status = run_scenario(cfg)
    assert status == EXIT_FOUND
    lines = emit_curves(report, tmp_path / "s.csv").read_text().splitlines()
    assert lines[0] == "t,pass_chi,pass_product,pass_cross,lambda_t"
    row11 = [l for l in lines[1:] if l.startswith("11,")][0]
    assert row11.split(",")[1:4] == ["1", "1", "1"]


def test_horizon_and_tol_overrides(tmp_path):
    cfg = load_config(write_config(tmp_path, TRANSITIVE_DOC))
    _, report, _ = run_scenario(cfg, horizon=50, tol=0.5)
    assert report.horizon == 50 and report.tol == 0.5


@pytest.mark.parametrize(
    "argv",
    [
        ["decaying-weight-shift", "--horizon", "0"],
        ["decaying-weight-shift", "--tol", "0"],
        ["semi-shift-family", "--epsilon", "0"],
        ["semi-shift-family", "--horizon", "0"],
        ["semi-shift-family", "--tol", "5"],
        ["decaying-weight-shift", "--epsilon", "7"],
    ],
)
def test_zero_overrides_are_not_ignored(argv, capsys):
    assert main(argv) == EXIT_ERROR
    assert "must" in capsys.readouterr().err


def test_failed_certification_exits_three(tmp_path, monkeypatch, capsys):
    failed = WitnessAudit(ok=False, stages=[])
    monkeypatch.setattr(cli, "verify_report", lambda system, report: failed)
    rc = main([str(write_config(tmp_path, TRANSITIVE_DOC)), "--out", str(tmp_path / "out")])
    assert rc == EXIT_CERT_FAILED == 3
    assert "FAILED" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "tiny-decay.report.json").read_text())
    assert report["verdict"] == "WitnessFound"
    assert report["exit_status"] == EXIT_CERT_FAILED


# sha256 of every bundled scenario's report and curves: a change to the scan
# must keep these bytes, or explain the drift.  The floats come from numpy's
# float64 log/exp kernels (recorded with numpy 2.4 on x86-64).
GOLDEN_SHA256 = {
    ("decaying-weight-shift", "report.json"): "399c5f565e6e18200b5fa6d40f91f25469f773faeabe769d434338c6ce9ca76c",
    ("decaying-weight-shift", "curves.csv"): "479120ed3e71032ea62084cbeed77bb3df2fa152d9a061c7302ab26a4b6206d1",
    ("disjoint-decaying-shifts", "report.json"): "0e2185327032306294d3e9026ec0150924126d66c46d8d64ee5e1cdaaf74e9b1",
    ("disjoint-decaying-shifts", "curves.csv"): "464b6c767f50a0d537c7202d2f2eb8c955ab7591e311154c1e8ed01d1fc0f6f5",
    ("disjoint-growing-symbol", "report.json"): "0b6a43d1199b93399713b6da8a5bb95f96515a3872fef5bf1e751365bf3a8cb4",
    ("disjoint-growing-symbol", "curves.csv"): "ed36f2e47d0c4ff0b803265f0f352a3a27ac89d0fed84b53fadcf2795f5b1b65",
    ("growing-symbol-shift", "report.json"): "d40b1069e8a28df185357a850e0291094b3b0e75bed3ad5b8b2157305d942025",
    ("growing-symbol-shift", "curves.csv"): "5e1310a05fd01821d3d2620c4d12fd2175ff9273b2d8685465b1453c1f6d95ed",
    ("morrey-decaying-shift", "report.json"): "f11bc220048a98e40995f3a52a28de26614c8a6e06e71703d5cfefebd7164d87",
    ("morrey-decaying-shift", "curves.csv"): "76d243f33c42c4d3362f672c4086f8ab9c87c7264753cb03b247dac3d34087bf",
    ("orlicz-decaying-shift", "report.json"): "9912040239a16100cf9d77654104cb7f8b445dd67209f2753b5dd910e8e01e42",
    ("orlicz-decaying-shift", "curves.csv"): "cccb01e63b07a49c2cbe0629bb647b1f14d711c85c672a191b740cc388525720",
    ("plane-decaying-shift", "report.json"): "378f5f6b4b33df92c61b5f4c1d54fd62a9e592457547247f7ba1ddb4a5409cc6",
    ("plane-decaying-shift", "curves.csv"): "ca2edbe849ea54c4d30e0b6ea16ebcfac0f1d0ee31c495dbfd1629009690acd9",
    ("semi-shift-family", "report.json"): "48e04911a62d2ea8ff68f671d43939d1daa217b4c4933e8fa00a14d0c037948e",
    ("semi-shift-family", "curves.csv"): "231774ec95de50cde16f71ee0a954fa37a39d2654afae3e141c311699183adf2",
    ("steeper-decay-shift", "report.json"): "7d0af4075661418da00b948349ce0d842cdf4eef7408725f8423aef1a39aba26",
    ("steeper-decay-shift", "curves.csv"): "65308056a53722ae7b19e76038b757df93e30dbd69124a2462f29706f540e519",
    ("unweighted-shift", "report.json"): "e834a8fe37fe698e94399584ba3e2ce3f8b284a42144bdfc3af2001b62f00030",
    ("unweighted-shift", "curves.csv"): "5e1310a05fd01821d3d2620c4d12fd2175ff9273b2d8685465b1453c1f6d95ed",
}


@pytest.mark.parametrize("name", sorted({name for name, _ in GOLDEN_SHA256}))
def test_bundled_outputs_match_golden_hashes(name, tmp_path):
    run_scenario(load_bundled(name), out_dir=tmp_path)
    for suffix in ("report.json", "curves.csv"):
        digest = hashlib.sha256((tmp_path / f"{name}.{suffix}").read_bytes()).hexdigest()
        assert digest == GOLDEN_SHA256[(name, suffix)], f"{name}.{suffix}"



def _bundled_doc(name):
    from importlib import resources

    return json.loads(resources.files("wcodyn").joinpath("scenarios", f"{name}.json").read_text())


def _bench_checks():
    """The benchmark's checks (``bench/checks.py``), loaded from their file."""
    path = Path(__file__).resolve().parents[1] / "bench" / "checks.py"
    spec = importlib.util.spec_from_file_location("wcodyn_bench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bundled_unit_shift_verdicts_agree_with_salas_closed_form():
    # For a 1-D unit shift x -> x + b with constant symbol c, the criterion
    # quantities are eta(x + n b) c^-n and eta(x - n b) c^n (Salas'
    # characterisation of transitive bilateral weighted shifts); the
    # prediction reads only the scenario document and is decided when their
    # minimax over n falls to tol / 2 or stays above tol.
    checks = _bench_checks()
    decided = {}
    for name in bundled_names():
        doc = _bundled_doc(name)
        if checks.salas_prediction(doc) in (None, "undecided"):
            continue
        _, report, _ = run_scenario(load_bundled(name))
        assert checks.salas(doc, report) == [], name
        decided[name] = report.verdict
    assert decided == {
        "decaying-weight-shift": "WitnessFound",
        "steeper-decay-shift": "WitnessFound",
        "morrey-decaying-shift": "WitnessFound",
        "orlicz-decaying-shift": "WitnessFound",
        "unweighted-shift": "NoWitnessUpToHorizon",
        "growing-symbol-shift": "NoWitnessUpToHorizon",
    }


def test_default_region_dilates_K():
    doc = {k: v for k, v in TRANSITIVE_DOC.items() if k != "region"}
    cfg = parse_config(doc)
    assert (3,) in cfg.region and (-3,) in cfg.region


def test_table_weight_from_csv(tmp_path):
    rows = ["x,value"] + [f"{x},{1.0 + abs(x)}" for x in range(-30, 31)]
    (tmp_path / "eta.csv").write_text("\n".join(rows) + "\n")
    doc = dict(
        TRANSITIVE_DOC,
        name="csv-table",
        eta={"kind": "table", "csv": "eta.csv", "default": 1.0},
        horizon=20,
        tol=0.5,
    )
    cfg = load_config(write_config(tmp_path, doc))
    assert cfg.eta.value_at((3,)) == 4.0
    assert cfg.eta.value_at((999,)) == 1.0  # default off the table


def test_inline_table_product_and_exp_young_parse():
    doc = dict(
        TRANSITIVE_DOC,
        name="kinds",
        norm={"kind": "orlicz", "young": {"kind": "exp"}, "tol": 1e-10},
        eta={
            "kind": "product",
            "factors": [
                {"kind": "constant", "value": 2.0},
                {"kind": "table", "values": [[0, 1.0], [1, 0.5]], "default": 0.25},
            ],
        },
        horizon=10,
        tol=0.5,
    )
    cfg = parse_config(doc)
    assert cfg.eta.value_at((1,)) == pytest.approx(1.0)
    assert cfg.eta.value_at((7,)) == pytest.approx(0.5)  # default path
    assert cfg.norm.young.inverse_at_one() == pytest.approx(math.log(2.0))


def test_lattice_scale_reaches_weights():
    doc = dict(TRANSITIVE_DOC, domain={"dimension": 1, "scale": 0.5})
    cfg = parse_config(doc)
    assert cfg.eta.value_at((4,)) == pytest.approx(0.5)  # real coordinate 2.0


def test_morrey_shear_warning():
    doc = dict(
        TRANSITIVE_DOC,
        name="shear",
        domain={"dimension": 2, "scale": 1.0},
        norm={"kind": "morrey", "p": 2, "q": 1, "max_radius": 3},
        operator={
            "map": {"linear": [[1, 1], [0, 1]], "offset": [-1, 0]},
            "symbol": {"kind": "constant", "value": 1.0},
        },
        K={"box": [[-1, 1], [-1, 1]]},
        region={"box": [[-3, 3], [-3, 3]]},
        horizon=10,
        tol=0.5,
    )
    cfg = parse_config(doc)
    assert any("signed permutation" in w for w in cfg.warnings())


DISJOINT_DOC = _bundled_doc("disjoint-decaying-shifts")
SEMI_DOC = _bundled_doc("semi-shift-family")


@pytest.mark.parametrize(
    "doc, field",
    [
        (dict(DISJOINT_DOC, powers=3), "powers"),
        (dict(DISJOINT_DOC, powers=[2, 1]), "powers"),
        (dict(DISJOINT_DOC, powers=[0, 1]), "powers"),
        (dict(SEMI_DOC, index_range=5), "index_range"),
        (dict(SEMI_DOC, family=dict(SEMI_DOC["family"], direction=-1)), "family.direction"),
        (dict(TRANSITIVE_DOC, operator=dict(TRANSITIVE_DOC["operator"], map={"offset": -1})),
         "operator.map.offset"),
        (dict(TRANSITIVE_DOC, K={"box": [[-5]]}), "K.box"),
        (dict(TRANSITIVE_DOC, domain=[1]), "domain"),
    ],
)
def test_malformed_fields_are_config_errors(doc, field, tmp_path, capsys):
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert exc.value.field == field
    assert main([str(write_config(tmp_path, doc))]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"wcodyn: error: {field}: ") and "Traceback" not in err


@pytest.mark.parametrize("source", ["values", "csv"])
def test_table_rows_must_match_the_dimension(source, tmp_path, capsys):
    # a 2-D table with a default in a 1-D scenario would otherwise run with
    # the default everywhere
    rows = [[x, y, 1.0] for x in range(-3, 4) for y in range(-3, 4)]
    (tmp_path / "eta.csv").write_text("".join(f"{x},{y},{v}\n" for x, y, v in rows))
    table = {"values": rows} if source == "values" else {"csv": "eta.csv"}
    path = write_config(tmp_path, dict(TRANSITIVE_DOC, eta=dict(kind="table", default=0.5, **table)))
    field = "eta.values[0]" if source == "values" else "eta.csv row 1"
    with pytest.raises(ConfigError, match="expected 1 coordinates") as exc:
        load_config(path)
    assert exc.value.field == field
    assert main([str(path)]) == EXIT_ERROR
    assert f"wcodyn: error: {field}: " in capsys.readouterr().err


@pytest.mark.parametrize("source", ["values", "csv"])
@pytest.mark.parametrize(
    "rows, field, message",
    [
        ([[1.5, 2.0], [2, 3.0]], 0, "expected an integer, got 1.5"),
        ([[1, 2.0], [0, 1.0], [1, 3.0]], 2, r"repeats the point \(1,\)"),
    ],
)
def test_table_points_are_integral_and_distinct(source, rows, field, message, tmp_path, capsys):
    # a coordinate 1.5 was truncated to 1, and a repeated point overwrote
    # the earlier row
    (tmp_path / "eta.csv").write_text("x,value\n" + "".join(f"{x},{v}\n" for x, v in rows))
    table = {"values": rows} if source == "values" else {"csv": "eta.csv"}
    path = write_config(tmp_path, dict(TRANSITIVE_DOC, eta=dict(kind="table", default=0.5, **table)))
    field = f"eta.values[{field}]" if source == "values" else f"eta.csv row {field + 2}"
    with pytest.raises(ConfigError, match=message) as exc:
        load_config(path)
    assert exc.value.field == field
    assert main([str(path)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"wcodyn: error: {field}: ") and "Traceback" not in err


def test_csv_coordinates_may_be_written_as_integral_floats(tmp_path):
    (tmp_path / "eta.csv").write_text("-1.0,0.5\n0,1\n1e0,0.25\n")
    doc = dict(TRANSITIVE_DOC, eta={"kind": "table", "csv": "eta.csv", "default": 1.0})
    eta = load_config(write_config(tmp_path, doc)).eta
    assert [eta.value_at((x,)) for x in (-1, 0, 1)] == [0.5, 1.0, 0.25]


@pytest.mark.parametrize("name", ["../x", "sub/x", "sub\\x", ".", "..", "", 7])
def test_name_must_be_one_file_name(name, tmp_path, capsys, monkeypatch):
    doc = dict(TRANSITIVE_DOC, name=name, horizon=50)
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert exc.value.field == "name"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in").mkdir()
    assert main([str(write_config(tmp_path / "in", doc)), "--out", "out"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("wcodyn: error: name: ") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in"]


def test_unwritable_outputs_exit_1(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["decaying-weight-shift", "--horizon", "50", "--out", str(blocker)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("wcodyn: error: ") and str(blocker) in err and "Traceback" not in err


def test_non_utf8_config_exits_1(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff\xfe\x00bad")
    assert main([str(path)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("wcodyn: error: ") and str(path) in err and "UTF-8" in err
    assert not err.startswith("wcodyn: error: :")


def test_invalid_json_config_exits_1(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{")
    assert main([str(path)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("wcodyn: error: invalid JSON:")


def test_non_utf8_weight_table_exits_1(tmp_path, capsys):
    (tmp_path / "eta.csv").write_bytes(b"\xff\xfe\x00bad\n0,1.0\n")
    doc = dict(TRANSITIVE_DOC, eta={"kind": "table", "csv": "eta.csv", "default": 1.0})
    assert main([str(write_config(tmp_path, doc))]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("wcodyn: error: eta.csv: ") and "utf-8" in err


def test_K_beyond_int64_exits_1(tmp_path, capsys):
    doc = dict(TRANSITIVE_DOC, K={"box": [[2**63, 2**63 + 2]]}, horizon=50)
    doc.pop("region")
    assert main([str(write_config(tmp_path, doc))]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("wcodyn: error: ") and "int64" in err


def test_mode_override_keeps_the_config_directory(tmp_path, monkeypatch):
    # the CSV weight sits next to the config; run from elsewhere with the
    # mode switched, parsing the document once
    (tmp_path / "cfg").mkdir()
    rows = "".join(f"{x},{1.0 / max(1, abs(x))}\n" for x in range(-200, 201))
    (tmp_path / "cfg" / "eta.csv").write_text(rows)
    doc = dict(TRANSITIVE_DOC, **{k: SEMI_DOC[k] for k in ("family", "n_ops", "index_range", "epsilon")})
    doc.update(name="csv-semi", eta={"kind": "table", "csv": "eta.csv", "default": 0.001})
    path = write_config(tmp_path / "cfg", doc)
    write_config(tmp_path / "cfg", dict(doc, mode="semi"), name="direct.json")
    monkeypatch.chdir(tmp_path)
    assert main([str(path.parent / "direct.json"), "--out", "a"]) == EXIT_FOUND

    calls = []

    def counting(*args, _parse=parse_config, **kwargs):
        calls.append(args)
        return _parse(*args, **kwargs)

    monkeypatch.setattr(cli, "parse_config", counting)
    monkeypatch.setattr(config, "parse_config", counting)
    assert main([str(path), "--mode", "semi", "--out", "b"]) == EXIT_FOUND
    assert len(calls) == 1
    for suffix in ("report.json", "curves.csv"):
        name = f"csv-semi.{suffix}"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_parse_builds_the_system_and_run_builds_nothing(monkeypatch):
    gone = {"dimension", "scale", "operators", "powers", "n_ops", "family_direction",
            "family_symbol", "index_range"}
    assert gone.isdisjoint(f.name for f in dataclasses.fields(ScenarioConfig))
    names = ("decaying-weight-shift", "disjoint-decaying-shifts", "semi-shift-family")
    cfgs = [load_bundled(name) for name in names]
    for cfg, cls in zip(cfgs, (Scenario, DisjointSystem, OperatorFamily)):
        assert isinstance(cfg.system, cls) and cfg.build() is cfg.system
    built = []
    for cls in (WeightedCompositionOperator, Scenario, DisjointSystem, OperatorFamily):
        def counting(self, _init=cls.__post_init__):
            built.append(type(self).__name__)
            _init(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    for cfg in cfgs:
        run_scenario(cfg)
    assert built == []


def _cat_map_doc(box, horizon):
    # plane-decaying-shift under the hyperbolic cat map [[2,1],[1,1]] + (1, 0),
    # whose int64 orbit leaves the range apply_many keeps to near n = 45
    doc = dict(_bundled_doc("plane-decaying-shift"), name="cat-map", horizon=horizon)
    doc["operator"] = dict(doc["operator"], map={"linear": [[2, 1], [1, 1]], "offset": [1, 0]})
    doc["K"] = {"box": [box, box]}
    return doc


@pytest.mark.parametrize("horizon", [40, 100])
def test_cat_map_witness_found_before_the_int64_edge(horizon, tmp_path, capsys):
    doc = _cat_map_doc([1, 2], horizon)
    assert main([str(write_config(tmp_path, doc))]) == EXIT_FOUND
    assert "WitnessFound" in capsys.readouterr().out


def test_cat_map_no_witness_just_short_of_the_int64_edge(tmp_path):
    doc = _cat_map_doc([-3, 3], 43)
    assert main([str(write_config(tmp_path, doc))]) == EXIT_NO_WITNESS


def test_cat_map_scan_past_the_int64_edge_exits_1(tmp_path, capsys):
    doc = _cat_map_doc([-3, 3], 44)
    assert main([str(write_config(tmp_path, doc))]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("wcodyn: error: ") and "coordinate range exceeded" in err


@pytest.mark.parametrize(
    "name, records", [("decaying-weight-shift", "stages"), ("semi-shift-family", "rows")]
)
def test_verbose_prints_one_line_per_stage_or_row(name, records, capsys):
    _, report, status = run_scenario(load_bundled(name))
    assert main([name, "-v"]) == status
    got = [line for line in capsys.readouterr().out.splitlines() if line.startswith("    ")]
    want = getattr(report, records)
    assert want and got == [f"    {r.to_dict()}" for r in want]
