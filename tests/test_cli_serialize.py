import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ptfwitness.circuits import mp
from ptfwitness.cli import main
from ptfwitness.core import FnTable, box
from ptfwitness.dual_or import build_psi
from ptfwitness.errors import PreconditionError
from ptfwitness.mixtures import ProductMixture
from ptfwitness.serialize import (
    circuit_from_json,
    dumps,
    matrix_from_csv,
    mixture_from_json,
    parse_frac,
    table_from_json,
)

F = Fraction


def test_table_roundtrip():
    t = FnTable(box([3]), {(0,): F(1, 3), (2,): F(-5, 7)})
    back = table_from_json(json.loads(dumps(t)))
    assert back == t


def test_rationals_never_floats():
    t = FnTable(box([2]), {(1,): F(1, 3)})
    text = dumps(t)
    assert "0.3" not in text and "1/3" in text
    with pytest.raises(PreconditionError):
        dumps(0.5)


def test_mixture_roundtrip():
    lam = FnTable(box([2]), {(0,): F(1, 2), (1,): F(1, 2)})
    mix = ProductMixture({"a": lam}, [(F(1, 2), ("a", "a")), (F(1, 2), ("a", "a"))])
    back = mixture_from_json(json.loads(dumps(mix)))
    assert back == mix and back.densify() == mix.densify()


def test_circuit_roundtrip():
    c = mp(2, 2)
    back = circuit_from_json(json.loads(dumps(c)))
    assert back == c and back.truth_table() == c.truth_table()


def test_certificate_serializes():
    _, cert = build_psi(4, 4, F(1, 3))
    text = dumps(cert)
    assert "orth_claimed" in text


def test_matrix_from_csv():
    m = matrix_from_csv("1, -1\n-1, 1\n")
    assert m == [[1, -1], [-1, 1]]


def test_cli_degthr_parity(capsys):
    code = main(["oracle", "degthr", "--fn", "parity", "--n", "3"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "3"


def test_cli_witness_dual_or(tmp_path, capsys):
    out = tmp_path / "w"
    code = main(["witness", "build", "dual-or", "--n", "16", "--eps", "1/3",
                 "--out", str(out)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert "psi.json" in manifest["artifacts"]
    psi = table_from_json(json.loads((out / "psi.json").read_text()))
    assert psi.l1() == 1


def test_cli_manifest_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["witness", "build", "mp", "--m", "1", "--r", "2",
                     "--out", str(out)]) == 0
    ma = json.loads((a / "manifest.json").read_text())["artifacts"]
    mb = json.loads((b / "manifest.json").read_text())["artifacts"]
    assert ma == mb


def test_cli_verify(tmp_path, capsys):
    out = tmp_path / "w"
    main(["witness", "build", "rs-smooth", "--m", "1", "--r", "2", "--out", str(out)])
    capsys.readouterr()
    code = main(["verify", str(out / "Lambda.json")])
    assert code == 0
    assert "distribution = True" in capsys.readouterr().out


def test_cli_verify_fails_unchecked_certificate(tmp_path, capsys):
    # the table parses and validates; its certificate has no re-check, so
    # verify must not report it as passed
    out = tmp_path / "psi"
    assert main(["witness", "build", "dual-or", "--n", "16", "--eps", "1/3",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out / "psi.json")]) == 0
    assert capsys.readouterr().out.startswith("PASS fntable")
    assert main(["verify", str(out / "psi.cert.json")]) == 1
    assert capsys.readouterr().err.strip() == \
        "FAIL no re-check for certificate type PsiCertificate"
    # a body or schema of the wrong JSON type fails too, without a traceback
    assert main(["verify", _raw_artifact(tmp_path, '{"schema": "certificate/1", "body": []}')]) == 1
    assert capsys.readouterr().err.strip() == "FAIL no re-check for certificate type unknown"
    assert main(["verify", _raw_artifact(tmp_path, '{"schema": 5}')]) == 1
    assert capsys.readouterr().err.strip() == "FAIL unknown artifact schema '5'"


def test_cli_verify_mixture(tmp_path, capsys):
    out = tmp_path / "mp"
    assert main(["witness", "build", "mp", "--m", "2", "--r", "3", "--out", str(out)]) == 0
    mix = mixture_from_json(json.loads((out / "Lambda0.json").read_text()))
    capsys.readouterr()
    assert main(["verify", str(out / "Lambda0.json")]) == 0
    assert capsys.readouterr().out.strip() == \
        f"PASS mixture: {len(mix.terms)} terms, {len(mix.factors)} factors"


def _mixture_artifact(tmp_path, edit):
    lam = FnTable(box([1]), {(0,): F(1, 3), (1,): F(2, 3)})
    data = json.loads(dumps(ProductMixture({"a": lam, "b": lam}, [(F(1), ("a", "b"))])))
    edit(data)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    return str(path)


def _table_artifact(tmp_path, edit):
    data = json.loads(dumps(FnTable(box([2]), {(0,): F(1, 2), (2,): F(-1, 2)})))
    edit(data)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(data))
    return str(path)


def _set_value(v):
    def edit(d):
        d["entries"][0][1] = v
    return edit


def test_cli_verify_reads_decimal_strings_exactly(tmp_path, capsys):
    assert parse_frac("0.5") == parse_frac("1/2") == F(1, 2)
    assert main(["verify", _table_artifact(tmp_path, _set_value("0.5"))]) == 0
    assert "l1 = 1/1" in capsys.readouterr().out


@pytest.mark.parametrize("edit", [
    _set_value(0.1),                                        # a JSON number
    _set_value("abc"),
    _set_value("1/0"),
    lambda d: d["entries"].append([[0], "1/3"]),            # a repeated point
    lambda d: d["domain"].update(bounds=[2.5]),
    lambda d: d["domain"].update(offset=[0.0]),
    lambda d: d["domain"].update(window=[0, 2.5]),
    lambda d: d["entries"][0].__setitem__(0, [0.0]),        # a float coordinate
], ids=["number", "abc", "zero-denominator", "repeated-point", "float-bound",
        "float-offset", "float-window", "float-coordinate"])
def test_cli_verify_rejects_inexact_tables(tmp_path, capsys, edit):
    code = main(["verify", _table_artifact(tmp_path, edit)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err.startswith("FAIL ")


def _circuit_artifact(tmp_path, edit):
    data = json.loads(dumps(mp(2, 2)))
    edit(data)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    return str(path)


def _raw_artifact(tmp_path, text):
    path = tmp_path / "raw.json"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("artifact", [
    lambda tmp: _table_artifact(tmp, lambda d: d["entries"][0].pop()),
    lambda tmp: _table_artifact(tmp, lambda d: d["entries"][0].append("1/2")),
    lambda tmp: _table_artifact(tmp, lambda d: d["domain"].update(window=[0])),
    lambda tmp: _table_artifact(tmp, lambda d: d.pop("domain")),
    lambda tmp: _circuit_artifact(tmp, lambda d: d["gates"].__setitem__(0, ["and"])),
    lambda tmp: _circuit_artifact(tmp, lambda d: d.update(output=["lit", 0])),
    lambda tmp: _circuit_artifact(tmp, lambda d: d.update(output=[])),
    lambda tmp: _circuit_artifact(tmp, lambda d: d["gates"][2][1].__setitem__(0, ["gate"])),
    lambda tmp: _circuit_artifact(tmp, lambda d: d["gates"][0][1].__setitem__(0, ["lit", "0", False])),
    lambda tmp: _circuit_artifact(tmp, lambda d: d.update(output=["lit", 0, "yes"])),
    lambda tmp: _raw_artifact(tmp, "[]"),
    lambda tmp: _raw_artifact(tmp, "not json {"),
    lambda tmp: _mixture_artifact(tmp, lambda d: d.pop("terms")),
    lambda tmp: _mixture_artifact(tmp, lambda d: d.update(factors=[])),
    lambda tmp: _mixture_artifact(tmp, lambda d: d["factors"]["a"].pop("entries")),
    lambda tmp: _mixture_artifact(tmp, lambda d: d.update(terms=[])),
    lambda tmp: _mixture_artifact(tmp, lambda d: d["terms"][0].pop()),
    lambda tmp: _mixture_artifact(tmp, lambda d: d["terms"][0].__setitem__(0, 0.5)),
    lambda tmp: _mixture_artifact(tmp, lambda d: d["terms"][0].__setitem__(1, "ab")),
    lambda tmp: _mixture_artifact(tmp, lambda d: d["terms"][0][1].__setitem__(0, ["a"])),
    lambda tmp: _mixture_artifact(tmp, lambda d: d["terms"][0][1].__setitem__(0, "c")),
    lambda tmp: _mixture_artifact(tmp, lambda d: d["terms"].append(["1/2", ["a"]])),
], ids=["entry-without-value", "entry-with-third-element", "one-element-window",
        "missing-domain", "gate-without-children", "two-item-literal", "empty-output",
        "gate-without-index", "string-variable", "string-negation", "top-level-list",
        "not-json", "mixture-without-terms", "factors-not-object", "factor-not-table",
        "no-terms", "term-without-labels", "number-coefficient", "labels-not-list",
        "list-label", "unknown-label", "ragged-terms"])
def test_cli_verify_rejects_malformed_artifacts(tmp_path, capsys, artifact):
    code = main(["verify", artifact(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err.startswith("FAIL ")


def test_parse_frac_takes_only_strings():
    for bad in (0.5, 1, None, F(1, 2), "abc", "1/0", "inf"):
        with pytest.raises(PreconditionError):
            parse_frac(bad)


def test_cli_smooth_degthr(capsys):
    code = main(["oracle", "smooth-degthr", "--fn", "parity", "--n", "2",
                 "--gamma", "1/1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "2"


def test_cli_density(capsys):
    code = main(["oracle", "density", "--fn", "parity", "--n", "2", "--cap", "2"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cli_disc2(tmp_path, capsys):
    csv = tmp_path / "m.csv"
    csv.write_text("1 -1\n-1 1\n")
    code = main(["oracle", "disc2", "--csv", str(csv)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1/4"


def _file(name, text):
    def write(tmp):
        path = tmp / name
        path.write_text(text)
        return str(path)
    return write


def _missing(tmp):
    return str(tmp / "missing.json")


@pytest.mark.parametrize("argv", [
    ["oracle", "degthr", "--fn", "table"],
    ["oracle", "disc2"],
    ["bounds", "forster"],
    ["oracle", "degthr", "--fn", "table", "--table", _missing],
    ["oracle", "disc2", "--csv", _missing],
    ["bounds", "pattern", "--N", "4", "--n", "2", "--phi", _missing],
    ["verify", _missing],
    ["oracle", "degthr", "--fn", "table", "--table", _file("t.json", "not json {")],
    ["bounds", "pattern", "--N", "4", "--n", "2", "--phi", _file("phi.json", "{")],
    ["oracle", "disc2", "--csv", _file("x.csv", "1,-1\n-1,x\n")],
    ["oracle", "disc2", "--csv", _file("float.csv", "1,-1\n-1,1.0\n")],
    ["bounds", "forster", "--csv", _file("x.csv", "x\n")],
], ids=["table-without-path", "disc2-without-csv", "forster-without-csv", "missing-table",
        "missing-csv", "missing-phi", "missing-artifact", "table-not-json", "phi-not-json",
        "csv-cell-x", "csv-cell-float", "forster-csv-cell-x"])
def test_cli_rejects_bad_input_files(tmp_path, capsys, argv):
    code = main([a(tmp_path) if callable(a) else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err.startswith("FAIL ")


def test_cli_bounds_pattern_and_forster(tmp_path, capsys):
    assert main(["bounds", "pattern", "--N", "4", "--n", "2"]) == 0
    assert capsys.readouterr().out.strip() == "norm^2 = 256/1"
    csv = tmp_path / "stair.csv"
    csv.write_text("1,1,1,1\n-1,1,1,1\n-1,-1,1,1\n-1,-1,-1,1\n")
    assert main(["bounds", "forster", "--csv", str(csv)]) == 0
    assert capsys.readouterr().out.startswith("sign-rank >= 1.530733")


def test_cli_amplify(tmp_path, capsys):
    code = main(["amplify", "--f", "x1", "--n", "1", "--m", "1", "--theta", "2",
                 "--out", str(tmp_path / "amp")])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_circuits_dot(tmp_path, capsys):
    dot = tmp_path / "c.dot"
    code = main(["circuits", "build", "mp", "--m", "2", "--r", "2",
                 "--dot", str(dot)])
    assert code == 0
    assert "digraph" in dot.read_text()


def test_library_imports_without_numpy():
    # every module, the CLI and the acceptance suite included, in a fresh interpreter
    import ptfwitness

    src = str(Path(ptfwitness.__file__).resolve().parent.parent)
    code = ("import importlib, pkgutil, sys, ptfwitness\n"
            "for m in pkgutil.iter_modules(ptfwitness.__path__):\n"
            "    importlib.import_module('ptfwitness.' + m.name)\n"
            "assert 'ptfwitness.cli' in sys.modules and 'ptfwitness.acceptance' in sys.modules\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
