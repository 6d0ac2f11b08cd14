import json
from fractions import Fraction

import pytest

from pplateau.cli import main
from pplateau.complexes import Chain, Cochain
from pplateau.fileio import (
    emit_chain,
    emit_cochain,
    emit_complex,
    emit_integrand,
    parse_chain,
)
from pplateau.functionals import Integrand

from tcommon import interval, square


@pytest.fixture
def files(tmp_path):
    """Interval complex with a profitable unit edge, plus common inputs."""
    paths = {}

    def put(name, text):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
        return paths[name]

    put("interval.cx", emit_complex(interval()))
    put("square.cx", emit_complex(square()))
    put("budget.chain", emit_chain(Chain(0, {"a": -1, "b": 1})))
    put("zero.chain", emit_chain(Chain(0, {})))
    put("edge.chain", emit_chain(Chain(1, {"e": 1})))
    put("pay.cochain", emit_cochain(Cochain(0, {"a": -2, "b": 2})))
    put("sqrt.integrand", emit_integrand(Integrand.power(Fraction(1, 2))))
    paths["dir"] = str(tmp_path)
    return paths


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------- validate

def test_validate_ok(files, capsys):
    code, out, err = run(capsys, ["validate", files["square.cx"]])
    assert code == 0
    assert out.strip().splitlines()[-1] == "ok"
    assert err == ""


def test_validate_json(files, capsys):
    code, out, _ = run(capsys, ["validate", files["square.cx"], "--emit", "json"])
    doc = json.loads(out)
    assert code == 0
    assert doc["format"] == "pplateau-out v1"
    assert doc["command"] == "validate"
    assert doc["ok"] is True
    assert doc["violations"] == []


def test_validate_broken_complex(files, tmp_path, capsys):
    bad = tmp_path / "bad.cx"
    bad.write_text("\n".join([
        "pplateau-complex v1",
        "dimension 0",
        "cell v measure 1",
        "dimension 1",
        "cell e measure 1",
        "face e v 1",   # dangling: boundary of boundary cannot vanish
        "dimension 2",
        "cell f measure 1",
        "face f e 1",
    ]) + "\n")
    code, out, _ = run(capsys, ["validate", str(bad)])
    assert code == 1
    assert out.strip().splitlines()[-1] == "invalid"


def test_validate_parse_error_names_file_and_line(files, tmp_path, capsys):
    bad = tmp_path / "torn.cx"
    bad.write_text("pplateau-complex v1\ndimension 0\ncell v\n")
    code, _, err = run(capsys, ["validate", str(bad)])
    assert code == 2
    assert err.startswith("error:")
    assert "torn.cx" in err
    assert "line 3" in err


def test_missing_file_is_io_error(files, capsys):
    code, _, err = run(capsys, ["validate", files["dir"] + "/nope.cx"])
    assert code == 2
    assert "error:" in err


# ------------------------------------------------------------------- solve

def test_solve_text(files, capsys):
    code, out, _ = run(capsys, [
        "solve", "--complex", files["interval.cx"],
        "--boundary", files["budget.chain"],
        "--phi", files["pay.cochain"], "--cap", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "value: -3"
    assert "minimizers: 1" in lines
    assert "e 1" in lines


def test_solve_json_payload(files, capsys):
    code, out, _ = run(capsys, [
        "solve", "--complex", files["interval.cx"],
        "--boundary", files["budget.chain"],
        "--phi", files["pay.cochain"], "--cap", "1", "--emit", "json"])
    doc = json.loads(out)
    assert code == 0
    assert doc["value"] == "-3"
    assert doc["h_mass"] == "1"
    assert doc["pairing"] == "4"
    assert doc["count"] == 1
    assert doc["minimizers"] == [{"e": 1}]
    assert doc["caps"] == {"e": 1}
    assert doc["bounds_active"] is True
    assert doc["nodes_visited"] > 0
    assert not doc["truncated"]


def test_solve_writes_minimizer_files(files, tmp_path, capsys):
    prefix = str(tmp_path / "min")
    code, out, _ = run(capsys, [
        "solve", "--complex", files["interval.cx"],
        "--boundary", files["budget.chain"],
        "--phi", files["pay.cochain"], "--cap", "1", "--out", prefix])
    assert code == 0
    assert f"wrote {prefix}1.chain" in out
    written = parse_chain((tmp_path / "min1.chain").read_text())
    assert written == Chain(1, {"e": 1})


def test_solve_auto_cap(files, capsys):
    code, out, _ = run(capsys, [
        "solve", "--complex", files["interval.cx"],
        "--boundary", files["budget.chain"],
        "--phi", files["pay.cochain"], "--emit", "json"])
    assert code == 0
    assert json.loads(out)["value"] == "-3"


def test_solve_bad_cap_is_usage_error(files, capsys):
    code, _, err = run(capsys, [
        "solve", "--complex", files["interval.cx"],
        "--boundary", files["budget.chain"], "--cap", "many"])
    assert code == 2
    assert "--cap" in err


def test_solve_infeasible_is_domain_error(files, tmp_path, capsys):
    t0 = tmp_path / "t0.chain"
    t0.write_text(emit_chain(Chain(1, {"e": 1})))
    code, _, err = run(capsys, [
        "solve", "--complex", files["interval.cx"],
        "--boundary", files["zero.chain"],
        "--t0", str(t0), "--cap", "0"])
    assert code == 1
    assert "infeasible" in err


def test_solve_minimizer_limit_below_one_is_domain_error(files, capsys):
    code, out, err = run(capsys, [
        "solve", "--complex", files["interval.cx"],
        "--boundary", files["budget.chain"],
        "--phi", files["pay.cochain"], "--cap", "1", "--max-minimizers", "0"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: minimizer limit")


# ---------------------------------------------------------------- flatnorm

def test_flatnorm_real(files, capsys):
    code, out, _ = run(capsys, [
        "flatnorm", "--complex", files["interval.cx"],
        "--chain", files["budget.chain"]])
    assert code == 0
    assert out.splitlines()[0] == "value: 1"
    assert "e 1" in out


def test_flatnorm_integral_json(files, capsys):
    code, out, _ = run(capsys, [
        "flatnorm", "--complex", files["interval.cx"],
        "--chain", files["budget.chain"],
        "--mode", "integral", "--cap", "2", "--emit", "json"])
    doc = json.loads(out)
    assert code == 0
    assert doc["value"] == "1"
    assert doc["filling"] == {"e": 1}
    assert doc["remainder"] == {}
    assert doc["cap"] == 2
    assert doc["cap_active"] is False


def test_flatnorm_h_mode(files, capsys):
    code, out, _ = run(capsys, [
        "flatnorm", "--complex", files["interval.cx"],
        "--chain", files["budget.chain"],
        "--mode", "h", "--cap", "3",
        "--integrand", files["sqrt.integrand"]])
    assert code == 0
    assert out.splitlines()[0] == "value: 1"


def test_flatnorm_missing_cap(files, capsys):
    code, _, err = run(capsys, [
        "flatnorm", "--complex", files["interval.cx"],
        "--chain", files["budget.chain"], "--mode", "integral"])
    assert code == 2
    assert "--cap is required" in err


def test_flatnorm_missing_integrand(files, capsys):
    code, _, err = run(capsys, [
        "flatnorm", "--complex", files["interval.cx"],
        "--chain", files["budget.chain"], "--mode", "h", "--cap", "2"])
    assert code == 2
    assert "--integrand is required" in err


def test_flatnorm_distance_between_chains(files, capsys):
    code, out, _ = run(capsys, [
        "flatnorm", "--complex", files["interval.cx"],
        "--chain", files["budget.chain"], "--to", files["budget.chain"]])
    assert code == 0
    assert out.splitlines()[0] == "value: 0"


# --------------------------------------------------------------- sunflower

CANONICAL = ["sunflower", "--petals", "8", "--phi", "2,2,2,2,1,1,0,0"]


def test_sunflower_canonical_text(capsys):
    code, out, _ = run(capsys, CANONICAL + ["--disk-pairing", "-10"])
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "thresholds: -5, -1, 3"
    assert lines[1] == "regimes: T_-2"
    assert lines[2] == "energy: -18"
    assert lines[3] == "minimizers: 1"
    assert "disk -2" in out


def test_sunflower_degeneracy_json(capsys):
    code, out, _ = run(capsys, CANONICAL
                       + ["--disk-pairing", "-1", "--emit", "json"])
    doc = json.loads(out)
    assert code == 0
    assert doc["count"] == 8
    assert doc["regimes"] == [-1, 0]
    assert doc["thresholds"] == {"lower": "-5", "middle": "-1", "upper": "3"}
    assert doc["classes"]["neutral"] == [4, 5]
    assert doc["value"] == "-4"


def test_sunflower_partial_variant(capsys):
    code, out, _ = run(capsys, CANONICAL + [
        "--disk-pairing", "10", "--variant", "partial=3", "--emit", "json"])
    doc = json.loads(out)
    assert code == 0
    assert doc["dropped_arcs"] == [3]
    assert doc["regimes"] == [0]
    assert doc["count"] == 4
    assert doc["value"] == "-3"
    assert all("petal3" not in m and "disk" not in m
               for m in doc["minimizers"])


def test_sunflower_render_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    for path in (a, b):
        code, _, _ = run(capsys, CANONICAL
                         + ["--disk-pairing", "0", "--render", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert "petal5" in text and "dropped" not in text


def test_sunflower_variant_errors(capsys):
    code, _, err = run(capsys, CANONICAL
                       + ["--disk-pairing", "0", "--variant", "partial="])
    assert code == 2
    code, _, err = run(capsys, CANONICAL
                       + ["--disk-pairing", "0", "--variant", "partial=9"])
    assert code == 2
    assert "out of range" in err


def test_sunflower_phi_count_mismatch(capsys):
    code, _, err = run(capsys, [
        "sunflower", "--petals", "3", "--phi", "1,2",
        "--disk-pairing", "0"])
    assert code == 2
    assert "3 petals" in err


@pytest.mark.parametrize("limit", ["0", "-2"])
def test_sunflower_minimizer_limit_below_one_is_domain_error(capsys, limit):
    code, out, err = run(capsys, [
        "sunflower", "--petals", "3", "--phi", "1,1,1", "--disk-pairing", "0",
        "--max-minimizers", limit])
    assert code == 1
    assert out == ""
    assert err.startswith("error: minimizer limit")


# ------------------------------------------------------------- slice-check

def test_slice_check_passes(capsys):
    code, out, _ = run(capsys, [
        "slice-check", "--samples", "4000", "--seed", "7"])
    assert code == 0
    assert out.splitlines()[-1] == "PASS"


def test_slice_check_json_and_failure(capsys):
    code, out, _ = run(capsys, [
        "slice-check", "--samples", "2000", "--seed", "7",
        "--tolerance", "1e-9", "--emit", "json"])
    doc = json.loads(out)
    assert code == 1
    assert doc["ok"] is False
    assert doc["expected"] == pytest.approx(2 ** 0.5)
    assert doc["relative_error"] > 1e-9


def test_slice_check_identity_integrand(tmp_path, capsys):
    path = tmp_path / "ident.integrand"
    path.write_text(emit_integrand(Integrand.identity()))
    code, out, _ = run(capsys, [
        "slice-check", "--samples", "4000", "--seed", "3",
        "--integrand", str(path), "--emit", "json"])
    doc = json.loads(out)
    assert code == 0
    assert doc["expected"] == pytest.approx(2.0)


def test_slice_check_negative_seed_is_domain_error(capsys):
    code, out, err = run(capsys, ["slice-check", "--samples", "100", "--seed", "-3"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("h2", ["0", "-1"])
def test_slice_check_needs_positive_h2(tmp_path, capsys, h2):
    path = tmp_path / "broken.integrand"
    path.write_text(f"integrand table\n0 0\n2 {h2}\n")
    code, out, err = run(capsys, ["slice-check", "--samples", "100", "--seed", "1",
                                  "--integrand", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "H(2)" in err and "Traceback" not in err


@pytest.mark.parametrize("tolerance", ["-0.1", "nan", "inf", "-inf"])
def test_slice_check_rejects_bad_tolerance(capsys, tolerance):
    code, out, err = run(capsys, ["slice-check", "--samples", "100", "--seed", "1",
                                  f"--tolerance={tolerance}"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "tolerance" in err


# ------------------------------------------------------------------- usage

def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["bogus"])
    assert err.value.code == 2


def test_missing_required_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["slice-check"])  # --seed is required
    assert err.value.code == 2
