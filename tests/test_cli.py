import argparse
import importlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lieapprox
from lieapprox.cli import MAX_RANK_ENV, TABLE_FORMATS, _canonical_read, _parsers, build_parser, main, verify_json
from lieapprox.errors import EngineError
from lieapprox.rootsys import SimpleType, supported_types
from lieapprox.tables import dims_table, verification_rows

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(lieapprox.__file__).resolve().parents[1]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


# -- report rows ------------------------------------------------------------------


def _sample_rows():
    return verification_rows([SimpleType.parse("E8"), SimpleType.parse("D4")], "end")


@pytest.mark.parametrize("mode", ["end", "h0"])
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_verify_matches_golden(mode, fmt, capsys):
    assert main(["verify", "--types", "exceptional", "--mode", mode, "--format", fmt]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"verify_exceptional_{mode}_{fmt}.golden").read_text()


@pytest.mark.parametrize("rank_max, mode, fmt", [
    *(pytest.param(5, "end", fmt, id=fmt) for fmt in ("text", "csv", "json")),
    # the 32 types the sections benchmark verifies, with their section counts
    *(pytest.param(8, "h0", fmt, id=f"all8-h0-{fmt}") for fmt in ("text", "json")),
])
def test_verify_all_matches_golden(rank_max, mode, fmt, capsys):
    argv = ["verify", "--types", "all", "--rank-max", str(rank_max), "--mode", mode, "--format", fmt]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"verify_all{rank_max}_{mode}_{fmt}.golden").read_text()


@pytest.mark.parametrize("fmt", ["text", "csv", "json", "latex"])
@pytest.mark.parametrize("which", ["rootcurves", "dims"])
def test_tables_all_match_golden(which, fmt, capsys):
    # classical rows: the closed-form header lines and the B/D spin-cell appendix
    assert main(["tables", which, "--types", "all", "--rank-max", "5", "--format", fmt]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{which}_all5_{fmt}.golden").read_text()


def test_json_big_integers_are_decimal_strings():
    rows = _sample_rows()
    payload = json.loads(verify_json(rows))
    e8_row = next(r for r in payload["rows"] if r["type"] == "E8" and r["weight_index"] == 4)
    assert e8_row["end_dim"] == str(6899079264**2)
    assert isinstance(e8_row["end_dim"], str)
    assert e8_row["comark"] == 6
    # schema stability: every field present on every row
    for r in payload["rows"]:
        assert set(r) == {
            "type", "weight_index", "comark", "table_binomial", "required_count",
            "end_dim", "h0_dim", "dense_lower_bound", "pass", "notes",
        }


def test_h0_mode_rows_carry_h0_column():
    rows = verification_rows([SimpleType.parse("G2")], "h0")
    assert all(r.h0_dim is not None for r in rows)
    assert all(r.h0_dim >= r.end_dim for r in rows)


def test_h0_mode_computes_every_e_series_colour():
    rows = verification_rows([SimpleType.parse(t) for t in ("E6", "E7", "E8")], "h0")
    assert len(rows) == 6 + 7 + 8
    assert all(r.h0_dim is not None and r.h0_dim >= r.end_dim for r in rows)
    assert not any("skipped" in n for r in rows for n in r.notes)
    assert all(r.passed for r in rows)


def test_d4_rows_note_the_spin_discrepancy():
    rows = verification_rows([SimpleType.parse("D4")], "end")
    noted = [r for r in rows if r.notes]
    assert {r.weight_index for r in noted} == {3, 4}
    assert all("reference dim table prints" in r.notes[0] for r in noted)


# -- exit codes -----------------------------------------------------------------


def test_verify_all_passes(capsys):
    assert main(["verify", "--types", "A3,G2,F4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(r["pass"] for r in payload["rows"])


def test_verify_full_sweep_exit_zero(capsys):
    assert main(["verify", "--types", "all", "--rank-max", "6"]) == 0
    capsys.readouterr()


def test_verify_h0_sweep_to_rank_24_passes(capsys):
    # every fundamental weight of all 96 types, each with its full h0 walk
    assert main(["verify", "--types", "all", "--mode", "h0", "--rank-max", "24", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == sum(t.rank for t in supported_types(24))
    assert all(r["pass"] for r in rows)


def test_bound_pass_and_fail_exit_codes(capsys):
    assert main(["bound", "--type", "A2", "--divisor", "1,1"]) == 0
    assert main(["bound", "--type", "A1xA1", "--divisor", "1,0"]) == 0
    out = capsys.readouterr().out
    assert "supported only on factor" in out
    # the one-shot product bound is too weak here although the class is certified
    assert main(["bound", "--type", "A1xA1", "--divisor", "5,0"]) == 1


def test_bound_e8_showcase_weight(capsys):
    assert main(["bound", "--type", "E8", "--divisor", "0,0,1,0,0,0,0,0", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    (colour,) = payload["colour_verdicts"]
    assert colour["curve_constant"] == 4
    assert colour["available_sections"] == str(6696000**2)


def test_bound_rejects_bad_input(capsys):
    assert main(["bound", "--type", "A2", "--divisor", "1,-1"]) == 2
    assert main(["bound", "--type", "A2", "--divisor", "1,1,1"]) == 2
    assert main(["bound", "--type", "Q7", "--divisor", "1"]) == 2
    capsys.readouterr()


def test_bound_rejects_non_integer_divisor(capsys):
    assert main(["bound", "--type", "A2", "--divisor", "1,x"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_alpha_rejects_unparsable_place(capsys):
    assert main(["alpha", "--P", "1:0", "--place", "x"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("gamma", ["nan", "inf", "-inf", "abc"])
def test_alpha_rejects_non_finite_gamma(gamma, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["alpha", "--P", "1:0", "--count", "50", "--gamma=" + gamma])
    assert exc.value.code == 2
    assert "error: argument --gamma: must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["verify", "--types", "A1"], ["tables", "dims", "--types", "A1"]])
@pytest.mark.parametrize("rank_max", ["0", "-5", "x"])
def test_rank_max_must_be_a_positive_integer(command, rank_max, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--rank-max", rank_max])
    assert exc.value.code == 2
    assert "error: argument --rank-max: must be a positive integer" in capsys.readouterr().err


_A13_COMMANDS = [
    ["verify", "--types", "A13"],
    ["tables", "dims", "--types", "A13"],
    ["bound", "--type", "A13", "--divisor", ",".join(["1"] + ["0"] * 12)],
]


def test_rank_ceiling_enforced(monkeypatch, capsys):
    monkeypatch.delenv(MAX_RANK_ENV, raising=False)
    for command in _A13_COMMANDS:
        assert main(command) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: A13 exceeds the rank ceiling 12")
        assert "--rank-max" in err and MAX_RANK_ENV in err
    assert main(["verify", "--types", "A13", "--rank-max", "13"]) == 0
    assert main(["tables", "dims", "--types", "A13", "--rank-max", "13"]) == 0
    assert main(["verify", "--types", "A30", "--rank-max", "30"]) == 0
    # the flag is the ceiling for listed types too, not only for ``all``
    assert main(["verify", "--types", "A5", "--rank-max", "4"]) == 2
    capsys.readouterr()


def test_rank_ceiling_from_environment(monkeypatch, capsys):
    monkeypatch.setenv(MAX_RANK_ENV, "14")
    for command in _A13_COMMANDS:
        assert main(command) == 0
    monkeypatch.setenv(MAX_RANK_ENV, "x")
    assert main(["verify", "--types", "A1"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {MAX_RANK_ENV} must be an integer")


@pytest.mark.parametrize("command", [["verify", "--types", ","], ["tables", "dims", "--types", ""]])
def test_empty_selection_is_an_input_error(command, capsys):
    assert main(command) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "command",
    [["verify", "--types", "A²"], ["tables", "dims", "--types", "B2,A²"], ["bound", "--type", "A²", "--divisor", "1"]],
)
def test_non_ascii_rank_digits_are_an_input_error(command, capsys):
    # "²".isdigit() is true, but int("²") raises ValueError
    assert main(command) == 2
    assert capsys.readouterr().err.startswith("error: cannot parse simple type")


@pytest.mark.parametrize(
    "label, divisor", [("xA1", "1"), ("A1*", "1"), ("A1xxA2", "1,1,1"), ("A1xx", "1")]
)
def test_empty_type_factor_is_an_input_error(label, divisor, capsys):
    assert main(["bound", "--type", label, "--divisor", divisor]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot parse semisimple type {label!r}\n"


@pytest.mark.parametrize(
    "divisor, text",
    [(["--divisor", "1,,0"], "1,,0"), (["--divisor", "1,0,"], "1,0,"), (["--divisor=,1,0"], ",1,0")],
)
def test_empty_divisor_item_is_an_input_error(divisor, text, capsys):
    # each of these used to be read as (1, 0) and exit 0
    assert main(["bound", "--type", "A2", *divisor]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: divisor coordinates must be integers, got {text!r}\n"


def test_alpha_has_no_curve_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["alpha", "--P", "1:0", "--curve", "line"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --curve line" in capsys.readouterr().err


def test_repeated_type_is_selected_once(capsys):
    assert main(["verify", "--types", "E8,E8"]) == 0
    assert capsys.readouterr().out.endswith("\n8/8 colours verified\n")
    assert main(["tables", "rootcurves", "--types", "E8"]) == 0
    once = capsys.readouterr().out
    assert main(["tables", "rootcurves", "--types", "E8,E8"]) == 0
    assert capsys.readouterr().out == once


def test_alpha_rejects_a_tail_of_one_sample(capsys):
    assert main(["alpha", "--P", "1:0", "--count", "10", "--tail", "0.01"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_repeated_calls_do_not_share_parsed_state(capsys):
    argv = ["alpha", "--P", "1:0", "--count", "40", "--format", "json"]
    assert main(argv + ["--gamma", "1.0"]) == 0
    assert len(json.loads(capsys.readouterr().out)["trends"]) == 1
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["trends"] == []


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["tables", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_tables_golden_check_cycle(tmp_path, monkeypatch, capsys):
    args = ["tables", "dims", "--types", "exceptional", "--golden-dir", str(tmp_path)]
    assert main(args + ["--write-golden"]) == 0
    assert main(args) == 0
    golden = tmp_path / "dims_exceptional_text.golden"
    golden.write_text(golden.read_text() + "tampered\n")
    assert main(args) == 1
    # a list selection is named by its distinct labels, sorted and joined by "-"
    listed = ["tables", "dims", "--golden-dir", str(tmp_path), "--types"]
    assert main(listed + ["G2,E8", "--write-golden"]) == 0
    assert (tmp_path / "dims_E8-G2_text.golden").exists()
    assert main(listed + ["E8,G2,E8"]) == 0
    assert main(listed + ["E8"]) == 1
    capsys.readouterr()
    # an ``all`` golden is named by its ceiling, so another ceiling finds no file
    monkeypatch.delenv(MAX_RANK_ENV, raising=False)
    every = ["tables", "dims", "--types", "all", "--golden-dir", str(tmp_path)]
    assert main(every + ["--rank-max", "5", "--write-golden"]) == 0
    assert (tmp_path / "dims_all5_text.golden").exists()
    assert main(every + ["--rank-max", "5"]) == 0
    capsys.readouterr()
    assert main(every) == 1
    assert capsys.readouterr().err == f"golden file {tmp_path / 'dims_all12_text.golden'} missing\n"


def test_write_golden_needs_golden_dir(capsys):
    assert main(["tables", "dims", "--types", "E8", "--write-golden"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --write-golden needs --golden-dir\n"


def _golden_below_a_file(tmp_path):
    (tmp_path / "file").write_text("")
    return tmp_path / "file" / "sub"


def _golden_that_is_a_directory(tmp_path):
    (tmp_path / "dims_G2_text.golden").mkdir()
    return tmp_path


@pytest.mark.parametrize("golden_dir, write, verb", [
    # mkdir raises FileExistsError
    pytest.param(lambda tmp: _golden_below_a_file(tmp).parent, True, "write", id="write-into-a-file"),
    # mkdir raises NotADirectoryError
    pytest.param(_golden_below_a_file, True, "write", id="write-below-a-file"),
    # IsADirectoryError on write and on read
    pytest.param(_golden_that_is_a_directory, True, "write", id="write-a-directory"),
    pytest.param(_golden_that_is_a_directory, False, "read", id="read-a-directory"),
    # read raises NotADirectoryError: the golden cannot exist, so it is not missing
    pytest.param(lambda tmp: _golden_below_a_file(tmp).parent, False, "read", id="read-into-a-file"),
    pytest.param(_golden_below_a_file, False, "read", id="read-below-a-file"),
])
def test_golden_file_system_errors_exit_two(golden_dir, write, verb, tmp_path, capsys):
    directory = golden_dir(tmp_path)
    argv = ["tables", "dims", "--types", "G2", "--golden-dir", str(directory)]
    assert main(argv + ["--write-golden"] * write) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot {verb} golden file {directory / 'dims_G2_text.golden'}: ")
    assert captured.err.count("\n") == 1


def test_a_golden_that_is_not_utf8_is_a_mismatch(tmp_path, capsys):
    argv = ["tables", "dims", "--types", "G2", "--golden-dir", str(tmp_path)]
    assert main(argv + ["--write-golden"]) == 0
    golden = tmp_path / "dims_G2_text.golden"
    golden.write_bytes(golden.read_bytes() + b"\xff\xfe")
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"golden mismatch against {golden}\n"


def test_alpha_command(capsys):
    assert main(["alpha", "--P", "1:0", "--count", "100", "--m", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["estimate"] - 2.0) < 1e-9
    assert main(["alpha", "--P", "1:0", "--count", "5"]) == 2
    assert main(["alpha", "--P", "0:0", "--count", "50"]) == 2
    capsys.readouterr()


def test_alpha_trend_flags(capsys):
    code = main(
        ["alpha", "--P", "1:0:0", "--count", "120", "--gamma", "0.8", "--gamma", "1.2",
         "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    verdicts = {t["gamma"]: t["verdict"] for t in payload["trends"]}
    assert verdicts == {0.8: "unbounded", 1.2: "bounded"}


_ALPHA_GOLDENS = [
    (f"alpha_P2_{place}", ["--P", "3:-2:5", "--place", place, "--count", "300", "--gamma", "1.0"])
    for place in ("inf", "2", "3", "7")
] + [
    ("alpha_P3_5", ["--P", "0:2:-3:7", "--place", "5", "--count", "200"]),
    # m = 2, and every odd i gives a representative with gcd 2
    ("alpha_P1_inf_m2", ["--P", "3:-2", "--place", "inf", "--count", "60", "--m", "2", "--gamma", "1.5"]),
    # the 3-adic distances are 3^-(i + 1): v_3(gcd(9, 3)) = 1
    ("alpha_P2_3_offset", ["--P", "1:9:3", "--place", "3", "--count", "40"]),
    # (2 : 1 : 4) and (4 : 1 : 4) both have height 4, at distances 1/2 and 1/4
    ("alpha_P2_2_tied", ["--P", "0:1:4", "--place", "2", "--count", "40"]),
    # the tail starts at index 1, between the two height-4 samples: the larger
    # distance is read first, so only (4 : 1 : 4) is in the tail of both estimators
    ("alpha_P2_2_tail_split", ["--P", "0:1:4", "--place", "2", "--count", "40", "--tail", "0.975", "--gamma", "1"]),
    # (112 : 148) at i = 37 has gcd 4: at height 37 it sorts into the head
    # although it holds the line's least distance, so a head-and-tail
    # convergence test would refuse this line
    ("alpha_P1_inf_gcd_jump", ["--P", "3:4", "--count", "37"]),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name, args", _ALPHA_GOLDENS)
def test_alpha_matches_golden(name, args, fmt, capsys):
    # text prints the exact distances (1/p^i at a prime), json full-precision floats
    assert main(["alpha", *args, "--format", fmt]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}_{fmt}.golden").read_text()


@pytest.mark.parametrize("place", ["inf", "3"])
@pytest.mark.parametrize("m", [["--m", "0"], ["--m=-1"]])
def test_alpha_refuses_a_nonpositive_exponent(m, place, capsys):
    assert main(["alpha", "--P", "3:-2", "--place", place, "--count", "20", *m]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: height exponent must be positive")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_alpha_rejects_a_gamma_whose_trend_overflows(fmt, capsys):
    assert main(["alpha", "--P", "1:0", "--count", "50", "--gamma", "1e308", "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the trend at gamma 1e+308 has a non-finite slope")


def test_alpha_at_a_large_prime_place(capsys):
    assert main(["alpha", "--P", "1:2", "--place", str(2**61 - 1), "--count", "10"]) == 0
    assert f"at place {2**61 - 1}" in capsys.readouterr().out
    assert main(["alpha", "--P", "1:2", "--place", str(2**89 - 1)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {2**89 - 1} is too large")


def test_alpha_text_refuses_integers_past_the_digit_limit(capsys):
    refusal = "error: the samples have integers of more than 4300 digits; lower --count or use --format json\n"
    # (2^61 - 1)^300 has about 5 500 digits.  On (1 : 2) at 7 the last
    # distance denominator is 7^count, which has 4 300 digits at count 5088
    # and 4 301 at 5089, so there only the last shown sample is too long.
    big = ["alpha", "--P", "1:2", "--place", str(2**61 - 1), "--count", "300"]
    edge = ["alpha", "--P", "1:2", "--place", "7", "--count"]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for argv in (big, edge + ["5089"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", refusal)
        assert main(edge + ["5088"]) == 0
        assert capsys.readouterr().out.startswith("target (1 : 2) at place 7, 5088 points")
        assert main(big + ["--format", "json"]) == 0
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("argv, value, code, reply", [
    (["bound", "--type", "A2", "--divisor"], "-1,0", 2, "error: negative nef coordinate"),
    (["alpha", "--count", "20", "--P"], "-1:2", 0, "target (1 : -2)"),
])
def test_values_starting_with_dash_need_equals(argv, value, code, reply, capsys):
    # after a space argparse reads the value as an option, as the help says
    with pytest.raises(SystemExit) as exc:
        main(argv + [value])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
    flag = f"{argv[-1]}={value}"
    with pytest.raises(SystemExit):
        main([argv[0], "--help"])
    assert f"as in {flag}" in " ".join(capsys.readouterr().out.split())
    assert main(argv[:-1] + [flag]) == code
    captured = capsys.readouterr()
    assert reply in captured.out + captured.err


def test_alpha_padic_place(capsys):
    assert main(["alpha", "--P", "1:0", "--place", "2", "--count", "40"]) == 0
    out = capsys.readouterr().out
    assert "alpha estimate 1.0" in out


# -- dispatch: a canonical command line is read, any other parsed by argparse ---


def _reference_main(argv):
    """``main`` with every command line parsed by the top-level parser."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _outcome(run, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run(list(argv))
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


_DISPATCH_ARGVS = [
    # the benchmark workloads' shapes: sweep, sections, lab
    ["verify", "--types", "A6", "--format", "text"],
    ["tables", "rootcurves", "--types", "B3", "--format", "latex"],
    ["tables", "dims", "--types", "exceptional", "--format", "json"],
    ["verify", "--mode", "h0", "--types", "C3", "--format", "csv"],
    ["bound", "--type", "A1xC2xA1", "--divisor", "3,3,1,1", "--format", "json"],
    ["alpha", "--P", "3:2:-3", "--place", "3", "--count", "110", "--m", "2", "--gamma", "1.0", "--gamma", "2.0",
     "--format", "json"],
    ["alpha", "--P", "0:1:-2", "--place", "inf", "--count", "25", "--m", "1", "--format", "text"],
    # help and usage errors
    [],
    ["-h"],
    ["--help"],
    ["--he"],
    ["bogus"],
    ["alpha"],
    ["verify", "-h"],
    ["alpha", "--P", "1:0", "--bogus", "x"],
    ["alpha", "--P", "1:0", "--he"],
    ["tables", "dims", "--format", "pdf"],
    ["--P=-1:2"],
    ["alpha", "--count", "20", "--P=-1:2"],
    ["verify", "--types", "A3", "--curve", "line"],
    ["tables", "dims", "--rank-max", "0"],
    ["tables", "dims", "--types", "G2", "--", "extra"],
    ["-h", "verify"],
    # canonical spellings: store_true, append, a repeated store, the
    # positional after its options, an empty value
    ["tables", "dims", "--write-golden", "--types", "G2"],
    ["alpha", "--P", "1:2", "--count", "20", "--gamma", "2", "--gamma", "0.5", "--format", "json"],
    ["verify", "--types", "A2", "--format", "json", "--mode", "h0", "--format", "text"],
    ["tables", "--types", "G2", "--format", "json", "dims"],
    ["alpha", "--P", ""],
    ["alpha", "--P", "1:2", "--count", "20", "--place", ""],
    # argparse's spellings: =, abbreviations, values that start with -
    ["alpha", "--P=1:2", "--count=20", "--format=json"],
    ["alpha", "--P", "1:2", "--cou", "20", "--for", "json"],
    ["tables", "dims", "--typ", "G2", "--write"],
    ["bound", "--type", "A2", "--divisor", "-1,0"],
    ["alpha", "--P", "1:2", "--count", "-5"],
    ["alpha", "--P", "1:2", "--count", "20", "--gamma", "-1"],
    ["alpha", "--P", "1:2", "--count"],
    ["verify", "--types", "A2", "extra"],
    ["tables", "dims", "rootcurves"],
    ["tables", "--types", "G2"],
    ["bound", "--type", "A2"],
    ["alpha", "--P", "1:2", "-h"],
]


@pytest.mark.parametrize("argv", _DISPATCH_ARGVS, ids=" ".join)
def test_dispatch_matches_a_top_level_parse(argv, monkeypatch):
    monkeypatch.setenv(MAX_RANK_ENV, "12")
    assert _outcome(main, argv) == _outcome(_reference_main, argv)


@pytest.mark.parametrize("argv, parsed", [
    (["tables", "dims", "--types", "G2"], False),
    (["alpha", "--P", "1:2", "--count", "20", "--gamma", "1", "--format", "json"], False),
    (["bound", "--type", "A2", "--divisor", "1,1"], False),
    (["verify", "--types", "G2", "--mode", "h0"], False),
    (["tables", "dims", "--types=G2"], True),
    (["alpha", "--P", "1:2", "--cou", "20"], True),
    (["bound", "--type", "A2", "--divisor=-1,0"], True),
    (["verify", "--types", "G2", "--mode", "x"], True),
    (["tables", "dims", "--types", "G2", "--write-golden"], True),
    (["alpha", "--P", "1:2", "--count", "20", "--gamma", "1", "--gamma", "2"], False),
])
def test_argparse_parses_only_a_non_canonical_command_line(argv, parsed, monkeypatch):
    calls = []
    parse = argparse.ArgumentParser.parse_known_args
    monkeypatch.setattr(
        argparse.ArgumentParser, "parse_known_args",
        lambda parser, *args, **kw: calls.append(parser.prog) or parse(parser, *args, **kw),
    )
    _outcome(main, argv)
    # the top-level parse runs the subcommand's parse inside it
    assert calls == ["lieapprox", f"lieapprox {argv[0]}"] * parsed


def test_every_benchmark_command_line_is_read_as_argparse_parses_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads, commands = importlib.import_module("workloads"), _parsers()[1]
    for seed in range(1, 30):
        for make in workloads.WORKLOADS.values():
            for argv in make(seed).argvs:
                command = commands[argv[0]]
                args = _canonical_read(command, argv[1:])
                assert args is not None, argv
                assert command.parse_known_args(argv[1:]) == (args, []), argv


_VALUES = ["1", "20", "0", "-1", "1.5", "nan", "x", "", "1:0", "-1:2", "--", "-"]
_SPELLINGS = ["-h", "--cou", "--for", "--typ", "--format=json", "--P=-1:2", "-", "--"]


@st.composite
def _command_line(draw):
    """A subcommand and its arguments in any order: each required one about
    three times in four, then options drawn mostly from the subcommand's own
    option strings, else from argparse's other spellings, and values mostly
    valid for their action."""
    command = _parsers()[1][draw(st.sampled_from(sorted(_parsers()[1])))]
    actions = command._option_string_actions
    options = sorted(s for s, action in actions.items() if not isinstance(action, argparse._HelpAction))

    def value(action):
        valid = sorted(map(str, action.choices)) if action and action.choices else ["1", "20"]
        return [draw(_mostly(valid, _VALUES))]

    items = [[*action.option_strings[:1], *value(action)]
             for action in command._actions if action.required and draw(_mostly([True], [False]))]
    for option in draw(st.lists(_mostly(options, _SPELLINGS), max_size=5)):
        action = actions.get(option)
        takes_value = action.nargs != 0 if action else draw(st.booleans())
        items.append([option, *value(action)] if takes_value and draw(_mostly([True], [False])) else [option])
    return command, [token for item in draw(st.permutations(items)) for token in item]


@settings(max_examples=400, deadline=None)
@given(_command_line())
def test_a_canonical_read_equals_an_argparse_parse(line):
    command, tokens = line
    args = _canonical_read(command, tokens)
    if args is not None:
        assert command.parse_known_args(tokens) == (args, [])


def test_every_argument_has_help():
    assert [
        (name, action.dest) for name, command in _parsers()[1].items() for action in command._actions if not action.help
    ] == []


def test_python_dash_m_runs_the_command_line():
    child = subprocess.run(
        [sys.executable, "-m", "lieapprox", "tables", "dims", "--types", "G2"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120, check=False,
    )
    assert (child.stdout, child.stderr, child.returncode) == _outcome(main, ["tables", "dims", "--types", "G2"])


# -- renderer sanity -----------------------------------------------------------


def test_dims_text_shows_closed_forms_for_classical_rows():
    doc = TABLE_FORMATS["text"](dims_table([SimpleType.parse("B3"), SimpleType.parse("B4")]))
    assert "Bn closed form" in doc
    assert "B3" in doc and "B4" in doc


# -- exit-code contract: 0, 1 or 2 for any input, never a traceback ------------

# Classical ranks stay at most 8 and bound factors at rank 4 or less, so no
# example reaches an expensive case such as h0 of E8 at rho.


def _mostly(valid, invalid):
    """A valid value about three times in four, else an invalid one."""
    return st.sampled_from(valid * 3 * len(invalid) + invalid * len(valid))


_selector = st.one_of(
    st.sampled_from(["all", "exceptional", "E8,E8", ",", ""]),
    st.lists(
        _mostly(["A1", "A3", "A8", "B2", "B5", "C3", "C8", "D4", "D6", "G2", "F4", "E6", "E7", "E8"],
                ["A0", "D3", "E9", "Q2", "x", " ", "A²"]),
        min_size=1, max_size=4,
    ).map(",".join),
)
_rank_max = st.one_of(
    st.just([]),
    st.integers(1, 8).map(lambda n: ["--rank-max", str(n)]),
    st.sampled_from(["-1", "0", "x"]).map(lambda v: ["--rank-max", v]),
)
# Always set, so "all" never falls back to the default ceiling of 12.
_env = _mostly(["8", "5"], ["1", "0", "x"])


@st.composite
def _verify_argv(draw):
    return (["verify", "--types", draw(_selector)] + draw(_rank_max)
            + ["--mode", draw(_mostly(["end", "h0"], ["x"]))]
            + ["--format", draw(_mostly(["text", "csv", "json"], ["latex"]))])


@st.composite
def _tables_argv(draw):
    argv = ["tables", draw(_mostly(["rootcurves", "dims"], ["x"])), "--types", draw(_selector)]
    argv += draw(_rank_max) + ["--format", draw(_mostly(["text", "csv", "json", "latex"], ["x"]))]
    # never both flags together: that would write into tests/golden
    return argv + draw(st.sampled_from([[], ["--golden-dir", str(GOLDEN)], ["--write-golden"]]))


@st.composite
def _bound_argv(draw):
    factors = draw(st.lists(
        _mostly(["A1", "A2", "A4", "B2", "B4", "C3", "D4", "G2", "F4"], ["A0", "Q2", "", "A²"]),
        min_size=1, max_size=3,
    ))
    needed = sum(int(f[1:]) for f in factors if f[1:].isascii() and f[1:].isdigit())
    length = draw(st.one_of(st.just(needed), st.just(needed), st.integers(0, 6)))
    coords = [draw(_mostly(["0", "1", "2", "3"], ["-1"])) for _ in range(length)]
    if draw(st.integers(0, 9)) == 0:
        coords.append(draw(st.sampled_from(["x", "1.5", ""])))
    return ["bound", "--type", "x".join(factors), "--divisor", ",".join(coords),
            "--format", draw(st.sampled_from(["text", "json"]))]


@st.composite
def _alpha_argv(draw):
    argv = [
        "alpha",
        "--P", draw(_mostly(["1:0", "0:1", "1:2:3", "2:4", "3:-1:2"],
                            ["0:0", "a:b", "1", "1::0", "1:0:", ":1:0"])),
        "--place", draw(_mostly(
            ["inf", "2", "3", "5", "7", str(2**61 - 1), "1000000000000000000000007"],
            ["4", "1", "0", "-3", "x", "3215031751", "3825123056546413051", str(2**89 - 1)],
        )),
        "--count", str(draw(st.integers(-5, 200))),
        "--m", str(draw(_mostly([1, 2, 3], [0, -1]))),
        "--tail", draw(_mostly(["0.5", "1", "0.25"], ["0.01", "0", "1.5", "nan"])),
        "--format", draw(st.sampled_from(["text", "json"])),
    ]
    for gamma in draw(st.lists(_mostly(["1.0", "0.5", "2"], ["nan", "x", "1e308"]), max_size=2)):
        argv += ["--gamma", gamma]
    return argv


_ABBREVIATIONS = {"--count": "--cou", "--format": "--for"}


@st.composite
def _respelled(draw, argvs):
    """An argv of ``argvs``, in canonical form about half of the time, else
    respelled once or twice as argparse also reads it: ``--opt=value``, an
    abbreviation, a repeated option, the ``tables`` positional after its
    options, an empty value or a value that starts with ``-``."""
    argv = draw(argvs)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        # (option, value) pairs; a ``tables`` command keeps its positional at 1
        pairs = [i for i in range(1, len(argv) - 1) if argv[i].startswith("--") and argv[i] != "--write-golden"]
        how = draw(st.sampled_from(["=", "abbreviate", "repeat", "positional", "empty", "dash"]))
        if how == "abbreviate":
            argv = [_ABBREVIATIONS.get(token, token) for token in argv]
        elif how == "positional":
            if argv[0] == "tables":
                argv = [argv[0], *argv[2:], argv[1]]
        elif pairs:
            i = draw(st.sampled_from(pairs))
            option, value = argv[i:i + 2]
            respelled = {
                "=": [f"{option}={value}"],
                "repeat": [option, value, option, value],
                "empty": [option, ""],
                "dash": [option, f"-{value}"],
            }[how]
            argv = argv[:i] + respelled + argv[i + 2:]
    return argv


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=150, deadline=None)
@given(_respelled(st.one_of(_verify_argv(), _tables_argv(), _bound_argv(), _alpha_argv())), _env)
def test_exit_code_contract(argv, env):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {MAX_RANK_ENV: env}), redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert "error: " in err.getvalue(), argv
    # a golden check prints its verdict, not the document
    if code == 0 and "json" in argv and "--golden-dir" not in argv:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
