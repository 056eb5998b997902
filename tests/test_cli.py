import json

import pytest

from lieapprox.cli import (
    ReportRow,
    main,
    render_dims,
    rows_from_csv,
    rows_from_json,
    rows_to_csv,
    rows_to_json,
    verification_rows,
)
from lieapprox.rootsys import SimpleType


# -- report rows round-trip losslessly ----------------------------------------


def _sample_rows():
    return verification_rows([SimpleType.parse("E8"), SimpleType.parse("D4")], "end")


def test_json_round_trip():
    rows = _sample_rows()
    assert rows_from_json(rows_to_json(rows)) == rows


def test_csv_round_trip():
    rows = _sample_rows()
    assert rows_from_csv(rows_to_csv(rows)) == rows


def test_json_big_integers_are_decimal_strings():
    rows = _sample_rows()
    payload = json.loads(rows_to_json(rows))
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
    assert rows_from_csv(rows_to_csv(rows)) == rows


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


def test_tables_golden_check_cycle(tmp_path, capsys):
    args = ["tables", "dims", "--types", "exceptional", "--golden-dir", str(tmp_path)]
    assert main(args + ["--write-golden"]) == 0
    assert main(args) == 0
    golden = tmp_path / "dims_exceptional_text.golden"
    golden.write_text(golden.read_text() + "tampered\n")
    assert main(args) == 1
    capsys.readouterr()


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


def test_alpha_padic_place(capsys):
    assert main(["alpha", "--P", "1:0", "--place", "2", "--count", "40"]) == 0
    out = capsys.readouterr().out
    assert "alpha estimate 1.0" in out


# -- renderer sanity -----------------------------------------------------------


def test_dims_text_shows_closed_forms_for_classical_rows():
    doc = render_dims([SimpleType.parse("B3"), SimpleType.parse("B4")], "text")
    assert "Bn closed form" in doc
    assert "B3" in doc and "B4" in doc


def test_report_row_from_dict_rejects_nothing_lossy():
    row = _sample_rows()[0]
    assert ReportRow.from_dict(row.to_dict()) == row
