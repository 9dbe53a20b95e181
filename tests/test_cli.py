"""Command line behaviour: exit codes, formats, round trips."""

import json
import re

import jsonschema
import numpy as np
import pytest

from quandlekit import (
    REPORT_SCHEMA, core, enumerate_quandle_antis, group_from_text, quandle_from_text, report_json, run_check, symmetric,
)
from quandlekit.cli import _group_info, _quandle_info, main

# Each command that writes JSON, with the report it writes.
_JSON_COMMANDS = [
    (["verify", "conj-aaut", "--group", "S3"], lambda: report_json(["S3"], run_check("conj-aaut", symmetric(3)))),
    (["group", "export", "--group", "S3"],
     lambda: {"name": "S3", "order": 6, "table": symmetric(3).table.tolist()}),
    (["group", "info", "--group", "S3"], lambda: _group_info(symmetric(3))),
    (["quandle", "build", "--quandle", "core", "--group", "S3"], lambda: core(symmetric(3)).to_json()),
    (["quandle", "info", "--quandle", "core", "--group", "S3"], lambda: _quandle_info(core(symmetric(3)))),
    (["aut", "--quandle", "core", "--group", "S3", "--anti", "--limit", "2"], lambda: {
        "quandle": "Core(S3)", "kind": "antiautomorphisms", "count": len(enumerate_quandle_antis(core(symmetric(3)))),
        "maps": [m.to_json() for m in enumerate_quandle_antis(core(symmetric(3)))[:2]]}),
]


class TestGroupCommand:
    def test_info_text(self, capsys):
        assert main(["group", "info", "--group", "S3"]) == 0
        out = capsys.readouterr().out
        assert "order: 6" in out and "abelian: False" in out

    def test_info_json(self, capsys):
        assert main(["group", "info", "--group", "Q8", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["order"] == 8 and data["center_size"] == 2

    def test_export_round_trip(self, tmp_path, capsys):
        target = tmp_path / "d4.txt"
        assert main(["group", "export", "--group", "D4", "-o", str(target)]) == 0
        G = group_from_text(target.read_text())
        assert G.n == 8 and not G.is_abelian
        assert main(["group", "info", "--file", str(target)]) == 0
        assert "order: 8" in capsys.readouterr().out

    def test_unknown_group_is_a_usage_error(self, capsys):
        assert main(["group", "info", "--group", "Monster"]) == 2
        assert "error:" in capsys.readouterr().err


class TestQuandleCommand:
    def test_build_writes_a_loadable_table(self, tmp_path):
        target = tmp_path / "r5.txt"
        code = main(["quandle", "build", "--quandle", "dihedral:n=5", "-o", str(target)])
        assert code == 0
        Q = quandle_from_text(target.read_text())
        assert Q.n == 5 and Q.is_involutory

    def test_check_accepts_valid_table(self, tmp_path, capsys):
        path = tmp_path / "ok.txt"
        main(["quandle", "build", "--quandle", "core", "--group", "Z5", "-o", str(path)])
        assert main(["quandle", "check", "--file", str(path)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_check_rejects_invalid_table_with_witness(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 0\n0 1\n")
        assert main(["quandle", "check", "--file", str(path)]) == 1
        assert "invalid" in capsys.readouterr().out

    def test_info_reports_structure(self, capsys):
        code = main(["quandle", "info", "--quandle", "core", "--group", "Z5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "involutory: True" in out and "inn_size: 10" in out

    def test_info_json_includes_tables(self, capsys):
        code = main(
            ["quandle", "info", "--quandle", "dihedral:n=4", "--format", "json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["order"] == 4 and len(data["op"]) == 4

    def test_group_spec_requires_group(self, capsys):
        assert main(["quandle", "build", "--quandle", "core"]) == 2


class TestAutCommand:
    def test_counts_dihedral_automorphisms(self, capsys):
        assert main(["aut", "--quandle", "dihedral:n=5"]) == 0
        assert "20 automorphisms" in capsys.readouterr().out

    def test_counts_no_antis_on_even_dihedral(self, capsys):
        assert main(["aut", "--anti", "--quandle", "dihedral:n=4"]) == 0
        assert "0 antiautomorphisms" in capsys.readouterr().out

    def test_oracle_cross_check(self, capsys):
        assert main(["aut", "--quandle", "dihedral:n=5", "--oracle"]) == 0
        assert "oracle cross-check ok" in capsys.readouterr().out

    def test_oracle_rejects_large_quandles(self, capsys):
        assert main(["aut", "--quandle", "dihedral:n=9", "--oracle"]) == 2

    def test_json_lists_maps(self, capsys):
        code = main(
            ["aut", "--quandle", "trivial:n=3", "--format", "json", "--limit", "99"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["count"] == 6 and len(data["maps"]) == 6


class TestVerifyCommand:
    def test_holding_check_exits_zero(self, capsys):
        assert main(["verify", "core", "--group", "S3"]) == 0
        assert "HOLDS" in capsys.readouterr().out

    def test_json_report_validates(self, capsys):
        code = main(["verify", "dihedral-no-anti", "--n", "6", "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["summary"]["failed"] == 0

    def test_unknown_theorem_id_is_an_argparse_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "fermat", "--group", "Z4"])
        assert exc.value.code == 2

    def test_missing_group_is_reported(self, capsys):
        assert main(["verify", "core"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_index_out_of_range_is_a_usage_error(self, capsys):
        assert main(["verify", "q-family", "--group", "S3", "--psi", "6"]) == 2
        captured = capsys.readouterr()
        assert "error: psi index into AAut(G) 6 is out of range 0..5" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("build_args,verify_args", [
        (["--quandle", "alex:phi=99"], ["alex", "--phi", "99"]),
        (["--quandle", "p1:c=9"], ["p-family-aut", "--c", "9"]),
    ])
    def test_one_index_error_for_build_and_verify(self, capsys, build_args, verify_args):
        assert main(["quandle", "build", "--group", "S3", *build_args]) == 2
        built = capsys.readouterr().err
        assert main(["verify", *verify_args, "--group", "S3"]) == 2
        verified = capsys.readouterr().err
        assert built == verified
        assert built.startswith("error: ") and "is out of range 0..5" in built

    @pytest.mark.parametrize("verify_args", [
        ["conj-out", "--group", "S3", "--m", "7", "--c", "99"],
        ["core", "--group", "S3", "--phi", "3"],
        ["dihedral-no-anti", "--group", "S3"],
    ])
    def test_a_parameter_the_check_does_not_read_is_a_usage_error(self, capsys, verify_args):
        assert main(["verify", *verify_args]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {verify_args[0]} does not read ")
        assert "HOLDS" not in captured.out

    def test_dihedral_claim_below_its_range_is_skipped(self, capsys):
        assert main(["verify", "dihedral-no-anti", "--n", "1"]) == 0
        assert "[skip] dihedral-no-anti :: R1" in capsys.readouterr().out

    def test_pinned_parameters_are_respected(self, capsys):
        code = main(
            ["verify", "p-family-aut", "--group", "Z4", "--c", "2", "--format", "json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert all("c=2" in chk["inputs"] for chk in report["checks"])

    def test_output_file(self, tmp_path):
        target = tmp_path / "core.json"
        code = main(
            ["verify", "core", "--group", "Z6", "--format", "json", "-o", str(target)]
        )
        assert code == 0
        report = json.loads(target.read_text())
        assert report["summary"]["failed"] == 0

    @pytest.mark.parametrize("args, report", _JSON_COMMANDS, ids=["-".join(a[:2]) for a, _ in _JSON_COMMANDS])
    def test_json_report_is_written_as_json_dumps_writes_it(self, tmp_path, capsys, args, report):
        want = json.dumps(report(), indent=2) + "\n"
        target = tmp_path / "v.json"
        args = [*args, "--format", "json"]
        assert main([*args, "-o", str(target)]) == 0
        assert target.read_bytes() == want.encode()
        assert capsys.readouterr().out == ""
        assert main(args) == 0
        assert capsys.readouterr().out == want


class TestCensusCommand:
    @pytest.mark.parametrize("specs", [("S3", "S4"), ("S3",)])
    def test_summary_line_has_the_five_counts(self, specs, monkeypatch, capsys):
        from quandlekit import cli, named_group, run_census

        monkeypatch.setattr(cli, "run_census", lambda: run_census([named_group(s) for s in specs]))
        assert main(["census", "--format", "text"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        pattern = r"census: \d+ verdicts, \d+ hold, 0 failed, \d+ vacuous, \d+ skipped"
        assert re.fullmatch(pattern, line), line
