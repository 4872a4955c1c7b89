import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from diffeokit import cli
from diffeokit.catalog import build_catalog_space, catalog_names
from diffeokit.cli import run_command
from diffeokit.tangent import ColimitResult
from diffeokit.textio import _MAX_NESTING, export_presentation, parse_presentation


def run(capsys, argv):
    code = run_command(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    return code, json.loads(out), err


WEDGE_FORM_FILE = (
    export_presentation(build_catalog_space("wedge_lines", {"m": 2}).presentation)
    + "form basis_x : degree 1 on wedge_lines\n"
    + "on x1 : 2 d[1]\n"
    + "on x2 : 3 d[1]\n"
)

Z2_FILE = (
    export_presentation(build_catalog_space("z2_quotient").presentation)
    + "form vol : degree 2 on z2_quotient\n"
    + "on c : d[1,2]\n"
    + "form bad : degree 1 on z2_quotient\n"
    + "on c : d[1]\n"
)

SECTION_FILE = """
section ok : tangent on wedge_lines
on x1 : [s1^2]
on x2 : [s1^3]
section off : tangent on wedge_lines
on x1 : [1 + s1]
on x2 : [s1]
section ell : cotangent on wedge_lines
on x1 : [1 + s1]
on x2 : [2 - s1]
"""


class TestStatedInvocations:
    def test_rho_on_glued_axes(self, capsys):
        code, out, _ = run(capsys, ["rho", "catalog:wedge_lines", "--k", "2"])
        assert code == 0
        assert "source 0, target 1" in out
        assert "not surjective" in out

    def test_filtered_on_the_quotient(self, capsys):
        code, out, _ = run(capsys, ["filtered", "catalog:z2_quotient", "--depth", "4"])
        assert code == 0
        assert "weakly_filtered: yes" in out
        assert "filtered: no" in out

    def test_tangent_on_spaghetti(self, capsys):
        code, out, _ = run(
            capsys, ["tangent", "catalog:spaghetti", "--params", "m=3"]
        )
        assert code == 0
        assert "dim T = 3" in out


class TestJsonAgreesWithTables:
    def test_rho_numbers_match(self, capsys):
        _, out, _ = run(capsys, ["rho", "catalog:wedge_lines", "--k", "2"])
        code, payload, _ = run_json(capsys, ["rho", "catalog:wedge_lines", "--k", "2"])
        assert code == 0
        assert f"source {payload['source_dim']}" in out
        assert f"target {payload['target_dim']}" in out
        assert f"rank {payload['rank']}" in out
        assert payload["surjective"] is False
        assert payload["injective"] is True
        assert payload["iso"] is False

    def test_filtered_fields_match(self, capsys):
        _, out, _ = run(capsys, ["filtered", "catalog:z2_quotient", "--depth", "4"])
        code, payload, _ = run_json(
            capsys, ["filtered", "catalog:z2_quotient", "--depth", "4"]
        )
        assert code == 0
        assert f"weakly_filtered: {payload['weakly_filtered']}" in out
        assert f"filtered: {payload['filtered']}" in out
        assert str(payload["arrow_count"]) in out

    def test_tangent_dim_matches(self, capsys):
        _, out, _ = run(capsys, ["tangent", "catalog:spaghetti", "--params", "m=3"])
        code, payload, _ = run_json(
            capsys, ["tangent", "catalog:spaghetti", "--params", "m=3"]
        )
        assert code == 0
        assert f"dim T = {payload['dim']}" in out


class TestFormCommands:
    def test_check_form_compatible(self, capsys, tmp_path):
        path = tmp_path / "z2.dk"
        path.write_text(Z2_FILE)
        code, out, _ = run(capsys, ["check-form", str(path), "--form", "vol"])
        assert code == 0
        assert "compatible" in out

    def test_check_form_incompatible_reports_arrow_and_residual(self, capsys, tmp_path):
        path = tmp_path / "z2.dk"
        path.write_text(Z2_FILE)
        code, payload, _ = run_json(capsys, ["check-form", str(path), "--form", "bad"])
        assert code == 0  # negative verdicts exit 0 without --strict
        assert payload["compatible"] is False
        assert payload["failing_arrow"] == "neg"
        assert "d[1]" in payload["residual"]

    def test_check_form_strict_exit_code(self, capsys, tmp_path):
        path = tmp_path / "z2.dk"
        path.write_text(Z2_FILE)
        code, _, _ = run(capsys, ["check-form", str(path), "--form", "bad", "--strict"])
        assert code == 1

    def test_eval_form_coordinates(self, capsys, tmp_path):
        path = tmp_path / "wedge.dk"
        path.write_text(WEDGE_FORM_FILE)
        code, payload, _ = run_json(capsys, ["eval-form", str(path), "--form", "basis_x"])
        assert code == 0
        assert payload["coords"] == ["2", "3"]
        assert payload["fibre_dim"] == 2

    def test_eval_form_builds_one_colimit(self, capsys, tmp_path, call_counts):
        path = tmp_path / "wedge.dk"
        path.write_text(WEDGE_FORM_FILE)
        code, payload, _ = run_json(capsys, ["eval-form", str(path), "--form", "basis_x"])
        assert code == 0
        assert call_counts == {
            "vect_colimit": 1, "validate_presentation": 1, "jacobian_at_zero": 2
        }

    def test_eval_form_on_z2_volume(self, capsys, tmp_path):
        path = tmp_path / "z2.dk"
        path.write_text(Z2_FILE)
        code, payload, _ = run_json(capsys, ["eval-form", str(path), "--form", "vol"])
        assert code == 0
        assert payload["coords"] == ["1"]

    def test_unknown_form_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "z2.dk"
        path.write_text(Z2_FILE)
        code, _, err = run(capsys, ["check-form", str(path), "--form", "nope"])
        assert code == 2
        assert "unknown form" in err

    def test_eval_form_incompatible_is_a_negative_verdict(self, capsys, tmp_path):
        path = tmp_path / "z2.dk"
        path.write_text(Z2_FILE)
        code, payload, _ = run_json(capsys, ["eval-form", str(path), "--form", "bad"])
        assert code == 0
        assert payload["compatible"] is False
        assert payload["failing_arrow"] == "neg"
        code, _, _ = run(capsys, ["eval-form", str(path), "--form", "bad", "--strict"])
        assert code == 1


OTHER_SPACE_SECTION = """space other
wedge
chart o : R^0
chart x1 : R^1
chart x2 : R^1
chart x3 : R^1
section t : tangent on other
on x1 : [0]
on x2 : [0]
on x3 : [5]
"""


class TestSectionsCommand:
    def test_sections_report(self, capsys, tmp_path):
        space_path = tmp_path / "wedge.dk"
        space_path.write_text(
            export_presentation(build_catalog_space("wedge_lines", {"m": 2}).presentation)
        )
        data_path = tmp_path / "sections.dk"
        data_path.write_text(SECTION_FILE)
        code, payload, _ = run_json(
            capsys, ["sections", str(space_path), "--data", str(data_path)]
        )
        assert code == 0
        by_name = {entry["name"]: entry for entry in payload["sections"]}
        assert by_name["ok"]["valid"] is True
        assert by_name["off"]["valid"] is False
        assert by_name["ell"]["valid"] is True
        assert by_name["ell"]["functional"] == ["1", "2"]

    def test_sections_strict_exit(self, capsys, tmp_path):
        space_path = tmp_path / "wedge.dk"
        space_path.write_text(
            export_presentation(build_catalog_space("wedge_lines", {"m": 2}).presentation)
        )
        data_path = tmp_path / "sections.dk"
        data_path.write_text(SECTION_FILE)
        code, _, _ = run(
            capsys,
            ["sections", str(space_path), "--data", str(data_path), "--strict"],
        )
        assert code == 1

    def test_sections_on_catalog_reference(self, capsys, tmp_path):
        data_path = tmp_path / "sections.dk"
        data_path.write_text(SECTION_FILE)
        code, out, _ = run(
            capsys, ["sections", "catalog:wedge_lines", "--data", str(data_path)]
        )
        assert code == 0
        assert "section ok (tangent): valid" in out

    def test_sections_validate_and_build_one_colimit(self, capsys, tmp_path, call_counts):
        data_path = tmp_path / "sections.dk"
        data_path.write_text(SECTION_FILE)
        code, payload, _ = run_json(
            capsys, ["sections", "catalog:wedge_lines", "--data", str(data_path)]
        )
        assert code == 0
        assert len(payload["sections"]) == 3
        assert call_counts["validate_presentation"] == 1
        assert call_counts["vect_colimit"] == 1

    def test_sections_of_another_space_are_an_input_error(self, capsys, tmp_path):
        # the data file declares a space of its own, with chart names that
        # wedge_lines also has; its section must not be checked against wedge_lines
        data_path = tmp_path / "other.dk"
        data_path.write_text(OTHER_SPACE_SECTION)
        code, out, err = run(
            capsys, ["sections", "catalog:wedge_lines", "--data", str(data_path)]
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: line 7, column 24: form or section references space 'other', "
            "available space is 'wedge_lines'\n"
        )

    def test_sections_on_non_wedge_space_is_an_input_error(self, capsys, tmp_path):
        data_path = tmp_path / "sections.dk"
        data_path.write_text("section a : tangent on z2_quotient\non c : [s1, s2]\n")
        code, _, err = run(
            capsys, ["sections", "catalog:z2_quotient", "--data", str(data_path)]
        )
        assert code == 2
        assert "not wedge-type" in err


class TestCatalogCommand:
    def test_export_round_trips_every_entry(self, capsys):
        for name in catalog_names():
            code = run_command(["catalog", name, "--export"])
            out = capsys.readouterr().out
            assert code == 0
            entry = build_catalog_space(name)
            assert parse_presentation(out).presentation == entry.presentation

    def test_summary_lists_expected_values(self, capsys):
        code, out, _ = run(capsys, ["catalog", "z2_quotient"])
        assert code == 0
        assert "tangent_dim = 0" in out
        assert "t2_dim = 1" in out

    def test_exported_file_runs_through_commands(self, capsys, tmp_path):
        run_command(["catalog", "axes_subset", "--export"])
        text = capsys.readouterr().out
        path = tmp_path / "axes.dk"
        path.write_text(text)
        code, payload, _ = run_json(capsys, ["tangent", str(path)])
        assert code == 0
        assert payload["dim"] == 2


class TestErrorPaths:
    def test_missing_file_is_an_input_error(self, capsys):
        code, _, err = run(capsys, ["tangent", "no_such_file.dk"])
        assert code == 2
        assert "error:" in err

    def test_unknown_catalog_space(self, capsys):
        code, _, err = run(capsys, ["tangent", "catalog:torus"])
        assert code == 2
        assert "unknown catalog space" in err

    def test_parse_error_carries_position(self, capsys, tmp_path):
        path = tmp_path / "broken.dk"
        path.write_text("space demo\nchart x : R^\n")
        code, _, err = run(capsys, ["tangent", str(path)])
        assert code == 2
        assert "line 2" in err

    def test_deep_nesting_is_a_positioned_input_error(self, capsys, tmp_path):
        path = tmp_path / "deep.dk"
        prefix = "arrow a : x -> x = ["
        path.write_text(
            f"space demo\nchart x : R^1\n{prefix}" + "(" * 3000 + "s1" + ")" * 3000 + "]\n"
        )
        code, _, err = run(capsys, ["tangent", str(path)])
        assert code == 2
        # the first parenthesis past the limit
        assert f"line 3, column {len(prefix) + _MAX_NESTING + 1}" in err
        assert "Traceback" not in err

    def test_bad_params_rejected(self, capsys):
        code, _, err = run(
            capsys, ["tangent", "catalog:spaghetti", "--params", "m=lots"]
        )
        assert code == 2

    def test_param_without_a_value_rejected(self, capsys):
        code, _, err = run(capsys, ["tangent", "catalog:spaghetti", "--params", "n"])
        assert code == 2
        assert "bad parameter 'n', expected KEY=VALUE" in err

    def test_section_file_without_sections_rejected(self, capsys, tmp_path):
        data_path = tmp_path / "sections.dk"
        data_path.write_text("\n")
        code, _, err = run(
            capsys, ["sections", "catalog:wedge_lines", "--data", str(data_path)]
        )
        assert code == 2
        assert "no sections found" in err

    def test_unknown_command_exits_two(self, capsys):
        assert run_command(["frobnicate"]) == 2

    def test_negative_rho_without_strict_is_zero(self, capsys):
        code, _, _ = run(capsys, ["rho", "catalog:z2_quotient", "--k", "2"])
        assert code == 0

    def test_negative_rho_with_strict_is_one(self, capsys):
        code, _, _ = run(capsys, ["rho", "catalog:z2_quotient", "--k", "2", "--strict"])
        assert code == 1

    def test_unknown_filteredness_is_reported_not_raised(self, capsys, tmp_path):
        path = tmp_path / "doubling.dk"
        path.write_text(
            "space doubling\nchart c : R^1\narrow dbl : c -> c = [2*s1]\n"
        )
        code, out, _ = run(capsys, ["filtered", str(path), "--depth", "3"])
        assert code == 0
        assert "weakly_filtered: unknown" in out
        assert "not reached" in out


class TestInternalFaults:
    def test_failed_descent_check_exits_three(self, capsys, monkeypatch):
        def broken(self, blocks, rows, what):
            raise AssertionError(f"{what} does not annihilate the relation space")

        monkeypatch.setattr(ColimitResult, "descend", broken)
        for argv in (["rho", "catalog:wedge_lines", "--k", "2"],
                     ["rho", "catalog:z2_quotient", "--k", "2", "--strict", "--json"]):
            code, out, err = run(capsys, argv)
            assert (code, out) == (3, "")
            assert err == (
                "internal error: AssertionError: "
                "the comparison map does not annihilate the relation space\n"
            )

    def test_exhausted_resources_exit_three(self, capsys, monkeypatch):
        for exc, expected in ((MemoryError(), "internal error: MemoryError\n"),
                              (RecursionError("maximum recursion\ndepth exceeded"),
                               "internal error: RecursionError: maximum recursion depth exceeded\n")):
            def raising(*args, _exc=exc):
                raise _exc

            monkeypatch.setattr(cli, "vect_colimit", raising)
            code, out, err = run(capsys, ["tangent", "catalog:wedge_lines", "--strict"])
            assert (code, out, err) == (3, "", expected)

    def test_any_other_exception_exits_three(self, capsys, monkeypatch):
        def raising(*args):
            raise KeyError("x1")

        monkeypatch.setattr(cli, "vect_colimit", raising)
        code, out, err = run(capsys, ["tangent", "catalog:wedge_lines", "--strict"])
        assert (code, out, err) == (3, "", "internal error: KeyError: 'x1'\n")


class TestOneParserPerProcess:
    def test_two_commands_build_the_parser_once(self, capsys, monkeypatch):
        builds = []
        add_subparsers = argparse.ArgumentParser.add_subparsers

        # only the top-level parser adds subparsers, once per build
        def counted(self, *args, **kwargs):
            builds.append(self)
            return add_subparsers(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
        cli._build_parser.cache_clear()
        assert run(capsys, ["tangent", "catalog:wedge_lines"])[0] == 0
        assert run(capsys, ["rho", "catalog:z2_quotient", "--k", "1"])[0] == 0
        assert len(builds) == 1

    def test_usage_error_leaves_later_commands_alone(self, capsys):
        first = ["rho", "catalog:z2_quotient", "--k", "2", "--strict", "--json"]
        second = ["tangent", "catalog:wedge_lines", "--k", "2"]
        alone = [run(capsys, first)[:2], run(capsys, second)[:2]]
        assert alone[0][0] == 1 and alone[1][0] == 0
        for bad in (["rho", "catalog:z2_quotient"], ["tangent", "--k", "x"], ["--json"]):
            got_first = run(capsys, first)[:2]
            code, out, err = run(capsys, bad)
            assert (code, out) == (2, "")
            assert "usage:" in err
            assert [got_first, run(capsys, second)[:2]] == alone


class TestModuleEntryPoint:
    """``python -m diffeokit.cli`` runs ``main``, which exits with the code."""

    @staticmethod
    def run_module(*argv, stdout=subprocess.PIPE):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "diffeokit.cli", *argv],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=60,
        )

    def test_strict_negative_rho_prints_the_readme_line_and_exits_one(self):
        result = self.run_module("rho", "catalog:wedge_lines", "--k", "2", "--strict")
        assert (result.returncode, result.stderr) == (1, "")
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        assert f"$ diffeo-kit rho catalog:wedge_lines --k 2\n{result.stdout}" in readme

    def test_usage_error_exits_two(self):
        result = self.run_module("rho", "catalog:wedge_lines")
        assert (result.returncode, result.stdout) == (2, "")
        assert "the following arguments are required: --k" in result.stderr

    def test_closed_output_pipe_leaves_no_traceback_and_does_not_exit_one(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the command writes anything
        try:
            result = self.run_module("catalog", "axes_subset", "--export", stdout=write_end)
        finally:
            os.close(write_end)
        assert "Traceback" not in result.stderr
        assert result.returncode != 1


def test_a_degree_1100_embedding_is_expanded_without_recursion(capsys, tmp_path):
    path = tmp_path / "deg.dk"
    path.write_text(
        "space deg\nchart x : R^1\nchart y : R^1\narrow f : x -> y = [2*s1]\n"
        "ambient 1\nembed x = [s1^1100]\nembed y = [(1/2)^1100*s1^1100]\n"
    )
    code, out, err = run(capsys, ["tangent", str(path)])
    assert (code, err) == (0, "")
    assert "dim T = 1" in out
