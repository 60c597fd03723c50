import contextlib
import io
import json

import pytest

from rigidcurves.cli import main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestCertifyCommand:
    def test_accepted_certificate(self):
        code, out, _ = run_cli(["certify", "--type", "5", "--d", "6", "--g", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == "561"
        assert doc["input"] == {"type": "5", "degrees": [5], "d": 6, "g": 2}
        assert doc["derived"]["chosen"]["k3"] == [3, 2]
        assert doc["warnings"] == []

    def test_rejected_certificate(self):
        code, out, _ = run_cli(["certify", "--type", "5", "--d", "5", "--g", "3"])
        assert code == 1
        doc = json.loads(out)
        assert doc["stated"]["reason"] == "forbidden-pair"
        assert doc["count"] is None

    def test_disagreement_warning_emitted(self):
        code, out, _ = run_cli(
            ["certify", "--type", "2,2,2,2", "--d", "13", "--g", "8"]
        )
        assert code == 1
        doc = json.loads(out)
        assert "stated-derived-disagreement" in doc["warnings"]

    def test_invalid_family(self):
        code, out, err = run_cli(["certify", "--type", "6", "--d", "1", "--g", "0"])
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_negative_input(self):
        code, _, err = run_cli(["certify", "--type", "5", "--d", "-1", "--g", "0"])
        assert code == 2
        assert "nonnegative" in err

    def test_non_json_format_rejected(self):
        code, _, err = run_cli(
            ["certify", "--type", "5", "--d", "6", "--g", "2", "--format", "csv"]
        )
        assert code == 2
        assert "json" in err

    def test_counts_serialized_as_strings(self):
        # C(34, 17) overflows a double's 53-bit mantissa; it must arrive
        # as a decimal string, not a JSON number
        code, out, _ = run_cli(["certify", "--type", "5", "--d", "40", "--g", "17"])
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == "2333606220"
        assert isinstance(doc["count"], str)


class TestEnumerateCommand:
    def test_json_document(self):
        code, out, _ = run_cli(
            ["enumerate", "--type", "5", "--d-max", "4", "--g-max", "0"]
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["certificates"]) == 4
        assert all(c["count"] == "1" for c in doc["certificates"])

    def test_csv_includes_exceptional_pair(self):
        code, out, _ = run_cli(
            ["enumerate", "--type", "3,3", "--d-max", "3", "--g-max", "1",
             "--format", "csv"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "d,g,stated,derived,embedding,n,count,warnings"
        accept_row = [l for l in lines[1:] if l.startswith("3,1,")]
        assert accept_row == ["3,1,accept,accept,3-2-1,12,10,"]

    def test_empty_region(self):
        code, out, _ = run_cli(
            ["enumerate", "--type", "5", "--d-max", "0", "--g-max", "0"]
        )
        assert code == 0
        assert json.loads(out)["certificates"] == []

    def test_markdown_has_header_row(self):
        code, out, _ = run_cli(
            ["enumerate", "--type", "5", "--d-max", "2", "--g-max", "0",
             "--format", "markdown"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("| d | g |")
        assert set(lines[1].replace("|", "").split()) == {"---"}

    def test_bad_bounds(self):
        code, _, err = run_cli(
            ["enumerate", "--type", "5", "--d-max", "-1", "--g-max", "0"]
        )
        assert code == 2
        assert "nonnegative" in err
        code, _, err = run_cli(
            ["enumerate", "--type", "5", "--d-max", "20000", "--g-max", "0"]
        )
        assert code == 2
        assert "guard" in err

    def test_genus_bound_past_degree_reach_changes_nothing(self):
        def csv(g_max):
            return run_cli(
                ["enumerate", "--type", "5", "--d-max", "10", "--g-max", g_max,
                 "--format", "csv"]
            )

        huge, small = csv("1000000000"), csv("6")
        assert huge[0] == small[0] == 0
        assert huge[1] == small[1]


class TestTableCommand:
    def test_plain_table(self):
        code, out, _ = run_cli(["table"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 10
        first = doc["rows"][0]
        assert first == {"cicy": [5], "k3": [4, 1], "n": 16, "m": 2}

    def test_verify_reports_known_mismatch(self):
        code, out, _ = run_cli(["table", "--verify"])
        assert code == 3
        doc = json.loads(out)
        assert doc["all_agree"] is False
        bad = [r for r in doc["rows"] if not r["agree"]]
        assert len(bad) == 1
        assert bad[0]["cicy"] == [3, 3]
        assert bad[0]["k3"] == [2, 2, 2]
        assert bad[0]["n"] == 32
        assert bad[0]["computed_n"] == 24

    def test_markdown_format(self):
        code, out, _ = run_cli(["table", "--format", "markdown"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "| cicy | k3 | n |"
        assert "| 5 | 4-1 | 16 |" in lines

    def test_csv_format_verify(self):
        code, out, _ = run_cli(["table", "--verify", "--format", "csv"])
        assert code == 3
        lines = out.splitlines()
        assert lines[0] == "cicy,k3,n,computed_n,agree"
        assert "3-3,2-2-2,32,24,no" in lines


class TestCountCommand:
    def test_both_routes_reported(self):
        code, out, _ = run_cli(["count", "--n", "16", "--ell", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "n": 16,
            "ell": 3,
            "excess_count": "364",
            "binomial_count": "364",
            "agree": True,
        }

    def test_hypothesis_violation_is_invalid_input(self):
        code, _, err = run_cli(["count", "--n", "3", "--ell", "2"])
        assert code == 2
        assert "n >= ell + 2" in err


class TestCliContract:
    def test_unknown_command(self):
        code, _, _ = run_cli(["frobnicate"])
        assert code == 2

    def test_missing_required_argument(self):
        code, _, _ = run_cli(["certify", "--type", "5", "--d", "6"])
        assert code == 2

    def test_help_exits_zero(self):
        code, _, _ = run_cli(["--help"])
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--type", "5", "--d", "6", "--g", "2"],
            ["enumerate", "--type", "3,3", "--d-max", "4", "--g-max", "2"],
            ["table", "--verify"],
            ["count", "--n", "20", "--ell", "5"],
        ],
    )
    def test_byte_identical_output(self, argv):
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second
