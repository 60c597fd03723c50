import argparse
import contextlib
import enum
import errno
import io
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rigidcurves
from rigidcurves.certify import (
    ENUMERATION_GUARD,
    Certificate,
    Clause,
    CicyType,
    DerivedVerdict,
    _document,
    certify,
    enumerate_region,
    verify_node_table,
)
from rigidcurves.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_IO_ERROR,
    _certificate_row,
    _member,
    main,
)


def run_process(argv, stderr=subprocess.PIPE, **kwargs):
    """``python -m rigidcurves argv`` in a fresh interpreter, stderr kept."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(rigidcurves.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "rigidcurves", *argv],
                          stderr=stderr, env=env, timeout=60, **kwargs)


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

    @pytest.mark.parametrize(
        "d, g",
        [(10_001, 0), (1, 10_001), (10**2200, 0), (1, 10**4299)],
        ids=["d-10001", "g-10001", "d-10^2200", "g-10^4299"],
    )
    def test_degree_or_genus_over_guard_rejected(self, d, g):
        code, out, err = run_cli(
            ["certify", "--type", "2,2,2,2", "--d", str(d), "--g", str(g)]
        )
        assert code == 2
        assert out == ""
        assert "error:" in err and "10000" in err

    def test_guard_value_itself_allowed(self):
        code, out, _ = run_cli(
            ["certify", "--type", "5", "--d", "10000", "--g", "10000"]
        )
        assert code == 1
        assert json.loads(out)["input"]["d"] == 10_000

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

    def test_invalid_family(self):
        code, out, err = run_cli(
            ["enumerate", "--type", "7", "--d-max", "3", "--g-max", "1"]
        )
        assert code == 2
        assert out == ""
        assert "argument --type" in err and "five families" in err

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

    def test_json_streamed_one_certificate_at_a_time(self):
        class RecordingWriter(io.StringIO):
            def __init__(self):
                super().__init__()
                self.sizes = []

            def write(self, text):
                self.sizes.append(len(text))
                return super().write(text)

        out = RecordingWriter()
        with contextlib.redirect_stdout(out):
            code = main(["enumerate", "--type", "4,2", "--d-max", "40",
                         "--g-max", "8", "--format", "json"])
        assert code == 0
        assert len(out.getvalue().encode()) > 2**20
        assert max(out.sizes) <= 16 * 1024

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(list(CicyType)), st.integers(0, 12),
           st.integers(0, 5))
    def test_json_round_trips_small_regions(self, cicy, d_max, g_max):
        code, out, _ = run_cli(
            ["enumerate", "--type", cicy.type_string(), "--d-max", str(d_max),
             "--g-max", str(g_max)]
        )
        assert code == 0
        assert json.loads(out) == {
            "input": {"type": cicy.type_string(), "d_max": d_max,
                      "g_max": g_max},
            "certificates": [
                c.to_dict() for c in enumerate_region(cicy, d_max, g_max)
            ],
        }

    # The JSON writer encodes a sub-document only when it differs from the
    # previous certificate's, so compare bytes: json.loads reads true == 1.
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(list(CicyType)), st.integers(0, 40),
           st.integers(0, 10))
    @example(CicyType.FOUR_QUADRICS, 40, 7)  # the g = 7, 8 rays
    @example(CicyType.FOUR_QUADRICS, 40, 8)
    @example(CicyType.CUBIC_TWO_QUADRICS, 9, 5)  # the exceptions
    @example(CicyType.CUBIC_TWO_QUADRICS, 10, 6)
    @example(CicyType.CUBIC_TWO_QUADRICS, 11, 7)
    def test_json_matches_json_dumps_byte_for_byte(self, cicy, d_max, g_max):
        code, out, _ = run_cli(
            ["enumerate", "--type", cicy.type_string(), "--d-max", str(d_max),
             "--g-max", str(g_max), "--format", "json"]
        )
        assert code == 0
        assert out == json.dumps({
            "input": {"type": cicy.type_string(), "d_max": d_max,
                      "g_max": g_max},
            "certificates": [
                c.to_dict() for c in enumerate_region(cicy, d_max, g_max)
            ],
        }, indent=2) + "\n"

    def test_json_builds_a_member_only_when_its_record_changes(
            self, monkeypatch):
        builds = {Clause: 0, DerivedVerdict: 0}
        for record in builds:
            def counted(self, record=record, members=record.members):
                builds[record] += 1
                return members(self)
            monkeypatch.setattr(record, "members", counted)
        details = 0

        def counted_detail(clause, detail=Clause.detail.fget):
            nonlocal details
            details += 1
            return detail(clause)
        monkeypatch.setattr(Clause, "detail", property(counted_detail))

        code, _, _ = run_cli(["enumerate", "--type", "2,2,2,2", "--d-max",
                              "40", "--g-max", "8", "--format", "json"])
        assert code == 0
        certificates = list(enumerate_region(CicyType.FOUR_QUADRICS, 40, 8))
        clauses = [c.stated.clauses for c in certificates]
        derived = [c.derived for c in certificates]
        # a clause is built where it differs from the clause at its
        # position in the previous certificate
        clause_changes = len(clauses[0]) + sum(
            a != b for old, new in zip(clauses, clauses[1:])
            for a, b in zip(old, new))
        changes = 1 + sum(a != b for a, b in zip(derived, derived[1:]))
        assert clause_changes < len(certificates) * len(clauses[0]) // 2
        assert changes < len(derived) // 4
        assert builds == {Clause: clause_changes, DerivedVerdict: changes}
        assert details == clause_changes

    def test_json_encodes_warnings_once_per_change(self, monkeypatch):
        # Certificate.warnings returns shared tuples, so the writer encodes a
        # certificate's warnings only where they differ from the previous
        # certificate's
        encodes = changes = 0

        def counted(slots, at, value, newline, member=_member):
            nonlocal encodes
            held = slots.get(at)
            encodes += at == "warnings" and (held is None
                                             or held[0] is not value)
            return member(slots, at, value, newline)
        monkeypatch.setattr(sys.modules["rigidcurves.cli"], "_member", counted)
        for cicy in CicyType:
            code, _, _ = run_cli(["enumerate", "--type", cicy.type_string(),
                                  "--d-max", "40", "--g-max", "8",
                                  "--format", "json"])
            assert code == 0
            warnings = [c.warnings for c in enumerate_region(cicy, 40, 8)]
            changes += 1 + sum(a != b for a, b in zip(warnings, warnings[1:]))
        assert encodes == changes <= 90

    def test_json_encodes_routes_once_per_change(self, monkeypatch):
        # the writer encodes a route where the route record changes: from
        # d = 2g - 1 on every row holds the one shared Riemann-Roch record
        encodes = Counter()

        def counted(slots, at, value, newline, member=_member):
            held = slots.get(at)
            encodes[at] += held is None or held[0] is not value
            return member(slots, at, value, newline)
        monkeypatch.setattr(sys.modules["rigidcurves.cli"], "_member", counted)
        for cicy in CicyType:
            code, _, _ = run_cli(["enumerate", "--type", cicy.type_string(),
                                  "--d-max", "40", "--g-max", "8",
                                  "--format", "json"])
            assert code == 0
        assert encodes["route"] <= 257 and encodes["lattice"] <= 160

    @pytest.mark.parametrize("fmt, start, sep, end", [
        ("csv", "", ",", "\n"), ("markdown", "| ", " | ", " |\n")])
    def test_rows_match_certificate_rows_byte_for_byte(self, fmt, start, sep,
                                                       end):
        # d <= 60, g <= 12 holds column switches, the (2,2,2,2) rays of
        # disagreement and the exceptional pairs
        header = start + sep.join(["d", "g", "stated", "derived", "embedding",
                                   "n", "count", "warnings"]) + end
        rule = start + sep.join(["---"] * 8) + end if fmt == "markdown" else ""
        for cicy in CicyType:
            code, out, _ = run_cli(["enumerate", "--type", cicy.type_string(),
                                    "--d-max", "60", "--g-max", "12",
                                    "--format", fmt])
            assert code == 0
            assert out == header + rule + "".join(
                start + sep.join(_certificate_row(c)) + end
                for c in enumerate_region(cicy, 60, 12))

    def test_rows_read_warnings_once_per_verdict_change(self, monkeypatch):
        # the cells after d and g are rebuilt only where the pair
        # (stated.accept, derived) differs from the previous certificate's
        changes = certificates = 0
        for cicy in CicyType:
            held = None
            for c in enumerate_region(cicy, 40, 8):
                changes += (c.stated.accept, c.derived) != held
                certificates += 1
                held = c.stated.accept, c.derived
        reads = 0

        def counted(certificate, warnings=Certificate.warnings.fget):
            nonlocal reads
            reads += 1
            return warnings(certificate)
        monkeypatch.setattr(Certificate, "warnings", property(counted))
        for cicy in CicyType:
            code, _, _ = run_cli(["enumerate", "--type", cicy.type_string(),
                                  "--d-max", "40", "--g-max", "8",
                                  "--format", "csv"])
            assert code == 0
        assert reads == changes < certificates / 5

    def test_json_builds_no_dict(self, monkeypatch):
        # every command writes its JSON from members() alone: no record's
        # to_dict(), the same bytes and the same exit code
        def certified(d, g, code):
            return (["certify", "--type", "5", "--d", str(d), "--g", str(g)],
                    code, certify(CicyType.QUINTIC, d, g).to_dict())

        checks = verify_node_table()
        cases = [
            (["enumerate", "--type", "2,2,2,2", "--d-max", "40", "--g-max",
              "8", "--format", "json"], 0, {
                "input": {"type": "2,2,2,2", "d_max": 40, "g_max": 8},
                "certificates": [c.to_dict() for c in enumerate_region(
                    CicyType.FOUR_QUADRICS, 40, 8)]}),
            certified(6, 2, 0),
            certified(5, 3, 1),
            certified(6, 40, 1),
            (["table"], 0, {"rows": [c.row.to_dict() for c in checks]}),
            (["table", "--verify"], 3,
             {"rows": [c.to_dict() for c in checks], "all_agree": False}),
            (["count", "--n", "20", "--ell", "5"], 0,
             {"n": 20, "ell": 5, "excess_count": "8568",
              "binomial_count": "8568", "agree": True}),
        ]
        # accepted, rejected, and outside the supported degree range
        assert [case[2]["derived"]["reason"].split(":")[0]
                for case in cases[1:4]] == ["accepted", "no-viable-embedding",
                                            "out-of-range"]
        for name in ("Certificate", "StatedVerdict", "Clause",
                     "DerivedVerdict", "RowAssessment", "EmbeddingRow",
                     "KnutsenVerdict", "RouteResult", "NonspecialVerdict",
                     "TableCheck"):
            def refuse(self, name=name):
                raise AssertionError(f"{name}.to_dict called")
            monkeypatch.setattr(getattr(rigidcurves, name), "to_dict", refuse)
        for argv, code, expected in cases:
            assert run_cli(argv) == (
                code, json.dumps(expected, indent=2) + "\n", ""), argv


class Discard:
    """A stdout that keeps nothing written to it."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def traced_peak(run):
    """Peak bytes allocated by ``run()`` and alive at once, by tracemalloc."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFlatMemory:
    # 6718 certificates, about 14 MB when held at once; one at a time they
    # fit in well under 1 MiB
    def test_library_iterator(self):
        def consume():
            for _ in enumerate_region(CicyType.QUINTIC, 200, 40):
                pass

        assert traced_peak(consume) < 2**20

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cli(self, fmt):
        def run():
            with contextlib.redirect_stdout(Discard()):
                assert main(["enumerate", "--type", "5", "--d-max", "200",
                             "--g-max", "40", "--format", fmt]) == 0

        assert traced_peak(run) < 2**20


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

    @pytest.mark.parametrize("n, ell", [(10_001, 2), (16_000, 8_000)])
    def test_node_count_over_guard_rejected(self, n, ell):
        code, out, err = run_cli(["count", "--n", str(n), "--ell", str(ell)])
        assert code == 2
        assert out == ""
        assert "error:" in err and "10000" in err

    def test_largest_count_under_guard(self):
        # C(9998, 4999) has about 3000 digits, under the int-to-str limit
        code, out, _ = run_cli(["count", "--n", "10000", "--ell", "4999"])
        assert code == 0
        doc = json.loads(out)
        assert doc["agree"] is True
        assert 2900 < len(doc["excess_count"]) < 3100


class TestCliContract:
    def test_unknown_command(self):
        code, _, _ = run_cli(["frobnicate"])
        assert code == 2

    def test_missing_required_argument(self):
        code, _, _ = run_cli(["certify", "--type", "5", "--d", "6"])
        assert code == 2

    # each required argument omitted in turn, and the subcommand
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["certify", "--d", "6", "--g", "2"],
            ["certify", "--type", "5", "--g", "2"],
            ["enumerate", "--d-max", "6", "--g-max", "2"],
            ["enumerate", "--type", "5", "--g-max", "2"],
            ["enumerate", "--type", "5", "--d-max", "6"],
            ["count", "--ell", "3"],
            ["count", "--n", "16"],
        ],
        ids=["command", "certify-type", "certify-d", "enumerate-type",
             "enumerate-d-max", "enumerate-g-max", "count-n", "count-ell"],
    )
    def test_each_required_argument_is_required(self, argv):
        code, out, _ = run_cli(argv)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("fmt", ["csv", "markdown"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--type", "5", "--d", "6", "--g", "2"],
            ["count", "--n", "16", "--ell", "3"],
        ],
        ids=["certify", "count"],
    )
    def test_non_json_format_rejected(self, argv, fmt):
        code, out, err = run_cli(argv + ["--format", fmt])
        assert code == 2
        assert out == ""
        assert "json" in err

    def test_help_exits_zero(self):
        code, _, _ = run_cli(["--help"])
        assert code == 0

    def test_parser_built_once(self, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("main built a parser")

        assert run_cli(["table"])[0] == 0  # the first call may build it
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", build)
        code, out, _ = run_cli(["count", "--n", "16", "--ell", "3"])
        assert code == 0 and json.loads(out)["agree"] is True
        assert run_cli(["certify", "--type", "5", "--d", "-1", "--g", "0"])[0] == 2

    @pytest.mark.parametrize(
        "fmt, d_max, g_max, head",
        [
            # about 1.2 MB of JSON, and 0.8 MB of CSV: far more than a pipe
            # buffer holds
            ("json", "40", "8", b'{\n  "input": {\n'),
            ("csv", "400", "80",
             b"d,g,stated,derived,embedding,n,count,warnings\n"),
        ],
        ids=["json", "csv"],
    )
    def test_closed_pipe_exits_141_quietly(self, fmt, d_max, g_max, head):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(rigidcurves.__file__).resolve().parents[1])
        with subprocess.Popen(
            [sys.executable, "-m", "rigidcurves", "enumerate", "--type", "4,2",
             "--d-max", d_max, "--g-max", g_max, "--format", fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            assert proc.stdout.read(len(head)) == head
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE == 141
        assert err == b""  # no traceback, nothing at all

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full to write to")
    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--type", "5", "--d", "6", "--g", "2"],
            ["enumerate", "--type", "5", "--d-max", "40", "--g-max", "8"],
            ["enumerate", "--type", "5", "--d-max", "40", "--g-max", "8",
             "--format", "csv"],
            ["table"],
            ["count", "--n", "16", "--ell", "3"],
        ],
        ids=["certify", "enumerate-json", "enumerate-csv", "table", "count"],
    )
    def test_full_disk_exits_74_with_one_line(self, argv):
        # a failed write is no rejection (1) and no traceback
        with open("/dev/full", "wb") as full:
            result = run_process(argv, stdout=full)
        assert result.returncode == EXIT_IO_ERROR == 74
        assert result.stderr.startswith(b"error: cannot write output: ")
        assert result.stderr.count(b"\n") == 1
        assert b"Traceback" not in result.stderr

    @staticmethod
    def _write_failing(error):
        """``main`` on a stdout with no descriptor whose writes raise
        ``error``: its exit code and stderr."""
        class Failing(io.StringIO):
            def write(self, text):
                raise error
        err = io.StringIO()
        with contextlib.redirect_stdout(Failing()), \
                contextlib.redirect_stderr(err):
            code = main(["certify", "--type", "5", "--d", "6", "--g", "2"])
        return code, err.getvalue()

    def test_full_stream_exits_74_with_one_line(self):
        code, err = self._write_failing(
            OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))
        assert code == EXIT_IO_ERROR
        assert err.startswith("error: cannot write output: ")
        assert err.count("\n") == 1

    def test_broken_pipe_stream_exits_141_quietly(self):
        code, err = self._write_failing(
            BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)))
        assert code == EXIT_BROKEN_PIPE and err == ""

    def test_closed_stdout_exits_74_with_one_line(self):
        # started with fd 1 closed, as by ``>&-``: Python has no sys.stdout
        result = run_process(
            ["certify", "--type", "5", "--d", "6", "--g", "2"],
            preexec_fn=lambda: os.close(1))
        assert result.returncode == EXIT_IO_ERROR
        assert result.stderr == (
            b"error: cannot write output: stdout is closed\n")

    # invalid input whose error line goes through _fail (count, enumerate)
    # or through argparse (certify)
    INVALID = [
        ["count", "--n", "3", "--ell", "2"],
        ["enumerate", "--type", "5", "--d-max", "20000", "--g-max", "0"],
        ["certify", "--type", "7", "--d", "1", "--g", "1"],
    ]

    @pytest.mark.parametrize("argv", INVALID,
                             ids=["count", "enumerate", "certify"])
    def test_closed_stderr_keeps_errors_off_stdout(self, argv):
        # started with fd 2 closed, as by ``2>&-``: Python has no sys.stderr,
        # and print() and argparse would fall back to stdout
        result = run_process(argv, stdout=subprocess.PIPE,
                             preexec_fn=lambda: os.close(2))
        assert (result.returncode, result.stdout) == (2, b"")

    @pytest.mark.parametrize("argv", INVALID,
                             ids=["count", "enumerate", "certify"])
    def test_no_stderr_in_process_keeps_errors_off_stdout(self, monkeypatch,
                                                           argv):
        monkeypatch.setattr(sys, "stderr", None)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        sink = sys.stderr
        sink.close()  # main opened it in place of the missing stream
        assert (code, out.getvalue(), sink.name) == (2, "", os.devnull)

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full to write to")
    def test_full_disk_with_closed_stderr_exits_74(self):
        # the error line cannot be written; the exit code alone reports it
        with open("/dev/full", "wb") as full:
            result = run_process(
                ["certify", "--type", "5", "--d", "6", "--g", "2"],
                stdout=full, preexec_fn=lambda: os.close(2))
        assert result.returncode == EXIT_IO_ERROR

    def test_read_only_stderr_exits_2(self):
        # fd 2 open but not writable: the error line is dropped, not raised
        with open(os.devnull, "rb") as read_only:
            result = run_process(["count", "--n", "3", "--ell", "2"],
                                 stdout=subprocess.PIPE, stderr=read_only)
        assert (result.returncode, result.stdout) == (2, b"")

    @pytest.mark.parametrize("argv", INVALID[1:], ids=["enumerate", "certify"])
    def test_read_only_stderr_exits_2_through_each_writer(self, argv):
        # as above, for _fail's other caller and for argparse's own writer
        with open(os.devnull, "rb") as read_only:
            result = run_process(argv, stdout=subprocess.PIPE,
                                 stderr=read_only)
        assert (result.returncode, result.stdout) == (2, b"")

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--type", "5", "--d", "abc", "--g", "2"],
            ["certify", "--type", "5", "--d", "6", "--g", "abc"],
            ["count", "--n", "abc", "--ell", "3"],
        ],
        ids=["d", "g", "n"],
    )
    def test_non_integer_names_the_option(self, argv):
        code, out, err = run_cli(argv)
        option = argv[argv.index("abc") - 1]
        assert (code, out) == (2, "")
        assert f"argument {option}: invalid int value: 'abc'" in err
        assert "_bounded_int" not in err

    def test_import_generates_no_code(self):
        # pytest itself loads inspect, so only a fresh interpreter can tell;
        # -S keeps the site hook's imports out of the answer
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(rigidcurves.__file__).resolve().parents[1])
        probe = ("import sys, rigidcurves.cli; print(sorted(sys.modules.keys()"
                 " & {'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}))")
        result = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                                capture_output=True, text=True, timeout=60)
        assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr

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


# negatives, small values where verdicts change, and values on and past the
# work bound
cli_ints = st.one_of(
    st.integers(-5, 60),
    st.integers(-(10**6), 10**6),
    st.integers(ENUMERATION_GUARD - 2, ENUMERATION_GUARD + 2),
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(CicyType)), cli_ints, cli_ints)
def test_certify_round_trips_through_json(cicy, d, g):
    argv = ["certify", "--type", cicy.type_string(), "--d", str(d), "--g", str(g)]
    code, out, _ = run_cli(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
    else:
        assert json.loads(out) == certify(cicy, d, g).to_dict()


# strings with non-ASCII, control characters, quotes, backslashes and lone
# surrogates; ints of a few hundred digits
json_strings = st.text(
    st.one_of(
        st.characters(),
        st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
        st.sampled_from('"\\\x00\x1f\x7f\u2028'),
    ),
    max_size=8,
)
json_leaves = st.one_of(
    json_strings,
    st.integers(-(10**300), 10**300),
    st.booleans(),
    st.none(),
)


class Pairs(NamedTuple):  # a test record: its members are its pairs
    pairs: tuple

    def members(self) -> tuple:
        return self.pairs


def records(values, keys=json_strings):
    """Records whose ``members()`` pair distinct ``keys`` with ``values``."""
    return st.dictionaries(keys, values, max_size=4).map(
        lambda members: Pairs(tuple(members.items())))


# every shape a record's members() may hold: scalars, tuples (empty and
# nested) and records (empty and nested)
json_values = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(tuple), records(children)),
    max_leaves=20,
)


def buried(bad):
    """Records that hold ``bad`` at some depth, after other members."""
    return st.recursive(
        bad,
        lambda inner: st.one_of(
            st.tuples(json_values, inner),
            st.tuples(json_strings, inner, json_values).map(
                lambda t: Pairs(((t[0], t[1]), (t[0] + "'", t[2])))),
        ),
        max_leaves=5,
    )


class Label(str):
    pass


class Level(enum.IntEnum):
    ONE = 1


class Point(NamedTuple):  # a tuple that is no record: it has no members()
    x: int


class TestJsonEncoder:
    """The one JSON writer, ``_member``, over test records."""

    @settings(max_examples=200, deadline=None)
    @given(records(json_values))
    @example(Pairs(()))
    @example(Pairs((("a", ()), ("b", ((), Pairs(()))), ("c", Pairs(())))))
    def test_matches_indented_json_dumps(self, record):
        assert _member({}, None, record, "\n") == json.dumps(
            _document(record), indent=2)

    @settings(max_examples=100, deadline=None)
    @given(buried(st.floats()))
    def test_no_floats_anywhere(self, value):
        with pytest.raises(TypeError):
            _member({}, None, value, "\n")

    @settings(max_examples=100, deadline=None)
    @given(buried(records(json_values, st.one_of(
        st.integers(), st.none(), st.booleans(), st.floats(), st.binary()))
        .filter(lambda record: record.pairs)))
    def test_no_non_str_keys_anywhere(self, value):
        with pytest.raises(TypeError):
            _member({}, None, value, "\n")

    @pytest.mark.parametrize(
        "record",
        [Pairs(((1, "a"),)), Pairs(((None, 1),)), Pairs(((True, 1),)),
         Pairs(((1.5, 1),)), Pairs((("a", Pairs(((2, ()),))),)),
         Pairs((("a", (Label("a"),)),)), Pairs((("a", Level.ONE),)),
         Pairs((("a", Point(1)),))],
        ids=["int-key", "none-key", "bool-key", "float-key", "nested-key",
             "str-subclass", "int-subclass", "tuple"],
    )
    def test_other_types_rejected(self, record):
        with pytest.raises(TypeError):
            _member({}, None, record, "\n")


class Reading(NamedTuple):  # a record whose member is not JSON
    value: object

    def members(self) -> tuple:
        return (("value", self.value),)


class Loose:  # members() on a class that is no tuple, so no record
    def members(self) -> tuple:
        return (("a", 1),)


class TestMemberWriter:
    @pytest.mark.parametrize(
        "value", [1.5, {"a": 1}, Label("a"), Level.ONE, [1], frozenset(),
                  Point(1), Loose()],
        ids=["float", "dict", "str-subclass", "int-subclass", "list", "set",
             "namedtuple", "not-a-tuple"])
    def test_other_types_rejected(self, value):
        for document in (Reading(value), Reading((value,)),
                         Reading(Reading(value))):
            with pytest.raises(TypeError):
                _member({}, None, document, "\n")

    # A slot reuses its text only for the very record it holds: records that
    # are equal (==) may still encode differently, since True == 1 and a
    # record equals a record of another type with equal fields.
    @pytest.mark.parametrize("first, second", [
        (Pairs((("a", True),)), Pairs((("a", 1),))),
        (Pairs((("a", 1),)), Pairs((("a", True),))),
        (Pairs((("a", (True,)),)), Pairs((("a", (1,)),))),
        (Pairs((("a", Reading(False)),)), Pairs((("a", Reading(0)),))),
        (Pairs((("value", 1),)), Reading((("value", 1),))),
    ], ids=["true-then-1", "1-then-true", "in-a-list", "in-a-record",
            "other-record-type"])
    def test_equal_records_encode_from_their_own_members(self, first,
                                                          second):
        assert first == second
        slots = {}
        for record in (first, second, first):
            assert _member(slots, None, record, "\n") == json.dumps(
                _document(record), indent=2)
