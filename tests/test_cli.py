"""Front-end behavior: grammar, golden outputs, exit codes, totality."""

import argparse
import io
import json
import os
import select
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amoh import ParseError, Poly, parse_poly, render_poly
from amoh.cli import _COMMANDS, _command_parser, _fuse_leading_minus, corpus_pairs, main, run

from conftest import Z, const


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestParsePoly:
    def test_example_polynomial(self):
        assert parse_poly("z^6 + z^2") == Z**6 + Z**2

    def test_zero(self):
        assert parse_poly("0").is_zero

    def test_rational_coefficients(self):
        p = parse_poly("1/2*z - 3")
        assert p.coeff(0) == Fraction(-3)
        assert p.coeff(1) == Fraction(1, 2)

    def test_whitespace_insignificant(self):
        assert parse_poly("z ^ 2+ 1") == parse_poly("z^2 + 1")

    def test_parentheses_and_unary_minus(self):
        assert parse_poly("-(z - 1)^2") == -(Z - const(1)) ** 2

    def test_custom_variable(self):
        assert parse_poly("t^2", "t") == Z**2

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_poly("2z")
        assert info.value.position == 1

    def test_unknown_variable(self):
        with pytest.raises(ParseError) as info:
            parse_poly("w + 1")
        assert "expected" in str(info.value)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("z^-2")

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_poly("1/0")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_poly("(z + 1")

    def test_stray_character(self):
        with pytest.raises(ParseError) as info:
            parse_poly("z + $")
        assert info.value.position == 4

    def test_huge_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("z^99999")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_poly("z +")
        assert "position 3" in str(info.value)

    def test_degree_predicted_before_expansion(self):
        for text in ("(z^4096)^4096", "z^6000*z^6000"):
            start = time.perf_counter()
            with pytest.raises(ParseError):
                parse_poly(text)
            assert time.perf_counter() - start < 1.0
        # a zero operand never raises the degree
        assert parse_poly("(z - z)^4096 * z^4096 * z^4096").is_zero

    def test_coefficient_size_predicted_before_expansion(self, capsys):
        for text in ("(2^4096)^4096", "(1/3)^4096*(1/3)^4096*(1/3)^4096*(1/3)^4096*3^4096"):
            start = time.perf_counter()
            status, out, _ = run_cli(capsys, "sagbi", "--f", text, "--g", "z", "--json")
            assert time.perf_counter() - start < 1.0
            assert status == 1
            assert "coefficients are too large" in json.loads(out)["error"]
        assert parse_poly("(2^4096)^4").nums == (2**16384,)

    def test_overlong_literal_rejected(self, capsys):
        status, out, _ = run_cli(capsys, "sagbi", "--f", "1" * 5000 + "*z", "--g", "z", "--json")
        assert status == 1
        assert "number is too large" in json.loads(out)["error"]

    def test_expansion_cost_predicted_before_expansion(self, capsys):
        # Degree and coefficient size are each within their bounds here,
        # but expanding either takes seconds.
        for text, pos in (("((1+z)^2048)^3", 7), ("(z^2+1)^2500", 8)):
            start = time.process_time()
            status, out, _ = run_cli(capsys, "sagbi", "--f", text, "--g", "z", "--json")
            assert time.process_time() - start < 1.0
            assert status == 1
            assert "too costly" in json.loads(out)["error"]
            with pytest.raises(ParseError) as info:
                parse_poly(text)
            assert info.value.position == pos

    def test_long_dense_input_within_cost_bound(self):
        # The bound is on each product and power, so an input written out
        # term by term parses at any length within the degree bound.
        p = Poly([(-1) ** k * (2**63 - 3 * k) for k in range(1001)])
        start = time.process_time()
        assert parse_poly(render_poly(p)) == p
        assert time.process_time() - start < 2.0

    def test_cost_is_summed_over_the_input(self):
        # Each power is within the bound; together they are not.
        text = " + ".join(["(1+z)^2000"] * 20)
        start = time.process_time()
        with pytest.raises(ParseError) as info:
            parse_poly(text)
        assert time.process_time() - start < 1.0
        assert "too costly" in str(info.value)

    def test_sparse_product_charged_dense(self):
        # Ten nonzero terms, each 2^8000, spread up to degree 4050: squaring
        # it packs one dense integer of 4051 slots, so it costs as a dense
        # polynomial would.
        base = " + ".join(f"4^4000*z^{450 * k}" for k in range(9, -1, -1))
        start = time.process_time()
        with pytest.raises(ParseError) as info:
            parse_poly(f"({base})^2")
        assert time.process_time() - start < 1.0
        assert "too costly" in str(info.value)

    def test_cost_bound_edge(self):
        assert parse_poly("(1+z)^2000").degree == 2000
        with pytest.raises(ParseError) as info:
            parse_poly("(1+z)^2048")
        assert "too costly" in str(info.value)

    def test_plane_x_degree_predicted_before_expansion(self, capsys):
        for text in ("(x^4096)^16", "(x^4096)^4096", "x^4000*x^4000*x^4000*y"):
            start = time.perf_counter()
            status, out, _ = run_cli(
                capsys, "jacobian-probe", "--f", text, "--g", "y", "--json"
            )
            assert time.perf_counter() - start < 1.0
            assert status == 1
            assert "degree is too large" in json.loads(out)["error"]


class TestRendering:
    def test_examples(self):
        assert render_poly(parse_poly("2*z^3 + 6*z^2 + z + 3")) == "2*z^3 + 6*z^2 + z + 3"
        assert render_poly(parse_poly("1/2*z - 3")) == "1/2*z - 3"
        assert render_poly(Poly.zero(Fraction)) == "0"
        assert render_poly(-Z**2 - const(1)) == "-z^2 - 1"

    def test_sums_add_no_polynomials(self, monkeypatch):
        # the signed terms of a sum go into one accumulator, so a dense
        # polynomial written term by term parses in time linear in its size
        dense = Poly([Fraction((-1) ** k * (2**64 + k), k % 7 + 1) for k in range(3001)])
        nested = -(Z - const(Fraction(1, 2))) ** 2 + Z * (const(3) - Z) - const(Fraction(1, 3))
        calls = []
        original = Poly._add

        def counting(self, other, op):
            calls.append(1)
            return original(self, other, op)

        monkeypatch.setattr(Poly, "_add", counting)
        assert parse_poly(render_poly(dense)) == dense
        assert parse_poly("-(z - 1/2)^2 + z*(3 - z) - 1/3") == nested
        assert parse_poly("z - z + 0").is_zero
        assert calls == []

    @settings(deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=9),
            max_size=7,
        )
    )
    def test_round_trip(self, coeffs):
        p = Poly(coeffs)
        assert parse_poly(render_poly(p)) == p


class TestGoldenOutputs:
    def test_member_json(self, capsys):
        status, out, _ = run_cli(
            capsys, "member", "--u", "z^5", "--f", "z^3", "--g", "z^6 + z^2", "--json"
        )
        assert status == 0
        assert json.loads(out) == {
            "member": True,
            "certificate": [
                {"i": 1, "j": 1, "coeff": "1"},
                {"i": 3, "j": 0, "coeff": "-1"},
            ],
        }

    def test_represent_text(self, capsys):
        status, out, _ = run_cli(
            capsys, "represent", "--degree", "5", "--f", "z^3", "--g", "z^6 + z^2"
        )
        assert status == 0
        assert out.strip() == "α = (0, 1, 1) over δ = (6, 3, 2)"

    def test_is_line_example(self, capsys):
        status, out, _ = run_cli(capsys, "is-line", "--f", "z^3", "--g", "z^6 + z^2")
        assert status == 0
        assert "line: no" in out
        assert "DivisibilityFailure" in out

    def test_is_line_json_positive(self, capsys):
        status, out, _ = run_cli(capsys, "is-line", "--f", "z", "--g", "z^2", "--json")
        assert status == 0
        obj = json.loads(out)
        assert obj["is_line"] is True
        assert obj["reason"]["kind"] == "CriterionHolds"
        assert obj["inverse"] == [{"i": 1, "j": 0, "coeff": "1"}]

    def test_delta_json(self, capsys):
        status, out, _ = run_cli(capsys, "delta", "--f", "z^3", "--g", "z^6 + z^2", "--json")
        assert status == 0
        assert json.loads(out) == {"deltas": [6, 3, 2], "ds": [3, 1], "h": 2}

    def test_sagbi_text(self, capsys):
        status, out, _ = run_cli(capsys, "sagbi", "--f", "z^3", "--g", "z^6 + z^2")
        assert status == 0
        assert "degree 2: z^2 (from Y - X^2)" in out
        assert "degree 3: z^3 (from X)" in out

    def test_strong_am_sweep(self, capsys):
        status, out, _ = run_cli(capsys, "strong-am", "--f", "z^3", "--g", "z^6 + z^2")
        assert status == 0
        assert "a=1: applicable" in out
        assert "a=2: not applicable" in out
        assert "divisibility holds" in out

    @pytest.mark.parametrize("f, g", [("3", "z^5"), ("z^2", "0"), ("0", "z")])
    def test_strong_am_sweep_rejects_a_constant_generator(self, capsys, f, g):
        # the sweep fails on a constant or zero generator as --a 1 does
        message = "both curve components must be nonconstant"
        argv = ["strong-am", "--f", f, "--g", g]
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")
        want = (1, json.dumps({"error": message}) + "\n", "")
        assert run_cli(capsys, *argv, "--json") == want
        assert run_cli(capsys, *argv, "--a", "1", "--json") == want

    def test_prop22_canonical(self, capsys):
        status, out, _ = run_cli(
            capsys, "prop22", "--f", "z + 1", "--g", "(z + 1)^3 - 2", "--json"
        )
        assert status == 0
        obj = json.loads(out)
        assert obj["condition_221_holds"] and obj["condition_222_holds"]
        assert obj["canonical_c"] == "1" and obj["canonical_b"] == "2"
        assert obj["is_line"] is True

    def test_jacobian_probe(self, capsys):
        status, out, _ = run_cli(
            capsys, "jacobian-probe", "--f", "x", "--g", "y + x^2", "--json"
        )
        assert status == 0
        obj = json.loads(out)
        assert obj["jacobian_constant"] is True
        assert obj["fy_member"] is True and obj["gy_member"] is True

    def test_decompose(self, capsys):
        argv = ["decompose", "--f", "z^4 + z^2", "--g", "z^6"]
        assert run_cli(capsys, *argv) == (
            0,
            "h = z^2\nf = f~(h) with f~ = w^2 + w\ng = g~(h) with g~ = w^3\n",
            "",
        )
        status, out, _ = run_cli(capsys, *argv, "--json")
        assert status == 0
        assert out == (
            '{"h": "z^2", "f_tilde": "w^2 + w", "g_tilde": "w^3", "faithful": false}\n'
        )

    def test_strong_am_single_json(self, capsys):
        status, out, _ = run_cli(
            capsys, "strong-am", "--a", "1", "--f", "z^3", "--g", "z^6 + z^2", "--json"
        )
        assert status == 0
        assert out == (
            '{"a": 1, "applicable": true, "u_degree": 2, "v_degree": 5, '
            '"u_witness": [{"i": 0, "j": 1, "coeff": "1"}, {"i": 2, "j": 0, "coeff": "-1"}], '
            '"v_witness": [{"i": 1, "j": 1, "coeff": "1"}, {"i": 3, "j": 0, "coeff": "-1"}], '
            '"divisibility_holds": true}\n'
        )

    def test_jacobian_probe_rational_certificate(self, capsys):
        status, out, _ = run_cli(
            capsys, "jacobian-probe", "--f", "x*y + 1", "--g", "y^2", "--json"
        )
        assert status == 0
        assert json.loads(out)["gy_certificate"] == [
            {"i": 0, "j": 0, "coeff": "(-2)/(x)"},
            {"i": 1, "j": 0, "coeff": "(2)/(x)"},
        ]


class TestExitCodes:
    def test_parse_error_is_one(self, capsys):
        status, _, err = run_cli(capsys, "is-line", "--f", "2z", "--g", "z")
        assert status == 1
        assert "error" in err

    def test_domain_error_is_one(self, capsys):
        status, _, err = run_cli(capsys, "delta", "--f", "1", "--g", "2")
        assert status == 1

    def test_negative_verdicts_are_zero(self, capsys):
        assert run_cli(capsys, "is-line", "--f", "z^2", "--g", "z^3")[0] == 0
        assert run_cli(capsys, "member", "--u", "z", "--f", "z^2", "--g", "z^3")[0] == 0
        assert (
            run_cli(capsys, "represent", "--degree", "1", "--f", "z^2", "--g", "z^3")[0]
            == 0
        )

    def test_huge_represent_degree_answers_at_once(self, capsys):
        for f, g, degree, answer in (
            ("z^2", "z^3", 10**11, {"representable": True, "alphas": [33333333332, 2]}),
            ("z^2", "z^4", 10**11 + 1, {"representable": False}),
        ):
            start = time.perf_counter()
            status, out, _ = run_cli(
                capsys, "represent", "--degree", str(degree), "--f", f, "--g", g, "--json"
            )
            assert time.perf_counter() - start < 1.0
            assert status == 0
            assert answer.items() <= json.loads(out).items()

    def test_usage_error_is_one(self, capsys):
        assert main(["no-such-command"]) == 1
        assert main([]) == 1

    def test_help_is_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert all(name in out for name in _COMMANDS)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["is-line", "--f", "z", "--json"], "the following arguments are required: --g"),
            (["member", "--f", "z", "--g", "z", "--js"], "the following arguments are required: --u"),
            (
                ["represent", "--degree", "abc", "--f", "z", "--g", "z^2", "--json"],
                "argument --degree: invalid int value: 'abc'",
            ),
            (["gen-corpus", "--json"], "unrecognized arguments: --json"),
            (["--json"], "unknown command '--json'; choose from " + ", ".join(_COMMANDS)),
        ],
    )
    def test_usage_error_is_a_json_object(self, capsys, argv, message):
        status, out, err = run_cli(capsys, *argv)
        assert status == 1
        assert json.loads(out) == {"error": message}
        assert err == ""

    def test_usage_error_in_text(self, capsys):
        status, out, err = run_cli(capsys, "is-line", "--f", "z")
        assert status == 1
        assert out == ""
        assert err == "error: the following arguments are required: --g\n"

    def test_json_error_object(self, capsys):
        status, out, _ = run_cli(capsys, "delta", "--f", "1", "--g", "2", "--json")
        assert status == 1
        assert "error" in json.loads(out)


class TestBatchMember:
    def test_stdin_queries(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("z^5\n\nz\n"))
        status, out, _ = run_cli(
            capsys, "member", "--u", "-", "--f", "z^3", "--g", "z^6 + z^2", "--json"
        )
        assert status == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 2
        assert lines[0]["u"] == "z^5" and lines[0]["member"] is True
        assert lines[1]["u"] == "z" and lines[1]["member"] is False

    def test_answer_arrives_before_stdin_closes(self):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "amoh.cli", "member", "--u", "-", "--f", "z^3",
             "--g", "z^6 + z^2", "--json"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        try:
            proc.stdin.write(b"z^2\n")
            proc.stdin.flush()
            ready, _, _ = select.select([proc.stdout], [], [], 30)
            assert ready, "no answer while stdin is still open"
            assert json.loads(proc.stdout.readline())["member"] is True
        finally:
            proc.stdin.close()
            proc.wait(timeout=30)
        assert proc.returncode == 0

    def test_text_answers_and_bad_line(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("z^5\n2z\n"))
        assert run_cli(capsys, "member", "--u", "-", "--f", "z^3", "--g", "z^6 + z^2") == (
            1,
            "z^5: member\n2z: error: trailing input at position 1 (expected +, -, *, ^, end)\n",
            "",
        )

    def test_bad_line_reported_and_flagged(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("z^2\n2z\n"))
        status, out, _ = run_cli(
            capsys, "member", "--u", "-", "--f", "z^3", "--g", "z^6 + z^2", "--json"
        )
        assert status == 1
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[0]["member"] is True
        assert "error" in lines[1]

    @pytest.mark.parametrize("as_json", [True, False])
    def test_undecodable_stdin_is_an_error_naming_it(self, capsys, monkeypatch, as_json):
        # blank lines push the bad byte past the stream's first chunk, so
        # the first answer is printed before the error
        raw = b"z^2\n" + b"\n" * 65536 + b"\xff\n"
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
        argv = ["member", "--u", "-", "--f", "z^2", "--g", "z^3"] + ["--json"] * as_json
        status, out, err = run_cli(capsys, *argv)
        assert status == 1
        message = "cannot read stdin: 'utf-8' codec can't decode byte 0xff"
        if as_json:
            first, error = [json.loads(line) for line in out.splitlines()]
            assert first["u"] == "z^2" and first["member"] is True
            assert list(error) == ["error"] and error["error"].startswith(message)
            assert err == ""
        else:
            assert out == "z^2: member\n"
            assert err.startswith("error: " + message) and err.count("\n") == 1

    def test_closed_stdin_is_an_error_naming_it(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", None)
        assert run_cli(
            capsys, "member", "--u", "-", "--f", "z^2", "--g", "z^3", "--json"
        ) == (1, '{"error": "cannot read stdin: it is closed"}\n', "")


class TestGenCorpus:
    def test_deterministic_and_parseable(self, tmp_path):
        out = tmp_path / "corpus.jsonl"
        assert main(["gen-corpus", "--count", "40", "--seed", "5", "--out", str(out)]) == 0
        first = out.read_text()
        assert main(["gen-corpus", "--count", "40", "--seed", "5", "--out", str(out)]) == 0
        assert out.read_text() == first
        records = [json.loads(line) for line in first.splitlines()]
        assert len(records) == 40
        kinds = {r["kind"] for r in records}
        assert "line" in kinds and "pattern" in kinds
        for r in records:
            parse_poly(r["f"])
            parse_poly(r["g"])

    def test_corpus_pairs_shape(self):
        pairs = list(corpus_pairs(200, 0))
        assert len(pairs) == 200
        assert sum(1 for kind, _, _ in pairs if kind == "line") >= 100

    def test_count_zero_prints_nothing(self, capsys):
        assert run_cli(capsys, "gen-corpus", "--count", "0") == (0, "", "")
        status, out, _ = run_cli(capsys, "gen-corpus", "--count", "1")
        assert status == 0 and len(out.splitlines()) == 1

    def test_negative_count_is_an_error(self, capsys, tmp_path):
        out_path = tmp_path / "corpus.jsonl"
        status, out, err = run_cli(
            capsys, "gen-corpus", "--count", "-5", "--out", str(out_path)
        )
        assert status == 1 and err == ""
        assert "--count" in json.loads(out)["error"]
        assert not out_path.exists()

    def test_rows_feed_back_into_is_line(self, capsys):
        # Rows must survive the argument layer even when a polynomial
        # has a negative leading coefficient.
        for kind, f, g in list(corpus_pairs(12, 3))[:8]:
            status, out, _ = run_cli(
                capsys, "is-line", "--f", render_poly(f), "--g", render_poly(g), "--json"
            )
            assert status == 0
            assert json.loads(out)["is_line"] == (kind == "line")


class TestNegativeLeadingCoefficient:
    def test_option_value_with_leading_minus(self, capsys):
        status, out, _ = run_cli(capsys, "is-line", "--f", "-z", "--g", "-2*z^2")
        assert status == 0
        assert "line: yes" in out

    def test_stdin_marker_untouched(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("-z^2\n"))
        status, out, _ = run_cli(
            capsys, "member", "--u", "-", "--f", "z^3", "--g", "z^6 + z^2", "--json"
        )
        assert status == 0
        assert json.loads(out.splitlines()[0])["member"] is True

    def test_console_script_accepts_minus(self):
        proc = subprocess.run(
            [sys.executable, "-m", "amoh.cli", "member", "--u", "-z^2", "--f",
             "z^3", "--g", "z^6 + z^2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "member: yes" in proc.stdout


class TestTotality:
    @settings(deadline=None, max_examples=120)
    @given(st.text(alphabet="z0123456789+-*^()/ .$", max_size=30))
    def test_fuzzed_input_never_crashes(self, text):
        status = main(["is-line", "--f", text, "--g", "z"])
        assert status in (0, 1, 2)

    @settings(deadline=None, max_examples=60)
    @given(st.text(max_size=20))
    def test_arbitrary_unicode_never_crashes(self, text):
        status = main(["member", "--u", text, "--f", "z", "--g", "z^2"])
        assert status in (0, 1, 2)

    @pytest.mark.parametrize("flag", ["--f", "--g", "--u"])
    def test_double_dash_value_is_an_error(self, capsys, flag):
        values = {"--f": "z", "--g": "z^2", "--u": "z", flag: "--"}
        argv = ["member", *(tok for item in values.items() for tok in item)]
        status, out, err = run_cli(capsys, *argv, "--json")
        assert status == 1 and err == ""
        assert flag in json.loads(out)["error"]
        status, out, err = run_cli(capsys, *argv)
        assert status == 1 and out == ""
        assert err.startswith("error: ")

    def test_double_dash_out_writes_nothing(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        for argv in (["--out", "--"], ["--out=--"], ["--ou=--"]):
            status, out, _ = run_cli(capsys, "gen-corpus", "--count", "1", *argv)
            assert status == 1
            flag = argv[0].partition("=")[0]
            assert json.loads(out) == {"error": f"{flag} needs a value, got --"}
        assert list(tmp_path.iterdir()) == []

    def test_double_dash_value_without_traceback(self):
        proc = subprocess.run(
            [sys.executable, "-m", "amoh.cli", "is-line", "--f", "--", "--g", "z", "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "error" in json.loads(proc.stdout)

    @pytest.mark.parametrize("exc", [MemoryError, RecursionError])
    def test_resource_exhaustion_is_two(self, capsys, monkeypatch, exc):
        def exhausted(*args, **kwargs):
            raise exc()

        monkeypatch.setattr("amoh.cli.is_member", exhausted)
        argv = ["member", "--u", "z", "--f", "z^2", "--g", "z^3"]
        status, out, _ = run_cli(capsys, *argv, "--json")
        assert status == 2
        assert json.loads(out) == {"error": exc.__name__}
        status, _, err = run_cli(capsys, *argv)
        assert status == 2
        assert err == f"error: {exc.__name__}\n"


class TestCommandTable:
    @pytest.mark.parametrize("name", list(_COMMANDS))
    def test_subcommand_help_is_zero(self, capsys, name):
        assert main([name, "--help"]) == 0
        assert name in capsys.readouterr().out

    @pytest.mark.parametrize("name", list(_COMMANDS))
    def test_values_may_start_with_minus(self, name):
        _, _, kind, options = _COMMANDS[name]
        argv, expected = [], {}
        for flag in (["--f", "--g"] if kind else []) + list(options):
            if options.get(flag, {}).get("type") is int:
                argv += [flag, "-3"]
                expected[flag[2:]] = -3
            else:
                argv += [flag, "-z"]
                expected[flag[2:]] = "-z"
        args = _command_parser(name).parse_args(_fuse_leading_minus(argv))
        assert {key: getattr(args, key) for key in expected} == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["is-line", "--f", "z", "--g", "z^2"],
            ["gen-corpus", "--count", "1"],
            ["sagbi", "--f", "z"],
        ],
    )
    def test_one_parser_per_call(self, capsys, monkeypatch, argv):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        main(argv)
        assert built == [f"amoh {argv[0]}"]


class TestImportCost:
    def test_cli_imports_no_dataclasses(self):
        # Compared with the modules loaded before, so a site hook that
        # imports these itself does not count against amoh.
        code = (
            "import json, sys; b = set(sys.modules); import amoh.cli; "
            "print(json.dumps(sorted(set(sys.modules) - b)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        added = json.loads(proc.stdout)
        assert "amoh.cli" in added
        assert "dataclasses" not in added
        assert "inspect" not in added

    def test_import_amoh_loads_no_cli_machinery(self):
        # argparse (with gettext) and json load only when a command runs;
        # compared with the modules loaded before, as above
        code = "\n".join([
            "import sys",
            "before = set(sys.modules)",
            "import amoh",
            "print(*sorted(set(sys.modules) - before))",
            "print(amoh.render_poly(amoh.parse_poly('z^2 + 1')))",
            "amoh.cli.main(['member', '--u', 'z^5', '--f', 'z^3', '--g', 'z^6 + z^2', '--json'])",
            "print('argparse' in sys.modules, 'json' in sys.modules)",
        ])
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        added, parsed, answer, loaded_after = proc.stdout.splitlines()
        assert "amoh.cli" in added.split()
        assert not {"argparse", "gettext", "json"} & set(added.split())
        assert parsed == "z^2 + 1"
        assert answer == (
            '{"member": true, "certificate": [{"i": 1, "j": 1, "coeff": "1"}, '
            '{"i": 3, "j": 0, "coeff": "-1"}]}'
        )
        assert loaded_after == "True True"


class TestEnvironmentCap:
    def test_iteration_cap_env(self):
        env = dict(os.environ, AMOH_ITER_CAP="2")
        proc = subprocess.run(
            [sys.executable, "-m", "amoh.cli", "sagbi", "--f", "z^6", "--g", "z^8 + z^7"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 2
        assert "cap" in proc.stderr.lower() or "cap" in proc.stdout.lower()

    def test_malformed_cap_is_a_domain_error(self):
        for value in ("abc", "0", "-3"):
            env = dict(os.environ, AMOH_ITER_CAP=value)
            proc = subprocess.run(
                [sys.executable, "-m", "amoh.cli", "sagbi", "--f", "z^2", "--g", "z^3",
                 "--json"],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 1
            assert "Traceback" not in proc.stderr
            assert "AMOH_ITER_CAP" in json.loads(proc.stdout)["error"]

    def test_reader_closing_the_pipe_early_gets_no_traceback(self):
        # 3000 curves are over 300 KB of JSON lines, more than a pipe holds,
        # so the writer is still writing when the reader goes away
        proc = subprocess.Popen(
            [sys.executable, "-m", "amoh.cli", "gen-corpus", "--count", "3000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            assert json.loads(proc.stdout.readline())["kind"]
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        err = proc.stderr.read()
        proc.stderr.close()
        assert b"Traceback" not in err and err == b""
        assert proc.returncode == 1

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_reader_of_out_closing_early_is_an_error(self, tmp_path):
        # a broken --out is an unwritable --out, reported as one; only a
        # closed stdout ends the run quietly
        fifo = tmp_path / "corpus.fifo"
        os.mkfifo(fifo)
        proc = subprocess.Popen(
            [sys.executable, "-m", "amoh.cli", "gen-corpus", "--count", "3000", "--out", str(fifo)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            with open(fifo, encoding="utf-8") as reader:
                assert json.loads(reader.readline())["kind"]
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert b"Traceback" not in err
        assert json.loads(out) == {"error": "[Errno 32] Broken pipe"}
        assert proc.returncode == 1

    def test_closed_stdout_ends_the_run_quietly(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["amoh", "is-line", "--f", "z", "--g", "z^2", "--json"])
        monkeypatch.setattr("sys.stdout", None)
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 1
        assert capsys.readouterr().err == ""

    def test_module_runs_without_warnings(self):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "amoh.cli", "sagbi", "--f", "z^2", "--g", "z^3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_console_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "amoh.cli", "is-line", "--f", "z", "--g", "z^2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "line: yes" in proc.stdout
