"""Front-end behavior: grammar, golden outputs, exit codes, totality."""

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
from amoh.cli import _COMMANDS, _dumps, corpus_pairs, main, run

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

    @pytest.mark.parametrize("as_json", [True, False])
    @pytest.mark.parametrize(
        "raw, reason",
        [
            (b"z^2\n\xff\n", "byte 0xff in position 0: invalid start byte"),
            (b"z^2\n\xc3", "byte 0xc3 in position 0: unexpected end of data"),
        ],
    )
    def test_lines_before_an_undecodable_one_are_answered(
        self, capsys, monkeypatch, raw, reason, as_json
    ):
        # stdin is decoded line by line, so the bad byte may share the
        # stream's first chunk with the line before it
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
        argv = ["member", "--u", "-", "--f", "z^2", "--g", "z^3"] + ["--json"] * as_json
        status, out, err = run_cli(capsys, *argv)
        assert status == 1
        message = f"cannot read stdin: 'utf-8' codec can't decode {reason}"
        if as_json:
            assert out.splitlines() == [
                '{"u": "z^2", "member": true, "certificate": [{"i": 1, "j": 0, "coeff": "1"}]}',
                json.dumps({"error": message}),
            ]
            assert err == ""
        else:
            assert (out, err) == ("z^2: member\n", f"error: {message}\n")

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
    def test_values_may_start_with_minus(self, monkeypatch, name):
        help_text, _, kind, options = _COMMANDS[name]
        seen = []

        def handler(args, *inputs):
            seen.append(args)
            return 0

        monkeypatch.setitem(_COMMANDS, name, (help_text, handler, kind, options))
        argv, expected = [], {}
        for flag in (["--f", "--g"] if kind else []) + list(options):
            if options.get(flag, {}).get("type") is int:
                argv += [flag, "-3"]
                expected[flag[2:]] = -3
            else:
                value = "-z" if kind != "x, y" else "-x"
                argv += [flag, value]
                expected[flag[2:]] = value
        assert main([name, *argv]) == 0
        assert {key: getattr(seen[0], key) for key in expected} == expected

    def test_commands_load_no_argparse_or_json(self):
        # a run, a batch, a usage error and help, each through main in a
        # fresh interpreter; compared with the modules loaded before, so a
        # site hook that imports one of them does not count against amoh
        code = "\n".join([
            "import io, sys",
            "before = set(sys.modules)",
            "from amoh.cli import main",
            "sys.stdin = io.StringIO('z^5\\nz\\n2z\\n')",
            "main(['member', '--u', '-', '--f', 'z^3', '--g', 'z^6 + z^2', '--json'])",
            "main(['is-line', '--f', 'z', '--g', 'z^2', '--json'])",
            "main(['gen-corpus', '--count', '2'])",
            "main(['sagbi', '--f', 'z', '--js'])",
            "main(['represent', '--degree', 'abc', '--f', 'z', '--g', 'z^2'])",
            "main(['strong-am', '--help'])",
            "added = set(sys.modules) - before",
            "print(*sorted(added & {'argparse', 'gettext', 'locale', 'json'}))",
        ])
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.stdout.splitlines()[-1] == ""


# (argv, exit status, stdout, stderr) of main, taken from the argparse-based
# reading on CPython 3.11 that the option scanner reproduces
USAGE_EDGES = [
    (['member', '--f', 'z', '--g', 'z^2', '--', '--u', 'z^4'],
     1, '', 'error: the following arguments are required: --u\n'),
    (['member', '--f', 'z', '--g', 'z^2', '--json', '--', '--u', 'z^4'],
     1, '{"error": "the following arguments are required: --u"}\n', ''),
    (['is-line', '--f', 'z^2', '--g', 'z^3', '--json', '--', 'x'],
     1, '{"error": "unrecognized arguments: -- x"}\n', ''),
    (['is-line', '--f', 'z^2', '--g', 'z^3', '--', 'x'],
     1, '', 'error: unrecognized arguments: -- x\n'),
    (['strong-am', '--f', 'z^2', '--g', 'z^3', '--a', '--json'],
     1, '', "error: argument --a: invalid int value: '--json'\n"),
    (['strong-am', '--f', 'z^2', '--g', 'z^3', '--a', '-1'],
     1, '', 'error: need 1 <= a <= min(2, 3), got -1\n'),
    (['is-line', '--f', '-z', '--g', '--json'],
     1, '', 'error: unexpected token at position 1 (expected number, variable, (, -)\n'),
    (['is-line', '--f', '-z', '--g', '--json', '--json'],
     1, '{"error": "unexpected token at position 1 (expected number, variable, (, -)"}\n', ''),
    (['is-line', '--f', 'z^2', '--g', 'z^3', '--jso=x'],
     1, '', "error: argument --json: ignored explicit argument 'x'\n"),
    (['is-line', '--f', 'z^2', '--g', 'z^3', '--json=x', '--js'],
     1, '{"error": "argument --json: ignored explicit argument \'x\'"}\n', ''),
    (['member', '--f', 'z^2', '--g', 'z^3', '--u'],
     1, '', 'error: argument --u: expected one argument\n'),
    (['member', '--f', 'z^2', '--g', 'z^3', '--json', '--u'],
     1, '{"error": "argument --u: expected one argument"}\n', ''),
    (['is-line', '--f', 'z^2', '--g', 'z^3', '--f', 'z'],
     0, 'line: yes\ninverse: X\n', ''),
    (['is-line', '--f', 'z^2', '--g', 'z^3', '--f', 'z', '--json'],
     0, '{"is_line": true, "reason": {"kind": "CriterionHolds"}, "inverse": [{"i": 1, "j": 0, "coeff": "1"}]}\n', ''),
    (['represent', '--d', '7', '--f', 'z^2', '--g', 'z^3'],
     0, 'α = (1, 2) over δ = (3, 2)\n', ''),
    (['represent', '--d', '7', '--f', 'z^2', '--g', 'z^3', '--json'],
     0, '{"representable": true, "degree": 7, "alphas": [1, 2], "deltas": [3, 2]}\n', ''),
    (['represent', '--degree', '1_0', '--f', 'z^2', '--g', 'z^3', '--json'],
     0, '{"representable": true, "degree": 10, "alphas": [2, 2], "deltas": [3, 2]}\n', ''),
    (['represent', '--degree', ' 3', '--f', 'z^2', '--g', 'z^3', '--json'],
     0, '{"representable": true, "degree": 3, "alphas": [1, 0], "deltas": [3, 2]}\n', ''),
    (['represent', '--degree', '+7', '--f', 'z^2', '--g', 'z^3', '--json'],
     0, '{"representable": true, "degree": 7, "alphas": [1, 2], "deltas": [3, 2]}\n', ''),
    (['represent', '--degree', '7.0', '--f', 'z^2', '--g', 'z^3', '--json'],
     1, '{"error": "argument --degree: invalid int value: \'7.0\'"}\n', ''),
    (['is-line', '--f', 'z^2', '--g', 'z^3', 'extra'],
     1, '', 'error: unrecognized arguments: extra\n'),
    (['is-line', '--f', 'z^2', '--g', 'z^3', '-x', '--json'],
     1, '{"error": "unrecognized arguments: -x"}\n', ''),
    (['is-line', '--f', 'z^2', '--g', 'z^3', '-3'],
     1, '', 'error: unrecognized arguments: -3\n'),
    (['is-line', '--f', 'z^2', '--g', 'z^3', '-f', 'extra', '--js'],
     1, '{"error": "unrecognized arguments: -f extra"}\n', ''),
    (['is-line', '--f', 'z^2', '--g', 'z^3', '--=x'],
     1, '', 'error: ambiguous option: --=x could match --help, --f, --g, --json\n'),
    (['gen-corpus', '--c', '2', '--o'],
     1, '{"error": "argument --out: expected one argument"}\n', ''),
    (['is-line', '--f', 'z^2', '--g', 'z^3', '-hx'],
     1, '', "error: argument -h/--help: ignored explicit argument 'x'\n"),
    (['is-line', '--f', '--', '--g', 'z', '--json'],
     1, '{"error": "--f needs a value, got --"}\n', ''),
    (['gen-corpus', '--count', '1', '--ou=--'],
     1, '{"error": "--ou needs a value, got --"}\n', ''),
    (['represent', '--degree', 'abc', '--degree', '3', '--f', 'z^2', '--g', 'z^3', '--json'],
     1, '{"error": "argument --degree: invalid int value: \'abc\'"}\n', ''),
    (['represent', '--degree', '4', '--f', '-2*z', '--g', '-'],
     1, '', 'error: unexpected token at position 1 (expected number, variable, (, -)\n'),
    (['is-line', '--u', '-z', '--f', 'z^2', '--g', 'z^3'],
     1, '', 'error: unrecognized arguments: --u=-z\n'),
    (['gen-corpus', '--c', '1', '--ou', '--', 'x'],
     1, '{"error": "argument --out: expected one argument"}\n', ''),
    (['represent', '--d', '--', '7', '--f', 'z^2', '--g', 'z^3'],
     1, '', 'error: argument --degree: expected one argument\n'),
    (['gen-corpus', '--c', '-3'],
     1, '{"error": "--count must be nonnegative, got -3"}\n', ''),
    (['represent', '--d', '-3', '--f', 'z^2', '--g', 'z^3', '--json'],
     1, '{"error": "represented degree must be a nonnegative integer"}\n', ''),
]


class TestUsageEdges:
    @pytest.mark.parametrize("argv, status, out, err", USAGE_EDGES)
    def test_status_and_output(self, capsys, argv, status, out, err):
        assert run_cli(capsys, *argv) == (status, out, err)

    @pytest.mark.parametrize("name", list(_COMMANDS))
    def test_help_lists_every_flag(self, capsys, name):
        status, out, err = run_cli(capsys, name, "-h")
        assert (status, err) == (0, "")
        assert out.startswith(f"usage: amoh {name} [-h]")
        assert all(f"  {flag} " in out for flag in _COMMANDS[name][3])
        # help comes before the errors of the options after it
        for flag in ("--help", "--he", "-hh"):
            assert run_cli(capsys, name, flag, "--bogus") == (0, out, "")


# any code point, lone surrogates among them, and the characters JSON
# escapes most often
JSON_TEXT = st.text(
    st.sampled_from('"\\\x00\x08\x1f\x7f\x80\u2028\ud800\udcff\U0001f600')
    | st.integers(0, 0x10FFFF).map(chr),
    max_size=8,
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**200), 2**200) | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=20,
)


class TestJsonWriter:
    @settings(max_examples=300)
    @given(JSON_VALUES)
    def test_writes_what_json_dumps_writes(self, obj):
        assert _dumps(obj) == json.dumps(obj)

    @pytest.mark.parametrize(
        "obj", [Fraction(1, 2), Z, [1, {"a": Fraction(1)}], {"a": Z}, {1: 2}, 1.5]
    )
    def test_other_types_are_a_type_error(self, obj):
        with pytest.raises(TypeError):
            _dumps(obj)

    def test_lone_surrogate_from_stdin(self, capsys, monkeypatch):
        # an undecodable byte that stdin's surrogateescape keeps as a lone
        # surrogate reaches the JSON answer as the query
        raw = io.BytesIO(b"z^2\n\xffz\n")
        stdin = io.TextIOWrapper(raw, encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr("sys.stdin", stdin)
        status, out, err = run_cli(
            capsys, "member", "--u", "-", "--f", "z^2", "--g", "z^3", "--json"
        )
        assert (status, err) == (1, "")
        first, second = out.splitlines()
        assert json.loads(first)["member"] is True
        answer = json.loads(second)
        assert answer["u"] == "\udcffz" and "unexpected character" in answer["error"]
        assert second == json.dumps(answer)


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
        # neither import amoh nor a command run loads argparse (with gettext
        # and locale) or json; compared with the modules loaded before, as above
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
        assert loaded_after == "False False"


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


def buffered_env(**extra):
    """The environment with block-buffered standard streams, as a user
    gets them on a pipe or a file, plus the extra variables."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return dict(env, **extra)


def amoh_process(*argv, env=None, **kwargs):
    """Run the amoh command as its own process, with text output."""
    return subprocess.run(
        [sys.executable, "-m", "amoh.cli", *argv],
        capture_output=True, text=True, env=env or buffered_env(), **kwargs,
    )


class TestProcessExit:
    # run() ends the process with os._exit once stdout is flushed and the
    # atexit handlers have run; these check what a caller of the process sees

    def test_atexit_handlers_run(self):
        code = (
            "import atexit, sys\n"
            "atexit.register(print, 'atexit ran')\n"
            "sys.argv[1:] = ['is-line', '--f', 'z', '--g', 'z^2']\n"
            "from amoh.cli import run\n"
            "run()\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=buffered_env()
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "line: yes\ninverse: X\natexit ran\n"

    @pytest.mark.parametrize(
        "argv, env, status",
        [
            (["is-line", "--f", "z", "--g", "z^2"], {}, 0),
            (["is-line", "--f", "2z", "--g", "z"], {}, 1),
            (["sagbi", "--f", "z^6", "--g", "z^8 + z^7"], {"AMOH_ITER_CAP": "2"}, 2),
        ],
    )
    def test_exit_status(self, argv, env, status):
        proc = amoh_process(*argv, env=buffered_env(**env))
        assert proc.returncode == status
        assert "Traceback" not in proc.stderr

    def test_large_output_arrives_whole(self, tmp_path):
        # over 300 KB, many times what a pipe or stdout's buffer holds
        proc = amoh_process("gen-corpus", "--count", "3000")
        assert (proc.returncode, proc.stderr) == (0, "")
        lines = proc.stdout.splitlines()
        assert len(lines) == 3000 and json.loads(lines[-1])["kind"] == "pattern"
        out = tmp_path / "corpus.jsonl"
        proc = amoh_process("gen-corpus", "--count", "3000", "--out", str(out))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        assert out.read_text(encoding="utf-8").splitlines() == lines

    def test_every_batch_query_is_answered(self):
        queries = ["z^5", "z", "z^6 + z^2", "2z", "z^9", "z^4 + z"]
        proc = amoh_process(
            "member", "--u", "-", "--f", "z^3", "--g", "z^6 + z^2", "--json",
            input="\n".join(queries) + "\n",
        )
        assert proc.returncode == 1 and proc.stderr == ""
        answers = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [a["u"] for a in answers] == queries
        assert [a.get("member") for a in answers] == [True, False, True, None, True, False]

    def test_main_returns_in_process(self):
        code = (
            "from amoh.cli import main\n"
            "status = main(['is-line', '--f', 'z', '--g', 'z^2', '--json'])\n"
            "print('returned', status)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "returned 0"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestUnwritableStdout:
    @pytest.mark.parametrize(
        "argv, stdin",
        [
            (["is-line", "--f", "z", "--g", "z^2", "--json"], None),
            (["gen-corpus", "--count", "50"], None),
            (["member", "--u", "-", "--f", "z^3", "--g", "z^6 + z^2"], "z^5\nz\n"),
        ],
    )
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_one_error_line_and_status_one(self, argv, stdin, unbuffered):
        # buffered, the write fails when run() flushes; unbuffered, in main
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "amoh.cli", *argv],
                input=stdin, stdout=full, stderr=subprocess.PIPE, text=True,
                env=buffered_env(PYTHONUNBUFFERED=unbuffered),
            )
        assert proc.returncode == 1
        assert proc.stderr == "error: cannot write stdout: [Errno 28] No space left on device\n"
