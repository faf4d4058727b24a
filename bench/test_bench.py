"""Tests of the benchmark's own generators, checks and tracer.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import json
import os
import sys
import unittest
from fractions import Fraction
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import qpoly  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

import amoh  # noqa: E402
from amoh import Poly, field_poly, line, subalgebra  # noqa: E402


def verdict(is_line, kind, inverse=None, deg_h=None):
    return SimpleNamespace(
        is_line=is_line, inverse=inverse, reason=SimpleNamespace(kind=kind, deg_h=deg_h)
    )


def one_round(wl):
    ops = wl.round()
    for op in ops:
        wl.run(op)
    return ops


class Generators(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for cls in (workloads.LineSurvey, workloads.MemberCertify, workloads.CliBatch):
            a, b = cls(7), cls(7)
            for _ in range(2):
                self.assertEqual(
                    [(op.kind, op.data) for op in a.round()],
                    [(op.kind, op.data) for op in b.round()],
                    cls.name,
                )
            self.assertNotEqual(
                [op.data for op in cls(7).round()], [op.data for op in cls(8).round()]
            )

    def test_line_survey_curves_distinct_and_nonconstant(self):
        wl = workloads.LineSurvey(3)
        curves = [(tuple(op.data[0]), tuple(op.data[1])) for _ in range(40) for op in wl.round()]
        self.assertEqual(len(set(curves)), 40 * 25)
        self.assertTrue(all(len(f) > 1 and len(g) > 1 for f, g in curves))

    def test_round_make_up_is_fixed(self):
        wl = workloads.LineSurvey(5)
        kinds = [sorted(op.kind for op in wl.round()) for _ in range(3)]
        self.assertEqual(kinds[0], kinds[1])
        self.assertEqual(kinds[0].count("line"), 10)

    def test_semigroup_gaps(self):
        self.assertEqual(qpoly.semigroup_gaps((3, 8)), [1, 2, 4, 5, 7, 10, 13])
        self.assertEqual(len(qpoly.semigroup_gaps((5, 7))), (5 - 1) * (7 - 1) // 2)

    def test_own_arithmetic(self):
        f = [Fraction(1), Fraction(2), Fraction(0), Fraction(1)]
        g = [Fraction(-3), Fraction(0), Fraction(1, 2)]
        terms = [(2, 1, Fraction(3)), (0, 3, Fraction(-1, 2)), (1, 0, Fraction(5))]
        expanded = qpoly.bivar_poly(terms, f, g)
        t = Fraction(2, 3)
        self.assertEqual(qpoly.value(expanded, t), qpoly.bivar_value(terms, qpoly.value(f, t), qpoly.value(g, t)))
        self.assertEqual(Poly(expanded), Poly(f) ** 2 * Poly(g) * 3 - Poly(g) ** 3 * Fraction(1, 2) + Poly(f) * 5)


class Checks(unittest.TestCase):
    def test_outputs_of_one_round_pass(self):
        for wl in (workloads.LineSurvey(1), workloads.MemberCertify(1)):
            wl.prepare()
            for op in one_round(wl):
                self.assertIsNone(wl.check(op), (wl.name, op.kind))

    def test_cli_round_in_process_passes(self):
        wl = workloads.CliBatch(1, in_process=True)
        for op in one_round(wl):
            self.assertIsNone(wl.check(op), op.data[0])

    def test_corrupted_certificate_fails(self):
        f, g, _ = workloads.CURVES["m5-7"]
        u = qpoly.bivar_poly([(3, 1, Fraction(2)), (0, 2, Fraction(1, 3))], f, g)
        res = subalgebra.is_member(Poly(u), Poly(f), Poly(g))
        cert = [(i, j, c) for (i, j), c in res.certificate.terms.items()]
        self.assertIsNone(checks.member(True, cert, u, f, g, workloads.POINTS))
        i, j, c = cert[0]
        bad = [(i, j, c + 1)] + cert[1:]
        self.assertIsNotNone(checks.member(True, bad, u, f, g, workloads.POINTS))
        # the same corruption in the CLI's JSON output
        text = qpoly.render(u)
        obj = {"u": text, "member": True,
               "certificate": [{"i": a, "j": b, "coeff": str(x)} for a, b, x in cert]}
        query = [(text, u, None)]
        self.assertIsNone(checks.cli_output(0, json.dumps(obj), query, f, g, workloads.POINTS))
        obj["certificate"][0]["coeff"] = str(c + 1)
        self.assertIsNotNone(checks.cli_output(0, json.dumps(obj), query, f, g, workloads.POINTS))

    def test_corrupted_line_inverse_fails(self):
        f, g = [Fraction(0), Fraction(1)], [Fraction(0), Fraction(0), Fraction(1)]
        good = field_poly.BivarExpr.X()
        self.assertIsNone(checks.line(verdict(True, "CriterionHolds", good), f, g, workloads.POINTS))
        bad = field_poly.BivarExpr.X() + field_poly.BivarExpr.Y()
        self.assertIsNotNone(checks.line(verdict(True, "CriterionHolds", bad), f, g, workloads.POINTS))

    def test_flipped_verdicts_fail(self):
        f, g = [Fraction(0), Fraction(1)], [Fraction(0), Fraction(0), Fraction(1)]
        self.assertIsNotNone(checks.line(verdict(False, "DivisibilityFailure"), f, g, workloads.POINTS))
        self.assertIsNotNone(checks.composed(verdict(True, "CriterionHolds"), 2))
        self.assertIsNotNone(checks.obstruction(verdict(True, "CriterionHolds")))
        self.assertIsNotNone(checks.member(False, [], f, f, g, workloads.POINTS))
        self.assertIsNotNone(checks.non_member(True, None, 1))
        f2, g2, _ = workloads.CURVES["m3-8"]
        text = qpoly.render(qpoly.add(f2, qpoly.monomial(1)))
        flipped = json.dumps({"u": text, "member": True, "certificate": []})
        self.assertIsNotNone(checks.cli_output(0, flipped, [(text, None, 1)], f2, g2, workloads.POINTS))

    def test_wrong_obstruction_degree_fails(self):
        self.assertIsNone(checks.non_member(False, 4, 4))
        self.assertIsNotNone(checks.non_member(False, 7, 4))
        self.assertIsNotNone(checks.composed(verdict(False, "UnfaithfulParameter", deg_h=3), 2))
        self.assertIsNone(checks.composed(verdict(False, "UnfaithfulParameter", deg_h=4), 2))
        self.assertIsNotNone(checks.obstruction(verdict(False, "UnfaithfulParameter", deg_h=2)))
        f, g, _ = workloads.CURVES["m3-8"]
        line_text = json.dumps({"u": "z", "member": False, "obstruction_degree": 2})
        self.assertIsNotNone(checks.cli_output(0, line_text, [("z", None, 1)], f, g, workloads.POINTS))

    def test_cli_output_shape(self):
        f, g, _ = workloads.CURVES["m3-8"]
        ok = json.dumps({"u": "z", "member": False, "obstruction_degree": 1})
        self.assertIsNone(checks.cli_output(0, ok, [("z", None, 1)], f, g, workloads.POINTS))
        self.assertIsNotNone(checks.cli_output(1, ok, [("z", None, 1)], f, g, workloads.POINTS))
        self.assertIsNotNone(checks.cli_output(0, ok + "\n" + ok, [("z", None, 1)], f, g, workloads.POINTS))
        self.assertIsNotNone(checks.cli_output(0, ok, [("z + 1", None, 1)], f, g, workloads.POINTS))


class Tracing(unittest.TestCase):
    def test_spans_and_uninstall(self):
        original_mul = Poly.__mul__
        original_is_line = line.is_line
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(line.is_line, original_is_line)
            self.assertIs(amoh.is_line, line.is_line)
            f, g = Poly([0, 0, 0, 1]), Poly([0, 0, 1, 0, 0, 0, 1])
            tracer.op = 0
            self.assertFalse(line.is_line(f, g).is_line)
        finally:
            tracer.uninstall()
        self.assertIs(Poly.__mul__, original_mul)
        self.assertIs(line.is_line, original_is_line)
        self.assertIs(amoh.is_line, original_is_line)
        calls, self_ns = tracer.totals()
        self.assertEqual(calls["line.is_line"], 1)
        self.assertGreater(calls["field_poly.mul"], 0)
        self.assertGreater(calls["decompose.common_parameter"], 0)
        total = sum(tracer.end[i] - tracer.start[i] for i in range(len(tracer.start))
                    if tracer.parent[i] < 0)
        self.assertEqual(sum(self_ns.values()), total)
        self.assertTrue(all(v >= 0 for v in self_ns.values()))
        self.assertGreater(tracer.counts["field_poly.mul.coeff_products"], 0)


if __name__ == "__main__":
    unittest.main()
