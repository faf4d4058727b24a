"""Re-measure the ROADMAP baseline rows as reference figures (not metrics).

    python3 bench/baseline.py

Rows: Poly multiplication at degree 40/160/320, the three SAGBI
completions, one degree-400 subduction, and the evaluation of the two
heavy line certificates.  Each row is the median CPU time of its repeats
(5 for short rows, 1 or 3 for the rest), printed raw, beside the
reference kernel time k measured around it, and scaled by k_ref / k as
the library workloads' metrics are.  Takes about a minute.
"""

import json
import os
import random
import statistics
import sys
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

from run import Speed  # noqa: E402

from amoh import Poly, eval_bivariate, is_member, sagbi_basis  # noqa: E402
from amoh.subalgebra import _sagbi_cached  # noqa: E402

Z = Poly.variable(Fraction)

# The two embedded lines whose degree-40 certificates dominate the
# certificate round-trip acceptance test (weights 160 and 320).
HEAVY_LINES = (
    (Poly([-2, 0, 1]), Poly([5, 1, -5, 0, 1])),
    (Poly([-3, -7, -12, -8, -12, -8, -8, 0, -4]), Poly([-1, -2, -2, 0, -2])),
)


def timed(fn, repeats):
    times = []
    for _ in range(repeats):
        _sagbi_cached.cache_clear()  # every completion and subduction starts cold
        t0 = time.thread_time()
        fn()
        times.append(time.thread_time() - t0)
    return statistics.median(times)


def rand_poly(rng, degree, bits):
    half = bits // 2
    return Poly([Fraction(rng.getrandbits(half) + 1, rng.getrandbits(half) + 1) * rng.choice((-1, 1))
                 for _ in range(degree + 1)])


def rows():
    """(label, work, repeats) per row."""
    rng = random.Random(0)
    for degree, bits in ((40, 64), (160, 64), (320, 80)):
        a, b = rand_poly(rng, degree, bits), rand_poly(rng, degree, bits)
        yield f"mul degree {degree}, {bits}-bit coefficients", lambda: a * b, 5 if degree < 320 else 3
    for f, g, label in (
        (Z**24 + Z, Z**36 + Z**2, "(z^24+z, z^36+z^2)"),
        ((1 + Z) ** 160, Z**2, "((1+z)^160, z^2)"),
        (Z**12 + Z, Z**18 + Z**2, "(z^12+z, z^18+z^2)"),
    ):
        yield f"sagbi {label}", lambda: sagbi_basis(f, g), 1 if f.degree > 12 else 5
    f, g = Z**3, Z**6 + Z**2
    u = Poly([rng.randint(-9, 9) for _ in range(400)] + [1])
    yield "subduct degree 400 against (z^3, z^6+z^2)", lambda: is_member(u, f, g), 3
    for f, g in HEAVY_LINES:
        q = Poly([Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(41)])
        cert = is_member(q, f, g).certificate
        yield (f"eval certificate, {len(cert.terms)} terms, weight {cert.weight(f.degree, g.degree)}",
               lambda: eval_bivariate(cert, f, g), 1)


def main():
    speed = Speed("resident")
    for label, work, repeats in rows():
        seconds, k = speed.timed(lambda: timed(work, repeats))
        print(json.dumps({"row": label, "cpu_s": round(seconds, 6), "k_s": round(k, 7),
                          "scaled_s": round(speed.scaled(seconds, k), 6)}), flush=True)


if __name__ == "__main__":
    main()
