"""Correctness gates the benchmark applies to every operation it times.

Scan results are checked for internal consistency and every per-degree
witness is re-analysed through ``check_conjecture``.  Single-function
requests are recomputed by a direct-sum route written here with plain
Python integers and ``fractions.Fraction``: it shares no code with the
package, so it stays an independent check even if the package's
single-function API is later routed through the scan kernel.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def _frac(dy) -> Fraction:
    return Fraction(dy.num, 1 << dy.log2_den)


def dy(x) -> list[int]:
    """A DyadicRational as a JSON-ready [numerator, log2 denominator] pair."""
    return [x.num, x.log2_den]


def scan_summary(result) -> dict:
    """Canonical, JSON-ready form of a ScanResult (wall time left out)."""
    return {
        "functions_examined": result.functions_examined,
        "violations": [[w.table_hex, w.degree, dy(w.linear_sum)] for w in result.violations],
        "equivalence_failures": [
            [w.table_hex, w.d, w.original, w.ineq_a, w.ineq_b, w.ineq_c]
            for w in result.equivalence_failures
        ],
        "per_degree": {
            str(d): {
                "function_count": e.function_count,
                "max_linear_sum": dy(e.max_linear_sum),
                "witness": e.witness,
                "witness_count": e.witness_count,
                "bound": dy(e.bound),
                "margin": dy(e.margin),
            }
            for d, e in sorted(result.per_degree.items())
        },
    }


def check_scan_result(bf, result, expected_count: int) -> list[str]:
    """Errors found in one scan result; an empty list means it passed."""
    n = result.config.n
    errors = []
    if result.functions_examined != expected_count:
        errors.append(f"functions_examined {result.functions_examined} != {expected_count}")
    counted = sum(e.function_count for e in result.per_degree.values())
    if counted != result.functions_examined:
        errors.append(f"per-degree counts sum to {counted}, not {result.functions_examined}")
    if result.equivalence_failures:
        errors.append(f"{len(result.equivalence_failures)} equivalence failure(s)")
    for d, ext in result.per_degree.items():
        report = bf.check_conjecture(bf.from_hex(ext.witness, n))
        if (report.degree, report.linear_sum) != (d, ext.max_linear_sum):
            errors.append(
                f"degree {d} witness {ext.witness} re-checks as degree {report.degree}, "
                f"linear sum {report.linear_sum} (scan said {ext.max_linear_sum})")
        if ext.bound != report.bound or ext.margin != ext.bound - ext.max_linear_sum:
            errors.append(f"degree {d} bound or margin disagrees with check_conjecture")
        if not 1 <= ext.witness_count <= ext.function_count:
            errors.append(f"degree {d} witness count {ext.witness_count} out of range")
    for w in result.violations:
        report = bf.check_conjecture(bf.from_hex(w.table_hex, n))
        if report.satisfied or (report.degree, report.linear_sum) != (w.degree, w.linear_sum):
            errors.append(f"violation {w.table_hex} does not re-check")
    return errors


def check_scan_payload(bf, payload: dict, expected_count: int) -> list[str]:
    """check_scan_result for the CLI's JSON form of a scan result."""
    n = payload["config"]["n"]
    errors = []
    if payload["functions_examined"] != expected_count:
        errors.append(f"functions_examined {payload['functions_examined']} != {expected_count}")
    per_degree = payload["per_degree"]
    counted = sum(e["function_count"] for e in per_degree.values())
    if counted != payload["functions_examined"]:
        errors.append(f"per-degree counts sum to {counted}")
    if payload["equivalence_failure_count"] or payload["equivalence_failures"]:
        errors.append("scan reported equivalence failures")
    for d, ext in per_degree.items():
        report = bf.check_conjecture(bf.from_hex(ext["witness"], n))
        claimed = Fraction(ext["max_linear_sum"]["num"], 1 << ext["max_linear_sum"]["log2_den"])
        if report.degree != int(d) or _frac(report.linear_sum) != claimed:
            errors.append(f"degree {d} witness {ext['witness']} does not re-check")
    return errors


# -- independent direct-sum oracle ---------------------------------------------


def bound_M(d: int) -> Fraction:
    """M(d) = E|x_1 + ... + x_d| over uniform signs, with M(0) = 0."""
    return Fraction(sum(comb(d, k) * abs(d - 2 * k) for k in range(d + 1)), 1 << d)


def maj_p_plus(d: int) -> Fraction:
    """Pr[derivative of Maj_d along one coordinate is +1]: the others tie-break it."""
    return Fraction(comb(d - 1, d // 2), 1 << (d - 1))


class DirectAnalysis:
    """Every quantity a query needs, by direct summation over the truth table.

    ``coeffs[S]`` is 2^n fhat(S) = sum_x f(x) chi_S(x), counted as agreements
    minus disagreements between the table bits and the parity pattern of S.
    """

    def __init__(self, n: int, table: int):
        points = 1 << n
        self.n = n
        coord = [sum(1 << x for x in range(points) if x >> i & 1) for i in range(n)]
        patterns = [0] * points
        for s in range(1, points):
            low = (s & -s).bit_length() - 1
            patterns[s] = patterns[s & (s - 1)] ^ coord[low]
        self.coeffs = [points - 2 * (table ^ p).bit_count() for p in patterns]
        self.degree = max((s.bit_count() for s in range(points) if self.coeffs[s]), default=0)
        self.linear_sum = Fraction(sum(self.coeffs[1 << i] for i in range(n)), points)
        self.counts = []  # (zero, plus, minus) per coordinate
        for i in range(n):
            h = 1 << i
            plus = minus = 0
            for x in range(points):
                if not x & h:
                    value = (table >> (x | h) & 1) - (table >> x & 1)
                    plus += value == 1
                    minus += value == -1
            self.counts.append((points // 2 - plus - minus, plus, minus))
        half = points // 2
        self.influences = [Fraction(p + m, half) for _, p, m in self.counts]
        self.total_influence = sum(self.influences, Fraction(0))
        self.sum_plus = Fraction(sum(p for _, p, _ in self.counts), half)
        self.sum_minus = Fraction(sum(m for _, _, m in self.counts), half)

    def sides(self, d: int) -> dict[str, tuple[Fraction, Fraction]]:
        maj_inf = d * maj_p_plus(d)
        return {
            "original": (self.linear_sum, bound_M(d)),
            "ineq_a": (self.total_influence - maj_inf, 2 * self.sum_minus),
            "ineq_b": (self.sum_plus - maj_inf, self.sum_minus),
            "ineq_c": (2 * self.sum_plus, self.total_influence + maj_inf),
        }


def check_query(n: int, table: int, d: int, i: int, outputs) -> list[str]:
    """Compare one query-mix request's outputs against DirectAnalysis."""
    spectrum, report, profile, preds, counted, _ = outputs
    ref = DirectAnalysis(n, table)
    errors = []
    if [int(c) for c in spectrum.coeffs] != ref.coeffs:
        errors.append("fwht coefficients differ from the direct sums")
    bound = bound_M(ref.degree)
    if (report.degree, _frac(report.linear_sum), _frac(report.bound), report.satisfied) != (
            ref.degree, ref.linear_sum, bound, ref.linear_sum <= bound):
        errors.append("check_conjecture differs from the direct route")
    if [_frac(v) for v in profile.influences] != ref.influences or \
            _frac(profile.total) != ref.total_influence:
        errors.append("influence_profile differs from direct counting")
    zero, plus, minus = ref.counts[i - 1]
    half = 1 << (n - 1)
    if [_frac(p) for p in counted.as_triple()] != [Fraction(c, half) for c in (zero, plus, minus)]:
        errors.append(f"derivative distribution at coordinate {i} differs")
    for name, (lhs, rhs) in ref.sides(d).items():
        got_lhs, got_rhs = preds.sides[name]
        if (_frac(got_lhs), _frac(got_rhs), getattr(preds, name)) != (lhs, rhs, lhs <= rhs):
            errors.append(f"equivalence side {name} at d={d} differs")
    return errors
