"""Acceptance gate: nine headline guarantees, one verdict line each.

Run with -s to see the PASS/FAIL lines.  Each criterion re-derives its
claim through the public API; the per-module suites own the fine-grained
oracles, this file owns the scale and the budgets.
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from boolfun import (
    BooleanFunction,
    ScanConfig,
    assert_equivalence,
    degree,
    derivative_distribution_counted,
    derivative_distribution_spectral,
    derivative_value_counts,
    discrete_derivative,
    expectation_of_derivative,
    expected_abs_sum,
    fourier_coefficient,
    fwht,
    linear_sum,
    maj_bound,
    maj_linear_coefficient,
    majority,
    run_scan,
    to_hex,
    total_influence,
)
from boolfun.cli import _scan_payload
from boolfun.dyadic import ZERO, DyadicRational


def _verdict(num: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}: criterion {num} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def scan4():
    begin = time.perf_counter()
    result = run_scan(ScanConfig(n=4, mode="exhaustive", worker_count=1,
                                 equivalence_check=True,
                                 equivalence_d_range=(1, 2, 3, 4, 5)))
    return result, time.perf_counter() - begin


@pytest.fixture(scope="module")
def sweep4():
    """One pass over every n = 4 function: norm, influence, max linear sum."""
    parseval_ok = True
    influence_ok = True
    max_linear = ZERO
    for table in range(1 << 16):
        spectrum = fwht(BooleanFunction(4, table))
        c = spectrum.coeffs
        if int(np.dot(c, c)) != 1 << 8:
            parseval_ok = False
        if total_influence(spectrum) > degree(spectrum):
            influence_ok = False
        ls = linear_sum(spectrum)
        if ls > max_linear:
            max_linear = ls
    return parseval_ok, influence_ok, max_linear


@pytest.fixture(scope="module")
def random_sweep():
    """10000 seeded functions over n = 1..10, both derivative routes."""
    rng = random.Random(20250819)
    begin = time.perf_counter()
    triples_ok = True
    expectation_ok = True
    parseval_ok = True
    count = 0
    for k in range(10000):
        n = 1 + k % 10
        f = BooleanFunction(n, rng.getrandbits(1 << n))
        spectrum = fwht(f)
        c = spectrum.coeffs
        if int(np.dot(c, c)) != 1 << (2 * n):
            parseval_ok = False
        for i in range(1, n + 1):
            if derivative_distribution_counted(f, i) != \
                    derivative_distribution_spectral(spectrum, i):
                triples_ok = False
            expect = expectation_of_derivative(discrete_derivative(f, i))
            if expect != fourier_coefficient(spectrum, 1 << (i - 1)):
                expectation_ok = False
        count += 1
    return triples_ok, expectation_ok, parseval_ok, count, time.perf_counter() - begin


def test_criterion_1_exhaustive_n4(scan4):
    result, seconds = scan4
    ok = (result.functions_examined == 65536
          and not result.violations
          and not result.equivalence_failures
          and seconds < 10.0)
    _verdict(1, ok,
             f"n=4 exhaustive: {result.functions_examined} functions, "
             f"{len(result.violations)} violations, "
             f"{len(result.equivalence_failures)} equivalence failures, "
             f"equivalence d in 1..5, {seconds:.2f}s (budget 10s)")


def test_criterion_2_equivalence_all_n3():
    begin = time.perf_counter()
    checked = 0
    for table in range(256):
        f = BooleanFunction(3, table)
        for d in range(1, 5):
            assert_equivalence(f, d)
            checked += 1
    seconds = time.perf_counter() - begin
    ok = checked == 1024 and seconds < 1.0
    _verdict(2, ok,
             f"all 256 n=3 functions at d in 1..4: {checked} agreements, "
             f"{seconds:.2f}s (budget 1s)")


def test_criterion_3_derivative_routes_random(random_sweep):
    triples_ok, expectation_ok, _, count, seconds = random_sweep
    ok = triples_ok and expectation_ok and count == 10000 and seconds < 30.0
    _verdict(3, ok,
             f"{count} seeded functions over n=1..10: counted == spectral "
             f"distributions and derivative mean == singleton coefficient, "
             f"{seconds:.1f}s (budget 30s)")


def test_criterion_4_parseval_everywhere(sweep4, random_sweep):
    parseval4 = sweep4[0]
    parseval_random = random_sweep[2]
    parseval3 = all(
        int(np.dot(fwht(BooleanFunction(3, t)).coeffs,
                   fwht(BooleanFunction(3, t)).coeffs)) == 1 << 6
        for t in range(256)
    )
    ok = parseval4 and parseval3 and parseval_random
    _verdict(4, ok,
             "squared coefficients sum to 4^n for all 65536 n=4, all 256 n=3, "
             "and all 10000 random functions")


def test_criterion_5_influence_at_most_degree(sweep4):
    _verdict(5, sweep4[1],
             "total influence <= total degree for all 65536 n=4 functions")


def test_criterion_6_majority_fixtures():
    closed_form = all(
        maj_linear_coefficient(d).as_fraction()
        == Fraction(math.comb(d - 1, (d - 1) // 2), 1 << (d - 1))
        for d in (1, 3, 5, 7, 9)
    )
    bounds = (maj_bound(1) == 1 and maj_bound(2) == 1
              and maj_bound(3) == DyadicRational(3, 1)
              and maj_bound(5) == DyadicRational(15, 3))
    monotone = all(
        derivative_value_counts(majority(d), i)[2] == 0
        for d in range(1, 10) for i in range(1, d + 1)
    )
    ok = closed_form and bounds and monotone
    _verdict(6, ok,
             "majority d=1..9: odd-d closed form, M(1)=1 M(2)=1 M(3)=3/2 "
             "M(5)=15/8, and no -1 derivative values on any coordinate")


def test_criterion_7_bound_equals_expected_abs_sum(sweep4):
    remark = all(
        linear_sum(fwht(majority(n))) == expected_abs_sum(n)
        for n in range(1, 10)
    )
    max_linear = sweep4[2]
    dominated = max_linear <= expected_abs_sum(4)
    ok = remark and dominated
    _verdict(7, ok,
             f"majority singleton sum == expected |coordinate sum| for n=1..9; "
             f"largest n=4 linear sum {max_linear.display} <= "
             f"{expected_abs_sum(4).display}")


def test_criterion_8_extremal_witnesses_n3():
    # an exhaustive scan runs in process at any worker count; a random scan's
    # pool merges its spans' witnesses
    def extremals(**kwargs):
        return [{d: (e.max_linear_sum, e.witness, e.witness_count)
                 for d, e in run_scan(ScanConfig(n=3, worker_count=w, **kwargs)).per_degree.items()}
                for w in (1, 2, 8)]

    exhaustive = extremals(mode="exhaustive")
    sampled = extremals(mode="random", sample_count=200, seed=8, chunk_size=64)
    stable = all(r == runs[0] for runs in (exhaustive, sampled) for r in runs[1:])
    per_degree = run_scan(ScanConfig(n=3, mode="exhaustive")).per_degree
    deg3, deg1 = per_degree[3], per_degree[1]
    maj3_hex = to_hex(majority(3))
    ok = (deg3.max_linear_sum == DyadicRational(3, 1)
          and deg3.witness == maj3_hex
          and deg1.max_linear_sum == DyadicRational(1)
          and stable)
    _verdict(8, ok,
             f"n=3 degree-3 maximum {deg3.max_linear_sum.display} at "
             f"{deg3.witness} (= majority), degree-1 maximum "
             f"{deg1.max_linear_sum.display}; identical for 1, 2, 8 workers")


def test_criterion_9_payload_byte_identity():
    identical = True
    for mode, extra in (("exhaustive", {}), ("random", {"sample_count": 500, "seed": 9})):
        blobs = set()
        for workers in (1, 2, 8):
            for chunk in (32, 256):
                result = run_scan(ScanConfig(n=3, mode=mode, worker_count=workers,
                                             chunk_size=chunk, **extra))
                blobs.add(json.dumps(_scan_payload(result), indent=2, sort_keys=True).encode())
        identical &= len(blobs) == 1
    _verdict(9, identical,
             "exhaustive and random scan payloads byte-identical across worker "
             "counts 1, 2, 8 and chunk sizes 32, 256")
