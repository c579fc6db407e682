"""Command line front end.

Subcommands: analyze (one function), maj (majority profile), derivative
(one coordinate's derivative distribution, both routes), equiv (the four
inequalities at a chosen d), scan (bulk verification).  Output is plain
text by default or a JSON document with --json; the document shape is
{"schema_version": "1", "command": ..., "payload": ...}.  Each result record
(scan config, witnesses and per-degree extremals, majority profile,
derivative distribution) is written field by field (_record), and every
exact quantity is a {"num", "log2_den", "display"} triple, never a float.
A scan's config leaves out worker_count and chunk_size.

Exit codes: 0 for success (a conjecture violation found by a scan is a
reported result, not an error), 1 for bad input or usage, 2 when an
internal invariant breaks (including any equivalence disagreement, which
a correct build can never produce).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .conjecture import check_conjecture, equivalence_predicates
from .core import (
    BooleanFunction,
    InputError,
    InvariantError,
    _parse_int,
    builtin,
    from_hex,
    fwht,
    majority,
    to_hex,
)
from .derivatives import (
    derivative_distribution_counted,
    derivative_distribution_spectral,
    derivative_value_counts,
    expectation_of_derivative,
    discrete_derivative,
    influence_profile,
)
from .dyadic import DyadicRational
from .majority import expected_abs_sum, majority_profile
from .scan import ScanConfig, ScanResult, run_scan

_MAJ_TABLE_MAX_D = 16


class UsageError(InputError):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # default argparse behavior exits with status 2, which is reserved
        raise UsageError(message)


def _dy(x: DyadicRational) -> dict:
    return {"num": x.num, "log2_den": x.log2_den, "display": x.display}


def _record(obj, omit=()) -> dict:
    """A result dataclass as its JSON block: every field but those in omit,
    by name, with exact values as _dy triples."""
    values = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.name not in omit}
    return {k: _dy(v) if isinstance(v, DyadicRational) else v for k, v in values.items()}


def _resolve_function(args) -> BooleanFunction:
    if args.fn is not None and args.hex is not None:
        raise UsageError("give either --fn or --hex, not both")
    if args.fn is not None:
        family, *params = args.fn.split(":")
        return builtin(family, params)
    if args.hex is not None:
        if args.n is None:
            raise UsageError("--hex requires --n")
        return from_hex(args.hex, args.n)
    raise UsageError("no function given; use --fn or --hex with --n")


def _cmd_analyze(args):
    f = _resolve_function(args)
    spectrum = fwht(f)
    report = check_conjecture(f)
    profile = influence_profile(spectrum)
    payload = {
        "n": f.n,
        "table_hex": to_hex(f),
        "degree": report.degree,
        "linear_sum": _dy(report.linear_sum),
        "total_influence": _dy(profile.total),
        "influences": [_dy(v) for v in profile.influences],
        "conjecture": _record(report, omit=("n",)),
    }
    if args.spectrum:
        payload["spectrum"] = {
            str(mask): _dy(DyadicRational(int(spectrum.coeffs[mask]), f.n))
            for mask in range(f.points)
        }
    return "analyze", payload, 0


def _cmd_maj(args):
    payload = {**_record(majority_profile(args.d)),
               "expected_abs_sum": _dy(expected_abs_sum(args.d))}
    if args.table:
        if args.d > _MAJ_TABLE_MAX_D:
            raise InputError(f"--table supports d <= {_MAJ_TABLE_MAX_D}")
        payload["table_hex"] = to_hex(majority(args.d))
    return "maj", payload, 0


def _cmd_derivative(args):
    f = _resolve_function(args)
    counted = derivative_distribution_counted(f, args.i)
    spectral = derivative_distribution_spectral(fwht(f), args.i)
    if counted != spectral:
        raise InvariantError(
            f"counted and spectral distributions disagree at coordinate {args.i}"
        )
    zero, plus, minus = derivative_value_counts(f, args.i)
    expect = expectation_of_derivative(discrete_derivative(f, args.i))
    payload = {
        "n": f.n,
        "table_hex": to_hex(f),
        "i": args.i,
        "counts": {"zero": zero, "plus": plus, "minus": minus},
        **_record(counted),
        "expectation": _dy(expect),
        "routes_agree": True,
    }
    return "derivative", payload, 0


def _cmd_equiv(args):
    f = _resolve_function(args)
    preds = equivalence_predicates(f, args.d)
    payload = {
        **_record(preds, omit=("sides",)),
        "table_hex": to_hex(f),
        "embedding_coordinates": max(f.n, preds.d),
        "agreement": preds.agreement,
        "sides": {
            name: {"lhs": _dy(lhs), "rhs": _dy(rhs), "holds": getattr(preds, name)}
            for name, (lhs, rhs) in preds.sides.items()
        },
    }
    return "equiv", payload, 0 if preds.agreement else 2


def _parse_equiv_d(text: str | None) -> tuple[bool | None, tuple[int, ...] | None]:
    if text is None:
        return None, None
    if text.strip().lower() == "none":
        return False, None
    return True, tuple(_parse_int(part) for part in text.split(","))


def _cmd_scan(args):
    check, d_range = _parse_equiv_d(args.equiv_d)
    config = ScanConfig(
        n=args.n,
        mode=args.mode,
        degree_filter=args.degree,
        equivalence_check=check,
        equivalence_d_range=d_range,
        sample_count=args.samples,
        seed=args.seed,
        worker_count=args.jobs,
        chunk_size=args.chunk_size,
        allow_huge=args.allow_huge,
    )
    result = run_scan(config)
    return "scan", _scan_payload(result), 2 if result.equivalence_failure_count else 0


def _scan_payload(result: ScanResult) -> dict:
    return {
        # worker_count and chunk_size are deliberately not echoed: they cannot
        # change any result byte, and the payload must not vary when they do
        "config": _record(result.config, omit=("worker_count", "chunk_size")),
        "functions_examined": result.functions_examined,
        "violation_count": result.violation_count,
        "violations": [_record(w) for w in result.violations],
        "equivalence_failure_count": result.equivalence_failure_count,
        "equivalence_failures": [_record(w) for w in result.equivalence_failures],
        "per_degree": {str(d): _record(ext) for d, ext in result.per_degree.items()},
        "wall_time_seconds": result.wall_time,
    }


def _banner(text: str) -> str:
    bar = "=" * 64
    return f"{bar}\n!!! {text}\n{bar}"


def _render_analyze(p) -> str:
    lines = [
        f"function: n={p['n']} table={p['table_hex']}",
        f"degree: {p['degree']}",
        f"linear sum: {p['linear_sum']['display']}",
        f"total influence: {p['total_influence']['display']}",
        "influences: " + " ".join(v["display"] for v in p["influences"]),
    ]
    c = p["conjecture"]
    lines.append(
        f"bound M({c['degree']}): {c['bound']['display']}"
        f" (gap {c['gap']['display']})"
    )
    if c["satisfied"]:
        lines.append("conjecture: satisfied")
    else:
        lines.append(_banner(
            f"CONJECTURE VIOLATION: linear sum {c['linear_sum']['display']} "
            f"exceeds M({c['degree']}) = {c['bound']['display']}"
        ))
    if "spectrum" in p:
        lines.append("spectrum (mask: coefficient):")
        for mask, coeff in p["spectrum"].items():
            if coeff["num"]:
                lines.append(f"  {int(mask):>6b}: {coeff['display']}")
    return "\n".join(lines)


def _render_maj(p) -> str:
    lines = [
        f"majority d={p['d']}",
        f"linear coefficient: {p['linear_coefficient']['display']}",
        f"bound M({p['d']}): {p['bound_M']['display']}",
        f"total influence: {p['total_influence']['display']}",
        f"Pr[derivative = +1] per coordinate: {p['p_plus_per_coordinate']['display']}",
        f"expected |coordinate sum|: {p['expected_abs_sum']['display']}",
    ]
    if "table_hex" in p:
        lines.append(f"table: {p['table_hex']}")
    return "\n".join(lines)


def _render_derivative(p) -> str:
    c = p["counts"]
    return "\n".join([
        f"function: n={p['n']} table={p['table_hex']}, coordinate {p['i']}",
        f"counts over {1 << (p['n'] - 1)} restrictions: "
        f"zero={c['zero']} plus={c['plus']} minus={c['minus']}",
        f"p_zero: {p['p_zero']['display']}",
        f"p_plus: {p['p_plus']['display']}",
        f"p_minus: {p['p_minus']['display']}",
        f"expectation: {p['expectation']['display']}",
        "counted and spectral routes agree",
    ])


def _render_equiv(p) -> str:
    lines = [
        f"function: n={p['n']} table={p['table_hex']}, compared against d={p['d']}"
        f" (embedded in {p['embedding_coordinates']} coordinates)",
    ]
    for name in ("original", "ineq_a", "ineq_b", "ineq_c"):
        side = p["sides"][name]
        verdict = "holds" if side["holds"] else "fails"
        lines.append(
            f"{name}: {side['lhs']['display']} <= {side['rhs']['display']} ({verdict})"
        )
    if p["agreement"]:
        lines.append("all four inequalities agree")
    else:
        lines.append(_banner("EQUIVALENCE BROKEN: the four inequalities disagree"))
    return "\n".join(lines)


def _render_scan(p) -> str:
    cfg = p["config"]
    lines = [
        f"scan n={cfg['n']} mode={cfg['mode']}: "
        f"{p['functions_examined']} functions in {p['wall_time_seconds']:.3f}s",
    ]
    if cfg["degree_filter"] is not None:
        lines.append(f"degree filter: {cfg['degree_filter']}")
    for d, ext in p["per_degree"].items():
        lines.append(
            f"  degree {d}: {ext['function_count']} functions, "
            f"max linear sum {ext['max_linear_sum']['display']} "
            f"(bound {ext['bound']['display']}, margin {ext['margin']['display']}), "
            f"witness {ext['witness']} x{ext['witness_count']}"
        )
    if p["violation_count"]:
        lines.append(_banner(f"CONJECTURE VIOLATION: {p['violation_count']} witness(es)"))
        for w in p["violations"]:
            lines.append(
                f"  {w['table_hex']} degree {w['degree']}: linear sum "
                f"{w['linear_sum']['display']} exceeds {w['bound']['display']}"
            )
    else:
        lines.append("violations: none")
    if cfg["equivalence_check"]:
        if p["equivalence_failure_count"]:
            lines.append(_banner(
                f"EQUIVALENCE BROKEN: {p['equivalence_failure_count']} witness(es)"
            ))
            for w in p["equivalence_failures"]:
                lines.append(
                    f"  {w['table_hex']} d={w['d']}: original={w['original']} "
                    f"a={w['ineq_a']} b={w['ineq_b']} c={w['ineq_c']}"
                )
        else:
            ds = ",".join(str(d) for d in cfg["equivalence_d_range"])
            lines.append(f"equivalence: agreed for all functions at d in {{{ds}}}")
    return "\n".join(lines)


_RENDERERS = {
    "analyze": _render_analyze,
    "maj": _render_maj,
    "derivative": _render_derivative,
    "equiv": _render_equiv,
    "scan": _render_scan,
}


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a JSON document instead of text")
    fn_common = _Parser(add_help=False)
    fn_common.add_argument("--fn", metavar="SPEC",
                           help="named function: maj:d, parity:n, dictator:i:n, "
                                "and:n, or:n, const:+:n, const:-:n")
    fn_common.add_argument("--hex", metavar="HEX", help="truth table as hex")
    fn_common.add_argument("--n", type=_parse_int, help="arity for --hex")

    parser = _Parser(prog="boolfun",
                     description="exact Fourier analysis of Boolean-valued functions")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = subs.add_parser("analyze", parents=[common, fn_common],
                        help="spectrum, influences, and the bound for one function")
    p.add_argument("--spectrum", action="store_true", help="include all coefficients")
    p.set_defaults(handler=_cmd_analyze)

    p = subs.add_parser("maj", parents=[common], help="majority profile at arity d")
    p.add_argument("--d", type=_parse_int, required=True)
    p.add_argument("--table", action="store_true",
                   help=f"include the truth table (d <= {_MAJ_TABLE_MAX_D})")
    p.set_defaults(handler=_cmd_maj)

    p = subs.add_parser("derivative", parents=[common, fn_common],
                        help="derivative value distribution along one coordinate")
    p.add_argument("--i", type=_parse_int, required=True, help="coordinate, 1-based")
    p.set_defaults(handler=_cmd_derivative)

    p = subs.add_parser("equiv", parents=[common, fn_common],
                        help="the four inequalities for one function at a chosen d")
    p.add_argument("--d", type=_parse_int, required=True)
    p.set_defaults(handler=_cmd_equiv)

    p = subs.add_parser("scan", parents=[common], help="bulk verification")
    p.add_argument("--n", type=_parse_int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--degree", type=_parse_int, default=None, help="restrict to one degree")
    p.add_argument("--samples", type=_parse_int, default=None, help="sample count (random)")
    p.add_argument("--seed", type=_parse_int, default=None, help="stream seed (random)")
    p.add_argument("--jobs", type=_parse_int, default=1, help="worker processes")
    p.add_argument("--chunk-size", type=_parse_int, default=1 << 14)
    p.add_argument("--equiv-d", metavar="LIST", default=None,
                   help="comma-separated d values for the equivalence check, "
                        "or 'none' to disable it")
    p.add_argument("--allow-huge", action="store_true",
                   help="permit exhaustive n = 5")
    p.set_defaults(handler=_cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        command, payload, code = args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    document = {"schema_version": "1", "command": command, "payload": payload}
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(_RENDERERS[command](payload))
    return code


def console_main() -> None:
    sys.exit(main())
