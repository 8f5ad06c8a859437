"""Command line interface: gevrey-lab {check|solve|estimate|examples}.

Exit codes: 0 success, 2 check failure, 3 unusable input (a parse or
semantic error in the problem document, a document without the top
operator L_k for solve or estimate, an unreadable or malformed input
file, an --out-dir that cannot be created, an unknown example, a bad
--param, --degree, --order or --rho value), 4
solver error.  Exits 3 and 4 print a one-line ``error[...]`` diagnostic
on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from pathlib import Path

from .diffops import check_divisibility
from .dsl import _format_series, parse_problem
from .errors import (GevreyLabError, InconclusiveBound, InputError, ParseError,
                     RegressionMismatch, SemanticError)
from .gevrey import estimate_order
from .registry import list_examples, run_example
from .series import format_rational
# solve_direct stays bound here for callers that look it up on this module
from .solver import Run, check_poincare, solve_direct

EXIT_OK = 0
EXIT_CHECK = 2
EXIT_PARSE = 3
EXIT_SOLVER = 4


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError("io", f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError("io", f"cannot read {path}: {exc.reason}") from exc


def _load_run(args) -> Run:
    """The document's run, with --degree, --order and --rho applied."""
    doc = parse_problem(_read_text(args.file))
    for name in ("degree", "order"):
        value = getattr(args, name)
        if value is None:
            continue
        if value < 0:
            raise InputError("bad-option",
                             f"--{name} must be a non-negative integer")
        doc.options[name] = value
    if args.rho is not None:
        try:
            doc.options["rho"] = Fraction(args.rho)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError("bad-option",
                             f"--rho {args.rho!r} is not a rational p/q") from exc
    return doc.run()


def cmd_check(args) -> int:
    spec = _load_run(args).spec
    verdict = check_divisibility(spec.P, spec.operators)
    lk = spec.operators[-1]
    lk_ok = lk is not None and not lk.is_zero
    print(f"dim {spec.dim}, unknowns {spec.unknowns}, order {spec.order}")
    for j in range(1, spec.order + 1):
        if j in verdict.witnesses:
            print(f"  L_{j}*(P): not divisible by P "
                  f"(witness monomial {verdict.witnesses[j]})")
        else:
            q = verdict.quotients[j]
            print(f"  L_{j}*(P) = P * ({_format_series(q)})")
    divergent = bool(verdict) and lk_ok
    if divergent:
        print(f"divergent route applies: unique formal solution, "
              f"predicted P-{spec.order}-Gevrey")
    poincare_ok = False
    try:
        pv = check_poincare(spec, args.poincare_bound)
        tag = " (partial, up to user bound)" if pv.partial else ""
        if pv.ok:
            poincare_ok = True
            print(f"Poincare condition holds through n* = {pv.n_star}{tag}: "
                  f"convergent route applies")
        else:
            print(f"Poincare condition fails at n = {pv.failing}{tag}")
    except InconclusiveBound as exc:
        print(f"Poincare check inconclusive: {exc}")
    except GevreyLabError as exc:
        print(f"Poincare check unavailable: {exc}")
    if divergent or poincare_ok:
        return EXIT_OK
    print("neither route applies")
    return EXIT_CHECK


def cmd_solve(args) -> int:
    run = _load_run(args)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError("io", f"cannot create {out_dir}: {exc.strerror}") from exc
    pexp = run.pexp
    direct = run.direct
    res_zero = all(s.is_zero for s in run.residual)
    (out_dir / "solution.json").write_text(
        json.dumps(pexp.to_json(), sort_keys=True, indent=2) + "\n",
        encoding="utf-8")
    (out_dir / "solution_x.json").write_text(
        json.dumps({"degree": run.degree,
                    "solution": [s.to_json() for s in direct]},
                   sort_keys=True, indent=2) + "\n",
        encoding="utf-8")
    with (out_dir / "norms.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "norm", "certified_degree"])
        for n, norm, cdeg in run.norms:
            writer.writerow([n, format_rational(norm), cdeg])
    status = "vanishes" if res_zero else "DOES NOT vanish"
    print(f"residual {status} through certified degree {run.certified}")
    print(f"wrote solution.json, solution_x.json, norms.csv to {out_dir}")
    return EXIT_OK if res_zero else EXIT_SOLVER


def _read_norms(path: str) -> list[tuple[int, Fraction]]:
    norms = []
    rows = csv.reader(_read_text(path).splitlines())
    for line, row in enumerate(rows, start=1):
        if not row or row[0] == "n":
            continue
        try:
            norms.append((int(row[0]), Fraction(row[1])))
        except (ValueError, IndexError, ZeroDivisionError) as exc:
            raise InputError(
                "norms", f"{path} line {line}: expected n,norm[,...], "
                         f"got {','.join(row)!r}") from exc
    return norms


def cmd_estimate(args) -> int:
    if args.norms:
        est = estimate_order(_read_norms(args.norms))
        print(f"fitted order: {est.fitted_order:.4f} "
              f"(window {est.window[0]}..{est.window[1]})")
        return EXIT_OK
    run = _load_run(args)
    est = run.estimate
    theo = run.theoretical
    print(f"theoretical order: {theo}")
    print(f"fitted order:      {est.fitted_order:.4f} "
          f"(window {est.window[0]}..{est.window[1]}, "
          f"rho {format_rational(run.rho)})")
    print(f"difference:        {abs(est.fitted_order - float(theo)):.4f}")
    return EXIT_OK


def cmd_examples(args) -> int:
    if args.action == "list":
        for name, summary in list_examples():
            print(f"{name}: {summary}")
        return EXIT_OK
    overrides = dict(_parse_param(item) for item in args.param or [])
    report = run_example(args.name, overrides)
    est = report["estimate"]
    print(f"PASS {args.name} "
          f"(params {report['params']}, "
          f"certified degree {report['certified_degree']}, "
          f"theoretical order {report['theoretical']}"
          + (f", fitted {est.fitted_order:.3f}" if est else "") + ")")
    return EXIT_OK


def _parse_param(item: str) -> tuple[str, int | tuple[int, ...]]:
    """``key=int`` or ``key=(int, ...)``."""
    key, _, value = item.partition("=")
    value = value.strip()
    try:
        if value.startswith("(") and value.endswith(")"):
            inner = value[1:-1].strip().rstrip(",")
            return key, tuple(int(v) for v in inner.split(",")) if inner else ()
        return key, int(value)
    except ValueError as exc:
        raise InputError("param", f"bad parameter {item!r}; expected key=N "
                                  f"or key=(N,...)") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gevrey-lab",
        description="Exact series solver and Gevrey-order lab for singular "
                    "PDE systems P^k L_k(y) + ... + P L_1(y) = F(x, y)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--degree", type=int, help="truncation degree D")
        p.add_argument("--order", type=int, help="expansion order N")
        p.add_argument("--rho", help="norm radius as p/q")

    p_check = sub.add_parser("check", help="decide which solvability route applies")
    p_check.add_argument("file")
    common(p_check)
    p_check.add_argument("--poincare-bound", type=int, default=None,
                         help="finite bound for the partial Poincare check")
    p_check.set_defaults(func=cmd_check)

    p_solve = sub.add_parser("solve", help="solve and export solution files")
    p_solve.add_argument("file")
    common(p_solve)
    p_solve.add_argument("--out-dir", default=".")
    p_solve.set_defaults(func=cmd_solve)

    p_est = sub.add_parser("estimate", help="fit the Gevrey order")
    p_est.add_argument("file", nargs="?")
    common(p_est)
    p_est.add_argument("--norms", help="norms.csv to fit instead of solving")
    p_est.set_defaults(func=cmd_estimate)

    p_ex = sub.add_parser("examples", help="list or run built-in examples")
    p_ex.add_argument("action", choices=["list", "run"])
    p_ex.add_argument("name", nargs="?")
    p_ex.add_argument("--param", action="append",
                      help="override an example parameter, e.g. --param k=2")
    p_ex.set_defaults(func=cmd_examples)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "examples" and args.action == "run" and not args.name:
        parser.error("examples run requires a name")
    if args.command == "estimate" and not args.file and not args.norms:
        parser.error("estimate requires a file or --norms")
    try:
        return args.func(args)
    except (ParseError, SemanticError, InputError) as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RegressionMismatch as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return EXIT_CHECK
    except GevreyLabError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
