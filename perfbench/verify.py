"""Checks on the program's outputs, run outside the timed region.

Every check returns an error message, or None when the output is right, so
that a corrupted or missing file counts as one failure and never stops the
benchmark.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from pathlib import Path

from gevreylab.series import Series
from gevreylab.solver import PExpansion

SOLVE_FILES = ("solution.json", "solution_x.json", "norms.csv")
CERTIFIED = re.compile(r"certified degree (\d+)")


def certified_degree(stdout: str) -> int | None:
    """The certified degree a solve or examples run line reports."""
    m = CERTIFIED.search(stdout)
    return int(m.group(1)) if m else None


def check_result(op, rc, stdout, error) -> str | None:
    """Exit code 0, no traceback, and the expected line on stdout."""
    if error is not None:
        return error.strip().splitlines()[-1]
    if rc != 0:
        return f"exit code {rc}"
    if op.expect not in stdout:
        return f"missing {op.expect!r} in output"
    if op.kind in ("solve", "examples_run") and certified_degree(stdout) is None:
        return "no certified degree in output"
    return None


def coef_bits(series_list) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for s in series_list for c in s.terms.values()), default=0)


def verify_solve(out_dir: Path, printed_cert: int | None) -> tuple[str | None, list]:
    """Rebuild the P-expansion from solution.json, evaluate it and compare
    with solution_x.json through the certified degree.  Returns the error
    (or None) and the output series, for the size counts."""
    try:
        pexp = PExpansion.from_json(json.loads(
            (out_dir / "solution.json").read_text(encoding="utf-8")))
        data = json.loads((out_dir / "solution_x.json").read_text(
            encoding="utf-8"))
        direct = [Series.from_json(s) for s in data["solution"]]
        summed = pexp.evaluate()
        cert = min(min(s.trunc for s in summed), data["degree"])
        if printed_cert is not None and cert != printed_cert:
            return (f"certified degree {cert} in files, {printed_cert} "
                    f"printed"), []
        if len(summed) != len(direct) or not all(
                a.equal_upto(b, cert) for a, b in zip(summed, direct)):
            return f"P-expansion and direct solution differ through {cert}", []
        with (out_dir / "norms.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if rows[:1] != [["n", "norm", "certified_degree"]] or \
                len(rows) - 1 != len(pexp.coeffs):
            return "norms.csv has the wrong header or row count", []
    except Exception as exc:  # any corrupted output is one failure
        return f"unreadable output in {out_dir.name}: " \
               f"{type(exc).__name__}: {exc}", []
    return None, [s for yn in pexp.coeffs for s in yn] + direct


def verify_direct(spec, y, degree: int) -> str | None:
    """The direct solution is certified through `degree` and the residual
    of the equation vanishes through it."""
    try:
        if min(s.trunc for s in y) < degree:
            return f"solution certified below degree {degree}"
        residual = spec.with_trunc(degree).residual(y)
        for s in residual:
            if s.trunc < degree or any(sum(e) <= degree for e in s.terms):
                return f"residual does not vanish through degree {degree}"
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def fingerprints(out_dir: Path) -> dict[str, str]:
    out = {}
    for name in SOLVE_FILES:
        path = out_dir / name
        if path.is_file():
            out[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def combined(prints: dict[str, dict[str, str]]) -> str:
    """One sha256 over every (document, file, digest), in sorted order."""
    h = hashlib.sha256()
    for doc in sorted(prints):
        for name, digest in sorted(prints[doc].items()):
            h.update(f"{doc}/{name}:{digest}\n".encode())
    return h.hexdigest()
