"""Seeded fuzz of the command line: no input, however broken or hostile,
ends in a traceback or in an exit code outside 0/2/3/4.

Two kinds of case go through ``cli.main`` with ``check``, ``solve`` or
``estimate`` at small degrees:

* broken text: valid documents with tokens inserted, deleted, swapped or
  replaced by bad numbers (a zero denominator among them), which mostly
  stop in the parser;
* hostile documents: random admissible problems from ``instances.py``,
  written with ``serialize``, then given zero or singular data, a missing
  top operator, a cut degree or an ``--order`` below k, which reach the
  solvers.

Numbers these cases put into a document stay below 4, so that no case asks
for a large working degree and the whole fuzz runs in a few seconds.

A third kind of case is about size: seeded documents with large exponents
and monomial degrees |gamma|, a degree and an order in the tens, literals
past Python's 4,300-digit int <-> str limit, deeply nested parentheses and
long sign chains.  Each runs under a wall-clock budget (``_budget``).  The
sizes were measured to stay far inside it; sizes that ask for unbounded
work, such as ``option degree = 100000``, are left out, since such a
document is valid and runs until it is stopped.
"""

import contextlib
import random
import re
import signal
from collections import Counter

import pytest

from gevreylab.cli import EXIT_CHECK, EXIT_OK, EXIT_PARSE, EXIT_SOLVER, main
from gevreylab.dsl import DEFAULT_OPTIONS, ProblemDocument
from gevreylab.registry import ENTRIES, build_document

from instances import (random_admissible_problem, random_dense_problem,
                       random_weighted_problem)

SEEDS = [11, 23, 37, 41]
CASES = 300  # per seed

BASES = [
    "dim 2; unknowns 1; order 2\nP = x1*x2\n"
    "L 2 : (2,0) -> x1^2; (0,2) -> x2^2; (1,1) -> 2\n"
    "F 1 = 2*y1 + 2*x1*x2\noption degree = 3\noption order = 3\n",
    "dim 1; unknowns 1; order 1\nP = x1\nL 1 : (1,) -> x1\n"
    "F 1 = -1/2*y1 + x1 + y1^2\noption rho = 1/3\n",
    "dim 1; unknowns 2; order 1\nP = x1\nL 1 : (1,) -> 1\n"
    "F 1 = -1*y1 + x1\nF 2 = y1 - 2*y2\noption window = 1/2\n",
]
TOKEN = re.compile(r"\d+|[A-Za-z_]\w*|->|[=:;,()+\-*^/]|\n")
INSERTS = ["(", ")", "->", ";", ",", "=", ":", "*", "^", "/", "+", "-", "0",
           "1", "3", "x1", "x3", "y1", "y3", "L", "F", "P", "option", "dim",
           "degree", "window", "\n", "#", "@"]
NUMBERS = ["0", "1", "2", "3", "1/0", "3/2", "-1", "0/0"]
GENERATORS = [random_admissible_problem, random_weighted_problem,
              random_dense_problem]


def _broken_text(rng):
    tokens = TOKEN.findall(rng.choice(BASES))
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(tokens))
        kind = rng.random()
        if kind < 0.25:
            tokens.insert(pos, rng.choice(INSERTS))
        elif kind < 0.45 and len(tokens) > 1:
            del tokens[pos]
        elif kind < 0.6:
            other = rng.randrange(len(tokens))
            tokens[pos], tokens[other] = tokens[other], tokens[pos]
        else:
            numbers = [i for i, t in enumerate(tokens) if t.isdigit()]
            tokens[rng.choice(numbers)] = rng.choice(NUMBERS)
    return " ".join(tokens).replace(" \n ", "\n"), []


def _hostile_document(rng):
    spec = rng.choice(GENERATORS)(rng)
    lines = ProblemDocument("", spec, dict(DEFAULT_OPTIONS)).serialize()
    lines = lines.splitlines()
    k, flags = spec.order, []
    kind = rng.randrange(6)
    if kind == 1:  # zero right side
        lines = [line.split(" = ")[0] + " = 0" if line.startswith("F ")
                 else line for line in lines]
    elif kind == 2:  # A(0) singular: every F_i linear in y1 alone
        lines = [line.split(" = ")[0] + " = y1 + x1"
                 if line.startswith("F ") else line for line in lines]
    elif kind == 3:  # the top operator vanishes
        lines = [line for line in lines if not line.startswith(f"L {k} ")]
    elif kind == 4:
        flags = ["--order", str(rng.randrange(k))]
    elif kind == 5:
        lines.append(f"option degree = {rng.randint(0, 1)}")
    return "\n".join(lines) + "\n", flags


def _case(rng, path, out_dir):
    text, flags = (_hostile_document if rng.random() < 0.5
                   else _broken_text)(rng)
    path.write_text(text, encoding="utf-8")
    command = rng.choice(["check", "solve", "estimate"])
    argv = [command, str(path), "--degree", str(rng.randint(0, 3)), *flags]
    if "--order" not in flags:
        argv += ["--order", str(rng.randint(0, 4))]
    if command == "solve":
        argv += ["--out-dir", str(out_dir)]
    elif command == "check" and rng.random() < 0.5:
        argv += ["--poincare-bound", str(rng.randint(0, 6))]
    return command, argv


def _assert_clean(command, argv, code, out, err):
    """A documented exit code, with one ``error[...]`` line for 3 and 4, or
    the status line of a solve whose residual or cross-check fails."""
    assert code in (EXIT_OK, EXIT_CHECK, EXIT_PARSE, EXIT_SOLVER), argv
    assert "Traceback" not in out + err
    if code == EXIT_PARSE or code == EXIT_SOLVER and err:
        assert len(err.splitlines()) == 1 and err.startswith("error["), \
            (argv, err)
    elif code == EXIT_SOLVER:
        assert command == "solve" and not err
        assert "DOES NOT vanish" in out or "disagree" in out
    else:
        assert not err, (argv, err)


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzzed_documents_exit_cleanly(tmp_path, capsys, seed):
    rng = random.Random(seed)
    path, out_dir = tmp_path / "p.gl", tmp_path / "out"
    codes = Counter()
    for _ in range(CASES):
        command, argv = _case(rng, path, out_dir)
        code = main(argv)  # an escaping exception fails the test here
        _assert_clean(command, argv, code, *capsys.readouterr())
        codes[code] += 1
    # at least a quarter of the cases get past the parser to the solvers
    assert codes[EXIT_OK] + codes[EXIT_CHECK] + codes[EXIT_SOLVER] >= CASES / 4


# -- sizes -------------------------------------------------------------------

SIZE_SEEDS = [5, 17]
SIZE_CASES = 40  # per seed
BUDGET = 10.0  # seconds per case; the slowest of 320 measured took 0.5 s

HEAD = "dim 1; unknowns 1; order 1\nP = x1\nL 1 : (1,) -> x1\n"


class OverBudget(BaseException):
    """Raised by the timer: not an Exception, so no handler in the package
    catches it and it ends the test."""


@contextlib.contextmanager
def _budget(seconds):
    def expire(signum, frame):
        raise OverBudget(f"over the {seconds} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _large_exponents(rng):
    """x- and y-exponents in the hundreds, |gamma| up to 1,100, P = x1^a
    with a up to 150 (a working degree of at least a)."""
    a, b, c = rng.randint(1, 150), rng.randint(1, 3), rng.choice([-2, -1, 1, 2])
    if rng.random() < 0.5:
        F = (f"F 1 = {c}*y1 + x1^{rng.randint(a, a + 300)} + "
             f"y1^{rng.randint(2, 1100)}\n")
        return (f"dim 1; unknowns 1; order 1\nP = x1^{a}\n"
                f"L 1 : (1,) -> x1^{b}\n" + F)
    p, q = rng.randint(1, 60), rng.randint(1, 60)
    return (f"dim 2; unknowns 2; order 1\nP = x1^{a}*x2\n"
            f"L 1 : (1,0) -> x1^{b}; (0,1) -> x2\n"
            f"F 1 = {c}*y1 + x1^{a}*x2 + y1^{p}*y2^{q}\n"
            f"F 2 = -2*y2 + x2^{rng.randint(1, 300)} + "
            f"x1*y1^{rng.randint(2, 200)}\n")


def _tens(rng):
    """A degree and an order in the tens: a registry example, or a random
    problem of ``instances.py`` in one variable."""
    degree, order = rng.randint(10, 30), rng.randint(10, 30)
    if rng.random() < 0.5:
        return build_document(rng.choice(sorted(ENTRIES)),
                              {"degree": 2 * degree, "order": order})[0]
    while (spec := rng.choice(GENERATORS)(rng)).dim > 1:
        pass
    text = ProblemDocument("", spec, dict(DEFAULT_OPTIONS)).serialize()
    return text + f"option degree = {degree}\noption order = {order}\n"


def _long_literal(rng):
    """A number of 4,301 to 5,000 digits in a coefficient of P, L or F, or
    in rho.  Exact coefficients grow as powers of such a number, with the
    degree and the order, so both stay small, and in F the number does
    not meet y1^2."""
    big = str(rng.randint(1, 9)) + "".join(
        rng.choice("0123456789") for _ in range(rng.randint(4300, 4999)))
    num = rng.choice([big, f"{big}/7", f"3/{big}", f"{big}/{big}1"])
    P, L, F = "x1", "x1", "-1*y1 + x1 + y1^2"
    slot = rng.randrange(4)
    if slot == 0:
        P = f"{num}*x1"
    elif slot == 1:
        L = f"{num}*x1"
    elif slot == 2:
        F = f"-1*y1 + {num}*x1 + x1*y1"
    return (f"dim 1; unknowns 1; order 1\nP = {P}\nL 1 : (1,) -> {L}\n"
            f"F 1 = {F}\noption degree = {rng.randint(0, 2)}\n"
            f"option order = {rng.randint(0, 6)}\n"
            + (f"option rho = {num}\n" if slot == 3 else ""))


def _deep_expression(rng):
    """Parentheses nested up to 200 deep, past the parser's limit about
    half the time, each level after a run of up to three signs, or a chain
    of up to 3,000 signs."""
    if rng.random() < 0.5:
        return HEAD + "F 1 = y1 + " + "- " * rng.randint(1, 3000) + "x1\n"
    depth = rng.randint(1, 200)
    opens = "".join("- " * rng.randint(0, 3) + "(" for _ in range(depth))
    return HEAD + f"F 1 = y1 + {opens}x1{')' * depth}^2\n"


SIZES = [_large_exponents, _tens, _long_literal, _deep_expression]


@pytest.mark.parametrize("seed", SIZE_SEEDS)
def test_large_documents_exit_cleanly_within_budget(tmp_path, capsys, seed):
    rng = random.Random(seed)
    path, out_dir = tmp_path / "p.gl", tmp_path / "out"
    kinds = Counter()
    for case in range(SIZE_CASES):
        kind = SIZES[case % len(SIZES)]
        path.write_text(kind(rng), encoding="utf-8")
        command = rng.choice(["check", "solve", "estimate"])
        argv = [command, str(path)]
        if command == "solve":
            argv += ["--out-dir", str(out_dir)]
        with _budget(BUDGET):
            code = main(argv)
        _assert_clean(command, argv, code, *capsys.readouterr())
        kinds[kind.__name__, code] += 1
    # the nesting limit is reached, and most large documents get through
    assert kinds["_deep_expression", EXIT_PARSE] > 0
    assert sum(n for (_, code), n in kinds.items()
               if code != EXIT_PARSE) >= SIZE_CASES / 2
