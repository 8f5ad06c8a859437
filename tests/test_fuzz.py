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

Numbers the fuzz puts into a document stay below 4, so that no case asks
for a large working degree and the whole fuzz runs in a few seconds.
"""

import random
import re
from collections import Counter

import pytest

from gevreylab.cli import EXIT_CHECK, EXIT_OK, EXIT_PARSE, EXIT_SOLVER, main
from gevreylab.dsl import DEFAULT_OPTIONS, ProblemDocument

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


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzzed_documents_exit_cleanly(tmp_path, capsys, seed):
    rng = random.Random(seed)
    path, out_dir = tmp_path / "p.gl", tmp_path / "out"
    codes = Counter()
    for _ in range(CASES):
        command, argv = _case(rng, path, out_dir)
        code = main(argv)  # an escaping exception fails the test here
        out, err = capsys.readouterr()
        assert code in (EXIT_OK, EXIT_CHECK, EXIT_PARSE, EXIT_SOLVER), argv
        assert "Traceback" not in out + err
        if code == EXIT_PARSE or code == EXIT_SOLVER and err:
            assert len(err.splitlines()) == 1 and err.startswith("error["), \
                (argv, err)
        elif code == EXIT_SOLVER:
            # a solve whose residual or cross-check fails says so on stdout
            assert command == "solve" and not err
            assert "DOES NOT vanish" in out or "disagree" in out
        else:
            assert not err, (argv, err)
        codes[code] += 1
    # at least a quarter of the cases get past the parser to the solvers
    assert codes[EXIT_OK] + codes[EXIT_CHECK] + codes[EXIT_SOLVER] >= CASES / 4
