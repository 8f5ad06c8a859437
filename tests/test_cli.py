"""End-to-end tests of the gevrey-lab command line."""

import csv
import json
import sys
from fractions import Fraction

import pytest

import gevreylab.cli
import gevreylab.gevrey
import gevreylab.registry
import gevreylab.solver
from gevreylab.cli import (EXIT_CHECK, EXIT_OK, EXIT_PARSE, EXIT_SOLVER, main)
from gevreylab.dsl import parse_problem
from gevreylab.errors import RegressionMismatch
from gevreylab.registry import ENTRIES, run_example
from gevreylab.series import Series, SeriesMatrix

DOC = """\
dim 2; unknowns 1; order 2
P = x1*x2
L 2 : (2,0) -> x1^2; (0,2) -> x2^2; (1,1) -> 2
F 1 = 2*y1 + 2*x1*x2
option degree = 16
option order = 12
"""

NEITHER = """\
dim 1; unknowns 1; order 1
P = x1
L 1 : (1,) -> 1
F 1 = y1 + x1
"""

CONVERGENT = """\
dim 1; unknowns 1; order 1
P = x1
L 1 : (1,) -> 1
F 1 = -1*y1 + x1
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_check_divergent_route(tmp_path, capsys):
    path = write(tmp_path, "p.gl", DOC)
    assert main(["check", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "divergent route applies" in out
    assert "P-2-Gevrey" in out
    assert "L_2*(P) = P * (2 + 2*x1*x2)" in out


def test_check_convergent_route(tmp_path, capsys):
    path = write(tmp_path, "p.gl", CONVERGENT)
    assert main(["check", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "convergent route applies" in out
    assert "n* =" in out


def test_check_neither(tmp_path, capsys):
    path = write(tmp_path, "p.gl", NEITHER)
    assert main(["check", path]) == EXIT_CHECK
    out = capsys.readouterr().out
    assert "Poincare condition fails at n = [1]" in out
    assert "neither route applies" in out


def test_check_reports_witness(tmp_path, capsys):
    text = "dim 1; unknowns 1; order 1\nP = x1\nL 1 : (1,) -> 1\n" \
           "F 1 = -1*y1 + x1\n"
    path = write(tmp_path, "p.gl", text)
    main(["check", path])
    out = capsys.readouterr().out
    assert "not divisible by P (witness monomial (0,))" in out


LATE_TOP = """\
dim 1; unknowns 1; order 1
P = x1
L 1 : (1,) -> x1^30
F 1 = y1 + x1
option degree = 10
"""


@pytest.mark.parametrize("flags", [[], ["--degree", "40"]],
                         ids=["default-degree", "degree-40"])
def test_check_route_does_not_depend_on_degree(tmp_path, capsys, flags):
    # L_1 = x1^30 d1 is zero through the working degree 14 but not zero:
    # check reads L_k uncut, as solve does, so both accept the document
    path = write(tmp_path, "p.gl", LATE_TOP)
    assert main(["check", path, *flags]) == EXIT_OK
    out = capsys.readouterr().out
    assert "divergent route applies" in out
    assert "neither route applies" not in out
    assert main(["solve", path, "--out-dir", str(tmp_path / "out"),
                 *flags]) == EXIT_OK


@pytest.mark.parametrize("flags, line", [
    ([], "L_1*(P) = P * (0), quotient certified through degree 13"),
    (["--degree", "40"],
     "L_1*(P) = P * (1*x1^29), quotient certified through degree 43"),
], ids=["default-degree", "degree-40"])
def test_check_prints_how_far_the_quotient_is_certified(tmp_path, capsys,
                                                        flags, line):
    # the quotient x1^29 reads 0 when cut below its order: the line says
    # through which degree the printed quotient is exact
    path = write(tmp_path, "p.gl", LATE_TOP)
    assert main(["check", path, *flags]) == EXIT_OK
    assert f"  {line}\n" in capsys.readouterr().out


def test_solve_outputs(tmp_path, capsys):
    path = write(tmp_path, "p.gl", DOC)
    out_dir = tmp_path / "out"
    assert main(["solve", path, "--out-dir", str(out_dir)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "residual vanishes" in out
    for name in ("solution.json", "solution_x.json", "norms.csv"):
        assert (out_dir / name).exists()
    with (out_dir / "norms.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "norm", "certified_degree"]
    assert [r[0] for r in rows[1:]] == [str(n) for n in range(len(rows) - 1)]
    for _, norm, cdeg in rows[1:]:
        assert "/" in norm or norm.lstrip("-").isdigit()
        int(cdeg)


def test_solve_deterministic(tmp_path, capsys):
    path = write(tmp_path, "p.gl", DOC)
    blobs = []
    for sub in ("a", "b"):
        out_dir = tmp_path / sub
        assert main(["solve", path, "--out-dir", str(out_dir)]) == EXIT_OK
        blobs.append({name: (out_dir / name).read_bytes()
                      for name in ("solution.json", "solution_x.json",
                                   "norms.csv")})
    capsys.readouterr()
    assert blobs[0] == blobs[1]


EULER = """\
dim 1; unknowns 1; order 1
P = x1
L 1 : (1,) -> x1
F 1 = -1*y1 + x1
"""


def test_solve_degree_flag(tmp_path, capsys):
    # --degree/--order give the same files and residual line as writing
    # the options into the document
    names = ("solution.json", "solution_x.json", "norms.csv")
    cases = [(EULER, "", 6, 6),
             (DOC, "option degree = 16\noption order = 12\n", 9, 6)]
    for i, (text, options, degree, order) in enumerate(cases):
        inline = text.replace(options, "") + \
            f"option degree = {degree}\noption order = {order}\n"
        results = []
        for tag, body, extra in (
                ("flag", text, ["--degree", str(degree), "--order", str(order)]),
                ("inline", inline, [])):
            path = write(tmp_path, f"{tag}{i}.gl", body)
            out_dir = tmp_path / f"{tag}{i}"
            code = main(["solve", path, *extra, "--out-dir", str(out_dir)])
            assert code == EXIT_OK
            residual_line = capsys.readouterr().out.splitlines()[0]
            results.append((residual_line,
                            {n: (out_dir / n).read_bytes() for n in names}))
        assert f'"degree": {degree}' in \
            results[0][1]["solution_x.json"].decode()
        assert results[0] == results[1]


# several monomials share a total degree, so the term order within a degree
# shows in the files
MIXED = DOC.replace("2*x1*x2\n", "2*x1*x2 + x1 - 3*x2\n")


@pytest.mark.parametrize("text", [DOC, EULER, MIXED],
                         ids=["doc", "euler", "mixed"])
def test_solve_files_are_the_sorted_two_space_json_of_the_run(tmp_path, capsys,
                                                              text):
    path = write(tmp_path, "p.gl", text)
    out_dir = tmp_path / "out"
    assert main(["solve", path, "--out-dir", str(out_dir)]) == EXIT_OK
    capsys.readouterr()
    run = parse_problem(text).run()
    pexp = run.pexp
    files = {
        "solution.json": {
            "P": pexp.P.to_json(),
            "coeffs": [[s.to_json() for s in yn] for yn in pexp.coeffs],
            "degree": pexp.degree, "order": pexp.order},
        "solution_x.json": {
            "degree": run.degree,
            "solution": [s.to_json() for s in run.direct]},
    }
    for name, data in files.items():
        want = json.dumps(data, sort_keys=True, indent=2) + "\n"
        assert (out_dir / name).read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize("name", ["solution.json", "solution_x.json",
                                  "norms.csv"])
def test_solve_exits_3_when_an_output_file_cannot_be_written(tmp_path, capsys,
                                                             name):
    # a directory in the file's place; a read-only directory would not stop
    # a run as root
    path = write(tmp_path, "p.gl", EULER)
    out_dir = tmp_path / "out"
    (out_dir / name).mkdir(parents=True)
    assert main(["solve", path, "--out-dir", str(out_dir)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(
        f"error[io]: cannot write {out_dir / name}: ")


@pytest.mark.parametrize("P, flags, certified", [
    ("x1", ["--order", "0"], 0),
    ("x1", ["--degree", "0"], 0),
    ("x1^2", ["--degree", "0"], 0),
    ("x1^5", ["--degree", "0"], 0),
], ids=["order-0", "degree-0", "square-degree-0", "fifth-power-degree-0"])
def test_solve_low_degree_keeps_P(tmp_path, capsys, P, flags, certified):
    # the certified degree, or the degree itself, is below o(P)
    path = write(tmp_path, "p.gl", EULER.replace("P = x1", f"P = {P}"))
    code = main(["solve", path, *flags, "--out-dir", str(tmp_path / "out")])
    out = capsys.readouterr().out.splitlines()
    assert code == EXIT_OK
    assert out[0] == f"residual vanishes through certified degree {certified}"


def test_solve_order_below_k(tmp_path, capsys):
    # k = 2, yet --order 0 asks for y_0 alone
    path = write(tmp_path, "p.gl", DOC)
    out_dir = tmp_path / "out"
    assert main(["solve", path, "--order", "0", "--degree", "6",
                 "--out-dir", str(out_dir)]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "residual vanishes through certified degree 1"
    solution = json.loads((out_dir / "solution.json").read_text())
    assert solution["order"] == 0 and len(solution["coeffs"]) == 1
    with (out_dir / "norms.csv").open(newline="") as fh:
        assert [row[0] for row in csv.reader(fh)] == ["n", "0"]


def test_estimate_from_file(tmp_path, capsys):
    path = write(tmp_path, "p.gl", DOC)
    assert main(["estimate", path, "--degree", "40", "--order", "20"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "theoretical order: 2" in out
    assert "fitted order:" in out
    assert "difference:" in out


def test_estimate_from_norms_csv(tmp_path, capsys):
    import math
    rows = ["n,norm,certified_degree"]
    rows += [f"{n},{math.factorial(n)},99" for n in range(1, 25)]
    path = tmp_path / "norms.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert main(["estimate", "--norms", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "fitted order:" in out


def test_estimate_insufficient_data_exit(tmp_path, capsys):
    path = write(tmp_path, "p.gl", DOC)
    code = main(["estimate", path, "--order", "4"])
    capsys.readouterr()
    assert code == EXIT_SOLVER


def test_parse_error_exit(tmp_path, capsys):
    path = write(tmp_path, "bad.gl", "dim 1; unknowns 1; order 1\nP = 1 + x1\n"
                 "L 1 : (1,) -> 1\nF 1 = y1 + x1\n")
    assert main(["check", path]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "error[P-constant]" in err
    assert "line 2" in err


def test_syntax_error_exit(tmp_path, capsys):
    path = write(tmp_path, "bad.gl", "dim 1 ?\n")
    assert main(["check", path]) == EXIT_PARSE
    assert "error[parse]" in capsys.readouterr().err


def test_examples_list(capsys):
    assert main(["examples", "list"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("eje1", "eje3", "eje4", "ejeLast"):
        assert name in out


def test_examples_run(capsys):
    assert main(["examples", "run", "ejeLast"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("PASS ejeLast")


def test_examples_run_with_param(capsys):
    assert main(["examples", "run", "eje1",
                 "--param", "degree=20", "--param", "order=8"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS eje1" in out and "'degree': 20" in out


def test_examples_run_reports_a_regression(capsys, monkeypatch):
    real = gevreylab.registry.eje3_table

    def altered(upto):
        table = real(upto)
        table[2] += 1
        return table

    monkeypatch.setattr(gevreylab.registry, "eje3_table", altered)
    assert main(["examples", "run", "eje3"]) == EXIT_CHECK
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("FAIL eje3: coefficient of (x1 x2)^2: got -1, ")


def _direct_off_by_x1x2(monkeypatch):
    """Patch the oracle to add x1*x2, below every certified degree here."""
    real = gevreylab.solver.solve_direct

    def altered(problem, degree):
        y = real(problem, degree)
        return [y[0] + Series.monomial(y[0].dim, y[0].trunc, (1, 1))] + y[1:]

    monkeypatch.setattr(gevreylab.solver, "solve_direct", altered)


def test_solve_reports_a_disagreement_with_the_oracle(tmp_path, capsys,
                                                      monkeypatch):
    _direct_off_by_x1x2(monkeypatch)
    path = write(tmp_path, "p.gl", DOC)
    argv = ["solve", path, "--out-dir", str(tmp_path / "out")]
    assert main(argv) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        "residual vanishes through certified degree 16",
        "pipeline and direct solutions disagree within certified degree 16",
        f"wrote solution.json, solution_x.json, norms.csv to {tmp_path / 'out'}"]


def test_examples_run_reports_a_disagreement_with_the_oracle(capsys,
                                                             monkeypatch):
    _direct_off_by_x1x2(monkeypatch)
    assert main(["examples", "run", "ejeLast",
                 "--param", "degree=12", "--param", "order=6"]) == EXIT_CHECK
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "FAIL ejeLast: pipeline and direct solutions disagree within "
        "certified degree ")
    assert len(captured.err.splitlines()) == 1


def test_examples_run_checks_the_theoretical_order_once(capsys, monkeypatch):
    # every entry's solution is P-k-Gevrey for the document's order k
    monkeypatch.setattr(gevreylab.gevrey, "theoretical_order",
                        lambda eq: Fraction(3))
    assert main(["examples", "run", "eje1",
                 "--param", "degree=12", "--param", "order=6"]) == EXIT_CHECK
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "FAIL eje1: theoretical order 3 != 2\n"


def test_examples_run_without_enough_orders_to_fit(capsys):
    # order 0 leaves no norms to fit: the entry passes with no fitted order
    assert main(["examples", "run", "eje3", "--param", "order=0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("PASS eje3") and "fitted" not in out


def test_run_example_lets_a_fault_in_the_fit_propagate(monkeypatch):
    def broken(*args):
        raise TypeError("broken fit")

    monkeypatch.setattr(gevreylab.gevrey, "estimate_order", broken)
    with pytest.raises(TypeError, match="broken fit"):
        run_example("ejeLast")


@pytest.mark.parametrize("name, params, exp, label", [
    ("eje1", {"degree": 12, "order": 6}, (4,), "coefficient of x1^4"),
    ("ejeLast", {"degree": 12, "order": 6}, (3, 2), "coefficient at (3, 2)"),
    ("eje4", {"degree": 10, "order": 5}, (3, 2), "coefficient at (3, 2)"),
    ("eje3", {"degree": 16, "order": 8}, (2, 2), "coefficient of (x1 x2)^2"),
])
def test_verify_hooks_name_a_perturbed_coefficient(name, params, exp, label):
    report = run_example(name, params)
    y = report["direct"][0]
    want = y.coeff(exp)
    report["direct"] = [y + Series.monomial(y.dim, y.trunc, exp)]
    with pytest.raises(RegressionMismatch) as err:
        ENTRIES[name].verify(report["params"], report)
    assert str(err.value) == f"{name}: {label}: got {want + 1}, expected {want}"


def test_estimate_shows_rational_rho(tmp_path, capsys):
    path = write(tmp_path, "p.gl", DOC + "option rho = 1/3\n")
    assert main(["estimate", path, "--degree", "40", "--order", "20"]) == EXIT_OK
    assert "rho 1/3)" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["check", "{tmp}/missing.gl"],
    ["solve", "{tmp}/missing.gl", "--out-dir", "{tmp}/out"],
    ["estimate", "{tmp}/missing.gl"],
    ["estimate", "--norms", "{tmp}/missing.csv"],
    ["estimate", "--norms", "{tmp}/bad.csv"],
    ["examples", "run", "nosuch"],
    ["examples", "run", "eje1", "--param", "foo=1"],
    ["examples", "run", "eje1", "--param", "degree=abc"],
    ["examples", "run", "eje1", "--param", "degree"],
    ["solve", "{tmp}/p.gl", "--degree", "-1", "--out-dir", "{tmp}/out"],
    ["check", "{tmp}/p.gl", "--rho", "abc"],
    ["solve", "{tmp}/p.gl", "--order", "-1", "--out-dir", "{tmp}/out"],
    ["solve", "{tmp}/p.gl", "--out-dir", "{tmp}/bad.csv"],
    ["solve", "{tmp}/no-top.gl", "--out-dir", "{tmp}/out"],
    ["estimate", "{tmp}/no-top.gl"],
    ["examples", "run", "eje1", "--param", "k=0"],
    ["examples", "run", "eje1", "--param", "m=0"],
    ["examples", "run", "eje1", "--param", "k=1"],
    ["examples", "run", "eje1", "--param", "m=(1,2)"],
    ["examples", "run", "eje4", "--param", "alpha=()"],
    ["examples", "run", "eje4", "--param", "alpha=(1,-1)"],
    ["examples", "run", "eje4", "--param", "alpha=3"],
    ["estimate", "{tmp}/p.gl", "--rho=-1/2"],
    ["estimate", "{tmp}/p.gl", "--rho", "0"],
    ["estimate", "{tmp}/rho.gl"],
    ["estimate", "{tmp}/window.gl"],
    ["check", "{tmp}/p.gl", "--poincare-bound", "-3"],
], ids=["check-missing", "solve-missing", "estimate-missing",
        "norms-missing", "norms-malformed", "unknown-example",
        "unknown-param", "param-not-int", "param-no-value",
        "negative-degree", "bad-rho", "negative-order", "out-dir-is-file",
        "solve-no-top-operator", "estimate-no-top-operator",
        "eje1-k0", "eje1-m0", "eje1-k1", "eje1-m-tuple", "eje4-empty-alpha",
        "eje4-negative-alpha", "eje4-alpha-int", "negative-rho", "zero-rho",
        "negative-option-rho", "zero-option-window",
        "negative-poincare-bound"])
def test_bad_input_exits_3_with_one_line(tmp_path, capsys, argv):
    write(tmp_path, "p.gl", EULER)
    write(tmp_path, "rho.gl", EULER + "option rho = -1/2\n")
    write(tmp_path, "window.gl", EULER + "option window = 0\n")
    write(tmp_path, "no-top.gl", EULER.replace("order 1", "order 2"))
    write(tmp_path, "bad.csv", "n,norm,certified_degree\n1,abc,3\n")
    code = main([a.format(tmp=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error[")


@pytest.mark.parametrize("argv", [
    ["estimate", "{tmp}/p.gl", "--rho", "-1/2"],
    ["examples", "run"],
    ["estimate"],
    ["solve"],
    ["frobnicate"],
    [],
    ["check", "{tmp}/p.gl", "--degree", "x"],
    ["check", "{tmp}/p.gl", "--no-such-flag"],
], ids=["rho-taken-for-an-option", "examples-run-without-name",
        "estimate-without-input", "solve-without-file", "unknown-command",
        "no-command", "degree-not-int", "unknown-flag"])
def test_usage_errors_exit_3_with_one_line(tmp_path, capsys, argv):
    # argparse's own errors return 3 from main, with one error[usage] line
    # and no usage text, instead of raising SystemExit(2)
    write(tmp_path, "p.gl", EULER)
    code = main([a.format(tmp=tmp_path) for a in argv])
    out, err = capsys.readouterr()
    assert code == EXIT_PARSE
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error[usage]: ")


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: gevrey-lab" in capsys.readouterr().out


@pytest.mark.parametrize("argv, expected", [
    (["check", "{doc}"], {"reduce_problem": 0, "solve_direct": 0}),
    (["solve", "{doc}", "--degree", "12", "--order", "6",
      "--out-dir", "{tmp}/out"], {"reduce_problem": 1, "solve_direct": 1}),
    (["estimate", "{doc}", "--degree", "20", "--order", "10"],
     {"reduce_problem": 1, "solve_direct": 0}),
    (["examples", "run", "eje1", "--param", "degree=20", "--param", "order=8"],
     {"reduce_problem": 1, "solve_direct": 1}),
], ids=["check", "solve", "estimate", "examples-run"])
def test_stage_calls_per_command(tmp_path, capsys, monkeypatch, argv,
                                 expected):
    calls = dict.fromkeys(expected, 0)

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in expected:
        wrapper = counting(name, getattr(gevreylab.solver, name))
        for module in (gevreylab.solver, gevreylab.cli):
            monkeypatch.setattr(module, name, wrapper, raising=False)
    path = write(tmp_path, "p.gl", DOC)
    argv = [a.format(doc=path, tmp=tmp_path) for a in argv]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert calls == expected


def test_a_command_patched_after_the_first_call_is_the_one_dispatched(
        tmp_path, capsys, monkeypatch):
    # the parser is built once per process, so main must look the command's
    # function up when it runs, not when the parser was built
    path = write(tmp_path, "p.gl", DOC)
    assert main(["check", str(path)]) == EXIT_OK
    calls = []
    real = gevreylab.cli.cmd_check

    def wrapper(args):
        calls.append(args.file)
        return real(args)

    monkeypatch.setattr(gevreylab.cli, "cmd_check", wrapper)
    assert main(["check", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert calls == [str(path)]


def test_solve_singular_linear_parts_exit_4(tmp_path, capsys, monkeypatch):
    # a singular A(0) is refused by the reduction's first implicit solve
    path = write(tmp_path, "p.gl", EULER.replace("-1*y1", "x1*y1"))
    argv = ["solve", path, "--out-dir", str(tmp_path / "out")]
    assert main(argv) == EXIT_SOLVER
    assert capsys.readouterr().err.startswith("error[SingularLinearPart]: ")
    # a singular B(0) in the lifted equation, which no document reaches, is
    # the order-k characteristic matrix failing
    real = gevreylab.solver.build_lifted

    def singular_B(reduced):
        eq = real(reduced)
        eq.B = SeriesMatrix([[Series.zero(eq.dim, 8)]])
        return eq

    monkeypatch.setattr(gevreylab.solver, "build_lifted", singular_B)
    path = write(tmp_path, "q.gl", DOC)
    assert main(["solve", path, "--out-dir", str(tmp_path / "out")]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err == ("error[PoincareViolation]: characteristic matrix singular "
                   "at order n=2\n")


def test_solve_exits_4_when_the_implicit_solve_fails_its_residual_check(
        tmp_path, capsys, monkeypatch):
    # the residual guard of every implicit solve fires only on an internal
    # fault; faked here by an F that never vanishes
    real = gevreylab.solver.eval_F

    def nonzero(f, A, H, y):
        return [s + Series.monomial(s.dim, s.trunc, (1,) * s.dim)
                for s in real(f, A, H, y)]

    monkeypatch.setattr(gevreylab.solver, "eval_F", nonzero)
    path = write(tmp_path, "p.gl", DOC)
    assert main(["solve", path, "--out-dir", str(tmp_path / "out")]) == \
        EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.err == ("error[ResidualCheckFailed]: implicit solve "
                            "failed residual check\n")
    assert captured.out == ""


def _F(expr):
    return ("dim 1; unknowns 1; order 1\nP = x1\nL 1 : (1,) -> x1\n"
            f"F 1 = y1 + {expr}\n")


def test_a_long_sign_chain_parses(tmp_path, capsys):
    # a call per sign would pass the recursion limit
    path = write(tmp_path, "p.gl", _F("- " * 1200 + "x1"))
    assert main(["check", path]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert parse_problem(_F("- " * 1200 + "x1")).spec.f == \
        parse_problem(_F("x1")).spec.f


def test_parentheses_past_the_nesting_limit_exit_3(tmp_path, capsys):
    # 300 parentheses, at four calls each, would pass the recursion limit
    path = write(tmp_path, "p.gl", _F("(" * 300 + "x1" + ")" * 300))
    assert main(["check", path]) == EXIT_PARSE
    from gevreylab.dsl import MAX_NESTING
    # one line, at the first parenthesis past the limit, after "F 1 = y1 + "
    err = (f"error[nesting]: line 4: column {12 + MAX_NESTING}: parentheses "
           f"nest deeper than {MAX_NESTING}\n")
    assert capsys.readouterr().err == err
    for depth, code in ((MAX_NESTING + 1, EXIT_PARSE), (MAX_NESTING, EXIT_OK)):
        path = write(tmp_path, "p.gl", _F("(" * depth + "x1" + ")" * depth))
        assert main(["check", path]) == code
        assert capsys.readouterr().err == (err if code else "")


# Python 3.10.7+ refuses int <-> str past 4,300 digits; main lifts the limit
# for its own call and puts it back

def test_a_literal_past_the_int_str_digit_limit(tmp_path, capsys):
    path = write(tmp_path, "p.gl", _F("1" + "0" * 5000 + "*x1"))
    assert main(["check", path]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_solve_writes_coefficients_past_the_int_str_digit_limit(tmp_path,
                                                                 capsys):
    big = "3" + "7" * 2999
    text = ("dim 1; unknowns 1; order 1\nP = x1\nL 1 : (1,) -> x1\n"
            f"F 1 = -1*y1 + {big}*x1 + y1^2\noption degree = 3\n")
    out_dir = tmp_path / "out"
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert main(["solve", write(tmp_path, "q.gl", text),
                 "--out-dir", str(out_dir)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "norms.csv", "solution.json", "solution_x.json"]
    # y = big x1 + big^2 x1^2 / 3 + ...: the square has 6,000 digits
    coefs = [t["coef"] for t in json.loads(
        (out_dir / "solution_x.json").read_text())["solution"][0]["terms"]]
    assert coefs[0] == big and len(coefs[1]) > 5000
