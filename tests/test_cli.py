"""End-to-end tests of the gevrey-lab command line."""

import csv
import json

import pytest

import gevreylab.cli
import gevreylab.registry
import gevreylab.solver
from gevreylab.cli import (EXIT_CHECK, EXIT_OK, EXIT_PARSE, EXIT_SOLVER, main)
from gevreylab.errors import RegressionMismatch
from gevreylab.registry import ENTRIES, run_example
from gevreylab.series import Series

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


@pytest.mark.parametrize("name, params, exp, label", [
    ("eje1", {"degree": 12, "order": 6}, (4,), "coefficient of x1^4"),
    ("ejeLast", {"degree": 12, "order": 6}, (3, 2), "coefficient at (3, 2)"),
    ("eje4", {"degree": 10, "order": 5}, (3, 2), "coefficient at (3, 2)"),
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
    ["check", "{tmp}/p.gl", "--poincare-bound", "-3"],
], ids=["check-missing", "solve-missing", "estimate-missing",
        "norms-missing", "norms-malformed", "unknown-example",
        "unknown-param", "param-not-int", "param-no-value",
        "negative-degree", "bad-rho", "negative-order", "out-dir-is-file",
        "solve-no-top-operator", "estimate-no-top-operator",
        "eje1-k0", "eje1-m0", "eje1-k1", "eje1-m-tuple", "eje4-empty-alpha",
        "eje4-negative-alpha", "eje4-alpha-int", "negative-rho", "zero-rho",
        "negative-option-rho", "negative-poincare-bound"])
def test_bad_input_exits_3_with_one_line(tmp_path, capsys, argv):
    write(tmp_path, "p.gl", EULER)
    write(tmp_path, "rho.gl", EULER + "option rho = -1/2\n")
    write(tmp_path, "no-top.gl", EULER.replace("order 1", "order 2"))
    write(tmp_path, "bad.csv", "n,norm,certified_degree\n1,abc,3\n")
    code = main([a.format(tmp=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error[")


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
