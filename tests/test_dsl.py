"""Tests for the problem-description language: parsing, serialization,
round trips, and error positions."""

import random
from fractions import Fraction

import pytest

from gevreylab import diffops, series, solver
from gevreylab.diffops import check_divisibility
from gevreylab.dsl import DEFAULT_OPTIONS, ProblemDocument, parse_problem
from gevreylab.errors import InputError, ParseError, SemanticError
from gevreylab.registry import ENTRIES, build_document
from gevreylab.series import INFINITE, Series

from instances import random_admissible_problem

DOC = """\
dim 2; unknowns 1; order 2
P = x1*x2
L 2 : (2,0) -> x1^2; (0,2) -> x2^2; (1,1) -> 2
F 1 = 2*y1 + 2*x1*x2
option degree = 12
"""


def test_parse_basic_document():
    doc = parse_problem(DOC)
    spec = doc.spec
    assert (spec.dim, spec.unknowns, spec.order) == (2, 1, 2)
    assert spec.P.terms == {(1, 1): Fraction(1)}
    L2 = spec.operators[1]
    assert spec.operators[0] is None
    assert L2.terms[(1, 1)].constant_term() == 2
    assert spec.A.entry(0, 0).constant_term() == 2
    assert spec.f[0].terms == {(1, 1): Fraction(2)}
    assert doc.options["degree"] == 12
    assert doc.options["rho"] == DEFAULT_OPTIONS["rho"]


def test_parse_splits_F():
    text = """\
dim 1; unknowns 2; order 1
P = x1
L 1 : (1,) -> x1
F 1 = -1*y1 + x1 + 3*y1*y2
F 2 = y2 - x1^2 - 1/2*y1^2
"""
    spec = parse_problem(text).spec
    assert spec.f[0].terms == {(1,): Fraction(1)}
    assert spec.f[1].terms == {(2,): Fraction(-1)}
    assert spec.A.entry(0, 0).constant_term() == -1
    assert spec.A.entry(1, 1).constant_term() == 1
    assert spec.A.entry(0, 1).is_zero
    assert set(spec.H) == {(1, 1), (2, 0)}
    assert spec.H[(1, 1)][0].constant_term() == 3
    assert spec.H[(2, 0)][1].constant_term() == Fraction(-1, 2)


def test_zero_operator_coefficients_are_absent():
    # a document's 0 is exactly zero, not zero through the working degree,
    # so it must not cap what check and solve certify
    text = ("dim 2; unknowns 1; order 2\nP = x1*x2\n"
            "L 1 : (1,0) -> 0; (0,1) -> x1 - x1\n"
            "L 2 : (2,0) -> 0; (0,2) -> x2^2\nF 1 = 2*y1 + 2*x1*x2\n")
    ops = parse_problem(text).spec.operators
    assert ops[0] is None
    assert list(ops[1].terms) == [(0, 2)]


def _fields(spec):
    return (spec.dim, spec.unknowns, spec.order, spec.P,
            [L and L.terms for L in spec.operators], spec.f, spec.A, spec.H)


def test_F_terms_above_the_degree_in_x_and_y_together_are_kept():
    # document data are exact polynomials: x1^4*y1^2 has total degree 6 > 4
    text = ("dim 1; unknowns 1; order 1\nP = x1\nL 1 : (1,) -> 1\n"
            "F 1 = -1*y1 + x1 + x1^4*y1^2\noption degree = 4\n")
    doc = parse_problem(text)
    assert doc.spec.H[(2,)][0] == Series(1, INFINITE, {(4,): 1})
    assert "F 1 = 1*x1 + -1*y1 + 1*x1^4*y1^2\n" in doc.serialize()
    # and they do not depend on option degree
    other = parse_problem(text.replace("degree = 4", "degree = 12"))
    assert _fields(other.spec) == _fields(doc.spec)
    assert doc.spec.P.trunc == doc.spec.f[0].trunc == INFINITE


def test_exact_document_data_are_cut_before_check_divisibility():
    spec = parse_problem(DOC).spec
    with pytest.raises(ValueError, match="cut it"):
        check_divisibility(spec.P, spec.operators)
    cut = spec.with_trunc(12)
    assert cut.P.trunc == 12
    assert check_divisibility(cut.P, cut.operators).ok


def test_comments_and_blank_lines():
    text = "# leading comment\n\ndim 1 # trailing\nunknowns 1\norder 1\n" \
           "P = x1^2\nL 1 : (1,) -> 1\nF 1 = -1*y1 + x1\n"
    spec = parse_problem(text).spec
    assert spec.P.terms == {(2,): Fraction(1)}


def test_serialize_roundtrip_identity():
    doc = parse_problem(DOC)
    text = doc.serialize()
    doc2 = parse_problem(text)
    assert doc2.serialize() == text
    s1, s2 = doc.spec, doc2.spec
    assert s1.P == s2.P
    assert s1.f[0] == s2.f[0]
    assert s1.A.entry(0, 0) == s2.A.entry(0, 0)
    for a, b in zip(s1.operators, s2.operators):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.terms.keys() == b.terms.keys()
            for key in a.terms:
                assert a.terms[key] == b.terms[key]
    assert doc2.options == doc.options


def test_registry_documents_roundtrip():
    for name in ENTRIES:
        text, _params = build_document(name, {})
        canon = parse_problem(text).serialize()
        assert parse_problem(canon).serialize() == canon


def test_fuzzed_documents_roundtrip():
    rng = random.Random(3)
    vars_ = ["x1", "x2"]
    for _ in range(25):
        coef = f"{rng.randint(1, 9)}/{rng.randint(1, 4)}"
        mono = "*".join(rng.sample(vars_, rng.randint(1, 2)))
        text = (f"dim 2; unknowns 1; order 1\n"
                f"P = x1*x2\n"
                f"L 1 : (1,0) -> {coef}*{mono}; (0,1) -> x2\n"
                f"F 1 = -2*y1 + {coef}*{mono} + y1^2\n")
        canon = parse_problem(text).serialize()
        assert parse_problem(canon).serialize() == canon


def test_parenthesised_polynomial_roundtrip():
    text = ("dim 2; unknowns 1; order 1\nP = x1\nL 1 : (1,0) -> x1\n"
            "F 1 = -1*y1 + (x1 + x2)^2\n")
    doc = parse_problem(text)
    assert doc.spec.f[0].terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    canon = doc.serialize()
    assert "F 1 = " in canon and "(x1" not in canon
    assert parse_problem(canon).serialize() == canon


def test_rational_rho_is_kept():
    doc = parse_problem(DOC + "option rho = 1/3\n")
    assert doc.options["rho"] == Fraction(1, 3)
    canon = doc.serialize()
    assert "option rho = 1/3\n" in canon
    assert parse_problem(canon).options == doc.options


@pytest.mark.parametrize("override", [
    {"degree": -1}, {"order": -1}, {"rho": "0"}, {"rho": "abc"}])
def test_run_overrides_obey_the_option_rule(override):
    doc = parse_problem(DOC)
    with pytest.raises(InputError) as err:
        doc.run(**override)
    assert err.value.code == "bad-option"


def test_run_override_applies_without_touching_the_document():
    doc = parse_problem(DOC)
    options = dict(doc.options)
    run = doc.run(degree=6, rho="1/3")
    assert (run.degree, run.order, run.rho) == (6, 10, Fraction(1, 3))
    assert doc.options == options


# -- malformed documents -----------------------------------------------------

def _head(**over):
    base = {"dim": 1, "unknowns": 1, "order": 1}
    base.update(over)
    return (f"dim {base['dim']}; unknowns {base['unknowns']}; "
            f"order {base['order']}\n")


def test_error_constant_P():
    text = _head() + "P = 1 + x1\nL 1 : (1,) -> 1\nF 1 = y1 + x1\n"
    with pytest.raises(SemanticError) as err:
        parse_problem(text)
    assert err.value.code == "P-constant"
    assert err.value.line == 2


def test_error_zero_P():
    text = _head() + "P = x1 - x1\nL 1 : (1,) -> 1\nF 1 = y1 + x1\n"
    with pytest.raises(SemanticError) as err:
        parse_problem(text)
    assert err.value.code == "P-zero"


def test_error_constant_F():
    text = _head() + "P = x1\nL 1 : (1,) -> 1\nF 1 = y1 + 1\n"
    with pytest.raises(SemanticError) as err:
        parse_problem(text)
    assert err.value.code == "F-constant"
    assert err.value.line == 4


def test_error_alpha_order():
    text = _head(dim=2, order=2) + \
        "P = x1*x2\nL 2 : (1,0) -> x1\nF 1 = y1 + x1\n"
    with pytest.raises(SemanticError) as err:
        parse_problem(text)
    assert err.value.code == "alpha-order"
    assert err.value.line == 3


def test_error_unknown_variable():
    text = _head() + "P = x2\nL 1 : (1,) -> 1\nF 1 = y1 + x1\n"
    with pytest.raises(SemanticError) as err:
        parse_problem(text)
    assert err.value.code == "unknown-var"
    assert err.value.line == 2


def test_error_y_in_coefficient():
    text = _head() + "P = x1\nL 1 : (1,) -> y1\nF 1 = y1 + x1\n"
    with pytest.raises(SemanticError) as err:
        parse_problem(text)
    assert err.value.code == "y-in-coefficient"
    assert err.value.line == 3


def test_error_duplicate_alpha():
    text = _head(dim=2) + \
        "P = x1*x2\nL 1 : (1,0) -> x1; (1,0) -> x2\nF 1 = y1 + x1\n"
    with pytest.raises(SemanticError) as err:
        parse_problem(text)
    assert err.value.code == "dup-alpha"


def test_error_duplicate_component():
    text = _head() + "P = x1\nL 1 : (1,) -> 1\nF 1 = y1 + x1\nF 1 = y1\n"
    with pytest.raises(SemanticError) as err:
        parse_problem(text)
    assert err.value.code == "dup-component"
    assert err.value.line == 5


def test_error_component_range():
    text = _head() + "P = x1\nL 1 : (1,) -> 1\nF 2 = y1 + x1\n"
    with pytest.raises(SemanticError) as err:
        parse_problem(text)
    assert err.value.code == "component-range"


def test_error_operator_order_range():
    text = _head() + "P = x1\nL 3 : (3,) -> 1\nF 1 = y1 + x1\n"
    with pytest.raises(SemanticError) as err:
        parse_problem(text)
    assert err.value.code == "order-range"


def test_error_unknown_option():
    text = _head() + "P = x1\nL 1 : (1,) -> 1\nF 1 = y1 + x1\noption fast = 1\n"
    with pytest.raises(SemanticError) as err:
        parse_problem(text)
    assert err.value.code == "unknown-option"
    assert err.value.line == 5


@pytest.mark.parametrize("value", ["0", "-1/2"])
def test_error_nonpositive_rho(value):
    text = (_head() + "P = x1\nL 1 : (1,) -> 1\nF 1 = y1 + x1\n"
            f"option rho = {value}\n")
    with pytest.raises(SemanticError) as err:
        parse_problem(text)
    assert err.value.code == "bad-option" and err.value.line == 5


def test_window_one_is_accepted():
    doc = parse_problem(_head() + "P = x1\nL 1 : (1,) -> 1\nF 1 = y1 + x1\n"
                        "option window = 1\n")
    assert doc.options["window"] == 1


@pytest.mark.parametrize("value", ["0", "-1", "5/4"])
def test_error_window_outside_the_unit_interval(value):
    text = (_head() + "P = x1\nL 1 : (1,) -> 1\nF 1 = y1 + x1\n"
            f"option window = {value}\n")
    with pytest.raises(SemanticError) as err:
        parse_problem(text)
    assert err.value.code == "bad-option" and err.value.line == 5


def test_error_zero_denominator():
    text = _head() + "P = x1\nL 1 : (1,) -> 1/0\nF 1 = y1 + x1\n"
    with pytest.raises(SemanticError) as err:
        parse_problem(text)
    assert err.value.code == "zero-denominator"


@pytest.mark.parametrize("text, line", [
    # an expression before dim
    ("P = x1\ndim 1; unknowns 1; order 1\nL 1 : (1,) -> 1\n"
     "F 1 = -1*y1 + x1\n", 1),
    ("order 1\nL 1 : (1,) -> 1\ndim 1; unknowns 1\nP = x1\n"
     "F 1 = -1*y1 + x1\n", 2),
    # an F line before unknowns, even one without y
    ("dim 1; order 1\nP = x1\nL 1 : (1,) -> 1\nF 1 = x1\nunknowns 1\n", 4),
    # unknowns changed after an F line
    (_head() + "P = x1\nL 1 : (1,) -> 1\nF 1 = -1*y1 + x1\nunknowns 2\n"
     "F 2 = -1*y2 + x1\n", 4),
])
def test_error_declaration_order(text, line):
    with pytest.raises(SemanticError) as err:
        parse_problem(text)
    assert err.value.code == "bad-dim"
    assert err.value.line == line


def test_error_missing_declaration():
    with pytest.raises(SemanticError) as err:
        parse_problem("dim 1; unknowns 1\nP = x1\n")
    assert err.value.code == "missing"


def test_error_implicit_multiplication():
    text = _head() + "P = x1\nL 1 : (1,) -> 1\nF 1 = 2 y1 + x1\n"
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert err.value.line == 4
    assert err.value.column == 9


def test_error_bad_character():
    with pytest.raises(ParseError) as err:
        parse_problem("dim 1; unknowns 1; order 1\nP = x1 @ 2\n")
    assert err.value.line == 2
    assert err.value.column == 8


def test_parse_and_divisibility_pack_no_one_term_series(monkeypatch):
    # the parser's products and powers, and L_j*(P) for a monomial P, are
    # shifts: on corpus-like documents neither parse_problem nor
    # check_divisibility puts a one-term series in the numerator layout
    packed = []
    real = series.numerator_layout

    def counted(s):
        packed.append(len(s.terms))
        return real(s)

    for module in (series, diffops, solver):
        monkeypatch.setattr(module, "numerator_layout", counted)
    rng = random.Random(3203)
    products = powers = 0
    for _ in range(30):
        spec = random_admissible_problem(rng, 8)
        text = ProblemDocument(
            "", spec, dict(DEFAULT_OPTIONS, degree=8, order=6)).serialize()
        products += text.count("*")
        powers += text.count("^")
        run = parse_problem(text).run()
        verdict = check_divisibility(run.spec.P, run.spec.operators)
        assert verdict.ok
    assert products > 200 and powers > 50, (products, powers)
    assert 1 not in packed, packed.count(1)

