"""Expression tokenizer, parser, and evaluator tests."""

import math
import random
import re
from pathlib import Path

import pytest

from gacalc import Algebra, EvalError, ParseError, evaluate, format_multivector, parse
from gacalc import exprs, transforms
from gacalc.exprs import tokenize

import gen

E2 = Algebra(2, 0)
E3 = Algebra(3, 0)
STA = Algebra(1, 3)


def run(text, alg=E3, env=None):
    return evaluate(parse(text, alg), alg, env)


# -- tokenizer ---------------------------------------------------------------

def test_token_kinds_and_positions():
    toks = tokenize("1.5 + e12*(x)")
    assert toks[0] == ("num", 1.5, 0)
    assert toks[1] == ("op", "+", 4)
    assert toks[2] == ("basis", "e12", 6)
    assert toks[3] == ("op", "*", 9)
    assert toks[4] == ("lparen", "(", 10)
    assert toks[5] == ("ident", "x", 11)
    assert toks[6] == ("rparen", ")", 12)
    assert toks[-1][0] == "end"


def test_numbers_take_exponent_suffixes():
    assert run("2e1").scalar_part == 20.0
    assert run("1.5e-1").scalar_part == 0.15
    assert run("2E+2").scalar_part == 200.0
    assert run(".5").scalar_part == 0.5


def test_spacing_separates_coefficient_from_basis():
    assert str(run("2 e1")) == "2*e1"
    assert str(run("2*e1")) == "2*e1"


def test_two_char_operators_tokenize_before_scalar_product():
    toks = tokenize("a <| b |> c | d")
    ops = [t[1] for t in toks if t[0] == "op"]
    assert ops == ["<|", "|>", "|"]


def test_unknown_character_reports_offset():
    with pytest.raises(ParseError) as err:
        tokenize("e1 $ e2")
    assert err.value.pos == 3
    assert "(offset 3)" in str(err.value)


# -- parse errors --------------------------------------------------------------

def test_unknown_basis_index_fails_at_parse_time():
    with pytest.raises(ParseError) as err:
        parse("e4", E3)
    assert "basis index 4" in str(err.value)
    assert err.value.pos == 0


def test_basis_names_split_per_digit_in_small_dimensions():
    assert run("e12").coefficient((1, 2)) == 1.0
    assert run("e21").coefficient((1, 2)) == -1.0
    with pytest.raises(ParseError):
        parse("e11", E3)  # repeated axis


def test_basis_names_read_whole_in_large_dimensions():
    alg = Algebra(11, 0, max_dimension=12)
    assert run("e10", alg).coefficient((10,)) == 1.0
    with pytest.raises(ParseError):
        parse("e12", alg)  # no digit-splitting above nine axes


def test_dangling_operator():
    with pytest.raises(ParseError):
        parse("e1 +", E3)
    with pytest.raises(ParseError):
        parse("* e1", E3)
    with pytest.raises(ParseError):
        parse("(e1", E3)
    with pytest.raises(ParseError):
        parse("e1)", E3)


def test_grade_needs_an_integer_literal():
    with pytest.raises(EvalError):
        run("grade(e1, e2)")
    with pytest.raises(EvalError):
        run("grade(e1, 1.5)")
    assert run("grade(e1 + 2, 0)").scalar_part == 2.0
    assert not run("grade(e1, -1)")  # negative literals allowed, empty result


def test_call_arity_is_checked():
    with pytest.raises(EvalError):
        run("dual(e1, e2)")
    with pytest.raises(EvalError):
        run("proj(e1)")


# -- precedence and associativity --------------------------------------------------

def test_outer_binds_tighter_than_contraction():
    # A <| B ^ C * D parses as (A <| (B ^ C)) * D
    env = {"A": E3.basis_vector(1), "B": E3.basis_vector(1),
           "C": E3.basis_vector(2), "D": 2 * E3.basis_vector(2)}
    got = run("A <| B ^ C * D", env=env)
    want = (env["A"].left_contract(env["B"] ^ env["C"])) * env["D"]
    assert got == want


def test_contraction_binds_tighter_than_geometric():
    # e1 <| e12 * e3  =  (e1 <| e12) * e3  =  e2 e3
    assert str(run("e1 <| e12 * e3")) == "1*e23"


def test_geometric_binds_tighter_than_scalar_product():
    # e1 | e1 * e2 = e1 | (e1 e2) = 0, whereas (e1|e1)*e2 would be e2
    assert not run("e1 | e1 * e2")


def test_scalar_product_binds_tighter_than_addition():
    # 1 + e1 | e1 = 1 + (e1|e1) = 2
    assert run("1 + e1 | e1").scalar_part == 2.0


def test_unary_binds_tightest():
    # -e1 ^ e2 = (-e1) ^ e2
    assert run("-e1 ^ e2").coefficient((1, 2)) == -1.0
    # ~e12 * e12 = (~e12) e12 = 1
    assert run("~e12 * e12").scalar_part == 1.0
    assert run("!e1").coefficient((1,)) == -1.0
    assert run("!e12").coefficient((1, 2)) == 1.0


def test_left_associativity():
    assert run("8 - 4 - 2").scalar_part == 2.0
    # e1 <| e12 |> e2: left so (e1 <| e12) |> e2 = e2 |> e2 = 1
    assert run("e1 <| e12 |> e2").scalar_part == 1.0


def test_juxtaposition_is_the_geometric_product():
    assert str(run("e1 e2")) == "1*e12"
    assert str(run("e2 e1")) == "-1*e12"
    assert str(run("(e1 + e2)(e1 - e2)")) == "-2*e12"
    assert run("2 (e1) e1").scalar_part == 2.0


def test_parentheses_override():
    assert not run("e1 | e1 * e2")
    assert str(run("(e1 | e1) * e2")) == "1*e2"
    assert not run("(1 + e1) * (1 - e1)")


# -- evaluation ----------------------------------------------------------------------

def test_scalar_product_result_is_a_scalar_multivector():
    got = run("e12 | e12")
    assert got.grades <= {0}
    assert got.scalar_part == 1.0


def test_function_evaluation():
    assert str(run("dual(e12)")) == "1*e3"
    assert str(run("idual(dual(e12))")) == "1*e12"
    assert run("norm2(e1 + e2)").scalar_part == pytest.approx(2.0)
    assert str(run("inv(e12)")) == "-1*e12"
    assert str(run("rev(e1 e2 e3)")) == "-1*e123"
    assert str(run("conj(e12)")) == "-1*e12"
    assert str(run("proj(e1 + e3, e1)")) == "1*e1"
    assert str(run("rej(e1 + e3, e1)")) == "1*e3"
    assert str(run("reflect(e1, e1)")) == "-1*e1"


def test_exp_function():
    got = run("exp(0 - e12 * 0.5)")
    assert got.scalar_part == pytest.approx(math.cos(0.5))
    assert got.coefficient((1, 2)) == pytest.approx(-math.sin(0.5))


def test_unknown_function():
    with pytest.raises(EvalError):
        run("sin(e1)")


def test_variables_come_from_the_environment():
    env = {"spin": E3.blade((1, 2), 2.0)}
    assert run("spin | spin", env=env).scalar_part == pytest.approx(4.0)
    with pytest.raises(EvalError):
        run("missing + 1", env=env)


def test_variables_must_match_the_algebra():
    env = {"a": E2.basis_vector(1)}
    with pytest.raises(EvalError):
        run("a + 1", env=env)


def test_errors_from_the_algebra_surface_as_gaerrors():
    from gacalc import NotInvertible
    with pytest.raises(NotInvertible):
        run("inv(e1 + e2)", STA)  # null vector


def test_format_round_trip():
    rng = random.Random(404)
    for alg in (E2, E3, STA, Algebra(6, 0)):
        for _ in range(25):
            a = gen.rand_mv(alg, rng)
            back = run(format_multivector(a), alg)
            assert back.max_coeff_diff(a) < 1e-12


def test_format_matches_str():
    a = 1 - 2 * E3.basis_vector(1)
    assert format_multivector(a) == str(a) == "1 - 2*e1"


# -- every operator and function against the direct call -----------------------

X = E3.multivector({(): 1.0, (1,): 2.0, (2, 3): -1.0, (1, 2, 3): 0.5})
Y = E3.multivector({(1,): 1.0, (1, 2): 3.0, (1, 2, 3): 1.0})
ROTOR = E3.multivector({(): 2.0, (1, 2): 1.0})
PLANE = E3.basis_vector(1) ^ (E3.basis_vector(2) + E3.basis_vector(3))
NORMAL = E3.basis_vector(1) + 2 * E3.basis_vector(3)
OPERANDS = {"X": X, "Y": Y, "R": ROTOR, "P": PLANE, "N": NORMAL}

DIRECT = [
    ("-X", -X),
    ("~X", X.reverse()),
    ("!X", X.grade_involution()),
    ("X + Y", X + Y),
    ("X - Y", X - Y),
    ("X * Y", X * Y),
    ("X Y", X * Y),
    ("X ^ Y", X ^ Y),
    ("X <| Y", X.left_contract(Y)),
    ("X |> Y", X.right_contract(Y)),
    ("X | Y", E3.scalar(X.scalar_product(Y))),
    ("dual(X)", X.dual()),
    ("idual(X)", X.inverse_dual()),
    ("exp(P)", PLANE.exp()),
    ("norm2(X)", E3.scalar(X.norm_squared())),
    ("inv(R)", ROTOR.inverse()),
    ("rev(X)", X.reverse()),
    ("conj(X)", X.clifford_conjugate()),
    ("grade(X, 2)", X.grade(2)),
    ("proj(X, P)", transforms.project(X, PLANE)),
    ("rej(X, P)", transforms.reject(X, PLANE)),
    ("reflect(X, N)", transforms.reflect(X, NORMAL)),
]


@pytest.mark.parametrize("text, want", DIRECT, ids=[t for t, _ in DIRECT])
def test_each_operator_and_function_matches_the_direct_call(text, want):
    got = run(text, env=OPERANDS)
    assert got == want
    assert str(got) == str(want)


@pytest.mark.parametrize("text, message", [
    ("dual(e1, e2)", "dual takes 1 argument, got 2"),
    ("proj(e1)", "proj takes 2 arguments, got 1"),
    ("grade(e1, 1.5)", "grade(A, k) needs an integer literal k"),
    ("grade(e1, 1e400)", "grade(A, k) needs an integer literal k"),
    ("grade(e1, -1e400)", "grade(A, k) needs an integer literal k"),
])
def test_evaluation_error_text(text, message):
    with pytest.raises(EvalError) as err:
        run(text)
    assert str(err.value) == message


def test_unknown_variable_carries_its_offset():
    with pytest.raises(EvalError) as err:
        run("1 + nope")
    assert err.value.pos == 4
    assert str(err.value) == "unknown variable 'nope' (offset 4)"


def test_documented_functions_match_the_function_table():
    table = set(exprs._FUNCTIONS) | {"grade"}
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    sentence = readme.split("Functions:", 1)[1].split(". ", 1)[0]
    assert set(re.findall(r"`([a-z0-9]+)", sentence)) == table
    listing = exprs.__doc__.split("function calls:", 1)[1].split(". ", 1)[0]
    listing = re.sub(r"\([^)]*\)", "", listing)
    assert {name.strip() for name in listing.split(",")} == table
