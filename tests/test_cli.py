"""End-to-end CLI tests, via subprocess unless a test needs to reach inside."""

import contextlib
import csv
import io
import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gacalc import Algebra, EvalError, OrbitState, cli, simulate
from gacalc.kepler import write_csv

GOLDEN_SCRIPT = Path(__file__).parent / "data" / "golden_script.ga"


def ga(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "gacalc", *args],
        input=stdin, capture_output=True, text=True, timeout=120)


def test_single_expression():
    r = ga("-e", "e1 e2 + 1")
    assert r.returncode == 0
    assert r.stdout == "1 + 1*e12\n"
    assert r.stderr == ""


def test_default_algebra_is_three_zero():
    r = ga("-e", "e1 e1")
    assert r.stdout == "1\n"
    assert ga("-e", "e3").returncode == 0
    assert ga("-e", "e4").returncode == 1


def test_algebra_option():
    r = ga("--algebra", "1,3", "-e", "e2 e2")
    assert r.returncode == 0
    assert r.stdout == "-1\n"
    r = ga("--algebra", "0,0", "-e", "2 + 3")
    assert r.stdout == "5\n"
    assert ga("--algebra", "nope", "-e", "1").returncode == 2


def test_tolerance_option():
    r = ga("--tolerance", "1e-3", "-e", "0.0001 + e1 e1")
    assert r.stdout == "1\n"
    r = ga("-e", "0.0001 + e1 e1")
    assert r.stdout == "1.0001\n"


@pytest.mark.parametrize("tolerance", ["nan", "inf"])
def test_nonfinite_tolerance_option_is_a_usage_error(tolerance):
    r = ga("--tolerance", tolerance, "-e", "e1 + 1e-300")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "tolerance must be finite and nonnegative" in r.stderr


def test_parse_error_exit_code():
    r = ga("-e", "e1 +")
    assert r.returncode == 1
    assert r.stdout == ""
    assert "parse error:" in r.stderr
    assert "offset" in r.stderr


def test_parse_error_offset_is_into_the_line_as_written(tmp_path):
    script = tmp_path / "demo.ga"
    for line, code, offset in ((":let a = e1 + +", 1, 14), ("  e1 + +", 1, 7),
                               ("  nope + 1", 2, 2), (":let a = 1 + nope", 2, 13)):
        script.write_text(line + "\n")
        r = ga(str(script))
        assert r.returncode == code
        assert r.stdout == ""
        assert f"(offset {offset})" in r.stderr
    r = ga("-e", "e1 + +")
    assert r.returncode == 1
    assert "(offset 5)" in r.stderr


def test_negative_one_liner_needs_the_long_option_form():
    r = ga("--expr=-e1")
    assert r.returncode == 0
    assert r.stdout == "-1*e1\n"


@pytest.mark.parametrize("args", [
    ("-e", "-e1"), ("-e-e1",), ("--expr", "-e1"), ("--ex", "-e1"),
])
def test_option_value_may_start_with_a_dash(args):
    # -e -e1 used to fail: "argument -e/--expr: expected one argument"
    r = ga(*args)
    assert (r.returncode, r.stdout, r.stderr) == (0, "-1*e1\n", "")


# Each option as the help lists it, and some of the help text with its default.
CALC_HELP = ("-h, --help", "-e EXPR, --expr EXPR", "--script FILE", "--algebra P,Q",
             "--tolerance T", "SCRIPT", "evaluate one expression and exit",
             "signature, default 3,0", "coefficient zero threshold, default 1e-10")
KEPLER_HELP = ("-h, --help", "--r0 X,Y,Z", "--v0 X,Y,Z", "--m M", "--k K", "--dt DT",
               "--steps STEPS", "--record-every N", "--min-radius MIN_RADIUS",
               "--csv PATH", "initial position, default 1,0,0", "mass, default 1",
               "number of time steps of length DT, default 10000",
               "abort below this radius, default 1e-8")


@pytest.mark.parametrize("args, listed", [
    pytest.param(("--help",), CALC_HELP, id="calc"),
    pytest.param(("-h",), CALC_HELP, id="calc-short"),
    pytest.param(("kepler", "--help"), KEPLER_HELP, id="kepler"),
])
def test_help_lists_every_option(args, listed):
    r = ga(*args)
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout.startswith("usage: ga-calc")
    for text in listed:
        assert text in r.stdout


@pytest.mark.parametrize("args", [
    pytest.param(("--bogus", "-e", "1"), id="unknown-long"),
    pytest.param(("-x",), id="unknown-short"),
    pytest.param(("-e",), id="missing-value"),
    pytest.param(("--algebra",), id="missing-long-value"),
    pytest.param(("a.ga", "b.ga"), id="two-positionals"),
    pytest.param(("a.ga", "--script", "b.ga"), id="positional-and-script"),
    pytest.param(("--algebra", "3", "-e", "1"), id="bad-signature"),
    pytest.param(("--tolerance", "small", "-e", "1"), id="bad-tolerance"),
    pytest.param(("--tolerance", "nan", "-e", "1"), id="nan-tolerance"),
    pytest.param(("--help=x",), id="help-value"),
    pytest.param(("kepler", "--bogus"), id="kepler-unknown"),
    pytest.param(("kepler", "extra"), id="kepler-positional"),
    pytest.param(("kepler", "--r0", "1,2"), id="kepler-r0-short"),
    pytest.param(("kepler", "--r0", "1,x,0"), id="kepler-r0-bad-number"),
    pytest.param(("kepler", "--v0"), id="kepler-missing-value"),
    pytest.param(("kepler", "--steps", "1.5"), id="kepler-steps-float"),
    pytest.param(("kepler", "--dt", "fast"), id="kepler-dt"),
])
def test_usage_errors_exit_2(args):
    r = ga(*args)
    assert (r.returncode, r.stdout) == (2, "")
    lines = r.stderr.splitlines()
    assert lines[0].startswith("usage: ga-calc")
    assert lines[-1].startswith("ga-calc kepler: error: " if args[0] == "kepler"
                            else "ga-calc: error: ")


def test_long_options_take_unique_prefixes():
    r = ga("--alg", "1,3", "--tol=1e-3", "-e", "e2 e2 + 0.0001")
    assert (r.returncode, r.stdout) == (0, "-1\n")
    rows = kepler_rows("--rec", "5", "--ste=10")
    assert [float(row[0]) for row in rows[1:]] == pytest.approx([0.0, 5e-4, 10e-4])


# Nesting is bounded by Python's recursion limit; past it the line fails
# like any other bad line, with no traceback. Long chains of binary
# operators are evaluated in a loop and have no such bound.
DEEP = {
    "parentheses": ("(" * 3000 + "1" + ")" * 3000, 1, ""),
    "calls": ("rev(" * 3000 + "e1" + ")" * 3000, 1, ""),
    "prefix": ("-" * 3000 + "1", 1, ""),
    "sum": ("+".join(["1"] * 5000), 0, "5000\n"),
    "juxtaposition": (" ".join(["e1"] * 5000), 0, "1\n"),
}


@pytest.mark.parametrize("expr, code, out", list(DEEP.values()), ids=list(DEEP))
def test_deep_input_exits_without_a_traceback(expr, code, out):
    r = ga(f"--expr={expr}")
    assert r.returncode == code
    assert r.stdout == out
    assert "Traceback" not in r.stderr
    if code:
        assert "nested too deeply (offset 0)" in r.stderr


def test_too_deep_evaluation_is_an_evaluation_error(monkeypatch):
    def recurse(*_args):
        raise RecursionError
    session = cli._Session(Algebra(3, 0))
    monkeypatch.setattr(cli, "evaluate", recurse)
    with pytest.raises(EvalError) as err:
        session.execute(":let a =  e1")
    assert str(err.value) == "expression nested too deeply (offset 10)"


# Each shape at the greatest depth that evaluated while too-deep input still
# ended in a RecursionError traceback (measured with CPython 3.11). Mapping
# that error must not make such input fail.
SHALLOW = {
    "parentheses": ("(" * 140 + "1" + ")" * 140, "1"),
    "calls": ("rev(" * 139 + "e1" + ")" * 139, "1*e1"),
    "prefix": ("-" * 981 + "1", "-1"),
    "sum": ("+".join(["1"] * 986), "986"),
    "juxtaposition": (" ".join(["e1"] * 981), "1*e1"),
}


@pytest.mark.parametrize("expr, out", list(SHALLOW.values()), ids=list(SHALLOW))
def test_input_as_deep_as_before_still_evaluates(expr, out):
    r = ga(f"--expr={expr}")
    assert r.returncode == 0, r.stderr
    assert r.stdout == out + "\n"


# Generated input for the exit-code contract. Coefficients reach the ends of
# the float range: 1e400 reads as inf, products of two large ones overflow,
# 1e-300 is pruned, and exp(1000 e14) overflows cosh in Cl(1,3).
ATOMS = ["0", "1", "2.5", "e1", "e2", "e3", "e12", "e123", "e4", "e11", "x"]
COEFFICIENTS = ["1e300", "-2.5e299", "1e-300", "3e-301", "1.5e308", "1e400", "-1e400",
                "1000"]
SCALED = st.tuples(st.sampled_from(COEFFICIENTS),
                   st.sampled_from(["e1", "e12", "e14", "e123"])).map(" ".join)
FUNCTIONS_1 = ["dual", "idual", "norm2", "inv", "rev", "conj"]
FUNCTIONS_2 = ["proj", "rej", "reflect"]
BINARY = ["+", "-", "*", "", "^", "<|", "|>", "|"]
WRAPPERS = [("(", ")"), ("rev(", ")"), ("dual(", ")"), ("-", ""), ("~", ""),
            ("!", ""), ("1 + ", ""), ("e1 ", ""), ("", " ^ e2")]


def _extend(inner):
    return st.one_of(
        st.tuples(st.sampled_from("-~!"), inner).map("".join),
        st.tuples(inner, st.sampled_from(BINARY), inner).map(" ".join),
        inner.map("({})".format),
        st.tuples(st.sampled_from(FUNCTIONS_1), inner).map("{0[0]}({0[1]})".format),
        st.tuples(st.sampled_from(FUNCTIONS_2), inner, inner).map(
            "{0[0]}({0[1]}, {0[2]})".format),
        st.tuples(inner, st.sampled_from(["0", "2", "-1", "1.5", "1e400", "e1"])).map(
            "grade({0[0]}, {0[1]})".format),
        st.one_of(st.sampled_from(ATOMS), SCALED).map("exp({})".format),
    )


EXPRESSIONS = st.recursive(st.one_of(st.sampled_from(ATOMS), SCALED), _extend,
                           max_leaves=12)


@given(expr=EXPRESSIONS, wrapper=st.sampled_from(WRAPPERS),
       depth=st.integers(0, 3000), junk=st.sampled_from(["", "(", ")", ",", "$", "+"]),
       algebra=st.sampled_from(["3,0", "1,3", "2,0"]))
@example(expr="1e400 e1", wrapper=WRAPPERS[0], depth=0, junk="", algebra="3,0")
@example(expr="exp(1000 e14)", wrapper=WRAPPERS[0], depth=0, junk="", algebra="1,3")
@settings(max_examples=150, deadline=None)
def test_exit_code_contract(expr, wrapper, depth, junk, algebra):
    before, after = wrapper
    text = before * depth + expr + junk + after * depth
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--algebra", algebra, f"--expr={text}"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert bool(err.getvalue()) == (code != 0)
    assert not {"inf", "nan"} & set(re.findall(r"[a-z]+", out.getvalue()))


@pytest.mark.parametrize("args, err", [
    (["--expr=1e400 - 1e400"], "coefficient is not finite: inf"),
    (["--expr=1e400 e1"], "coefficient is not finite: inf"),
    (["--expr=1e200 e1 * 1e200 e1"], "coefficient is not finite: inf"),
    (["--algebra", "3,1", "--expr=exp(1000 e14)"], "exp overflows: cosh(1000.0)"),
])
def test_nonfinite_result_is_an_evaluation_error(args, err):
    # these printed 0 and inf*e1 (exit 0), and an OverflowError traceback (exit 1)
    r = ga(*args)
    assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("call, what, scale, shown", [
    pytest.param("proj", "projection target", "", "1", id="proj-projection target"),
    pytest.param("reflect", "mirror", "", "1", id="reflect-mirror"),
    *(pytest.param(call, what, f"{scale} ", shown, id=f"{call}-{scale}")
      for call, what in (("proj", "projection target"), ("reflect", "mirror"))
      for scale, shown in (("8e-6", "8e-06"), ("1e-6", "1e-06"))),
])
def test_a_sum_of_blades_is_not_a_blade(call, what, scale, shown):
    # e123 + e456 passed the blade test: proj printed 0.5*e1 - 0.5*e23456.
    # At 8e-6 the prune hid u ^ A and it still did; at 1e-6 the projection
    # target was rejected as null instead
    r = ga("--algebra", "6,0", "-e", f"{call}(e1, {scale}e123 + {scale}e456)")
    assert (r.returncode, r.stdout, r.stderr) == (
        2, "", f"error: {what} must be a blade, got {shown}*e123 + {shown}*e456\n")


def test_a_small_vector_inverts():
    # inv(1e-6 e1) was rejected: "null versor has no inverse"
    r = ga("-e", "inv(1e-6 e1)")
    assert (r.returncode, r.stdout, r.stderr) == (0, "1000000*e1\n", "")


def test_a_large_projection_target_is_not_zero_and_a_pruned_inverse_is_an_error():
    # B^-1 = 1e-11 e1 fell to the prune: both printed 0 and exited 0
    r = ga("-e", "proj(e1 + e2, 1e11 e1)")
    assert r.returncode == 0 and r.stdout != "0\n"
    assert abs(float(r.stdout.removesuffix("*e1\n")) - 1.0) <= 1e-15
    r = ga("-e", "inv(1e11 e1)")
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.startswith("error: the inverse of ")


@pytest.mark.parametrize("expr, want", [("inv(1 + e123)", "0.5 - 0.5*e123\n"),
                                        ("inv(e1 + e23)", "0.5*e1 - 0.5*e23\n")],
                         ids=["1+e123", "e1+e23"])
def test_inv_asks_only_whether_a_reverse_a_is_scalar(expr, want):
    # a mixed-parity argument was "not a versor" (exit 2), though
    # (1 + e123) rev(1 + e123) prints 2
    r = ga("-e", expr)
    assert (r.returncode, r.stdout, r.stderr) == (0, want, "")


def test_inv_of_a_null_non_versor_names_a():
    # in Cl(2,1), (1 + e123) rev(1 + e123) = 0: exit 2, and the text
    # said "null versor" of an A that mixes parities
    r = ga("--algebra", "2,1", "-e", "inv(1 + e123)")
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "error: A reverse(A) is null, so A has no inverse: 1 + 1*e123\n"


@pytest.mark.parametrize("expr", ["inv(2 + e12 + e1)", "inv(e1 + e12)"])
def test_inv_of_a_non_versor_is_an_error(expr):
    # inv printed reverse(A)/|A|^2, which is not the inverse, and exited 0
    r = ga("-e", expr)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.startswith("error: not a versor")


def _imported_modules(stderr):
    """Module names from the report of python -X importtime."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:")}


def _full_expression(n):
    """The sum of all 2^n basis blades of dimension n, in parentheses."""
    blades = ["1"] + ["e" + "".join(map(str, c)) for r in range(1, n + 1)
                      for c in itertools.combinations(range(1, n + 1), r)]
    return "(" + " + ".join(blades) + ")"


@pytest.mark.parametrize("algebra", ["3,0", "1,3", "2,2"])
def test_small_algebras_do_not_load_numpy(algebra):
    # full x full is the largest product in n <= 4: 256 blade pairs
    full = _full_expression(sum(int(c) for c in algebra.split(",")))
    expr = " + ".join(f"({full} {op} {full})" for op in ("*", "^", "<|", "|>"))
    r = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "gacalc", "--algebra", algebra,
         f"--expr={expr}"], capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    imported = _imported_modules(r.stderr)
    assert "gacalc.algebra" in imported
    assert "numpy" not in imported
    # frames and outermorphisms on dense input stay on the Python path too
    code = ("import sys, gacalc\n"
            "assert 'csv' not in sys.modules\n"
            f"alg = gacalc.Algebra({algebra})\n"
            "full = alg.multivector({b: 0.5 + len(b) for b in alg.basis_blades()})\n"
            "vs = [alg.vector([1.0 + (i == j) * (i + 2) for j in range(alg.n)])\n"
            "      for i in range(alg.n)]\n"
            "f = gacalc.Frame(vs)\n"
            "assert f.expand(f.components(full)).isclose(full, tol=1e-8)\n"
            "F = gacalc.LinearMap(alg, vs)\n"
            "assert F.inverse()(F(full)).isclose(full, tol=1e-8)\n"
            "assert gacalc.factor_isometry(gacalc.LinearMap.identity(alg))[1] == []\n"
            "assert 'numpy' not in sys.modules\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       timeout=120)
    assert (r.returncode, r.stderr) == (0, "")


# Every product, frame, outermorphism, rotation and eigenframe below runs with
# n <= 6, where no code path may import numpy; the results are checked against
# the oracles.
_WITHOUT_NUMPY = """
import itertools, math, random, sys
sys.modules["numpy"] = None  # "import numpy" now raises ImportError
sys.path.insert(0, sys.argv[1])
import oracles
from gacalc import Algebra, Frame, LinearMap, apply_versor, factor_isometry, rotate
from gacalc.algebra import Multivector

PRODUCTS = ((Multivector.__mul__, oracles.gp), (Multivector.__xor__, oracles.outer),
            (Multivector.left_contract, oracles.lcontract),
            (Multivector.right_contract, oracles.rcontract))

def close(got, want, tol=1e-9):
    return oracles.max_coeff_diff(got.terms, want) <= tol

def leibniz_det(m):
    n = len(m)
    return sum(oracles.perm_parity(s) * math.prod(m[i][s[i]] for i in range(n))
               for s in itertools.permutations(range(n)))

def sandwich(v, x):
    # v ghat(x) v^-1 through the oracle, for the versor v
    metric = v.algebra.metric
    vt, xt = v.terms, x.terms
    if min(v.grades) & 1:
        xt = oracles.grade_involution(xt)
    moved = oracles.gp(oracles.gp(vt, xt, metric), oracles.reverse(vt), metric)
    return {k: c / oracles.scalar_product(vt, vt, metric) for k, c in moved.items()}

for p, q in ((6, 0), (4, 1), (3, 3)):
    alg = Algebra(p, q)
    metric = alg.metric
    rng = random.Random(f"without numpy {p},{q}")
    def vector():
        while True:
            v = alg.vector([rng.uniform(-2, 2) for _ in range(alg.n)])
            if abs(v.norm_squared()) > 0.5:
                return v
    a, b = ({t: rng.uniform(-2, 2) for t in alg.basis_blades()} for _ in range(2))
    A, B = alg.multivector(a), alg.multivector(b)
    for product, oracle in PRODUCTS:  # 2^n x 2^n blade pairs
        assert close(product(A, B), oracle(a, b, metric), 1e-12)

    vectors = [vector() for _ in range(alg.n)]
    columns = [[v.coefficient((i + 1,)) for v in vectors] for i in range(alg.n)]
    det = leibniz_det(columns)
    full = tuple(range(1, alg.n + 1))
    frame = Frame(vectors)
    assert close(frame.volume, {full: det})
    for i, v in enumerate(vectors):
        for j, r in enumerate(frame.reciprocal):
            dot = oracles.lcontract(v.terms, r.terms, metric)
            assert oracles.max_coeff_diff(dot, {(): float(i == j)}) <= 1e-9
    assert frame.expand(frame.components(A)).isclose(A, tol=1e-9)

    F = LinearMap(alg, vectors)
    want = {}
    for t, c in a.items():
        image = {(): c}
        for i in t:
            image = oracles.outer(image, vectors[i - 1].terms, metric)
        want = oracles.add(want, image)
    assert close(F(A), want, 1e-9 * max(1.0, abs(det)))
    assert math.isclose(F.determinant(), det, rel_tol=1e-12)
    assert F.inverse()(F(A)).isclose(A, tol=1e-9)

    V = vectors[0] * vectors[1] * vectors[2]
    G = LinearMap(alg, [apply_versor(alg.basis_vector(i + 1), V) for i in range(alg.n)])
    for i, image in enumerate(G.images):
        assert close(image, sandwich(V, alg.basis_vector(i + 1)))
    W, _ = factor_isometry(G)
    for i, image in enumerate(G.images):
        assert close(image, sandwich(W, alg.basis_vector(i + 1)))

    bivector = alg.multivector({t: rng.uniform(-1, 1) for t in alg.basis_blades()
                                if len(t) == 2})
    x = vector()
    R = bivector.exp()
    assert close(rotate(x, R), sandwich(R, x))

# a Cl(4,0) eigenframe: F(v) = lambda v for an orthonormal frame, values ascending
alg = Algebra(4, 0)
rng = random.Random("without numpy eigenframe")
F = LinearMap(alg, [alg.vector([rng.uniform(-2, 2) for _ in range(4)])
                    for _ in range(4)]).symmetric_part()
values, vectors = F.symmetric_eigenframe()
assert values == sorted(values)
for lam, v in zip(values, vectors):
    assert F(v).isclose(v * lam, tol=1e-12)
    assert all(abs(v.scalar_product(u) - (u is v)) <= 1e-12 for u in vectors)

assert sys.modules.pop("numpy") is None and "numpy" not in sys.modules
print("ok")
"""


def test_small_algebras_run_without_numpy():
    r = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, str(Path(__file__).parent)],
                       capture_output=True, text=True, timeout=300)
    assert (r.returncode, r.stderr, r.stdout) == (0, "", "ok\n")


def test_import_does_not_load_numpy():
    code = ("import sys, gacalc\n"
            "assert 'numpy' not in sys.modules\n"
            "alg = gacalc.Algebra(3, 0)\n"
            "F = gacalc.LinearMap.diagonal(alg, [3, 1, 2])\n"
            "values, vectors = F.symmetric_eigenframe()\n"
            "assert all(F(v).isclose(v * x) for x, v in zip(values, vectors))\n"
            "print(values)\n"
            "assert 'numpy' not in sys.modules\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       timeout=120)
    assert (r.returncode, r.stderr, r.stdout) == (0, "", "[1.0, 2.0, 3.0]\n")


CALCULATOR_NEVER_LOADS = ("gacalc.kepler", "gacalc.linops", "gacalc.frames", "argparse",
                          "dataclasses", "numpy", "__future__")


@pytest.mark.parametrize("args", [
    pytest.param(("-e", "1"), id="one-liner"),
    pytest.param((str(GOLDEN_SCRIPT),), id="golden-script"),
    # 1024 and 4096 blade pairs: every product with n <= 6 runs in the table loop
    pytest.param(("--algebra", "4,1", "-e", f"{_full_expression(5)} * {_full_expression(5)}"),
                 id="full-product-4,1"),
    pytest.param(("--algebra", "6,0", "-e", f"{_full_expression(6)} * {_full_expression(6)}"),
                 id="full-product-6,0"),
])
def test_calculator_loads_only_what_it_uses(args):
    r = subprocess.run([sys.executable, "-X", "importtime", "-m", "gacalc", *args],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    imported = _imported_modules(r.stderr)
    assert {"gacalc.cli", "gacalc.exprs", "gacalc.algebra"} <= imported
    assert not imported & set(CALCULATOR_NEVER_LOADS)


def test_import_gacalc_loads_no_submodule():
    code = ("import sys, gacalc\n"
            "print(sorted(m for m in sys.modules if m.startswith('gacalc.')))\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       timeout=120)
    assert (r.returncode, r.stderr, r.stdout) == (0, "", "[]\n")


def test_every_public_name_resolves():
    code = ("import gacalc\n"
            "names = [n for n in gacalc.__all__ if n != '__version__']\n"
            "by_attribute = {n: getattr(gacalc, n) for n in names}\n"
            "assert all(vars(gacalc)[n] is v for n, v in by_attribute.items())\n"
            "namespace = {}\n"
            "exec('from gacalc import *', namespace)\n"
            "assert all(namespace[n] is v for n, v in by_attribute.items())\n"
            "assert set(gacalc.__all__) <= set(namespace)\n"
            "assert set(gacalc.__all__) <= set(dir(gacalc))\n"
            "from gacalc import cli\n"
            "import gacalc.kepler\n"
            "assert gacalc.kepler.simulate is gacalc.simulate\n"
            "try:\n"
            "    gacalc.nope\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       timeout=120)
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == "module 'gacalc' has no attribute 'nope'\n"


def test_eval_error_exit_code():
    r = ga("-e", "inv(0)")
    assert r.returncode == 2
    assert "error:" in r.stderr
    r = ga("-e", "nope + 1")
    assert r.returncode == 2
    assert "unknown variable" in r.stderr
    r = ga("--expr=grade(e1, 1e400)")
    assert r.returncode == 2
    assert r.stderr == "error: grade(A, k) needs an integer literal k\n"


def test_script_file(tmp_path):
    script = tmp_path / "demo.ga"
    script.write_text(
        "# comment lines and blanks are skipped\n"
        "\n"
        ":let a = e1 + e2\n"
        "a | a\n"
        ":algebra 2,0\n"
        "e1 e2\n")
    r = ga(str(script))
    assert r.returncode == 0
    assert r.stdout == "2\n1*e12\n"


def test_script_flag_equivalent(tmp_path):
    script = tmp_path / "demo.ga"
    script.write_text("1 + 1\n")
    assert ga("--script", str(script)).stdout == "2\n"
    assert ga(str(script), "--script", str(script)).returncode == 2


def test_script_error_reports_line(tmp_path):
    script = tmp_path / "demo.ga"
    script.write_text("1 + 1\ne9\n")
    r = ga(str(script))
    assert r.returncode == 1
    assert r.stdout == "2\n"  # output up to the failing line is kept
    assert f"{script}:2: parse error:" in r.stderr


def test_missing_script():
    r = ga("/no/such/file.ga")
    assert r.returncode == 2


class _BrokenStream(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_broken_stdout_is_an_error():
    # an OSError while printing a result was a traceback in the calculator
    err = io.StringIO()
    with contextlib.redirect_stdout(_BrokenStream()), contextlib.redirect_stderr(err):
        code = cli.main(["-e", "e1"])
    assert (code, err.getvalue()) == (2, "error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("expr, code", [("inv(e1 + e12)", 2), ("e1 +", 1), ("e1", 0)])
def test_a_broken_stderr_keeps_the_exit_code(expr, code):
    # printing the message raised BrokenPipeError, and so did main's report
    # of it: the error escaped, and an evaluation error exited 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(_BrokenStream()):
        assert cli.main(["-e", expr]) == code
    assert out.getvalue() == ("1*e1\n" if code == 0 else "")


@pytest.mark.parametrize("expr, code", [("inv(e1 + e12)", 2), ("e1 +", 1)])
def test_a_closed_stderr_keeps_the_exit_code(expr, code):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run([sys.executable, "-m", "gacalc", "-e", expr], stdout=subprocess.PIPE,
                           stderr=write_end, timeout=120)
    finally:
        os.close(write_end)
    assert (r.returncode, r.stdout) == (code, b"")


def test_algebra_switch_clears_variables(tmp_path):
    script = tmp_path / "demo.ga"
    script.write_text(
        ":let a = e1\n"
        ":algebra 3,0\n"
        "a\n")
    r = ga(str(script))
    assert r.returncode == 2
    assert "unknown variable" in r.stderr


def test_let_rejects_basis_names(tmp_path):
    script = tmp_path / "demo.ga"
    script.write_text(":let e1 = 2\n")
    r = ga(str(script))
    assert r.returncode == 1
    assert "reserved" in r.stderr


def test_quit_stops_a_script(tmp_path):
    script = tmp_path / "demo.ga"
    script.write_text("1\n:quit\n2\n")
    r = ga(str(script))
    assert r.returncode == 0
    assert r.stdout == "1\n"


def test_unknown_command(tmp_path):
    script = tmp_path / "demo.ga"
    script.write_text(":frobnicate\n")
    r = ga(str(script))
    assert r.returncode == 1


def test_repl_round_trip():
    r = ga(stdin="e1 e2\n:quit\n")
    assert r.returncode == 0
    assert "1*e12" in r.stdout
    assert r.stdout.count("ga> ") == 2


def test_repl_keeps_going_after_errors():
    r = ga(stdin="e9\n1 + 1\n")
    assert r.returncode == 0  # EOF ends the loop cleanly
    assert "parse error:" in r.stderr
    assert "2" in r.stdout


def test_repl_variables_persist():
    r = ga(stdin=":let r = 1 - e12\nr e1 inv(r)\n")
    assert r.returncode == 0
    assert "1*e2" in r.stdout
    r = ga(stdin=":let r = 1 - e12\nr e1 * inv(r)\n")
    assert "1*e2" in r.stdout


# -- kepler subcommand ----------------------------------------------------------

def kepler_rows(*args):
    r = ga("kepler", *args)
    assert r.returncode == 0, r.stderr
    return list(csv.reader(r.stdout.splitlines()))


def test_kepler_csv_to_stdout():
    rows = kepler_rows("--steps", "100")
    assert rows[0] == ["t", "rx", "ry", "rz", "vx", "vy", "vz",
                       "L_yz", "L_zx", "L_xy", "ex", "ey", "ez", "E"]
    assert len(rows) == 102  # header + initial state + 100 records
    first = rows[1]
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0
    # circular default orbit: L_xy = 1, E = -1/2 throughout
    for row in rows[1:]:
        assert float(row[9]) == pytest.approx(1.0, abs=1e-9)
        assert float(row[13]) == pytest.approx(-0.5, abs=1e-9)


def test_kepler_near_radial_orbit():
    # |L| = 1e-6: the energy-eccentricity identity loses the pruned 1e-12
    # e_x term of L v / k, amplified by m k^2 / 2 l^2 = 5e11
    rows = kepler_rows("--v0", "0.5,1e-6,0", "--steps", "1000", "--dt", "1e-3")
    assert len(rows) == 1 + 1001
    for row in rows[1:]:
        assert float(row[13]) == pytest.approx(-0.875, abs=1e-9)


def test_kepler_record_every():
    rows = kepler_rows("--steps", "100", "--record-every", "40")
    # initial, steps 40 and 80, and the final state
    assert [float(r[0]) for r in rows[1:]] == pytest.approx(
        [0.0, 40e-4, 80e-4, 100e-4])


def test_kepler_csv_file(tmp_path):
    out = tmp_path / "orbit.csv"
    r = ga("kepler", "--steps", "10", "--csv", str(out))
    assert r.returncode == 0
    assert r.stdout == ""
    rows = list(csv.reader(out.read_text().splitlines()))
    assert len(rows) == 12


def test_kepler_unwritable_csv_path_is_an_error(tmp_path):
    out = tmp_path / "missing" / "orbit.csv"
    r = ga("kepler", "--steps", "10", "--csv", str(out))
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.startswith("error: [Errno 2] No such file or directory")
    assert str(out) in r.stderr and not out.exists()


def test_kepler_rejects_bad_input():
    r = ga("kepler", "--r0", "0,0,0")
    assert r.returncode == 2
    assert "error:" in r.stderr
    assert ga("kepler", "--r0", "1,2").returncode == 2
    assert ga("kepler", "--m", "-1").returncode == 2
    assert ga("kepler", "--dt", "0").returncode == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_kepler_rejects_nonfinite_mass(value):
    # --m nan used to run and report "radius nan fell below the minimum allowed"
    r = ga("kepler", "--m", value)
    assert (r.returncode, r.stdout, r.stderr) == (
        2, "", "error: mass m must be positive and finite\n")


def test_kepler_collision_guard():
    r = ga("kepler", "--v0", "-1,0,0", "--dt", "0.001", "--steps", "2000",
           "--min-radius", "0.5")
    assert r.returncode == 2
    assert "radius" in r.stderr or "collision" in r.stderr


@pytest.mark.parametrize("v0", ["0,1e-6,0", "0,0,0"])
def test_kepler_fall_through_the_centre_is_a_collision(v0):
    # RK4 flung both orbits out of the well and exited 0, E going from -1 to 4.9e6
    r = ga("kepler", f"--v0={v0}", "--steps", "30000")
    assert (r.returncode, r.stdout) == (2, "")
    assert "fell below the minimum allowed" in r.stderr


@pytest.mark.parametrize("args, message", [
    pytest.param(("--r0=0,0,0", "--min-radius", "0"), "is too small for the inverse-square force",
                 id="origin"),
    # the tolerance prunes 1e-200 to 0; "too small" came only from
    # min_radius^2 underflowing to 0
    pytest.param(("--r0=1e-200,0,0", "--min-radius=1e-200"), "fell below the minimum allowed",
                 id="r2-underflow"),
])
def test_kepler_force_underflow_is_an_error(args, message):
    # used to exit 1 with a ZeroDivisionError traceback
    r = ga("kepler", *args)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == f"error: radius 0.000e+00 {message}\n"


@pytest.mark.parametrize("args, message", [
    pytest.param(("--dt", "nan"), "dt must be finite, got nan", id="dt-nan"),
    pytest.param(("--dt", "inf"), "dt must be finite, got inf", id="dt-inf"),
    pytest.param(("--dt", "1e300", "--steps", "10000000000"),
                 "final time t0 + steps*dt must be finite", id="final-time"),
    pytest.param(("--min-radius=-1",),
                 "min_radius must be nonnegative and finite, got -1.0", id="min-radius-negative"),
    pytest.param(("--min-radius", "nan"),
                 "min_radius must be nonnegative and finite, got nan", id="min-radius-nan"),
    pytest.param(("--min-radius", "inf"),
                 "min_radius must be nonnegative and finite, got inf", id="min-radius-inf"),
])
def test_kepler_rejects_invalid_arguments(args, message):
    # --dt nan used to fail as "time t must be finite", and a negative or
    # non-finite --min-radius as "radius 1.000e+00 fell below the minimum"
    r = ga("kepler", *args)
    assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {message}\n")


def test_kepler_overflow_is_an_error():
    r = ga("kepler", "--r0=1e200,0,0", "--v0=0,1e200,0", "--steps", "2")
    assert r.returncode == 2
    assert r.stderr == "error: coefficient is not finite: inf\n"


@pytest.mark.parametrize("args, code, stderr", [
    pytest.param(("--r0=1,0,0", "--v0=1e160,0,0", "--steps", "1"),
                 2, "error: orbit state overflows: |r|, |L| or E is not finite\n", id="energy"),
    # |r|^2 overflows and |r| does not: this was refused with the message above
    pytest.param(("--r0=1e156,0,0", "--v0=0,1,0", "--steps", "1"), 0, "", id="radius"),
])
def test_kepler_conserved_overflow_is_an_error(args, code, stderr):
    # used to exit 0 with E = inf and, once |r|^2 overflowed, e = (0, 0, 0)
    r = ga("kepler", *args)
    assert (r.returncode, r.stderr) == (code, stderr)
    if code == 0:
        assert len(r.stdout.splitlines()) == 3


def test_kepler_far_repulsive_record_has_a_row():
    # simulate() returned this final state, at |r| = 1e280, but its CSV row
    # was refused ("orbit state overflows") and the run exited 2
    r = ga("kepler", "--r0=1e150,0,0", "--v0=1,0,0", "--k=-1", "--dt=1e280", "--steps", "1")
    assert (r.returncode, r.stderr) == (0, "")
    header, first, last = r.stdout.splitlines()
    assert header.startswith("t,rx,")
    assert first.startswith("0.0,1e+150,0.0,0.0,")
    assert last.startswith("1e+280,1e+280,0.0,0.0,")
    assert last.endswith(",-1.0,0.0,0.0,0.5")


def test_kepler_far_circle_keeps_its_radius():
    # a circle at |r| = 1e160, where |r|^2 overflows, turns 0.1 a record; a
    # start radius taken as sqrt(|r|^2) was inf, and the first record then
    # stayed on the straight line x = 1e160
    r = ga("kepler", "--r0=1e160,0,0", "--v0=0,1e70,0", "--k=1e300", "--dt=1e89",
           "--steps", "2")
    assert (r.returncode, r.stderr) == (0, "")
    rows = [[float(x) for x in line.split(",")] for line in r.stdout.splitlines()[1:]]
    assert len(rows) == 3
    for step, row in enumerate(rows):
        assert math.hypot(*row[1:4]) == pytest.approx(1e160, rel=1e-12)
        assert math.atan2(row[2], row[1]) == pytest.approx(0.1 * step, abs=1e-12)


@pytest.mark.parametrize("options", [
    pytest.param({}, id="default"),
    pytest.param({"steps": 1000, "record_every": 300}, id="thinned"),
    pytest.param({"v0": (0.5, 0.03, 0.0), "dt": 1e-3, "steps": 2000}, id="low-l"),
    pytest.param({"v0": (0.5, 1e-6, 0.0), "dt": 1e-3, "steps": 1000}, id="near-radial"),
    pytest.param({"r0": (0.0, 1.0, 0.0), "v0": (0.0, 0.0, 1.1), "steps": 500},
                 id="yz-plane"),
])
def test_kepler_cli_matches_library(options):
    # the CLI's one-pass rows are the library's write_csv(simulate(...)) bytes
    o = {"r0": (1.0, 0.0, 0.0), "v0": (0.0, 1.0, 0.0), "dt": 1e-4, "steps": 10000,
         "record_every": 1, **options}
    argv = ["kepler"]
    for name in options:
        value = o[name]
        text = ",".join(map(repr, value)) if isinstance(value, tuple) else repr(value)
        argv.append(f"--{name.replace('_', '-')}={text}")
    r = subprocess.run([sys.executable, "-m", "gacalc", *argv], capture_output=True,
                       timeout=120)
    assert (r.returncode, r.stderr) == (0, b"")
    e3 = Algebra(3, 0)
    states = simulate(OrbitState(e3.vector(o["r0"]), e3.vector(o["v0"])), o["dt"],
                      o["steps"], record_every=o["record_every"])
    buf = io.StringIO()
    write_csv(states, buf)
    assert r.stdout == buf.getvalue().encode()
    if "r0" in options:
        assert {row.split(b",")[8] for row in r.stdout.splitlines()[1:]} == {b"-0.0"}
