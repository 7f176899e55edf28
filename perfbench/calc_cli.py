"""calc_cli: ``python -m gacalc`` invocations, one after another.

Most ops evaluate one generated expression with ``-e``; the rest run
generated scripts that use every operator and function in Cl(3,0), Cl(1,3)
and Cl(2,2), or the golden script. Each generated line carries its expected
value, worked out with the word-reduction oracle of the test suite when the
line is first checked, and the golden script must reproduce its transcript
byte for byte.
"""

from __future__ import annotations

import functools
import math
import random
import re
import shutil
import subprocess
import sys

import common

SIGNATURES = ((3, 0), (1, 3), (2, 2))
COEFFS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
VARIABLES = ("x", "y")
BINARY = ("+", "-", "*", " ", "^", "<|", "|>", "|")
UNARY = ("~", "!", "-")
FUNCTIONS = ("dual", "idual", "exp", "norm2", "inv", "rev", "conj", "grade",
             "proj", "rej", "reflect")
FORMS = BINARY + tuple("u" + op for op in UNARY) + FUNCTIONS
ROUND = "LLSLLGLLSL"          # one-liner, generated script, golden script
TINY_ROUND = "LSG"
ONE_LINERS = 56
SCRIPTS = 8
TIMEOUT_S = 60.0
_TERM_SPLIT = re.compile(r" ([+-]) ")


def _fmt(c):
    return str(int(c)) if float(c).is_integer() else repr(c)


def _blade_text(blade):
    return "e" + "".join(str(i) for i in blade)


class ExprGen:
    """Random expressions in one signature, each with its oracle value.

    The text is drawn at once; the value is a zero-argument function that
    works it out with the oracle on first use, so set-up does not pay for
    the word-reduction oracle and only checked ops do.
    """

    def __init__(self, rng, oracle, p, q):
        self.rng, self._oracle = rng, oracle
        self.n = p + q
        self.metric = [1.0] * p + [-1.0] * q
        self.blades = [tuple(i + 1 for i in range(self.n) if bits >> i & 1)
                       for bits in range(1 << self.n)]
        self.volume = {tuple(range(1, self.n + 1)): 1.0}
        self.volume_inverse = functools.cache(lambda: self._inverse(self.volume))

    @property
    def o(self):
        return self._oracle()

    # -- oracle helpers --------------------------------------------------------

    def _gp(self, a, b):
        return self.o.gp(a, b, self.metric)

    @staticmethod
    def _scale(a, c):
        return {k: c * v for k, v in a.items() if c * v != 0.0}

    def _inverse(self, versor):
        return self._scale(self.o.reverse(versor),
                           1.0 / self.o.scalar_product(versor, versor, self.metric))

    def _exp(self, b):
        acc, term = {(): 1.0}, {(): 1.0}
        for k in range(1, 40):
            term = self._scale(self._gp(term, b), 1.0 / k)
            acc = self.o.add(acc, term)
        return acc

    # -- leaves ----------------------------------------------------------------

    def _coeff(self):
        c = self.rng.choice(COEFFS)
        return -c if self.rng.random() < 0.5 else c

    def _literal(self, grades=None):
        pool = [b for b in self.blades if grades is None or len(b) in grades]
        blades = self.rng.sample(pool, min(len(pool), self.rng.randint(1, 3)))
        parts, value = [], {}
        for blade in blades:
            c = self._coeff()
            body = _fmt(abs(c)) + (" " + _blade_text(blade) if blade else "")
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
            value[blade] = value.get(blade, 0.0) + c
        return "(" + " ".join(parts) + ")", value

    def literal(self, grades=None):
        text, value = self._literal(grades)
        return text, lambda: value

    def basis_blade(self, grade_min=1):
        blade = self.rng.choice([b for b in self.blades if len(b) >= grade_min])
        c = self._coeff()
        return f"({_fmt(c)} {_blade_text(blade)})", {blade: c}

    def invertible_vector(self):
        while True:
            text, value = self._literal(grades={1})
            # the scalar square of a vector in an orthonormal basis
            square = sum(c * c * self.metric[k[0] - 1] for k, c in value.items())
            if abs(square) >= 0.25:
                return text, value

    def leaf(self, env):
        if env and self.rng.random() < 0.4:
            name = self.rng.choice(sorted(env))
            return f"({name})", env[name]
        return self.literal()

    # -- expressions -------------------------------------------------------------

    def expr(self, depth, env, form=None):
        """(text, value) of a random expression; form picks the top operator."""
        if form is None:
            if depth <= 0:
                return self.leaf(env)
            form = self.rng.choice(FORMS)
        m = self.metric

        def sub():
            return self.expr(depth - 1, env)

        if form in BINARY:
            (ta, a), (tb, b) = sub(), sub()
            # adjacency only multiplies when the right operand starts with an atom
            text = f"(({ta}) ({tb}))" if form == " " else f"({ta} {form} {tb})"

            def value():
                o, x, y = self.o, a(), b()
                if form == "+":
                    return o.add(x, y)
                if form == "-":
                    return o.add(x, y, scale=-1.0)
                if form in ("*", " "):
                    return self._gp(x, y)
                if form == "^":
                    return o.outer(x, y, m)
                if form == "<|":
                    return o.lcontract(x, y, m)
                if form == "|>":
                    return o.rcontract(x, y, m)
                s = o.scalar_product(x, y, m)
                return {(): s} if s else {}
            return text, functools.cache(value)
        if form.startswith("u"):
            ta, a = sub()
            op = form[1:]

            def value():
                x = a()
                return (self.o.reverse(x) if op == "~" else
                        self.o.grade_involution(x) if op == "!" else self._scale(x, -1.0))
            return f"{op}({ta})", functools.cache(value)
        if form == "exp":
            blade = self.rng.choice([b for b in self.blades if len(b) == 2])
            theta = self.rng.choice((0.25, 0.5, 0.75, 1.0, 1.25))
            return (f"exp({_fmt(theta)} {_blade_text(blade)})",
                    functools.cache(lambda: self._exp({blade: theta})))
        if form == "inv":
            tv, v = self.invertible_vector()
            return f"inv({tv})", functools.cache(lambda: self._inverse(v))
        if form in ("proj", "rej", "reflect"):
            ta, a = sub()
            tb, b = self.basis_blade()

            def value():
                o, x, b_inv = self.o, a(), self._inverse(b)
                if form == "proj":
                    return self._gp(o.lcontract(x, b, m), b_inv)
                if form == "rej":
                    return self._gp(o.outer(x, b, m), b_inv)
                moved = o.grade_involution(x) if len(next(iter(b))) & 1 else x
                return self._gp(self._gp(b, moved), b_inv)
            return f"{form}({ta}, {tb})", functools.cache(value)
        ta, a = sub()
        if form == "grade":
            k = self.rng.randint(0, self.n)
            return f"grade({ta}, {k})", functools.cache(lambda: self.o.grade_part(a(), k))

        def value():
            o, x = self.o, a()
            if form == "norm2":
                s = o.scalar_product(x, x, m)
                return {(): s} if s else {}
            return {"dual": lambda: self._gp(x, self.volume_inverse()),
                    "idual": lambda: self._gp(x, self.volume),
                    "rev": lambda: o.reverse(x),
                    "conj": lambda: o.reverse(o.grade_involution(x))}[form]()
        return f"{form}({ta})", functools.cache(value)


def parse_output(line):
    """Index-tuple term dict of one printed multivector (n <= 9)."""
    line = line.strip()
    if line == "0":
        return {}
    pieces = _TERM_SPLIT.split(line)
    signs = ["+"] + pieces[1::2]
    out = {}
    for sign, body in zip(signs, pieces[0::2]):
        coeff, _, name = body.partition("*e")
        value = float(coeff) * (-1.0 if sign == "-" else 1.0)
        blade = tuple(int(ch) for ch in name)
        out[blade] = out.get(blade, 0.0) + value
    return out


def _close(got, expected):
    scale = max((abs(v) for v in expected.values()), default=0.0)
    return common.max_diff(got, expected) <= 1e-9 * (1.0 + scale)


def make_script(rng, oracle):
    """(text, expected value functions) of a script using every form in three signatures."""
    forms = list(FORMS)
    rng.shuffle(forms)
    sections = [forms[i::len(SIGNATURES)] for i in range(len(SIGNATURES))]
    lines, expected = ["# generated ga-calc script"], []
    for (p, q), section in zip(SIGNATURES, sections):
        gen = ExprGen(rng, oracle, p, q)
        lines += ["", f"# Cl({p},{q})", f":algebra {p},{q}"]
        env = {}
        for name in VARIABLES:
            text, value = gen.expr(1, env)
            lines.append(f":let {name} = {text}")
            env[name] = value
        for form in section:
            text, value = gen.expr(1, env, form)
            lines.append(text)
            expected.append(value)
    lines.append(":quit")
    return "\n".join(lines) + "\n", expected


class CalcCli(common.Workload):
    name = "calc_cli"
    in_process = False
    probe = staticmethod(common.process_slowness)
    tail_percentile = 90
    trace_rounds = 2

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        import gacalc  # noqa: F401  (set-up pays the import, like every workload)

        oracle = functools.cache(common.load_oracle)
        rng = random.Random(seed)
        self.env = common.child_env()
        self.dir = common.TMP / f"calc_cli-{seed}-{id(self):x}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.golden = common.GOLDEN_OUTPUT.read_bytes()
        self.pattern = TINY_ROUND if tiny else ROUND
        self.one_liners = []
        for i in range(2 if tiny else ONE_LINERS):
            p, q = SIGNATURES[i % len(SIGNATURES)]
            text, value = ExprGen(rng, oracle, p, q).expr(2, {})
            # "--expr=" keeps argparse from reading a leading minus as an option
            self.one_liners.append(
                (["--algebra", f"{p},{q}", f"--expr={text}"], [value]))
        self.scripts = []
        for i in range(1 if tiny else SCRIPTS):
            text, expected = make_script(rng, oracle)
            path = self.dir / f"script{i}.ga"
            path.write_text(text, encoding="utf-8")
            self.scripts.append(([str(path)], expected))

    def ops(self, round_index):
        out = []
        lines = scripts = 0
        for kind in self.pattern:
            if kind == "L":
                i = (round_index * self.pattern.count("L") + lines) % len(self.one_liners)
                out.append(("line", i))
                lines += 1
            elif kind == "S":
                i = (round_index * self.pattern.count("S") + scripts) % len(self.scripts)
                out.append(("script", i))
                scripts += 1
            else:
                out.append(("golden", 0))
        return out

    def prepare(self, op):
        kind, i = op
        if kind == "golden":
            return [str(common.GOLDEN_SCRIPT)]
        return (self.one_liners if kind == "line" else self.scripts)[i][0]

    def run(self, argv):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "gacalc", *argv]
        else:
            out = self.dir / f"trace{len(self.child_traces)}.json"
            self.child_traces.append(out)
            cmd = [sys.executable, str(common.ROOT / "perfbench" / "tracechild.py"),
                   str(out), str(common.spans_path(self.name, self.seed)), *argv]
        proc = subprocess.run(cmd, capture_output=True, env=self.env,
                              cwd=common.ROOT, timeout=TIMEOUT_S)
        if proc.returncode != 0:
            err = proc.stderr.decode(errors="replace").strip().splitlines()
            raise common.OpFailed(f"exit {proc.returncode}: {err[-1] if err else ''}")
        return proc.stdout

    def check(self, op, argv, stdout):
        kind, i = op
        if kind == "golden":
            return None if stdout == self.golden else "golden transcript differs"
        expected = (self.one_liners if kind == "line" else self.scripts)[i][1]
        got = stdout.decode().splitlines()
        if len(got) != len(expected):
            return f"{len(got)} output lines, expected {len(expected)}"
        for lineno, (line, want) in enumerate(zip(got, expected), start=1):
            want = want()
            try:
                value = parse_output(line)
            except ValueError:
                return f"line {lineno}: cannot read {line!r}"
            if not _close(value, want) or any(map(math.isnan, value.values())):
                return f"line {lineno}: {line!r} differs from the oracle"
        return None

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
