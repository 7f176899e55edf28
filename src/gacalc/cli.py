"""ga-calc: expression calculator and Kepler orbit runner.

Modes:
    ga-calc                     interactive loop (prompt "ga> ")
    ga-calc SCRIPT              evaluate a file, one expression per line
    ga-calc -e EXPR             evaluate one expression and exit
    ga-calc kepler [options]    integrate an orbit, emit CSV

An expression that starts with "-" reads as an option after -e; write it
as --expr=-e1 instead.

Scripts and the interactive loop share one small command language on top
of expressions: blank lines and lines starting with # are skipped,
`:let NAME = EXPR` binds a variable silently, `:algebra P,Q` switches the
working algebra (clearing all variables, since values are algebra-bound),
and `:quit` stops. Expression results print one per line in the canonical
text format.

Exit codes: 0 success, 1 parse error, 2 evaluation error.
"""

from __future__ import annotations

import argparse
import re
import sys

from .algebra import DEFAULT_TOLERANCE, Algebra, GAError
from .exprs import EvalError, ParseError, evaluate, parse
from . import kepler as kepler_mod

_LET = re.compile(r":let\s+([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)\Z")
_ALGEBRA_ARG = re.compile(r"(\d+)\s*,\s*(\d+)\Z")
_BASIS_NAME = re.compile(r"e\d+\Z")


class _Quit(Exception):
    pass


class _Session:
    def __init__(self, algebra):
        self.algebra = algebra
        self.env = {}

    def execute(self, line):
        """Run one line; returns the text to print, or None for silent lines.

        Error offsets count from the start of line as written.
        """
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            return None
        lead = len(line) - len(line.lstrip())
        if stripped.startswith(":"):
            self._command(stripped, lead)
            return None
        return str(self._evaluate(stripped, lead))

    def _evaluate(self, text, start):
        """Evaluate expression text found at offset start of the line.

        Input nested past Python's recursion limit fails as a ParseError, or
        as an EvalError when only the evaluation is too deep.
        """
        try:
            failure = ParseError
            node = parse(text, self.algebra)
            failure = EvalError
            return evaluate(node, self.algebra, self.env)
        except RecursionError:
            raise failure("expression nested too deeply", start) from None
        except (ParseError, EvalError) as exc:
            if exc.pos is not None:
                exc.pos += start
            raise

    def _command(self, line, lead):
        name = line.split(None, 1)[0]
        rest = line[len(name):].strip()
        if name == ":quit":
            raise _Quit
        if name == ":algebra":
            m = _ALGEBRA_ARG.fullmatch(rest)
            if not m:
                raise ParseError("usage: :algebra P,Q", lead)
            try:
                self.algebra = Algebra(int(m.group(1)), int(m.group(2)),
                                       tolerance=self.algebra.tolerance)
            except ValueError as exc:
                raise ParseError(str(exc), lead)
            self.env = {}
            return
        if name == ":let":
            m = _LET.fullmatch(line)
            if not m:
                raise ParseError("usage: :let NAME = EXPR", lead)
            target = m.group(1)
            if _BASIS_NAME.fullmatch(target):
                raise ParseError(f"name {target!r} is reserved for basis blades", lead)
            self.env[target] = self._evaluate(m.group(2), lead + m.start(2))
            return
        raise ParseError(f"unknown command {name!r}", lead)


def _algebra_option(text):
    m = _ALGEBRA_ARG.fullmatch(text.strip())
    if not m:
        raise argparse.ArgumentTypeError("expected P,Q (for example 3,0)")
    return int(m.group(1)), int(m.group(2))


def _vector3(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated numbers")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number in {text!r}")


def _run(session, lines, path=None, keep_going=False):
    """Execute lines in order, printing each result; returns the exit code.

    Errors go to stderr, prefixed with path:lineno when path is given. The
    first error ends the run with its exit code unless keep_going is set.
    """
    for lineno, line in enumerate(lines, start=1):
        try:
            out = session.execute(line)
        except _Quit:
            return 0
        except ParseError as exc:
            code, message = 1, f"parse error: {exc}"
        except GAError as exc:
            code, message = 2, f"error: {exc}"
        else:
            if out is not None:
                print(out)
            continue
        where = f"{path}:{lineno}: " if path is not None else ""
        print(where + message, file=sys.stderr)
        if not keep_going:
            return code
    return 0


def _prompt_lines():
    """Lines typed at the "ga> " prompt, until end of input."""
    try:
        while True:
            yield input("ga> ")
    except EOFError:
        return


def _calc_main(argv):
    parser = argparse.ArgumentParser(
        prog="ga-calc",
        description="geometric-algebra expression calculator")
    parser.add_argument("script_arg", nargs="?", metavar="SCRIPT",
                        help="script file to evaluate")
    parser.add_argument("-e", "--expr", metavar="EXPR",
                        help="evaluate one expression and exit")
    parser.add_argument("--script", metavar="FILE",
                        help="script file to evaluate (same as the positional)")
    parser.add_argument("--algebra", type=_algebra_option, default=(3, 0),
                        metavar="P,Q", help="signature, default 3,0")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        metavar="T", help="coefficient zero threshold, default 1e-10")
    args = parser.parse_args(argv)
    if args.script and args.script_arg:
        parser.error("give the script either positionally or via --script, not both")
    try:
        algebra = Algebra(*args.algebra, tolerance=args.tolerance)
    except ValueError as exc:
        parser.error(str(exc))
    session = _Session(algebra)
    if args.expr is not None:
        return _run(session, [args.expr])
    script = args.script or args.script_arg
    if script is not None:
        try:
            with open(script, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return _run(session, lines, path=script)
    try:
        return _run(session, _prompt_lines(), keep_going=True)
    except KeyboardInterrupt:
        print(file=sys.stderr)
        return 130


def _kepler_main(argv):
    parser = argparse.ArgumentParser(
        prog="ga-calc kepler",
        description="integrate a Kepler orbit and write CSV")
    parser.add_argument("--r0", type=_vector3, default=(1.0, 0.0, 0.0),
                        metavar="X,Y,Z", help="initial position, default 1,0,0")
    parser.add_argument("--v0", type=_vector3, default=(0.0, 1.0, 0.0),
                        metavar="X,Y,Z", help="initial velocity, default 0,1,0")
    parser.add_argument("--m", type=float, default=1.0, help="mass, default 1")
    parser.add_argument("--k", type=float, default=1.0,
                        help="force constant, default 1")
    parser.add_argument("--dt", type=float, default=1e-4,
                        help="time step, default 1e-4")
    parser.add_argument("--steps", type=int, default=10000,
                        help="number of RK4 steps, default 10000")
    parser.add_argument("--record-every", type=int, default=1, metavar="N",
                        help="record every Nth step, default 1")
    parser.add_argument("--min-radius", type=float, default=1e-8,
                        help="abort below this radius, default 1e-8")
    parser.add_argument("--csv", metavar="PATH",
                        help="write CSV here instead of stdout")
    args = parser.parse_args(argv)
    algebra = Algebra(3, 0)
    try:
        state0 = kepler_mod.OrbitState(
            algebra.vector(args.r0), algebra.vector(args.v0), args.m, args.k)
        records = kepler_mod._integrate(
            state0, args.dt, args.steps, args.record_every, args.min_radius)
        lines = (kepler_mod._csv_row(*record, state0.m, state0.k, algebra.tolerance)
                 for record in records)
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as fh:
                kepler_mod._write_csv_lines(lines, fh)
        else:
            kepler_mod._write_csv_lines(lines, sys.stdout)
    except (GAError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "kepler":
        return _kepler_main(argv[1:])
    return _calc_main(argv)


if __name__ == "__main__":
    sys.exit(main())
