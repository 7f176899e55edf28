"""ga-calc: expression calculator and Kepler orbit runner.

Modes:
    ga-calc                     interactive loop (prompt "ga> ")
    ga-calc SCRIPT              evaluate a file, one expression per line
    ga-calc -e EXPR             evaluate one expression and exit
    ga-calc kepler [options]    propagate an orbit, emit CSV

An option's value may start with "-": -e -e1 evaluates -e1, as do
-e-e1 and --expr=-e1. Long options may be shortened to a unique prefix.

Scripts and the interactive loop share one small command language on top
of expressions: blank lines and lines starting with # are skipped,
`:let NAME = EXPR` binds a variable silently, `:algebra P,Q` switches the
working algebra (clearing all variables, since values are algebra-bound),
and `:quit` stops. Expression results print one per line in the canonical
text format.

Exit codes: 0 success, 1 parse error, 2 evaluation error, or a result that
cannot be written. Messages go to stderr; one that cannot be written is
lost, and the exit code stays the failure's own.
"""

import getopt
import re
import sys

from .algebra import DEFAULT_TOLERANCE, Algebra, GAError
from .exprs import EvalError, ParseError, evaluate, parse

_LET = re.compile(r":let\s+([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)\Z")
_ALGEBRA_ARG = re.compile(r"(\d+)\s*,\s*(\d+)\Z")
_BASIS_NAME = re.compile(r"e\d+\Z")


class _Quit(Exception):
    pass


def _warn(text):
    """Print text to stderr; if that fails (its reader is gone), the text is lost."""
    try:
        print(text, file=sys.stderr)
    except OSError:
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
        raise ValueError("expected P,Q (for example 3,0)")
    return int(m.group(1)), int(m.group(2))


def _vector3(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("expected three comma-separated numbers")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ValueError(f"bad number in {text!r}") from None


class _Parser:
    """One command's options, parsed with getopt.gnu_getopt.

    Options and positionals may be mixed, a long option may be shortened to
    any unique prefix, and an option's value may start with "-". -h/--help
    prints the help to stdout and exits 0; a usage error prints the usage
    line and the message to stderr and exits 2.
    """

    def __init__(self, prog, description, options, positional=None):
        self.prog, self.description, self.options = prog, description, options
        self.positional = positional        # (metavar, help) of one optional positional

    def _usage(self):
        flags = "".join(f" [-{short} {metavar}]" if short else f" [--{name} {metavar}]"
                        for short, name, metavar, *_ in self.options)
        tail = f" [{self.positional[0]}]" if self.positional else ""
        return f"usage: {self.prog} [-h]{flags}{tail}"

    def error(self, message):
        _warn(f"{self._usage()}\n{self.prog}: error: {message}")
        raise SystemExit(2)

    def _help(self):
        rows = [self.positional] if self.positional else []
        rows.append(("-h, --help", "show this help message and exit"))
        for short, name, metavar, _, _, text in self.options:
            flag = f"--{name} {metavar}"
            rows.append((f"-{short} {metavar}, {flag}" if short else flag, text))
        width = max(len(flag) for flag, _ in rows) + 2
        print("\n".join([self._usage(), "", self.description, "",
                         *(f"  {flag:<{width}}{text}" for flag, text in rows)]))
        raise SystemExit(0)

    def parse(self, argv):
        """Each option's value (or default) keyed by long name, and the positional or None."""
        shorts = "h" + "".join(f"{short}:" for short, *_ in self.options if short)
        longs = ["help"] + [f"{name}=" for _, name, *_ in self.options]
        try:
            pairs, positionals = getopt.gnu_getopt(argv, shorts, longs)
        except getopt.GetoptError as exc:
            self.error(exc.msg)
        values = {name: default for _, name, _, _, default, _ in self.options}
        for flag, text in pairs:
            if flag in ("-h", "--help"):
                self._help()
            for short, name, _, convert, _, _ in self.options:
                if flag in (f"-{short}", f"--{name}"):
                    break
            try:
                values[name] = convert(text)
            except ValueError as exc:
                self.error(f"argument {f'-{short}/' if short else ''}--{name}: {exc}")
        extra = positionals[1:] if self.positional else positionals
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return values, positionals[0] if positionals else None


_CALC = _Parser("ga-calc", "geometric-algebra expression calculator", (
    ("e", "expr", "EXPR", str, None, "evaluate one expression and exit"),
    (None, "script", "FILE", str, None, "script file to evaluate (same as the positional)"),
    (None, "algebra", "P,Q", _algebra_option, (3, 0), "signature, default 3,0"),
    (None, "tolerance", "T", float, DEFAULT_TOLERANCE,
     "coefficient zero threshold, default 1e-10"),
), ("SCRIPT", "script file to evaluate"))

_KEPLER = _Parser("ga-calc kepler", "propagate a Kepler orbit and write CSV", (
    (None, "r0", "X,Y,Z", _vector3, (1.0, 0.0, 0.0), "initial position, default 1,0,0"),
    (None, "v0", "X,Y,Z", _vector3, (0.0, 1.0, 0.0), "initial velocity, default 0,1,0"),
    (None, "m", "M", float, 1.0, "mass, default 1"),
    (None, "k", "K", float, 1.0, "force constant, default 1"),
    (None, "dt", "DT", float, 1e-4, "time step, default 1e-4"),
    (None, "steps", "STEPS", int, 10000, "number of time steps of length DT, default 10000"),
    (None, "record-every", "N", int, 1, "record every Nth step, default 1"),
    (None, "min-radius", "MIN_RADIUS", float, 1e-8, "abort below this radius, default 1e-8"),
    (None, "csv", "PATH", str, None, "write CSV here instead of stdout"),
))


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
        _warn(where + message)
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
    args, script_arg = _CALC.parse(argv)
    if args["script"] and script_arg:
        _CALC.error("give the script either positionally or via --script, not both")
    try:
        algebra = Algebra(*args["algebra"], tolerance=args["tolerance"])
    except ValueError as exc:
        _CALC.error(str(exc))
    session = _Session(algebra)
    if args["expr"] is not None:
        return _run(session, [args["expr"]])
    script = args["script"] or script_arg
    if script is not None:
        with open(script, encoding="utf-8") as fh:
            return _run(session, fh.read().splitlines(), path=script)
    try:
        return _run(session, _prompt_lines(), keep_going=True)
    except KeyboardInterrupt:
        _warn("")
        return 130


def _kepler_main(argv):
    from . import kepler

    args, _ = _KEPLER.parse(argv)
    algebra = Algebra(3, 0)
    state0 = kepler.OrbitState(
        algebra.vector(args["r0"]), algebra.vector(args["v0"]), args["m"], args["k"])
    records = kepler._integrate(
        state0, args["dt"], args["steps"], args["record-every"], args["min-radius"])
    constants = (state0.m, state0.k, algebra.tolerance)
    rows = (kepler._csv_row(*record, *constants) for record in records)
    if args["csv"]:
        with open(args["csv"], "w", encoding="utf-8") as fh:
            kepler._write_rows(rows, fh)
    else:
        kepler._write_rows(rows, sys.stdout)
    return 0


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        if argv and argv[0] == "kepler":
            return _kepler_main(argv[1:])
        return _calc_main(argv)
    except (GAError, OSError) as exc:
        _warn(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
