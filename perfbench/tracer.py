"""Spans around the public functions of each gacalc module.

``Tracer.install()`` replaces public functions and methods of the loaded
gacalc modules with wrappers that record a span per call: name, start, end
and the enclosing span. Self time is a span's duration minus the time of
its child spans, accumulated on a stack as calls return. Counts (product
pairs, tokens, CSV rows, ...) are recorded at the same boundaries. Spans
stay in memory, up to a cap, and ``write_spans`` writes them when the run
ends. Nothing under ``src/`` changes; the wrappers live only in the traced
process.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

SPAN_CAP = 200_000

ALGEBRA_PRODUCTS = ("gp", "wedge", "lcontract", "rcontract", "scalar_product")
ALGEBRA_OTHER = ("construct", "add", "unary", "inverse", "exp")
GP_DIMENSIONS = (6, 8, 10, 12)
TIMED = {
    "cli": ("main",),
    "exprs": ("tokenize", "parse", "evaluate"),
    "algebra": ALGEBRA_PRODUCTS + ALGEBRA_OTHER,
    "frames": ("build", "components", "expand", "blade_table"),
    "linops": ("apply", "determinant", "inverse", "factor_isometry"),
    "transforms": ("project", "reject", "reflect", "apply_versor", "rotate",
                   "gram_schmidt"),
    "kepler": ("simulate", "conserved", "write_csv"),
}


def layer_metric_units():
    """Every per-layer metric the traced run reports, name -> (unit, better)."""
    out = {f"import.{m}_s": ("s", "lower") for m in ("python", "gacalc", "numpy")}
    for layer, names in TIMED.items():
        for name in names:
            out[f"{layer}.{name}.calls"] = ("count", "lower")
            out[f"{layer}.{name}.self_s"] = ("s", "lower")
    out["cli.lines"] = ("count", "lower")
    out["exprs.tokens"] = ("count", "lower")
    for name in ALGEBRA_PRODUCTS:
        out[f"algebra.{name}.pairs"] = ("count", "lower")
        out[f"algebra.{name}.kept_frac"] = ("frac", "higher")
        out[f"algebra.{name}.terms_out"] = ("count", "lower")
    out["algebra.gp.ns_per_pair"] = ("ns", "lower")
    for n in GP_DIMENSIONS:
        out[f"algebra.gp.n{n}.self_s"] = ("s", "lower")
    out["kepler.simulate.steps"] = ("count", "lower")
    out["kepler.simulate.records"] = ("count", "lower")
    out["kepler.steps_per_s"] = ("1/s", "higher")
    out["kepler.write_csv.rows"] = ("count", "lower")
    out["kepler.write_csv.bytes"] = ("bytes", "lower")
    out["trace.overhead_frac"] = ("frac", "lower")
    return out


# -- counts computed from operands ---------------------------------------------

def _keys(mv):
    """The bitmask keys of a multivector's terms."""
    terms = getattr(mv, "_terms", None)
    if isinstance(terms, dict):
        return list(terms)
    keys = []
    for indices in mv.terms:
        bits = 0
        for i in indices:
            bits |= 1 << (i - 1)
        keys.append(bits)
    return keys


def _kept(name, ka, kb):
    """Number of blade pairs of (ka x kb) that pass the product's filter."""
    if name == "gp":
        return len(ka) * len(kb)
    if name == "scalar_product":
        return len(set(ka) & set(kb))
    if len(ka) * len(kb) > 4096:
        import numpy as np
        a = np.fromiter(ka, dtype=np.int64)[:, None]
        b = np.fromiter(kb, dtype=np.int64)[None, :]
        if name == "wedge":
            return int(np.count_nonzero((a & b) == 0))
        if name == "lcontract":
            return int(np.count_nonzero((a & ~b) == 0))
        return int(np.count_nonzero((b & ~a) == 0))
    if name == "wedge":
        return sum(1 for x in ka for y in kb if not x & y)
    if name == "lcontract":
        return sum(1 for x in ka for y in kb if not x & ~y)
    return sum(1 for x in ka for y in kb if not y & ~x)


class Tracer:
    """Per-name call counts, total and self time, counters, and a span log."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
        self.counts = defaultdict(float)
        self._child = [0.0]          # child time of each open span; [0] is the root
        self._open = [-1]            # span index of each open span
        self._names = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self._restore = []

    # -- recording ---------------------------------------------------------------

    def wrap(self, name, fn, count=None, before=None):
        """A function that calls fn inside a span called name.

        count(args, result, self_s, ctx) adds counters after the call, with
        ctx = before(args); its own time is kept out of the enclosing span.
        """
        stats = self.stats[name]
        nid = self._names.setdefault(name, len(self._names))
        child, open_ = self._child, self._open
        clock = time.perf_counter
        starts, ends = self.span_start, self.span_end

        def traced(*args, **kwargs):
            ctx = before(args) if before is not None else None
            idx = len(starts)
            if idx < SPAN_CAP:
                self.span_name.append(nid)
                self.span_parent.append(open_[-1])
                starts.append(0.0)
                ends.append(0.0)
            else:
                idx = -1
                self.dropped += 1
            child.append(0.0)
            open_.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                inner = child.pop()
                open_.pop()
                duration = t1 - t0
                child[-1] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - inner
                if idx >= 0:
                    starts[idx] = t0
                    ends[idx] = t1
            if count is not None:
                count(args, result, duration - inner, ctx)
                child[-1] += clock() - t1
            return result

        traced.__wrapped__ = fn
        return traced

    def merge(self, data):
        """Add the aggregate another process wrote with ``aggregate()``."""
        for name, (calls, total, self_s) in data["stats"].items():
            rec = self.stats[name]
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for name, value in data["counts"].items():
            self.counts[name] += value

    def aggregate(self):
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts)}

    def write_spans(self, path, label="main"):
        """Write the span log as TSV: label, id, parent, name, start_ns, dur_ns."""
        names = {v: k for k, v in self._names.items()}
        with open(path, "a", encoding="utf-8") as fh:
            for i in range(len(self.span_start)):
                start, end = self.span_start[i], self.span_end[i]
                fh.write(f"{label}\t{i}\t{self.span_parent[i]}\t"
                         f"{names[self.span_name[i]]}\t{int(start * 1e9)}\t"
                         f"{int((end - start) * 1e9)}\n")
            if self.dropped:
                fh.write(f"{label}\t-1\t-1\tdropped\t0\t{self.dropped}\n")

    # -- patching ----------------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, old))
        setattr(owner, attr, replacement)

    def _patch_function(self, module, attr, name, count=None, before=None):
        """Wrap module.attr and every gacalc module attribute bound to it."""
        fn = getattr(module, attr, None)
        if fn is None:
            return
        traced = self.wrap(name, fn, count, before)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "gacalc" or mod_name.startswith("gacalc."):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, traced)

    def _patch_method(self, cls, attr, name, count=None):
        fn = cls.__dict__.get(attr)
        if fn is None:
            return None
        traced = self.wrap(name, fn, count)
        self._patch(cls, attr, traced)
        return traced

    def install(self):
        """Wrap the public functions of every gacalc module."""
        from gacalc import algebra, cli, exprs, frames, kepler, linops, transforms

        mv, alg = algebra.Multivector, algebra.Algebra
        counts = self.counts

        def product_count(name):
            def count(args, result, self_s, _ctx):
                a, b = args[0], args[1]
                ka = _keys(a)
                kb = _keys(b) if isinstance(b, mv) else [0]    # a real scalar operand
                pairs = len(ka) * len(kb)
                counts[f"algebra.{name}.pairs"] += pairs
                counts[f"algebra.{name}.kept"] += _kept(name, ka, kb)
                if name == "scalar_product":
                    counts[f"algebra.{name}.terms_out"] += 1 if result else 0
                else:
                    counts[f"algebra.{name}.terms_out"] += len(_keys(result))
                if name == "gp":
                    counts[f"algebra.gp.n{a.algebra.n}.self_s"] += self_s
            return count

        for attr, name in (("__mul__", "gp"), ("__xor__", "wedge")):
            fn = mv.__dict__[attr]
            product = self.wrap(f"algebra.{name}", fn, product_count(name))
            scaled = self.wrap("algebra.unary", fn)

            def dispatch(a, b, _product=product, _scaled=scaled):
                return (_product if isinstance(b, mv) else _scaled)(a, b)

            self._patch(mv, attr, dispatch)
        for attr, name in (("left_contract", "lcontract"),
                           ("right_contract", "rcontract"),
                           ("scalar_product", "scalar_product")):
            self._patch_method(mv, attr, f"algebra.{name}", product_count(name))
        self._patch_method(mv, "__init__", "algebra.construct")
        for attr in ("zero", "scalar", "basis_vector", "vector"):
            self._patch_method(alg, attr, "algebra.construct")
        for attr in ("__add__", "__radd__", "__sub__"):
            self._patch_method(mv, attr, "algebra.add")
        for attr in ("__neg__", "__truediv__", "reverse", "__invert__",
                     "grade_involution", "clifford_conjugate", "grade",
                     "even_part", "odd_part"):
            self._patch_method(mv, attr, "algebra.unary")
        self._patch_method(mv, "inverse", "algebra.inverse")
        self._patch_method(mv, "exp", "algebra.exp")

        def token_count(_args, result, _self_s, _ctx):
            counts["exprs.tokens"] += len(result)

        self._patch_function(exprs, "tokenize", "exprs.tokenize", token_count)
        self._patch_function(exprs, "parse", "exprs.parse")
        self._patch_function(exprs, "evaluate", "exprs.evaluate")

        def cli_lines(args, _result, _self_s, _ctx):
            argv = list(args[0]) if args and args[0] is not None else []
            counts["cli.lines"] += _calculator_lines(argv)

        self._patch_function(cli, "main", "cli.main", cli_lines)

        self._patch_method(frames.Frame, "__init__", "frames.build")
        for attr in ("components", "expand", "blade_table"):
            self._patch_method(frames.Frame, attr, f"frames.{attr}")

        self._patch_method(linops.LinearMap, "__call__", "linops.apply")
        self._patch_method(linops.LinearMap, "determinant", "linops.determinant")
        self._patch_method(linops.LinearMap, "inverse", "linops.inverse")
        self._patch_function(linops, "factor_isometry", "linops.factor_isometry")

        for attr in TIMED["transforms"]:
            self._patch_function(transforms, attr, f"transforms.{attr}")

        def simulate_count(args, result, _self_s, _ctx):
            counts["kepler.simulate.steps"] += args[2]
            counts["kepler.simulate.records"] += len(result)

        def stream_position(args):
            try:
                return args[1].tell()
            except (AttributeError, OSError, ValueError):
                return None

        def csv_count(args, _result, _self_s, start):
            counts["kepler.write_csv.rows"] += len(args[0])
            if start is not None:
                try:
                    counts["kepler.write_csv.bytes"] += args[1].tell() - start
                except (OSError, ValueError):
                    pass

        self._patch_function(kepler, "simulate", "kepler.simulate", simulate_count)
        self._patch_function(kepler, "conserved", "kepler.conserved")
        self._patch_function(kepler, "write_csv", "kepler.write_csv", csv_count,
                             before=stream_position)

    def uninstall(self):
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- results -----------------------------------------------------------------

    def metrics(self):
        """Per-layer values for every traced name (import and overhead excluded)."""
        out = {}
        for layer, names in TIMED.items():
            for name in names:
                calls, _total, self_s = self.stats.get(f"{layer}.{name}", (0, 0.0, 0.0))
                out[f"{layer}.{name}.calls"] = calls
                out[f"{layer}.{name}.self_s"] = self_s
        c = self.counts
        out["cli.lines"] = c["cli.lines"]
        out["exprs.tokens"] = c["exprs.tokens"]
        for name in ALGEBRA_PRODUCTS:
            pairs = c[f"algebra.{name}.pairs"]
            out[f"algebra.{name}.pairs"] = pairs
            out[f"algebra.{name}.kept_frac"] = (
                c[f"algebra.{name}.kept"] / pairs if pairs else 0.0)
            out[f"algebra.{name}.terms_out"] = c[f"algebra.{name}.terms_out"]
        gp_pairs = c["algebra.gp.pairs"]
        out["algebra.gp.ns_per_pair"] = (
            out["algebra.gp.self_s"] * 1e9 / gp_pairs if gp_pairs else 0.0)
        for n in GP_DIMENSIONS:
            out[f"algebra.gp.n{n}.self_s"] = c[f"algebra.gp.n{n}.self_s"]
        out["kepler.simulate.steps"] = c["kepler.simulate.steps"]
        out["kepler.simulate.records"] = c["kepler.simulate.records"]
        simulate_total = self.stats.get("kepler.simulate", (0, 0.0, 0.0))[1]
        out["kepler.steps_per_s"] = (
            c["kepler.simulate.steps"] / simulate_total if simulate_total else 0.0)
        out["kepler.write_csv.rows"] = c["kepler.write_csv.rows"]
        out["kepler.write_csv.bytes"] = c["kepler.write_csv.bytes"]
        return out


def _calculator_lines(argv):
    """Lines a calculator invocation evaluates: 1 for -e, a script's line count."""
    if not argv or argv[0] == "kepler":
        return 0
    for i, arg in enumerate(argv):
        if arg.startswith(("-e", "--expr")):
            return 1
        if arg == "--script" and i + 1 < len(argv):
            return _count_lines(argv[i + 1])
        if arg.startswith("-"):
            continue
        if i > 0 and argv[i - 1] in ("--algebra", "--tolerance"):
            continue
        return _count_lines(arg)
    return 0


def _count_lines(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return sum(1 for _ in fh)
    except OSError:
        return 0


def dump(tracer, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.aggregate(), fh)
