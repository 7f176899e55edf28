"""Run one ga-calc invocation with tracing on; write the span aggregate at exit.

Usage: python3 perfbench/tracechild.py OUT.json SPANS.tsv [ga-calc arguments...]

The traced calc_cli run starts this instead of ``python -m gacalc``. The
aggregate goes to OUT.json; spans are appended to SPANS.tsv, labelled with
the name of OUT.json.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tracing  # noqa: E402


def main():
    out, spans, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import gacalc.cli

    tr = tracing.Tracer()
    tr.install()
    try:
        code = gacalc.cli.main(argv)
    finally:
        tr.uninstall()
        sys.stdout.flush()
        tracing.dump(tr, out)
        tr.write_spans(spans, label=os.path.splitext(os.path.basename(out))[0])
    return code


if __name__ == "__main__":
    sys.exit(main())
