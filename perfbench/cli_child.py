"""
Run one raketab command in this process with every public call traced.

    python3 cli_child.py SPANS_JSON PARENT_SPAN_ID RUN_ID <raketab args...>

Wraps the calls listed by spans.traced_calls, times raketab.cli.main as
the "cli.main" span under PARENT_SPAN_ID, writes all spans to SPANS_JSON
and exits with main's exit code.
"""

import sys

import spans


def main():
    spans_path, parent, run_id, *argv = sys.argv[1:]
    import raketab.cli

    tracer = spans.Tracer(run_id, root_parent=parent)
    spans.install(tracer)
    span = tracer.open("cli.main")
    try:
        code = raketab.cli.main(argv)
    finally:
        tracer.close(span)
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
