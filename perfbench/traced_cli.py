"""Run one collapsekit command with the span tracer installed.

    python3 perfbench/traced_cli.py SPAN_DIR RUN_ID <collapsekit arguments...>

Installs the wrappers from tracer.py, calls collapsekit.cli.main with the
remaining arguments (exactly what the `collapsekit` console script does), then
writes this process's spans to SPAN_DIR and exits with main's return code.
"""

import sys

import tracer


def main() -> int:
    span_dir, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer.install(span_dir, run_id)
    from collapsekit import cli

    try:
        return cli.main(argv)
    finally:
        tracer.write_spans()


if __name__ == "__main__":
    sys.exit(main())
