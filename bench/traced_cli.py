"""Run one fourierineq CLI invocation under the benchmark's tracer.

Usage: python3 bench/traced_cli.py SUMMARY_JSON CLI_ARG...

Writes the process's per-layer totals (self times and counters) to
SUMMARY_JSON and exits with the CLI's exit code.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    summary, args = sys.argv[1], sys.argv[2:]
    import fourierineq.cli as cli
    tracer = Tracer()
    tracer.install()
    tracer.op_id = 0
    try:
        code = cli.main(args)
    except SystemExit as exc:  # argparse rejects malformed arguments so
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals()
    totals.update(tracer.counts)
    with open(summary, "w") as fh:
        json.dump(totals, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
