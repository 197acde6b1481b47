"""Traced entry for one process of the cli-cold workload.

Installs the benchmark's wrappers, calls ``provmod.cli.main(argv)``, and
writes the process's spans to REPORT.spans.gz and its layer totals to
REPORT.json, also when the command dies with an exception.

Usage: python3 perfbench/cli_entry.py --report REPORT --op N -- CLI-ARGS...
"""

from __future__ import annotations

import json
import sys

import tracing


def main(argv):
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    report = own[own.index("--report") + 1]
    tracer = tracing.install()
    tracer.op = int(own[own.index("--op") + 1])
    from provmod import cli
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(report + ".spans.gz")
        out = dict(tracer.summary(), spans=report + ".spans.gz")
        with open(report + ".json", "w", encoding="utf-8") as fh:
            json.dump(out, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
