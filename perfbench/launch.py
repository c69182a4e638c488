"""Run one karlin-rsm CLI call in this process and time its import and its main().

    python launch.py TIMING.json [--spans SPANS.json --workload NAME] -- CLI-ARGS...

Writes {"import_s", "main_s"} to TIMING.json.  With --spans, every public
function of the package is traced (see tracer.py) and the spans are written
to SPANS.json when main() returns.  Exits with main()'s exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("timing")
    parser.add_argument("--spans")
    parser.add_argument("--workload", default="")
    args = parser.parse_args(argv[:split])

    t0 = time.perf_counter()
    import karlin_rsm.cli as cli
    t1 = time.perf_counter()
    tracer = None
    if args.spans:
        import tracer as tracing

        tracer = tracing.Tracer(args.workload)
        tracing.install(tracer)
    t2 = time.perf_counter()
    code = cli.main(argv[split + 1:])
    t3 = time.perf_counter()
    with open(args.timing, "w") as fh:
        json.dump({"import_s": t1 - t0, "main_s": t3 - t2}, fh)
    if tracer is not None:
        with open(args.spans, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
