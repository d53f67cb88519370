"""One measured ``intdist`` CLI invocation in this fresh interpreter.

Usage: python3 child.py --src DIR [--import-only] [--trace] -- CLI_ARGS...

Times ``import intdist.cli`` and then ``intdist.cli.main(CLI_ARGS)``, with the
CLI's standard output captured in memory, and prints one JSON object as the
last line: import and run wall times, the exit code, the peak resident set
size of this process, the parsed jsonl rows, and the spans when tracing.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import intdist.cli
    import_s = time.perf_counter() - start
    if src not in Path(intdist.cli.__file__).resolve().parents:
        print(f"intdist was imported from {intdist.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    report = {"import_s": import_s}
    if args.import_only:
        print(json.dumps(report))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer  # found beside this file, on sys.path[1]
        tracer = Tracer()
        tracer.install()

    out = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = intdist.cli.main(cli_args)
    except Exception:  # a crash of the program under test is a measured outcome
        code, error = None, traceback.format_exc()
    sweep_s = time.perf_counter() - start

    rows = []
    for line in out.getvalue().splitlines()[1:]:  # the first line echoes the config
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError:
            error = error or f"unparseable output line: {line[:200]}"
    report.update({
        "exit_code": code,
        "error": error,
        "sweep_s": sweep_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rows": rows,
    })
    if tracer is not None:
        report["spans"] = tracer.spans
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
