"""Run one barhom CLI operation in this fresh interpreter and measure it.

    python3 -I perfbench/child.py --src SRC --stdout FILE [--spans FILE] -- CLI-ARGS...

The operation is ``barhom.cli.main(CLI-ARGS)`` with the CLI's standard output
sent to FILE.  Its clock starts after ``import barhom.cli`` and stops once the
output is flushed.  The last line printed is one JSON object: exit code,
traceback (if any), wall and CPU seconds, and the peak RSS of this process (VmHWM).
With ``--spans`` the operation runs under ``tracer.Tracer``, the summary is
added to the JSON object and the spans are written to that file afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_kb() -> int:
    """Peak RSS of this process since it was started.  ``ru_maxrss`` would
    also count the parent's RSS at the time of the fork."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--stdout", required=True)
    parser.add_argument("--spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import barhom.cli

    if not os.path.abspath(barhom.cli.__file__).startswith(src + os.sep):
        print(f"barhom was imported from {barhom.cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.spans:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    error = None
    with open(args.stdout, "w", encoding="utf-8") as out:
        wall0, cpu0 = time.perf_counter(), _cpu()
        try:
            with redirect_stdout(out):
                rc = barhom.cli.main(cli_args)
                out.flush()
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc, error = None, traceback.format_exc()
        wall, cpu = time.perf_counter() - wall0, _cpu() - cpu0

    result = {
        "rc": rc,
        "error": error,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_kb": _peak_rss_kb(),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
