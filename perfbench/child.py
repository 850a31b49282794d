"""One holderforms CLI invocation in a fresh interpreter, measured.

    python3 perfbench/child.py --result FILE [--trace] [--import-only] \
        -- <holderforms arguments>

Times ``import holderforms.cli`` (setup), then ``cli.main`` (wall and
process CPU time), and writes those, the process's peak resident set and,
with ``--trace``, the span snapshot to FILE as JSON.  The CLI's own output
goes to stdout unchanged; the parent reads the PASS/FAIL lines from it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--result", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--import-only", action="store_true")
    p.add_argument("argv", nargs="*")
    opts = p.parse_args()

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import holderforms.cli as cli
    setup_s = time.perf_counter() - t0
    import holderforms
    import numpy
    if not Path(holderforms.__file__).resolve().is_relative_to(SRC):
        print(f"holderforms imported from {holderforms.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 3
    out = {"setup_s": setup_s, "numpy": numpy.__version__}

    if not opts.import_only:
        entry = cli.main  # unwrapped: a span around main would cover all
        recorder = None
        if opts.trace:
            import tracer
            recorder = tracer.Tracer()
            tracer.install(recorder)
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            rc = entry(opts.argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        out.update(rc=rc, wall_s=time.perf_counter() - w0,
                   cpu_s=time.process_time() - c0)
        if recorder is not None:
            out["trace"] = recorder.snapshot()
        sys.stdout.flush()
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(opts.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
