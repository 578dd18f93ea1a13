"""One benchmark process: import rpsde, build the model, then run one CLI call.

    python3 bench/worker.py --src SRC --model NAME --result FILE [--spans FILE] [-- CLI ARGS]

Writes a JSON record to FILE: the monotonic clock when set-up ended (rpsde
imported and the model built), and, when CLI arguments follow `--`, the exit
code of `rpsde.cli.main`, its wall time and the peak resident memory of this
process. With --spans the call is traced and the spans are written there.
Exits 3 if rpsde is not importable from SRC.
"""

import argparse
import json
import sys
import time
import traceback
from pathlib import Path


def peak_rss_kb() -> int:
    """Peak resident memory of this process image.

    VmHWM is reset by exec, unlike getrusage's ru_maxrss, which also keeps
    the peak of the parent that spawned this process.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--model", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    try:
        import rpsde.cli
        from rpsde.models import catalog_entry
    except ImportError as exc:
        print(f"worker: cannot import rpsde from {src}: {exc}", file=sys.stderr)
        return 3
    if not Path(rpsde.cli.__file__).resolve().is_relative_to(src):
        print(f"worker: rpsde resolved outside {src}: {rpsde.cli.__file__}", file=sys.stderr)
        return 3
    catalog_entry(args.model)
    record = {"setup_done": time.monotonic()}

    if cli_args:
        tracer = None
        if args.spans:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        try:
            rc = rpsde.cli.main(cli_args)
        except Exception:  # a traceback is a failed run, reported, not fatal
            traceback.print_exc()
            rc = -1
        record["wall_s"] = time.perf_counter() - t0
        record["rc"] = rc
        record["peak_rss_kb"] = peak_rss_kb()
        if tracer is not None:
            tracer.write(args.spans)
    Path(args.result).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
