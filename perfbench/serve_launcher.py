"""Start ``repro serve`` with the layer wrappers installed.

    python3 perfbench/serve_launcher.py --trace 1 --spans-dir DIR \\
        --stats stats.json -- --jobs 2 --port 0 --cache-dir DIR/cache

Everything after ``--`` is passed to ``repro serve``.  With ``--trace
1`` the span wrappers are installed before the service starts; forked
pool workers append their own spans under ``--spans-dir`` after every
task.  When the service has been shut down (``POST /v1/shutdown``) the
launcher writes the service's spans and the peak RSS of the service and
of its largest pool worker to ``--stats``.  A forked worker's peak
includes the pages it shares with the service, so their sum is an upper
bound on the memory the two held together.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hostref  # noqa: E402
import spans  # noqa: E402


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-dir", default="")
    parser.add_argument("--stats", required=True)
    args = parser.parse_args(argv[:split])

    # The client reads the bound URL from the first line the service prints.
    sys.stdout.reconfigure(line_buffering=True)
    recorder = None
    if args.trace:
        recorder = spans.Recorder()
        spans.install(recorder, serve=True, worker_dir=args.spans_dir)

    from repro.cli import main as repro_main

    code = repro_main(["serve", *argv[split + 1 :]])
    if recorder is not None:
        spans.uninstall()
        recorder.dump(os.path.join(args.spans_dir, "service.jsonl"))
    stats = {
        "exit": code,
        "self_kb": hostref.peak_rss_kb(),
        "worker_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    with open(args.stats, "w", encoding="utf-8") as handle:
        json.dump(stats, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
