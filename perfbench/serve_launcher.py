"""Start ``repro-sim serve`` with the benchmark's span recorder installed.

Usage::

    python3 perfbench/serve_launcher.py TRACE_DIR|- REPRO_SIM_ARGS...

With a trace directory, the recorder wraps the daemon's layer
boundaries (disabled at first) and a watcher thread enables it once
``TRACE_DIR/enable`` exists, acknowledging with ``TRACE_DIR/enabled``.
When the daemon exits (SIGTERM drains it), the spans are written to
``TRACE_DIR/daemon.json``.  With ``-`` nothing is wrapped.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import common


def _watch(recorder, trace_dir: Path, stop: threading.Event) -> None:
    while not stop.wait(0.01):
        if (trace_dir / "enable").exists():
            recorder.enabled = True
            (trace_dir / "enabled").touch()
            return


def main(argv: list[str]) -> int:
    trace_arg, *cli_args = argv
    common.use_checkout_sources()
    from repro.cli import main as repro_main

    if trace_arg == "-":
        return repro_main(cli_args)
    import spans

    trace_dir = Path(trace_arg)
    recorder = spans.Recorder()
    spans.install(recorder)
    stop = threading.Event()
    watcher = threading.Thread(target=_watch, args=(recorder, trace_dir, stop), daemon=True)
    watcher.start()
    try:
        return repro_main(cli_args)
    finally:
        stop.set()
        watcher.join(timeout=5)
        recorder.enabled = False
        recorder.dump(trace_dir / "daemon.json")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
