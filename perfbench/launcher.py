"""``repro-serve`` with per-layer timing wrappers, for the traced run.

Usage::

    python -m perfbench.launcher --probe-out DUMP --ack ACK -- <repro-serve args>

Installs :data:`layers.SERVER_SITES`, then hands over to
``repro.serve.cli.main_serve``.  ``SIGUSR1`` starts a fresh measurement
window and touches ``ACK``; when ``SIGTERM`` makes ``main_serve`` return,
the window is written to ``DUMP`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

from repro.serve.cli import main_serve

from .layers import SERVER_SITES, Probe


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.launcher")
    parser.add_argument("--probe-out", required=True)
    parser.add_argument("--ack", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    probe = Probe()
    probe.install(SERVER_SITES)
    windows = 0

    def new_window(_signum, _frame) -> None:
        nonlocal windows
        probe.reset()
        windows += 1
        Path(args.ack).write_text(f"{windows}\n")

    signal.signal(signal.SIGUSR1, new_window)
    code = main_serve(serve_args)
    Path(args.probe_out).write_text(json.dumps(probe.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main())
