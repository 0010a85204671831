"""Set-up of a fresh process, timed from outside (the ``setup_s`` metric).

``run.py`` starts this script as a new interpreter with an empty kernel
cache and times it from process start until it prints ``READY``.  That
covers what a user's first request waits for:

* ``inproc``  — import ``repro``, fill the experiment registry, compile
  and load the kernel;
* ``service`` — the same, then open the store in a fresh cache directory
  and bind ``repro serve``'s server;
* ``fleet``   — the same as ``inproc``, then start the fleet server and
  spawn two ``repro worker`` processes and wait until both registered.

After ``READY`` it tears everything down untimed and exits 0.

Usage: ``python3 perfbench/setup_probe.py <kind> <scratch-dir>``
"""

from __future__ import annotations

import os
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str]) -> int:
    kind, scratch = argv
    sys.path.insert(0, str(ROOT / "src"))
    import repro.api  # noqa: F401 - the import is part of what is timed
    from repro.harness.spec import list_experiments
    from repro.uarch.compiled import build

    list_experiments()
    build.load_kernel()
    closers = []
    if kind == "service":
        from repro.api import Session, make_server

        os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(dir=scratch)
        session = Session(jobs="auto", backend="compiled")
        session.cache
        server = make_server("127.0.0.1", 0, session=session)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        closers += [server.shutdown, server.server_close, session.close]
    elif kind == "fleet":
        from repro.api import FleetExecutor

        fleet = FleetExecutor(workers=2)
        closers.append(fleet.close)
        fleet.ensure_started()
        deadline = time.monotonic() + 60
        while fleet.broker.worker_count() < 2:
            if time.monotonic() > deadline:
                print("fleet workers did not register within 60 s",
                      file=sys.stderr)
                fleet.close()
                return 1
            time.sleep(0.005)
    elif kind != "inproc":
        print(f"unknown set-up kind {kind!r}", file=sys.stderr)
        return 2
    print("READY", flush=True)
    for close in closers:
        close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
