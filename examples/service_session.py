"""The `repro.api` facade end to end: jobs, coalescing, checkpointed slices.

Demonstrates the three pieces of the public API:

1. a ``Session`` running experiment jobs with per-cell progress and
   content-addressed coalescing of identical submissions,
2. the same session driven over HTTP through an in-process
   ``repro serve`` server (what ``python -m repro serve`` runs), and
3. incremental simulation: a pipeline advanced in bounded cycle slices,
   checkpointed to disk after each one and resumed from that file by a
   freshly built pipeline, finishing byte-identical to a one-shot run.

Run with:  python examples/service_session.py
"""

import json
import tempfile
import threading
import urllib.request

from repro.api import ExperimentRequest, PipelineSnapshot, Session, make_server
from repro.functional.simulator import FunctionalSimulator
from repro.uarch.config import MachineConfig
from repro.uarch.core import Pipeline
from repro.workloads.base import get_workload

WORKLOADS = ["gzip_like", "vortex_like"]


def progress(job, grid_key, cached):
    state = "cache" if cached else "ran"
    print(f"  [{job.status().cells_done}/{job.cells_total}] {grid_key} ({state})")


def main():
    cache_dir = tempfile.mkdtemp(prefix="repro-example-")

    print("== 1. Session jobs with progress and coalescing ==")
    with Session(jobs="auto", cache=cache_dir) as session:
        request = ExperimentRequest("fig8", suite="specint", workloads=WORKLOADS)
        job = session.submit(request, on_progress=progress)
        twin = session.submit(request)          # identical & in flight
        print("coalesced onto one job:", twin is job)
        print(job.result())

        print("\n== 2. The same session over HTTP ==")
        server = make_server(port=0, session=session)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        body = json.dumps(request.to_dict()).encode()
        submitted = json.loads(urllib.request.urlopen(urllib.request.Request(
            f"http://{host}:{port}/experiments", data=body,
            headers={"Content-Type": "application/json"})).read())
        status = json.loads(urllib.request.urlopen(
            f"http://{host}:{port}/jobs/{submitted['job_id']}?wait=60").read())
        print(f"job {status['job_id']}: {status['state']}, "
              f"{status['cells_cached']}/{status['cells_total']} cells from cache")
        server.shutdown()
        server.server_close()

    print("\n== 3. Checkpointed incremental simulation ==")
    program = get_workload("mcf_like").build(1)
    trace = FunctionalSimulator(program).run().trace
    one_shot = Pipeline(program, trace, MachineConfig.default_4wide()).run()
    checkpoint = f"{cache_dir}/mcf.ckpt"
    pipeline = Pipeline(program, trace, MachineConfig.default_4wide())
    while not (sliced := pipeline.run(max_cycles=500)).finished:
        pipeline.snapshot().save(checkpoint)
        print(f"  slice -> cycle {sliced.stats.cycles}, "
              f"{sliced.stats.committed}/{len(trace)} retired")
        # Resume from disk, as a new process would after a crash.
        pipeline = Pipeline(program, trace, MachineConfig.default_4wide())
        pipeline.restore(PipelineSnapshot.load(checkpoint))
    print("sliced == one-shot:", sliced.stats == one_shot.stats)


if __name__ == "__main__":
    main()
