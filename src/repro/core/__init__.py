"""RENO: the rename-based instruction optimizer (the paper's contribution).

RENO is a modified MIPS-R10000 register renamer, augmented with physical
register reference counting, that uses map-table "short-circuiting" to
implement dynamic versions of classic static optimizations:

* **RENO_ME** — dynamic move elimination,
* **RENO_CF** — dynamic constant folding of register-immediate additions via
  an extended ``logical → [physical : displacement]`` map table and cheap
  operation fusion (3-input adders),
* **RENO_CSE+RA** — dynamic common-subexpression elimination and speculative
  memory bypassing (register integration) via an integration table.

The package provides:

* :class:`~repro.core.config.RenoConfig` — which optimizations are enabled and
  how (including the paper's division-of-labor policies),
* :class:`~repro.core.renamer.RenoRenamer` — the renamer that plugs into the
  :class:`repro.uarch.core.Pipeline`,
* :func:`~repro.core.simulator.simulate` /
  :func:`~repro.core.simulator.simulate_workload` — one-call helpers that run
  the functional simulator and the timing pipeline together and verify the
  timing run's final architectural state against the functional one.
  Several RENO configurations compare on one workload by passing one
  functional run as ``trace=`` to each :func:`~repro.core.simulator.simulate`.
"""

from repro.core.config import RenoConfig
from repro.core.refcount import ReferenceCountManager, ReferenceCountError
from repro.core.maptable import ExtendedMapTable, Mapping
from repro.core.integration import IntegrationTable, IntegrationEntry
from repro.core.fusion import fusion_extra_latency
from repro.core.renamer import RenoRenamer
from repro.core.simulator import simulate, simulate_workload

__all__ = [
    "RenoConfig",
    "ReferenceCountManager",
    "ReferenceCountError",
    "ExtendedMapTable",
    "Mapping",
    "IntegrationTable",
    "IntegrationEntry",
    "fusion_extra_latency",
    "RenoRenamer",
    "simulate",
    "simulate_workload",
]
