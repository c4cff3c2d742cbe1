"""Distributed sweep fabric: coordinator/worker execution + serving.

The single-host :class:`~repro.scenario.runner.SweepRunner` fans a grid
over local processes; this package fans it over *hosts*:

* :mod:`~repro.distributed.protocol` -- length-prefixed JSON frames
  (CLAIM / ASSIGN / RESULT / HEARTBEAT / SHUTDOWN) over TCP;
* :mod:`~repro.distributed.ledger` -- a durable, replayable job queue
  keyed by each point's sha256 content address: one ledger class over
  a snapshot plus segment files -- a JSONL file is one segment that
  never compacts, a directory holds one shard per sweep and compacts;
* :mod:`~repro.distributed.coordinator` -- expands a sweep, hands
  points to any number of workers, folds results into the shared
  content-addressed store, and resumes after a crash from the ledger;
* :mod:`~repro.distributed.worker` -- claims points and executes them
  through the registered ``ENGINES`` backends (byte-identical to the
  in-process runner: seeds come from the spec, not the host);
* :mod:`~repro.distributed.service` -- a stdlib-only HTTP service over
  the store and ledger (results, reports, progress, submit, cancel)
  for many concurrent clients;
* :mod:`~repro.distributed.faults` -- deterministic, seeded fault
  injection at named points of all of the above (the robustness
  suites script exact failure schedules with it).

CLI entry points: ``repro sweep-coordinator``, ``repro worker``,
``repro serve``.

Exports resolve lazily (PEP 562): the store layer imports the
dependency-free :mod:`faults` module from this package, so importing
the package must not eagerly pull in the coordinator (which imports
the store right back).
"""

from typing import Any

_EXPORTS = {
    "FaultPlan": "repro.distributed.faults",
    "FaultRule": "repro.distributed.faults",
    "LedgerState": "repro.distributed.ledger",
    "MAX_FRAME_BYTES": "repro.distributed.protocol",
    "ProtocolError": "repro.distributed.protocol",
    "ResultsService": "repro.distributed.service",
    "SweepCoordinator": "repro.distributed.coordinator",
    "SweepLedger": "repro.distributed.ledger",
    "decode_frame": "repro.distributed.protocol",
    "encode_frame": "repro.distributed.protocol",
    "open_ledger": "repro.distributed.ledger",
    "read_frame": "repro.distributed.protocol",
    "run_worker": "repro.distributed.worker",
    "worker_loop": "repro.distributed.worker",
    "write_frame": "repro.distributed.protocol",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
