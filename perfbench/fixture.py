"""The history the fabric and the service start from.

A long-lived deployment does not serve an empty store: it holds the
results and the ledger of every sweep it ran before.  The fixture is
that history at the scale of a 10^4-point store -- ``HISTORY_SWEEPS``
prior sweeps of cheap batch points, computed and published through the
program's own ``SweepRunner`` and ledgered through its public ledger
API (scheduled, submitted, claimed, done), once in each layout:

* ``ledger/`` -- the sharded layout, compacted into its snapshot, as
  ``fabric-sweep``'s coordinator (compaction on) leaves it;
* ``ledger.jsonl`` -- the default single-file layout ``serve-read``
  serves.

The history is a fixed input (it does not depend on ``--seed``), so it
is built once per checkout and program version under ``.bench_build``
and every run starts from a fresh copy of it (:func:`copy_history`);
building it is not part of any measured set-up.  The program itself
writes the history (store files, index sidecar, ledger records,
snapshot), so the cache is keyed by a digest of the program's sources:
a program version is never measured on a history another version
wrote.  The build runs in a child process (``python3
perfbench/fixture.py DIR``), so it adds nothing to the memory of the
process that measures.

    python3 perfbench/fixture.py DIR
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

from common import SRC, WORK, child_env

#: Bump when the history's content changes, so stale caches rebuild.
VERSION = 1
HISTORY_POINTS = 10_000
HISTORY_SWEEPS = 10
#: Trajectories per history point: results are real but cheap.
HISTORY_RUNS = 16
HISTORY_SEED = 977


def history_specs():
    from repro.core.parameters import ModelParameters
    from repro.scenario.spec import ScenarioSpec, SweepSpec

    base = ScenarioSpec(
        name="history",
        params=ModelParameters(core_size=7, spare_max=7, k=1, mu=0.2, d=0.9),
        engine="batch",
        runs=HISTORY_RUNS,
        seed=HISTORY_SEED,
    )
    return SweepSpec(
        base=base, axes=(("seed", tuple(range(HISTORY_POINTS))),)
    ).expand()


def _build(target: pathlib.Path) -> None:
    from repro.distributed.ledger import open_ledger
    from repro.distributed.service import sweep_id
    from repro.scenario.runner import SweepRunner

    specs = history_specs()
    SweepRunner(cache_dir=target / "store").sweep(specs, collect=False)
    per_sweep = HISTORY_POINTS // HISTORY_SWEEPS
    sweeps = {}
    for layout in ("ledger", "ledger.jsonl"):
        with open_ledger(target / layout) as ledger:
            for start in range(0, HISTORY_POINTS, per_sweep):
                chunk = specs[start : start + per_sweep]
                keys = [spec.key() for spec in chunk]
                sweep = sweep_id(keys)
                sweeps[sweep] = len(keys)
                ledger.record_scheduled(chunk, already_scheduled=set(), sweep=sweep)
                ledger.record_submitted(sweep, keys, name=f"history-{start}")
                for key in keys:
                    ledger.record_claimed(key, "history-worker")
                    ledger.record_done(key, "history-worker", elapsed=0.001)
            if layout == "ledger":
                ledger.compact()
    (target / "manifest.json").write_text(
        json.dumps({"points": HISTORY_POINTS, "sweeps": sweeps})
    )


def program_digest() -> str:
    """SHA-256 over the paths and bytes of every program source file."""
    digest = hashlib.sha256()
    package = SRC / "repro"
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(package).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def ensure_history() -> pathlib.Path:
    """The cached history of this program version, built on first use."""
    target = WORK / f"history-v{VERSION}-{program_digest()[:16]}"
    if (target / "manifest.json").is_file():
        return target
    building = WORK / f"history-building-{os.getpid()}"
    shutil.rmtree(building, ignore_errors=True)
    building.mkdir(parents=True)
    subprocess.run(
        [sys.executable, __file__, str(building)],
        check=True,
        env=child_env(),
        stdout=subprocess.DEVNULL,
        timeout=840,
    )
    shutil.rmtree(target, ignore_errors=True)
    os.replace(building, target)
    return target


def copy_history(history: pathlib.Path, into: pathlib.Path, ledger: str) -> None:
    """A private, writable copy of the store plus one ledger layout.

    Result files are immutable once published (writers replace, never
    rewrite), so they are hard-linked; the index sidecar and the
    ledger are appended to and are copied.  The file system is then
    flushed: the links, the copies and the removal of the previous
    copy are ~10^4 metadata updates, which would otherwise be
    committed by the first ``fsync`` inside a timed window.
    """
    store = into / "store"
    store.mkdir(parents=True)
    for entry in os.scandir(history / "store"):
        if entry.name.endswith(".json"):
            os.link(entry.path, store / entry.name)
        else:
            shutil.copy2(entry.path, store / entry.name)
    source = history / ledger
    if source.is_dir():
        shutil.copytree(source, into / ledger)
    else:
        shutil.copy2(source, into / ledger)
    os.sync()


def manifest(history: pathlib.Path) -> dict:
    return json.loads((history / "manifest.json").read_text())


if __name__ == "__main__":
    _build(pathlib.Path(sys.argv[1]))
