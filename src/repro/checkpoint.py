"""Whole-simulation checkpoint/restore.

A checkpoint is one pickled envelope::

    {"meta": {...}, "payload": <pickled GpuUvmSimulator bytes>}

The *meta* dict is small and self-describing (magic string, schema
version, workload, registry key and shape, engine clock, source
fingerprint); the *payload* is the simulator's state — engine queues,
page tables, memory manager, fault buffer, DMA/PCIe channels, warp
scheduler arrays, chaos RNG streams, obs/analytics counters, lifecycle
machines — but not its input.  A workload the registry built pickles by
reference to its ``(NAME, scale, seed)`` key, and the warp store's
read-only trace columns by reference to that workload's kernel, so
restore fetches the trace from the registry memo (one deterministic
workload build in a fresh process) instead of unpickling it.  A
hand-built workload has no key and rides in the payload by value.
Keeping the payload as opaque bytes inside the envelope means a reader
can validate the meta (schema, fingerprint) *before* paying for — or
crashing on — the full unpickle.

Guarantees and failure handling (see ``docs/robustness.md``):

* **Atomic writes** — temp file + ``os.replace``, so a killed writer
  never leaves a torn checkpoint under the real name.
* **Quarantine, not crash-loop** — a truncated/corrupt file is renamed
  aside as ``<name>.corrupt`` (mirroring the run cache's ``.pkl.corrupt``
  policy) and raises :class:`~repro.errors.CheckpointError`; the caller
  falls back to a fresh run instead of tripping on the same bad file
  forever.
* **Version skew is an error, not a quarantine** — a checkpoint written
  by a different schema or source tree is intact, just unusable here;
  it is left in place (a matching reader may still want it).  The same
  holds when the workload rebuilt from the recorded registry key does
  not have the recorded shape (a foreign tree loaded with
  ``check_fingerprint=False``).
* **Restore is bit-exact** — ``restore_checkpoint(...).resume()`` must
  produce the same ``SimulationResult`` as the uninterrupted run (the
  golden-corpus checkpoint suite enforces this, with and without
  chaos).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import warnings
from functools import lru_cache
from pathlib import Path

from repro.errors import CheckpointError, WorkloadError

__all__ = [
    "MAGIC",
    "SCHEMA_VERSION",
    "SimCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
    "try_load",
    "restore_checkpoint",
    "source_fingerprint",
    "quarantine",
]

MAGIC = "repro-checkpoint"
#: Bump on any change to the envelope layout or meta keys.  Payload
#: compatibility is governed by the source fingerprint instead — any
#: code change invalidates old payloads, which is exactly the contract
#: the bit-identical resume guarantee needs.
SCHEMA_VERSION = 3


@lru_cache(maxsize=1)
def source_fingerprint() -> str:
    """Content hash of the ``repro`` package source: any code change
    invalidates every checkpoint and run-cache entry."""
    root = Path(__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class SimCheckpoint:
    """One captured simulation state: validated meta + payload bytes."""

    __slots__ = ("meta", "payload")

    def __init__(self, meta: dict, payload: bytes) -> None:
        self.meta = meta
        self.payload = payload

    @classmethod
    def capture(cls, sim) -> "SimCheckpoint":
        """Snapshot ``sim`` (a :class:`~repro.simulator.GpuUvmSimulator`).

        Must be called *between* engine events — from the engine's
        checkpoint hook, or while the engine is not running — so the
        queue counters are published and the pickled state is coherent.
        """
        try:
            payload = pickle.dumps(sim, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise CheckpointError(
                "simulation state is not picklable",
                workload=sim.workload.name,
                error=repr(exc),
            ) from exc
        workload = sim.workload
        meta = {
            "magic": MAGIC,
            "schema": SCHEMA_VERSION,
            "fingerprint": source_fingerprint(),
            "workload": workload.name,
            "registry_key": workload.registry_key,
            "shape": workload.shape,
            "engine_now": sim.engine.now,
            "events_processed": sim.engine.events_processed,
            "batches": sim.runtime.batch_stats.num_batches,
        }
        return cls(meta, payload)

    def restore(self):
        """Rebuild the simulator; it resumes via ``sim.resume()``.

        A registry workload is fetched (or rebuilt) first and must have
        the recorded shape: the payload refers to its trace.
        """
        key = self.meta.get("registry_key")
        if key is not None:
            from repro.workloads.registry import build_workload

            try:
                shape = build_workload(*key).shape
            except WorkloadError as exc:
                raise CheckpointError(
                    "checkpoint names an unknown workload",
                    registry_key=key,
                    error=repr(exc),
                ) from exc
            if shape != self.meta.get("shape"):
                raise CheckpointError(
                    "rebuilt workload does not match the checkpoint",
                    registry_key=key,
                )
        try:
            return pickle.loads(self.payload)
        except Exception as exc:
            raise CheckpointError(
                "checkpoint payload failed to unpickle",
                workload=self.meta.get("workload"),
                error=repr(exc),
            ) from exc

    def __repr__(self) -> str:
        meta = self.meta
        return (
            f"SimCheckpoint({meta.get('workload')!r}, "
            f"now={meta.get('engine_now')}, batches={meta.get('batches')})"
        )


def save_checkpoint(sim, path: str | Path) -> Path:
    """Capture ``sim`` and write it to ``path`` atomically."""
    checkpoint = SimCheckpoint.capture(sim)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    envelope = pickle.dumps(
        {"meta": checkpoint.meta, "payload": checkpoint.payload},
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(envelope)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            try:
                tmp.unlink()
            except OSError:
                pass
    return path


def quarantine(path: Path) -> Path | None:
    """Rename a corrupt checkpoint or run-cache entry aside as
    ``<name>.corrupt`` (kept for a post-mortem, never loaded again);
    returns the new path, or ``None`` when the rename failed."""
    target = path.with_name(path.name + ".corrupt")
    try:
        os.replace(path, target)
    except OSError:
        return None
    return target


def load_checkpoint(path: str | Path, check_fingerprint: bool = True) -> SimCheckpoint:
    """Read and validate a checkpoint file.

    Corrupt/truncated files are quarantined (``<name>.corrupt``) and
    raise :class:`~repro.errors.CheckpointError`; schema or fingerprint
    mismatches raise *without* quarantining — the file is intact, just
    written by a different code version.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(
            "checkpoint file unreadable", path=str(path), error=repr(exc)
        ) from exc
    try:
        envelope = pickle.loads(raw)
        meta = envelope["meta"]
        payload = envelope["payload"]
        magic = meta["magic"]
        if not isinstance(payload, bytes):
            raise TypeError("payload is not bytes")
    except CheckpointError:
        raise
    except Exception as exc:
        quarantined = quarantine(path) or path
        raise CheckpointError(
            "corrupt checkpoint quarantined",
            path=str(path),
            quarantined=str(quarantined),
            error=repr(exc),
        ) from exc
    if magic != MAGIC:
        quarantined = quarantine(path) or path
        raise CheckpointError(
            "not a repro checkpoint (bad magic); quarantined",
            path=str(path),
            quarantined=str(quarantined),
            magic=magic,
        )
    if meta.get("schema") != SCHEMA_VERSION:
        raise CheckpointError(
            "checkpoint schema version mismatch",
            path=str(path),
            found=meta.get("schema"),
            expected=SCHEMA_VERSION,
        )
    if check_fingerprint and meta.get("fingerprint") != source_fingerprint():
        raise CheckpointError(
            "checkpoint written by a different source tree",
            path=str(path),
            workload=meta.get("workload"),
        )
    return SimCheckpoint(meta, payload)


def try_load(path: str | Path, check_fingerprint: bool = True) -> SimCheckpoint | None:
    """:func:`load_checkpoint`, degraded to ``None`` + a warning on any
    checkpoint problem — the resume-if-possible entry point."""
    try:
        return load_checkpoint(path, check_fingerprint=check_fingerprint)
    except CheckpointError as exc:
        warnings.warn(
            f"ignoring unusable checkpoint: {exc}",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


def restore_checkpoint(checkpoint):
    """Rebuild a simulator from a :class:`SimCheckpoint` or a file path."""
    if isinstance(checkpoint, (str, Path)):
        checkpoint = load_checkpoint(checkpoint)
    return checkpoint.restore()
