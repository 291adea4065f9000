"""Durable state: the one contract every stateful hub node implements.

The district has three stateful hubs — the master (ontology + leases),
the middleware broker (retained events, subscriptions, pending
deliveries, dead letters) and the global measurement database — and
all three are made restartable by the same two-artifact recipe, written
once in :class:`Journal`:

* a :class:`WriteAheadLog` — an append-only JSONL file.  A node appends
  (and fsyncs) every state mutation *before* the acknowledgement it
  enables, so an acknowledged mutation is on disk by definition;
* periodic snapshots — the node's full :meth:`StateMachine.snapshot`
  in one versioned envelope, written to a tmp file, fsync'd and renamed
  into place, after which the WAL is truncated.

Recovery loads the latest snapshot and replays the WAL's intact tail
through :meth:`StateMachine.apply`.  A crash between "snapshot written"
and "WAL truncated" merely replays records the snapshot already
contains; each node's ``apply`` absorbs them (the broker skips records
at or below the snapshot's op sequence, the measurement DB's persisted
dedup window drops the samples), so recovery is idempotent.  A torn
final line (the crash interrupting an append) is detected and skipped;
a torn line in the middle of the log is corruption and raises.

:class:`StateMachine` is the node side of the contract — three
state-transition methods plus the hooks the nodes genuinely differ in —
and is all that :class:`Journal` and
:class:`repro.core.replication.ReplicatedNode` ever call.

:class:`DurabilityConfig` bundles the knobs of
:class:`~repro.storage.measurementdb.MeasurementDatabase`'s ingest path
(WAL, snapshots, consumer-side broker acks, the dedup window and the
bounded ingest queue); without one the store runs
``DurabilityConfig(ack_deliveries=False)`` — volatile and unacked.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.errors import ConfigurationError, SerializationError
from repro.observability.tracing import emit


@dataclass
class DurabilityConfig:
    """Knobs of the measurement DB's durable-ingest path.

    Every field has a safe default; the two paths are the only required
    decisions.  ``wal_path``/``snapshot_path`` may be None to disable
    that artifact (acks, dedup and the bounded queue still apply).
    """

    #: append-only log file; None disables write-ahead logging
    wal_path: Optional[str] = None
    #: periodic full-state snapshot file; None disables snapshots
    snapshot_path: Optional[str] = None
    #: period of persisted snapshots, simulated seconds
    snapshot_period: float = 300.0
    #: subscribe with consumer-side delivery acks (at-least-once)
    ack_deliveries: bool = True
    #: size of the idempotent-ingest key window (recent sample keys)
    dedup_window: int = 4096
    #: bounded ingest queue capacity; None keeps the queue unbounded
    queue_capacity: Optional[int] = None
    #: modelled service time per queued sample (simulated seconds);
    #: 0 ingests synchronously on delivery
    ingest_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.dedup_window < 1:
            raise ConfigurationError("dedup window must hold >= 1 key")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ConfigurationError("ingest queue must hold >= 1 event")
        if self.ingest_delay < 0:
            raise ConfigurationError("ingest delay must be >= 0")
        if self.snapshot_period <= 0:
            raise ConfigurationError("snapshot period must be positive")


@dataclass
class BrokerDurabilityConfig:
    """Knobs of the middleware broker's durable-state path.

    Passing one to :class:`~repro.middleware.broker.Broker` makes the
    broker's retained events, subscription registry, pending acked
    deliveries and dead-letter queue crash-safe: every mutation is
    appended (and fsync'd) to the WAL *before* the pub-ack or fanout it
    enables, and a crash-restart :meth:`~repro.middleware.broker.
    Broker.recover` restores the middleware exactly from the last
    snapshot plus the WAL tail.
    """

    #: append-only log of broker-state mutations; None disables it
    wal_path: Optional[str] = None
    #: periodic full-state snapshot file; None disables snapshots
    snapshot_path: Optional[str] = None
    #: period of persisted snapshots, simulated seconds
    snapshot_period: float = 60.0

    def __post_init__(self) -> None:
        if self.snapshot_period <= 0:
            raise ConfigurationError("snapshot period must be positive")


class WriteAheadLog:
    """Append-only JSONL log with fsync accounting and torn-tail repair.

    Each record is one JSON object per line.  :meth:`append` writes,
    flushes and fsyncs before returning — the caller may acknowledge
    the record as durable once it returns.  :meth:`replay` yields every
    intact record; a torn trailing line (a crash mid-append) is counted
    and skipped, never raised.
    """

    def __init__(self, path: str):
        self.path = path
        self.appends = 0
        self.fsyncs = 0
        self.fsynced_bytes = 0
        self.torn_records_skipped = 0
        self._handle = None

    def _open(self):
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def append(self, record: Dict) -> None:
        """Durably append one record (write + flush + fsync)."""
        line = json.dumps(record, separators=(",", ":")) + "\n"
        handle = self._open()
        handle.write(line)
        handle.flush()
        os.fsync(handle.fileno())
        self.appends += 1
        self.fsyncs += 1
        self.fsynced_bytes += len(line.encode("utf-8"))

    def replay(self) -> Iterator[Dict]:
        """Yield every intact record in append order.

        A torn final line is skipped (and counted); a torn line in the
        middle of the log means corruption beyond a crash mid-append
        and raises.
        """
        if not os.path.exists(self.path):
            return
        with open(self.path, encoding="utf-8") as handle:
            lines = handle.readlines()
        for index, line in enumerate(lines):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                yield json.loads(stripped)
            except json.JSONDecodeError:
                if index == len(lines) - 1:
                    self.torn_records_skipped += 1
                    return
                raise

    def records(self) -> List[Dict]:
        """All intact records as a list (convenience over :meth:`replay`)."""
        return list(self.replay())

    def reset(self) -> None:
        """Truncate the log (called after a successful snapshot)."""
        self.close()
        with open(self.path, "w", encoding="utf-8"):
            pass

    def close(self) -> None:
        """Close the append handle (crash/restart simulation, teardown)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def size_bytes(self) -> int:
        """Current on-disk size of the log."""
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0


def save_state(path: str, format: str, version: int, state: Dict) -> None:
    """Atomically write one versioned snapshot envelope to *path*.

    The bytes are flushed and fsync'd to a tmp file *before* the rename
    makes them the snapshot: every caller truncates its WAL next, so
    the renamed file may be the only durable copy of acknowledged
    state.  A crash mid-write leaves the previous snapshot intact.
    """
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump({"format": format, "version": version, "state": state},
                  handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)  # atomic on POSIX


def load_state(path: str, format: str, version: int) -> Dict:
    """Read the state out of a snapshot envelope written by
    :func:`save_state`.

    An unreadable file, a different *format* or an unknown *version*
    raises :class:`~repro.errors.SerializationError` rather than
    guessing.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            envelope = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot load {path!r}: {exc}") from exc
    if not isinstance(envelope, dict) or envelope.get("format") != format:
        raise SerializationError(f"{path!r} is not a {format} snapshot")
    if envelope.get("version") != version:
        raise SerializationError(
            f"unsupported {format} version {envelope.get('version')!r}"
        )
    return envelope["state"]


class StateMachine:
    """What a stateful hub node implements to be durable and replicable.

    Three state-transition methods — :meth:`snapshot`, :meth:`restore`,
    :meth:`apply` — are the whole contract; :class:`Journal` (crash
    recovery) and :class:`repro.core.replication.ReplicatedNode`
    (standbys) call nothing else, apart from the hooks below, which
    default to no-ops.  Implementations also provide ``host``,
    ``service`` and a ``journal`` attribute.
    """

    #: label used in emitted events and error messages
    kind = "node"
    #: prefix of the promotion/stepdown/fencing metric counters
    metric_prefix = "replication."
    #: this node's :class:`~repro.core.replication.ReplicatedNode`
    #: agent; None while the node runs alone
    replication = None
    journal: "Journal"

    def snapshot(self) -> Dict:
        """The node's full replicable state, as a JSON-able dict."""
        raise NotImplementedError

    def restore(self, state: Dict) -> None:
        """Replace the node's state with a :meth:`snapshot` payload."""
        raise NotImplementedError

    def apply(self, record: Dict):
        """Apply one logged state transition (WAL replay, standby apply).

        Must absorb a record the current state already contains, and
        must arm nothing: a standby applies with its timers disarmed
        (see :meth:`activate`).
        """
        raise NotImplementedError

    def before_snapshot(self) -> None:
        """Fold acknowledged work not yet in the state into it (hook)."""

    def activate(self) -> None:
        """Become the live owner of the state (hook).

        Called on promotion, and by the node itself after crash
        recovery: whatever only the one live primary may do — redelivery
        timers, epoch bumps — starts here.
        """

    def standby(self, host) -> "StateMachine":
        """A fresh, empty node of the same kind and tuning on *host*."""
        raise NotImplementedError

    def write_snapshot(self) -> None:
        """Persist one snapshot now (no-op without a snapshot path)."""
        self.journal.write_snapshot()

    @property
    def snapshots_written(self) -> int:
        """Snapshots persisted so far (a ``/metrics`` counter)."""
        return self.journal.snapshots_written

    def replication_status(self) -> Dict:
        """Role/epoch/lag summary merged into ``/health`` and ``/metrics``.

        A node without standbys reports itself as a lone primary at
        epoch 0 with zero lag, so operators (and the fleet collector)
        read one uniform shape whether or not HA is deployed.
        """
        if self.replication is not None:
            status = self.replication.status()
        else:
            status = {"role": "primary", "epoch": 0, "fenced": False,
                      "replication_lag": 0, "peers": 0}
        status["last_snapshot_age"] = self.journal.last_snapshot_age
        return status


class Journal:
    """The on-disk half of one node's state: optional WAL + snapshots.

    Owns the whole durability algorithm so the nodes do not spell it
    out: append + fsync (``journal.wal.append`` — the node checks
    :attr:`wal` for None on its hot path and nothing else), snapshot
    then truncate (:meth:`write_snapshot`, also on a periodic task),
    load snapshot then replay the intact tail (:meth:`recover`), and
    the two ways of dying — :meth:`crash` (the process loses its file
    handle) and :meth:`discard` (the disk is lost too).  Both
    artifacts are optional; with neither the journal does nothing.
    """

    def __init__(self, node: StateMachine, format: str, version: int,
                 config=None):
        self.node = node
        self.format = format
        self.version = version
        self.wal: Optional[WriteAheadLog] = None
        self.snapshot_path: Optional[str] = None
        self.snapshots_written = 0
        self.last_snapshot_time: Optional[float] = None
        self._snapshot_task = None
        if config is not None:
            self.open(config.wal_path, config.snapshot_path,
                      config.snapshot_period)

    @property
    def _scheduler(self):
        return self.node.host.network.scheduler

    def open(self, wal_path: Optional[str] = None,
             snapshot_path: Optional[str] = None,
             snapshot_period: Optional[float] = None) -> None:
        """Attach the on-disk artifacts and arm the periodic snapshot."""
        if wal_path is not None:
            self.wal = WriteAheadLog(wal_path)
        if snapshot_path is not None:
            self.snapshot_path = snapshot_path
            if self._snapshot_task is None:
                self._snapshot_task = self._scheduler.every(
                    snapshot_period, self.write_snapshot
                )

    @property
    def durable(self) -> bool:
        """True when there is any artifact to recover from."""
        return self.wal is not None or self.snapshot_path is not None

    @property
    def last_snapshot_age(self) -> Optional[float]:
        """Seconds since the last persisted snapshot (None if never)."""
        if self.last_snapshot_time is None:
            return None
        return self._scheduler.now - self.last_snapshot_time

    def write_snapshot(self) -> None:
        """Persist the node's state, then truncate the WAL it covers.

        The order is the safety property: the snapshot is fsync'd and
        renamed into place first, so a crash right after it merely
        replays records the snapshot already contains.
        """
        if self.snapshot_path is None:
            return
        node = self.node
        node.before_snapshot()
        save_state(self.snapshot_path, self.format, self.version,
                   node.snapshot())
        if self.wal is not None:
            self.wal.reset()
        self.snapshots_written += 1
        self.last_snapshot_time = self._scheduler.now
        emit(node.host.network, f"{node.kind}_snapshot",
             host=node.host.name, path=self.snapshot_path,
             **{node.kind: node.host.name})

    def recover(self) -> bool:
        """Crash-restart recovery: load the snapshot, replay the WAL tail.

        Returns False when nothing durable is configured.  A torn final
        WAL line is skipped (and counted by the log); mid-log corruption
        and a snapshot of the wrong format or version raise.
        """
        if not self.durable:
            return False
        if self.snapshot_path is not None \
                and os.path.exists(self.snapshot_path):
            self.node.restore(load_state(self.snapshot_path, self.format,
                                         self.version))
        if self.wal is not None:
            for record in self.wal.replay():
                self.node.apply(record)
        return True

    def rewrite(self) -> None:
        """Make the disk agree with state that was replaced wholesale.

        A resynced replica's artifacts describe the previous epoch: a
        later crash-restart must not resurrect them.  Persist the new
        state (which truncates the WAL) or, with only a WAL, truncate
        the divergent log outright.
        """
        if self.snapshot_path is not None:
            self.write_snapshot()
        elif self.wal is not None:
            self.wal.reset()

    def crash(self) -> None:
        """The process died: its file handle is gone, the files remain."""
        if self.wal is not None:
            self.wal.close()

    def discard(self) -> None:
        """Lose the disk too: a later :meth:`recover` restores nothing."""
        if self.wal is not None:
            self.wal.reset()
        if self.snapshot_path is not None \
                and os.path.exists(self.snapshot_path):
            os.remove(self.snapshot_path)

    def close(self) -> None:
        """Stop the periodic snapshot and release the WAL (teardown)."""
        if self._snapshot_task is not None:
            self._snapshot_task.stop()
            self._snapshot_task = None
        self.crash()
