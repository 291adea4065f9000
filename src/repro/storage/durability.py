"""Crash-safe durability for the measurement store: WAL + snapshots.

The global measurement database is the district's system of record, so
a crash-restart must not lose acknowledged samples.  Durability follows
the classic two-artifact recipe:

* a :class:`WriteAheadLog` — an append-only JSONL file.  Every accepted
  sample is appended (and fsync'd) *before* the delivery is
  acknowledged back to the broker, so an acknowledged sample is on disk
  by definition;
* periodic snapshots (see :func:`repro.persistence.
  save_measurement_state`) — the full store, freshness table and
  idempotent-ingest window written atomically, after which the WAL is
  truncated.

Recovery loads the latest snapshot and replays the WAL tail.  A crash
between "snapshot written" and "WAL truncated" merely replays records
already contained in the snapshot — the persisted dedup window absorbs
them, so recovery is idempotent too.  A torn final line (the crash
interrupting an append) is detected and skipped.

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

from repro.errors import ConfigurationError


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
