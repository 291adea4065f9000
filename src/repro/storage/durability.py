"""Durable state: the one contract every stateful hub node implements.

The district has three stateful hubs — the master (ontology + leases),
the middleware broker (retained events, subscriptions, pending
deliveries, dead letters) and the global measurement database — and
all three are made restartable by the same two-artifact recipe, written
once in :class:`Journal`:

* a :class:`WriteAheadLog` — an append-only JSONL file.  A node's
  every state mutation is written and fsync'd *before* the
  acknowledgement it enables, so an acknowledged mutation is on disk by
  definition.  The broker syncs each record as it appends it; the
  measurement DB's ingest path *stages* records and the
  :class:`Journal` commits them as a group, one fsync per
  :data:`COMMIT_WINDOW`, acknowledging the whole group only then;
* periodic snapshots — the node's full :meth:`StateMachine.snapshot`
  in one versioned envelope, written to a tmp file, fsync'd and renamed
  into place, after which the WAL is truncated.

Recovery loads the latest snapshot and replays the WAL's intact tail
through :meth:`StateMachine.apply`.  A crash between "snapshot written"
and "WAL truncated" merely replays records the snapshot already
contains; each node's ``apply`` absorbs them (the broker skips records
at or below the snapshot's op sequence, the measurement DB's persisted
dedup window drops the samples), so recovery is idempotent.  A torn
final line (the crash interrupting a write) is detected, skipped and
truncated away before anything is appended behind it; a torn line in
the middle of the log is corruption and raises.

:class:`StateMachine` is the node side of the contract — three
state-transition methods plus the hooks the nodes genuinely differ in —
and is all that :class:`Journal` and
:class:`repro.core.replication.ReplicatedNode` ever call.

:class:`HubConfig` is how a deployment says where a hub's state lives
and who follows it — the same value for all three.
:class:`DurabilityConfig` extends it with the knobs of
:class:`~repro.storage.measurementdb.MeasurementDatabase`'s ingest path
(consumer-side broker acks, the dedup window and the bounded ingest
queue); without one the store runs
``DurabilityConfig(ack_deliveries=False)`` — volatile and unacked.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from repro.errors import ConfigurationError, SerializationError
from repro.observability.tracing import emit

if TYPE_CHECKING:  # the runtime dependency runs the other way
    from repro.core.replication import ReplicationConfig


@dataclass
class HubConfig:
    """Where one hub's state lives and who follows it.

    Master, broker and measurement DB all take this one value: the
    journal artifacts the node's constructor opens and the standbys
    :func:`repro.core.replication.hub_group` puts behind it.  What a
    hub cannot honour is a :class:`~repro.errors.ConfigurationError`,
    never ignored: the master journals snapshots only (no
    ``wal_path``), the measurement DB has no standby yet.
    """

    #: append-only log file; None disables write-ahead logging
    wal_path: Optional[str] = None
    #: periodic full-state snapshot file; None disables snapshots
    snapshot_path: Optional[str] = None
    #: period of persisted snapshots, simulated seconds
    snapshot_period: float = 300.0
    #: standby replicas behind the node; 0 keeps the single node, 1–2
    #: deploy a replicated group whose every client and peer rotates
    #: across the whole member set on failover
    standbys: int = 0
    #: replication timing; None uses the ``ReplicationConfig`` defaults
    #: (only meaningful with ``standbys > 0``)
    replication: Optional[ReplicationConfig] = None

    def __post_init__(self) -> None:
        if self.snapshot_period <= 0:
            raise ConfigurationError("snapshot period must be positive")


@dataclass
class DurabilityConfig(HubConfig):
    """:class:`HubConfig` plus the knobs of the measurement DB's
    durable-ingest path.

    Every field has a safe default; the two paths are the only required
    decisions.  ``wal_path``/``snapshot_path`` may be None to disable
    that artifact (acks, dedup and the bounded queue still apply).
    """

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
        super().__post_init__()
        if self.dedup_window < 1:
            raise ConfigurationError("dedup window must hold >= 1 key")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ConfigurationError("ingest queue must hold >= 1 event")
        if self.ingest_delay < 0:
            raise ConfigurationError("ingest delay must be >= 0")


#: width of one commit group on the measurement DB's ingest path, in
#: simulated seconds.  Replaying districtbench ``ingest_batched`` (seed
#: 17: 372 proxies whose bursts deploy order staggers ~5 ms apart, no two
#: frames in one scheduler instant) gives 4 388 fsyncs per delivery,
#: 2 374 at 10 ms, 592 at 50 ms, 313 at 100 ms and 131 at 250 ms; 0.1 s
#: takes most of that while staying two orders below the 2 s ack
#: timeouts (broker ``delivery_ack_timeout``, publisher ``ack_timeout``)
#: it delays.  A constant, not a knob: there is one path.
COMMIT_WINDOW = 0.1


class WriteAheadLog:
    """Append-only JSONL log with fsync accounting and torn-tail repair.

    Each record is one JSON object per line.  :meth:`stage` holds a
    record in process memory; :meth:`sync` writes everything staged
    with one write, one flush and **one** fsync — the caller may
    acknowledge those records as durable once it returns, and not
    before.  :meth:`append` is the two together for one record.
    :meth:`replay` yields every intact record; a torn trailing line (a
    crash mid-write) is counted, skipped and cut off the file, so the
    next write starts on a record boundary.
    """

    def __init__(self, path: str):
        self.path = path
        self.appends = 0
        self.fsyncs = 0
        self.fsynced_bytes = 0
        self.torn_records_skipped = 0
        #: most records one fsync has covered
        self.group_max = 0
        self._staged: List[str] = []
        self._handle = None

    def _open(self):
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def stage(self, record: Dict) -> None:
        """Hold one record in memory until the next :meth:`sync`."""
        self._staged.append(json.dumps(record, separators=(",", ":")) + "\n")

    def sync(self) -> None:
        """Durably write every staged record: one write, one fsync."""
        staged = self._staged
        if not staged:
            return
        data = "".join(staged)
        handle = self._open()
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
        self.appends += len(staged)
        self.fsyncs += 1
        self.fsynced_bytes += len(data)  # json.dumps output is ASCII
        self.group_max = max(self.group_max, len(staged))
        staged.clear()

    def append(self, record: Dict) -> None:
        """Durably append one record (stage it, then sync)."""
        self.stage(record)
        self.sync()

    def replay(self) -> Iterator[Dict]:
        """Yield every intact record in append order, streaming the file.

        A record is intact when its line parses and ends in a newline.
        A torn final line is skipped, counted and truncated away (the
        truncation is fsync'd) — left in place, the next append would
        be glued onto the fragment and the record it acknowledges lost
        to the recovery after.  A torn line in the middle of the log
        means corruption beyond a crash mid-write and raises.
        """
        if not os.path.exists(self.path):
            return
        intact = 0  # byte offset just past the last intact record
        torn = None
        with open(self.path, "rb") as handle:
            for line in handle:
                if torn is not None:
                    raise torn
                if line.strip():
                    try:
                        if not line.endswith(b"\n"):
                            raise ValueError("unterminated record")
                        record = json.loads(line)
                    except ValueError as exc:  # JSONDecodeError is one
                        torn = exc
                        continue
                    yield record
                intact += len(line)
        if torn is not None:
            self.torn_records_skipped += 1
            with open(self.path, "r+b") as handle:
                handle.truncate(intact)
                handle.flush()
                os.fsync(handle.fileno())

    def records(self) -> List[Dict]:
        """All intact records as a list (convenience over :meth:`replay`)."""
        return list(self.replay())

    def reset(self) -> None:
        """Truncate the log (called after a successful snapshot)."""
        self.close()
        with open(self.path, "w", encoding="utf-8"):
            pass

    def close(self) -> None:
        """Close the append handle and drop whatever is only staged
        (crash/restart simulation, teardown): it was never synced, so
        it was never acknowledged."""
        self._staged.clear()
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

    def committed(self) -> None:
        """Every record staged through :meth:`Journal.stage` is on disk:
        apply and acknowledge what was waiting for that (hook)."""

    def before_snapshot(self) -> None:
        """Fold acknowledged work not yet in the state into it (hook)."""

    def activate(self) -> None:
        """Become the live owner of the state (hook).

        Called on promotion, and by the node itself after crash
        recovery: whatever only the one live primary may do — redelivery
        timers, epoch bumps — starts here.
        """

    def standby(self, name: str) -> "StateMachine":
        """A fresh, empty node of the same kind and tuning on a new
        host *name* of this node's network.  A kind without standbys
        keeps this default: it refuses before any host exists."""
        raise ConfigurationError(f"a {self.kind} node cannot run standbys")

    def write_snapshot(self) -> None:
        """Persist one snapshot now (no-op without a snapshot path)."""
        self.journal.write_snapshot()

    @property
    def snapshots_written(self) -> int:
        """Snapshots persisted so far (a ``/metrics`` counter)."""
        return self.journal.snapshots_written

    def replication_status(self) -> Dict:
        """Role/epoch/lag summary merged into ``/metrics``.

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
    :attr:`wal` for None on its hot path and nothing else), or group
    commit (:meth:`stage` … :meth:`commit`: one fsync per
    :data:`COMMIT_WINDOW`), snapshot then truncate
    (:meth:`write_snapshot`, also on a periodic task), load snapshot
    then replay the intact tail (:meth:`recover`), and the two ways of
    dying — :meth:`crash` (the process loses its file handle and
    whatever it had only staged) and :meth:`discard` (the disk is lost
    too).  Both artifacts are optional; with neither the journal does
    nothing.
    """

    def __init__(self, node: StateMachine, format: str, version: int,
                 config: Optional[HubConfig] = None):
        self.node = node
        self.format = format
        self.version = version
        self.wal: Optional[WriteAheadLog] = None
        self.snapshot_path: Optional[str] = None
        self.snapshots_written = 0
        self.last_snapshot_time: Optional[float] = None
        self._snapshot_task = None
        #: the open commit group's window timer; None = no group open
        self._commit_timer = None
        if config is None:
            return
        if config.wal_path is not None:
            self.wal = WriteAheadLog(config.wal_path)
        if config.snapshot_path is not None:
            self.snapshot_path = config.snapshot_path
            self._snapshot_task = self._scheduler.every(
                config.snapshot_period, self.write_snapshot)

    @property
    def _scheduler(self):
        return self.node.host.network.scheduler

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

    def stage(self, record: Dict) -> None:
        """Add *record* to the open commit group (needs a WAL).

        The first record of a group arms its window timer.  Nothing is
        on disk yet: the node may apply or acknowledge the record only
        from :meth:`StateMachine.committed`.
        """
        self.wal.stage(record)
        if self._commit_timer is None:
            self._commit_timer = self._scheduler.schedule(
                COMMIT_WINDOW, self.commit)

    def commit(self) -> None:
        """Close the open commit group: one fsync, then the node's
        :meth:`StateMachine.committed`.  No-op with no group open.

        Called by the window timer, before a snapshot and at
        :meth:`close` — the three commit points; :meth:`crash` is the
        only other way a group ends, and it drops it.
        """
        timer = self._commit_timer
        if timer is None:
            return
        self._commit_timer = None
        timer.cancel()
        self.wal.sync()
        self.node.committed()

    def write_snapshot(self) -> None:
        """Persist the node's state, then truncate the WAL it covers.

        The order is the safety property: the open commit group is
        committed first (the truncation below would drop its staged
        records while the snapshot persists no trace of them), and the
        snapshot is fsync'd and renamed into place before the WAL is
        truncated, so a crash right after it merely replays records the
        snapshot already contains.
        """
        if self.snapshot_path is None:
            return
        node = self.node
        self.commit()
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
        """The process died: its file handle, its staged records and
        their window timer are gone; the files remain."""
        if self._commit_timer is not None:
            self._commit_timer.cancel()
            self._commit_timer = None
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
        """Commit the open group, stop the periodic snapshot and release
        the WAL (teardown)."""
        self.commit()
        if self._snapshot_task is not None:
            self._snapshot_task.stop()
            self._snapshot_task = None
        self.crash()
