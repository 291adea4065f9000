"""Replication core: log streaming, epoch-fenced failover, rejoin.

The paper makes the master the *unique entry point* of the district —
which makes it the unique point of failure too.  This module keeps the
entry point logically unique while physically replicating it, and
puts the machinery in one concrete :class:`ReplicatedNode` agent that
is handed any :class:`~repro.storage.durability.StateMachine` — the
master, the middleware broker — so every hub node gets the same
guarantees from the same code:

* a **primary** accepts writes, appends each one to a replication log
  and streams the entries (plus periodic full state snapshots) to 1–2
  **standby** replicas over the simulated network;
* standbys apply the log to their own state and serve read-only
  queries — reads survive the primary;
* when the primary misses heartbeats, a deterministic **seniority
  failover** promotes the most senior live standby: each member owns a
  static rank, and standby *r* waits ``failover_timeout + r *
  promotion_stagger`` simulated seconds of primary silence before
  promoting itself with a bumped **epoch** — no wall clock, no votes,
  fully reproducible.  Ranks never collide, so no two members can ever
  promote into the same epoch: the most senior silent standby always
  moves first, juniors only when it is dead too (a deposed original
  primary re-enters the line at its own rank 0, the most senior);
* **epoch fencing** makes a healed partition safe: every replication
  message carries the sender's epoch, receivers reject anything from an
  older epoch, and a deposed primary that learns of a newer epoch steps
  down and resyncs from the new primary's snapshot.

The no-split-brain invariant
----------------------------

A primary that cannot reach *any* standby **fences itself**: after
``fencing_timeout`` seconds without a replication ack it rejects writes
with :class:`~repro.errors.NotPrimaryError` (a retryable 503 on the
wire).  Because the configuration enforces

``fencing_timeout + heartbeat_period <= failover_timeout``

the old primary is read-only *before* the most senior standby's
failover timer can fire, so at no point do two replicas accept writes
concurrently — a healed partition cannot split-brain the state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import (
    ConfigurationError,
    NetworkError,
    NotPrimaryError,
    ReproError,
)
from repro.network.webservice import (
    POST,
    HttpClient,
    Request,
    Response,
    ok,
)
from repro.observability.tracing import emit
from repro.storage.durability import HubConfig, StateMachine

PRIMARY = "primary"
STANDBY = "standby"


@dataclass
class ReplicationConfig:
    """Timing knobs of a replication group (simulated seconds)."""

    #: primary -> standby heartbeat/stream period
    heartbeat_period: float = 2.0
    #: primary self-fences after this long without any standby ack
    fencing_timeout: float = 6.0
    #: a standby promotes after this long without primary contact
    #: (plus its rank's stagger)
    failover_timeout: float = 8.0
    #: extra wait per seniority rank, so exactly one standby promotes
    promotion_stagger: float = 4.0
    #: period of snapshot streaming to the standbys (persisting a
    #: snapshot is the journal's schedule, ``HubConfig.snapshot_period``)
    snapshot_period: float = 30.0

    def __post_init__(self) -> None:
        if self.heartbeat_period <= 0:
            raise ConfigurationError("heartbeat period must be positive")
        if self.fencing_timeout <= self.heartbeat_period:
            raise ConfigurationError(
                "fencing timeout must exceed the heartbeat period"
            )
        if self.fencing_timeout + self.heartbeat_period \
                > self.failover_timeout:
            raise ConfigurationError(
                "no-split-brain invariant violated: need fencing_timeout "
                "+ heartbeat_period <= failover_timeout so a cut-off "
                "primary fences itself before any standby can promote"
            )
        if self.promotion_stagger < 0:
            raise ConfigurationError("promotion stagger must be >= 0")
        if self.snapshot_period <= 0:
            raise ConfigurationError("snapshot period must be positive")


class ReplicatedNode:
    """One member of a replication group: the agent beside a node.

    Owns role/epoch/fencing/sequence bookkeeping, the ``/replicate``
    route, the periodic tick (heartbeats and fencing on the primary,
    failure detection on standbys) on the DES scheduler, and the
    write-path gates.  Its role/epoch/lag fields reach ``/metrics``
    through the node's ``replication_status()``.  Everything it does to
    the node goes through the :class:`~repro.storage.durability.
    StateMachine` contract: ``snapshot`` / ``restore`` / ``apply``,
    the ``activate`` hook at promotion, and the node's journal.
    """

    def __init__(self, node: StateMachine, rank: int,
                 config: ReplicationConfig):
        self.node = node
        self.host = node.host
        self.name = node.host.name
        self.uri = node.service.base_uri
        #: target-kind label used in emitted events and error messages
        self.kind = node.kind
        self.rank = rank
        self.config = config
        self.role = PRIMARY if rank == 0 else STANDBY
        self.epoch = 0
        self.fenced = False
        #: last log sequence appended (primary) — monotone per epoch chain
        self.log_seq = 0
        #: last log sequence applied locally (standby)
        self.applied_seq = 0
        #: newest sequence the primary has advertised to us
        self.primary_seq = 0
        self.primary_name: Optional[str] = self.name if rank == 0 else None
        self.counters: Dict[str, int] = {
            "writes_accepted": 0,
            "writes_rejected_not_primary": 0,
            "writes_rejected_fenced": 0,
            "entries_applied": 0,
            "snapshots_sent": 0,
            "snapshots_applied": 0,
            "stale_epoch_rejections": 0,
            "promotions": 0,
            "stepdowns": 0,
            "fencings": 0,
            "epoch_adoptions": 0,
            "resyncs": 0,
        }
        self._peers: Dict[str, str] = {}  # name -> base uri, rank order
        self._acked_seq: Dict[str, int] = {}
        #: set on epoch adoption: local state may diverge from the new
        #: primary's chain, so apply nothing until a snapshot replaces it
        self._needs_resync = False
        self._client = HttpClient(self.host, timeout=config.fencing_timeout)
        self._tick_task = None
        self._last_primary_contact = 0.0
        self._last_any_ack = 0.0
        self._last_snapshot_stream = 0.0

    # -- identity ---------------------------------------------------------

    @property
    def _now(self) -> float:
        return self.host.network.scheduler.now

    # -- wiring -----------------------------------------------------------

    def attach(self, group: "ReplicationGroup") -> None:
        """Join *group*: learn the peer set and claim the node."""
        self._peers = {m.name: m.uri for m in group.members
                       if m is not self}
        self.node.replication = self
        service = self.node.service
        service.add_route(POST, "/replicate", self._replicate_route)

    def start(self) -> None:
        """Arm the periodic tick (idempotent)."""
        if self._tick_task is not None:
            return
        now = self._now
        self._last_primary_contact = now
        self._last_any_ack = now
        self._last_snapshot_stream = now
        # tiny rank-staggered start keeps member tick ordering
        # deterministic without aligning every send on the same instant
        self._tick_task = self.host.network.scheduler.every(
            self.config.heartbeat_period, self._tick,
            initial_delay=self.rank * 1e-3,
        )

    def stop(self) -> None:
        if self._tick_task is not None:
            self._tick_task.stop()
            self._tick_task = None

    # -- write path (hooks called by the wrapped node) ---------------------

    @property
    def writable(self) -> bool:
        """True on an unfenced primary — the only member taking writes."""
        return self.role == PRIMARY and not self.fenced

    def check_writable(self) -> None:
        """Gate a write: only an unfenced primary accepts writes."""
        if self.role != PRIMARY:
            self.counters["writes_rejected_not_primary"] += 1
            hint = f"; primary is {self.primary_name}" \
                if self.primary_name else ""
            raise NotPrimaryError(
                f"{self.kind} {self.name} is a standby and rejects "
                f"writes{hint}"
            )
        if self.fenced:
            self.counters["writes_rejected_fenced"] += 1
            raise NotPrimaryError(
                f"primary {self.name} is fenced (no standby contact for "
                f"> {self.config.fencing_timeout}s) and rejects writes"
            )

    def record_write(self, payload: Dict) -> None:
        """Append one accepted write to the log and stream it."""
        self.log_seq += 1
        self.applied_seq = self.log_seq
        self.counters["writes_accepted"] += 1
        entry = {"seq": self.log_seq, "payload": payload}
        for peer in self._peers:
            self._send(peer, entries=[entry])

    # -- replication transport --------------------------------------------

    def _send(self, peer: str, entries: Optional[List[Dict]] = None,
              snapshot: Optional[Dict] = None) -> None:
        body = {
            "sender": self.name,
            "epoch": self.epoch,
            "seq": self.log_seq,
            "entries": entries or [],
        }
        if snapshot is not None:
            body["snapshot"] = snapshot
        future = self._client.request(
            self._peers[peer] + "replicate", POST, body=body,
            timeout=self.config.heartbeat_period,
        )
        future.add_done_callback(
            lambda fut, name=peer: self._on_ack(name, fut)
        )

    def _send_snapshot(self, peer: str) -> None:
        snapshot = dict(self.node.snapshot(), seq=self.log_seq)
        self.counters["snapshots_sent"] += 1
        emit(self.host.network, "repl_snapshot", host=self.name,
             peer=peer, seq=self.log_seq, **{self.kind: self.name})
        self._send(peer, snapshot=snapshot)

    def _on_ack(self, peer: str, future) -> None:
        try:
            response = future.result()
        except NetworkError:
            return  # unreachable peer: fencing/failover timers handle it
        if not response.ok or not isinstance(response.body, dict):
            return
        body = response.body
        if not body.get("accepted"):
            peer_epoch = int(body.get("epoch", -1))
            if peer_epoch > self.epoch:
                # we were deposed while partitioned away
                self._adopt_epoch(peer_epoch, deposed_by=peer)
            return
        now = self._now
        self._acked_seq[peer] = int(body.get("applied", 0))
        self._last_any_ack = now
        if self.fenced:
            self.fenced = False
            emit(self.host.network, "repl_unfenced", host=self.name,
                 epoch=self.epoch, **{self.kind: self.name})
        if body.get("resync") and self.role == PRIMARY:
            self.counters["resyncs"] += 1
            self._send_snapshot(peer)

    # -- inbound replication ----------------------------------------------

    def _replicate_route(self, request: Request) -> Response:
        body = request.body or {}
        epoch = int(body.get("epoch", 0))
        sender = body.get("sender", "")
        if epoch < self.epoch:
            # epoch fencing: a deposed primary's stream is rejected, and
            # the rejection carries our epoch so it steps down
            self.counters["stale_epoch_rejections"] += 1
            emit(self.host.network, "repl_stale_rejected",
                 host=self.name, sender=sender, sender_epoch=epoch,
                 epoch=self.epoch, **{self.kind: self.name})
            return ok({"accepted": False, "epoch": self.epoch,
                       "applied": self.applied_seq})
        if epoch > self.epoch:
            self._adopt_epoch(epoch, deposed_by=sender)
        self.primary_name = sender
        self.primary_seq = int(body.get("seq", 0))
        self._last_primary_contact = self._now
        snapshot = body.get("snapshot")
        if snapshot is not None and (
                self._needs_resync
                or int(snapshot.get("seq", 0)) >= self.applied_seq):
            # after an epoch change the snapshot replaces local state
            # even if our sequence was ahead: entries the old primary
            # never replicated are a divergent tail, discarded here
            self.node.restore(snapshot)
            # the previous epoch's on-disk artifacts are stale now
            self.node.journal.rewrite()
            self.applied_seq = int(snapshot.get("seq", 0))
            self.counters["snapshots_applied"] += 1
            self._needs_resync = False
        resync = self._needs_resync
        if not resync:
            for entry in body.get("entries", []):
                seq = int(entry["seq"])
                if seq <= self.applied_seq:
                    continue  # duplicate delivery of an applied entry
                if seq != self.applied_seq + 1:
                    resync = True  # gap: ask the primary for a snapshot
                    break
                try:
                    self.node.apply(entry["payload"])
                except ReproError:
                    resync = True  # divergent state: snapshot resolves it
                    break
                self.applied_seq = seq
                self.counters["entries_applied"] += 1
        if not resync and self.primary_seq > self.applied_seq:
            resync = True
        return ok({"accepted": True, "epoch": self.epoch,
                   "applied": self.applied_seq, "resync": resync})

    # -- role transitions --------------------------------------------------

    def _adopt_epoch(self, epoch: int, deposed_by: str = "") -> None:
        self.epoch = epoch
        self._needs_resync = True  # cleared by the new primary's snapshot
        self.counters["epoch_adoptions"] += 1
        emit(self.host.network, "repl_epoch_adopted", host=self.name,
             epoch=epoch, **{self.kind: self.name})
        if self.role == PRIMARY:
            self.role = STANDBY
            self.fenced = False
            self.counters["stepdowns"] += 1
            self._last_primary_contact = self._now  # grace before retrying
            emit(self.host.network, "repl_stepdown", host=self.name,
                 epoch=epoch, deposed_by=deposed_by,
                 **{self.kind: self.name})

    def _promote(self) -> None:
        self.epoch += 1
        self.role = PRIMARY
        self.fenced = False
        self._needs_resync = False
        self.log_seq = self.applied_seq
        self.primary_name = self.name
        # only the live primary redelivers, mints tokens...: the node's
        # timers and epochs were held back while it was a standby
        self.node.activate()
        now = self._now
        self._last_any_ack = now
        self._last_snapshot_stream = now
        self._acked_seq = {}
        self.counters["promotions"] += 1
        emit(self.host.network, "repl_promotion", host=self.name,
             epoch=self.epoch, **{self.kind: self.name})
        # announce with a full snapshot: peers adopt the new epoch (any
        # surviving old primary steps down) and catch up in one hop
        for peer in self._peers:
            self._send_snapshot(peer)

    # -- periodic tick -----------------------------------------------------

    def _tick(self) -> None:
        now = self._now
        if self.role == PRIMARY:
            if now - self._last_snapshot_stream \
                    >= self.config.snapshot_period:
                self._last_snapshot_stream = now
                for peer in self._peers:
                    self._send_snapshot(peer)
            else:
                for peer in self._peers:
                    self._send(peer)  # heartbeat (epoch + seq, no entries)
            if self._peers and not self.fenced and \
                    now - self._last_any_ack > self.config.fencing_timeout:
                self.fenced = True
                self.counters["fencings"] += 1
                emit(self.host.network, "repl_fenced", host=self.name,
                     epoch=self.epoch, **{self.kind: self.name})
        else:
            # distinct per-rank deadlines: no two members can promote
            # into the same epoch, even a deposed rank-0 primary
            deadline = self.config.failover_timeout \
                + self.rank * self.config.promotion_stagger
            if now - self._last_primary_contact > deadline:
                self._promote()

    # -- reporting ---------------------------------------------------------

    def replication_lag(self) -> int:
        """Entries the slowest replica is behind (primary view), or how
        far this standby trails the primary's advertised sequence."""
        if self.role == PRIMARY:
            if not self._peers:
                return 0
            slowest = min(self._acked_seq.get(name, 0)
                          for name in self._peers)
            return max(0, self.log_seq - slowest)
        return max(0, self.primary_seq - self.applied_seq)

    def status(self) -> Dict:
        """Role/epoch/lag summary merged into ``/metrics``."""
        return {
            "role": self.role,
            "epoch": self.epoch,
            "fenced": self.fenced,
            "replication_lag": self.replication_lag(),
            "log_seq": self.log_seq if self.role == PRIMARY
            else self.applied_seq,
            "primary": self.primary_name,
            "peers": len(self._peers),
        }


class ReplicationGroup:
    """A wired set of replicas, in seniority (rank) order."""

    def __init__(self, members: List[ReplicatedNode]):
        if len(members) < 2:
            raise ConfigurationError(
                "a replication group needs a primary and >= 1 standby"
            )
        self.members = list(members)
        self._nodes = [m.node for m in members]

    @property
    def primary(self) -> ReplicatedNode:
        """The current primary: highest epoch, seniority breaking ties."""
        primaries = [m for m in self.members if m.role == PRIMARY]
        if primaries:
            return max(primaries, key=lambda m: (m.epoch, -m.rank))
        return self.members[0]  # mid-failover: the original seniority

    def acting(self) -> StateMachine:
        """The node acting as primary now (maybe a promoted standby)."""
        return self.primary.node

    def uris(self) -> List[str]:
        """Every member's base URI, seniority first — the client's
        :class:`~repro.network.resilience.FailoverSet` order."""
        return [node.service.base_uri for node in self._nodes]

    def hosts(self) -> List[str]:
        """Every member's host name, seniority first (raw-transport
        peers rotate over host names, not HTTP URIs)."""
        return [node.host.name for node in self._nodes]

    def nodes(self) -> List[StateMachine]:
        """Every member's node, seniority first."""
        return list(self._nodes)

    def member(self, name: str) -> ReplicatedNode:
        for member in self.members:
            if member.name == name:
                return member
        raise ConfigurationError(f"no replica named {name!r}")

    def counters(self) -> Dict[str, int]:
        """Group-wide counter totals (benchmark/metrics reporting)."""
        totals: Dict[str, int] = {}
        for member in self.members:
            for key, value in member.counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def stop(self) -> None:
        for member in self.members:
            member.stop()


class LoneNode(ReplicationGroup):
    """The group of one that serves an unreplicated hub.

    No members: no agent, route, timer or host is attached and the
    node keeps ``replication = None`` on its hot path, yet readers ask
    it what they ask a replicated group and need no fork of their own.
    """

    def __init__(self, node: StateMachine):
        self.members = []
        self._nodes = [node]

    def acting(self) -> StateMachine:
        return self._nodes[0]


def hub_group(node: StateMachine,
              config: Optional[HubConfig] = None) -> ReplicationGroup:
    """The group serving hub *node*: the standbys *config* asks for
    behind it (:func:`replicate`), otherwise the :class:`LoneNode`."""
    if config is not None and config.standbys:
        return replicate(node, config.standbys, config.replication)
    return LoneNode(node)


def replicate(node: StateMachine, standbys: int = 1,
              config: Optional[ReplicationConfig] = None
              ) -> ReplicationGroup:
    """Stand up *standbys* replicas behind an existing primary *node*.

    Each standby gets its own host (``<primary>-r1``, ``<primary>-r2``,
    ...) on the primary's network, a fresh node of the primary's kind
    and tuning (:meth:`~repro.storage.durability.StateMachine.standby`)
    serving read-only queries, and a replication agent wired to every
    peer.  Returns the group with streaming and failure detection
    running; feed ``group.uris()`` (HTTP clients) or ``group.hosts()``
    (pub/sub peers) to callers as their failover rotation.
    """
    if node.replication is not None:
        raise ConfigurationError(
            f"{node.kind} {node.host.name!r} is already replicated"
        )
    if standbys < 1:
        raise ConfigurationError("replication needs >= 1 standby")
    config = config or ReplicationConfig()
    members = [ReplicatedNode(node, 0, config)]
    for index in range(1, standbys + 1):
        standby = node.standby(f"{node.host.name}-r{index}")
        members.append(ReplicatedNode(standby, index, config))
    group = ReplicationGroup(members)
    for member in members:
        member.attach(group)
    for member in members:
        member.start()
    return group
