"""The master node: unique entry point of the infrastructure.

"The master node is the unique entry point of the system, and it
maintains an ontology of relationships between the different entities
present in a district.  It receives data queries from the users, refers
to the ontology to get the interested data sources URIs, and redirects
the users to the interested data sources."

The master never relays data: ``/resolve`` returns proxy URIs.  Proxies
register themselves over ``/register`` (database proxies bind to entity
nodes, device proxies add device leaves, GIS and measurement services
attach to the district root), growing the ontology incrementally as the
district deploys.

Registrations may carry a **lease**: a validity horizon in simulated
seconds that the proxy renews with a periodic heartbeat (see
:meth:`repro.proxies.base.Proxy.start_heartbeat`).  A full registration
carries the proxy's **registration token**; a heartbeat is a *renewal*
— ``{uri, lease, token}``, no descriptor — accepted while the token is
the one held for that URI and refused (412) otherwise, on which the
proxy re-registers in full.  When a lease expires un-renewed the master
*evicts* every ontology reference to that proxy's URI, so ``/resolve``
stops redirecting clients to dead services — crash recovery becomes
automatic instead of an operator action.  Registrations without a lease
are permanent (the pre-lease behaviour, still the default).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

from repro.common.cdf import DeviceDescription
from repro.common.identifiers import entity_kind
from repro.datasources.geometry import BoundingBox
from repro.errors import (
    ConfigurationError,
    NotPrimaryError,
    QueryError,
    RegistrationError,
    UnknownEntityError,
    UnknownRegistrationError,
)
from repro.network.transport import Host
from repro.network.webservice import (
    GET,
    POST,
    Request,
    Response,
    WebService,
    conditional,
    error,
    ok,
)
from repro.observability.tracing import INTERNAL, emit
from repro.ontology.model import DeviceNode, DistrictOntology, EntityNode
from repro.ontology.queries import AreaQuery, resolve
from repro.storage.durability import HubConfig, Journal, StateMachine


class MasterNode(StateMachine):
    """Registration target and query resolver for one or more districts.

    ``/resolve`` answers are versioned by an **ontology epoch**: a
    counter bumped by every *mutation* of the forest — a registration
    that changed something a resolve can return (:meth:`apply`),
    :meth:`_evict_uri`, :meth:`reset`, :meth:`restore` — and by nothing
    else: a heartbeat that only renews a lease leaves it alone.  The
    invariant is *equal token ⇒ equal answer to every query*.  The
    answer's ``token`` is :meth:`epoch_token` and ``/resolve`` is a
    conditional GET (:func:`~repro.network.webservice.conditional`): a
    caller that sends it back unchanged gets a bodyless 304, so the
    answer is held by the client that asked for it and the master
    keeps nothing per query.
    """

    kind = "master"
    #: always 0: the master holds no answers.  Read only by the frozen
    #: districtbench counters (``master.resolve_cache_hit_ratio``);
    #: ROADMAP item 3 drops the metric and these two with it
    resolve_cache_hits = 0
    resolve_cache_misses = 0

    def __init__(self, host: Host, processing_delay: float = 2e-4,
                 durability: Optional[HubConfig] = None):
        if durability is not None and durability.wal_path is not None:
            raise ConfigurationError(
                "the master journals snapshots only: its log is the "
                "replication stream, so it takes no wal_path")
        self.host = host
        self.ontology = DistrictOntology()
        #: full registrations applied; heartbeats count as renewals
        self.registrations = 0
        self.lease_renewals = 0
        self.renewals_refused = 0
        self.resolves_served = 0
        self.lease_evictions = 0
        #: forest version: bumped by every registration that changed
        #: the forest, eviction, reset and snapshot restore — the
        #: resolve validator
        self.ontology_epoch = 0
        self.resolve_not_modified = 0
        self._leases: Dict[str, float] = {}  # proxy uri -> expiry time
        #: lower bound on the earliest lease expiry: lowered when a
        #: lease is tracked, recomputed only by a sweep that runs, so
        #: the per-request :meth:`expire_leases` is one comparison
        #: while nothing is due
        self._next_expiry = float("inf")
        #: proxy uri -> token (opaque: the proxy's descriptor digest) of
        #: the registration held for it.  Equal token <=> the forest
        #: holds what that proxy last registered in full, so it is
        #: dropped wherever that ends: eviction, a contested slot
        #: changing hands, a half-applied rejection, reset.
        self._tokens: Dict[str, str] = {}
        self._sweeper = None
        #: persisted ontology + lease snapshots: with a snapshot path a
        #: restarted master recovers instead of waiting for a full
        #: heartbeat round of re-registrations
        self.journal = Journal(self, "repro-ontology", 2, durability)
        self.service = WebService(host, processing_delay=processing_delay)
        self.service.add_route(POST, "/register", self._register_route)
        self.service.add_route(GET, "/resolve", self._resolve_route)
        self.service.add_route(GET, "/ontology", self._ontology_route)
        self.service.add_route(GET, "/metrics", self._metrics_route)

    @property
    def uri(self) -> str:
        """The master's Web-Service base URI."""
        return self.service.base_uri

    def reset(self) -> None:
        """Simulate a master restart: the in-memory ontology is lost.

        Recovery relies on proxies re-registering (the registration
        heartbeat, or
        :meth:`~repro.simulation.faults.FaultInjector.reregister_all`),
        exactly as a stateless-registration design would in production.
        """
        self.ontology = DistrictOntology()
        self._leases.clear()
        self._tokens.clear()
        self.bump_epoch()
        self.journal.crash()

    # -- epoch -------------------------------------------------------------

    def bump_epoch(self) -> None:
        """Advance the ontology epoch (monotone, never reset to zero)."""
        self.ontology_epoch += 1

    def epoch_token(self) -> str:
        """The resolve validator (the ``/resolve`` ETag).

        Combines the serving member's name, its replication epoch and
        the ontology epoch: a token can only compare equal when the
        same master answers from provably unchanged state.  Including
        the member name keeps a lagging standby's token from ever
        matching the primary's; including the replication epoch
        invalidates every client-held answer across a failover even though
        the promoted standby keeps its own ontology-epoch counter.
        """
        repl_epoch = self.replication.epoch \
            if self.replication is not None else 0
        return f"{self.host.name}:{repl_epoch}:{self.ontology_epoch}"

    # -- leases ---------------------------------------------------------------

    @property
    def active_leases(self) -> int:
        return len(self._leases)

    def expire_leases(self, now: Optional[float] = None) -> List[str]:
        """Evict every proxy whose lease expired; returns their URIs.

        Called lazily before each resolve and optionally from a periodic
        sweep, so a crashed proxy disappears from answers no later than
        one lease after its last heartbeat.
        """
        if now is None:
            now = self.host.network.scheduler.now
        if now < self._next_expiry:
            return []
        expired = [uri for uri, expiry in self._leases.items()
                   if expiry <= now]
        for uri in expired:
            del self._leases[uri]
            self._evict_uri(uri)
            self.lease_evictions += 1
            emit(self.host.network, "lease_evicted",
                 host=self.host.name, uri=uri, master=self.host.name)
        self._next_expiry = min(self._leases.values(), default=float("inf"))
        return expired

    def start_lease_sweeper(self, period: float) -> None:
        """Periodically expire leases (idempotent)."""
        if self._sweeper is None:
            self._sweeper = self.host.network.scheduler.every(
                period, self.expire_leases
            )

    # -- the durable, replicable state (StateMachine contract) ----------------

    def snapshot(self) -> Dict:
        """The master's replicable state: forest, lease and token tables."""
        return {
            "ontology": self.ontology.to_dict(),
            "leases": dict(self._leases),
            "tokens": dict(self._tokens),
            "ontology_epoch": self.ontology_epoch,
        }

    def restore(self, state: Dict) -> None:
        """Replace the master's state with a :meth:`snapshot` payload.

        The local ontology epoch jumps past both its own value and the
        snapshot's, so it stays monotone whichever side was ahead, and
        no answer a client holds from before the restore revalidates.
        Leases keep their original absolute expiries, so proxies that
        died while the master was down still get evicted on schedule.
        A snapshot without a token table (written before renewals
        existed) restores an empty one: every first renewal is refused
        and re-registers in full.
        """
        self.ontology = DistrictOntology.from_dict(state["ontology"])
        self._leases = {uri: float(expiry) for uri, expiry
                        in state.get("leases", {}).items()}
        self._next_expiry = 0.0  # unknown expiries: the next sweep runs
        self._tokens = dict(state.get("tokens", {}))
        self.ontology_epoch = max(
            self.ontology_epoch, int(state.get("ontology_epoch", 0))
        ) + 1

    def activate(self) -> None:
        """Promotion: keep the resolve token monotone across failover.

        No client revalidation against the new primary may 304-match an
        answer minted by the deposed one.
        """
        self.bump_epoch()

    def standby(self, name: str) -> "MasterNode":
        return MasterNode(self.host.network.add_host(name))

    def recover(self) -> Optional[int]:
        """Restore ontology and leases from the persisted snapshot.

        Returns the number of ontology nodes restored — 0 when no
        snapshot has been written yet — or None when no snapshot path
        is configured.
        """
        if not self.journal.recover():
            return None
        return self.ontology.node_count()

    def _track_lease(self, uri: str, lease: Optional[float]) -> None:
        if lease is None:
            # permanent registration; drop any stale lease on this uri
            self._leases.pop(uri, None)
            return
        if lease <= 0:
            raise RegistrationError(f"bad lease {lease!r}")
        expiry = self.host.network.scheduler.now + float(lease)
        self._leases[uri] = expiry
        self._next_expiry = min(self._next_expiry, expiry)

    def _evict_uri(self, uri: str) -> None:
        """Remove every ontology reference to one proxy URI.

        Entities hollowed out by the eviction (no proxy URIs left, no
        devices left) are pruned with their subtree: a URI-less entity
        would still match area queries while redirecting the client
        nowhere, and would inflate ``ontology_nodes`` forever.  Any
        actual removal bumps the ontology epoch, so no held resolve
        answer can revalidate while pointing at the dead proxy.
        """
        self._tokens.pop(uri, None)
        changed = False
        for district in self.ontology.districts():
            if uri in district.gis_uris:
                district.gis_uris.remove(uri)
                changed = True
            if uri in district.measurement_uris:
                district.measurement_uris.remove(uri)
                changed = True
            for entity in list(district.entities.values()):
                for kind in [k for k, u in entity.proxy_uris.items()
                             if u == uri]:
                    del entity.proxy_uris[kind]
                    changed = True
                for device_id in [d_id for d_id, node
                                  in entity.devices.items()
                                  if node.proxy_uri == uri]:
                    del entity.devices[device_id]
                    changed = True
                if not entity.proxy_uris and not entity.devices:
                    del district.entities[entity.entity_id]
                    changed = True
        if changed:
            self.bump_epoch()

    # -- registration (in-process API; the route wraps this) -----------------

    def register(self, payload: Dict) -> Dict:
        """Apply one proxy registration, or lease renewal, to the ontology.

        Re-registering the same proxy (same URI) is idempotent — it
        refreshes the registration and renews its lease; the periodic
        heartbeat sends a renewal (see :meth:`_renew`) instead.

        On a replicated master the write is gated first (standbys and
        fenced primaries raise :class:`NotPrimaryError`) and streamed to
        the standbys afterwards.
        """
        if self.replication is not None:
            self.replication.check_writable()
        result = self.apply(payload)
        if self.replication is not None:
            self.replication.record_write(payload)
        return result

    def apply(self, payload: Dict) -> Dict:
        """Apply a registration without replication gating/streaming.

        The raw state transition shared by client-facing
        :meth:`register` and by replicated log entries applied on a
        standby (which must bypass the primary-only write gate); a
        :class:`~repro.errors.RegistrationError` there means the
        standby's forest diverged, and forces a resync.  The log thus
        carries two record kinds: full registrations and renewals.
        """
        kind = payload.get("proxy_kind")
        uri = payload.get("uri")
        token = payload.get("token")
        lease = payload.get("lease")
        if lease is not None:
            lease = float(lease)
            if lease <= 0:
                raise RegistrationError(f"bad lease {lease!r}")
        if kind is None and token is not None:
            return self._renew(uri, lease, token)
        # each _register_* reports whether it changed anything a resolve
        # can return; only that advances the epoch — a re-registration
        # that merely renews its lease leaves every held answer valid.
        # A registration rejected half-way may already have attached
        # nodes, so a failure counts as a change — and what is held for
        # this URI is no longer what its old token named.
        held = self._tokens.pop(uri, None)
        changed = True
        try:
            if token is not None and token == held:
                # identical full re-registration: equal token, equal
                # held descriptor — nothing to parse, nothing moves
                result, changed = {"attached": "unchanged"}, False
            elif kind == "database":
                result, changed = self._register_database(payload)
            elif kind == "device":
                result, changed = self._register_device_proxy(payload)
            elif kind == "measurement":
                result, changed = self._register_measurement(payload)
            else:
                raise RegistrationError(f"unknown proxy kind {kind!r}")
            self.registrations += 1
            if uri:
                self._track_lease(uri, lease)
                if token is not None:
                    self._tokens[uri] = token
        finally:
            if changed:
                self.bump_epoch()
        return result

    def _renew(self, uri: Optional[str], lease: Optional[float],
               token: str) -> Dict:
        """Extend the lease of the registration *token* names.

        Accepted only while the master provably still holds the
        descriptor it does not re-ship: the token is the one recorded
        for *uri* and the lease has not run out (the sweep runs first —
        an evicted registration has no token).  Never moves the epoch.
        """
        self.expire_leases()
        if self._tokens.get(uri) != token:
            self.renewals_refused += 1
            raise UnknownRegistrationError(
                f"no registration {token!r} held for {uri!r}")
        self._track_lease(uri, lease)
        self.lease_renewals += 1
        return {"renewed": True}

    def _district_node(self, district_id: str, name: str = ""):
        try:
            return self.ontology.district(district_id)
        except UnknownEntityError:
            return self.ontology.add_district(district_id, name)

    def _entity_node(self, district, entity_id: str,
                     entity_type: Optional[str] = None,
                     name: str = "") -> EntityNode:
        if entity_id in district.entities:
            return district.entities[entity_id]
        inferred = entity_kind(entity_id)
        if inferred not in ("building", "network"):
            raise RegistrationError(
                f"{entity_id!r} is not a building or network id"
            )
        node = EntityNode(
            entity_id=entity_id,
            entity_type=entity_type or inferred,
            name=name,
        )
        self.ontology.add_entity(district.district_id, node)
        return node

    def _register_database(self, payload: Dict) -> Tuple[Dict, bool]:
        source_kind = payload.get("source_kind")
        district_id = payload.get("district_id")
        uri = payload.get("uri")
        if not district_id or not uri:
            raise RegistrationError("registration needs district_id and uri")
        if source_kind == "gis":
            district = self._district_node(district_id,
                                           payload.get("name", ""))
            before = (district.name, len(district.gis_uris))
            if payload.get("name") and not district.name:
                district.name = payload["name"]
            if uri not in district.gis_uris:
                district.gis_uris.append(uri)
            return {"attached": "district", "district_id": district_id}, \
                before != (district.name, len(district.gis_uris))
        if source_kind in ("bim", "sim"):
            entity_id = payload.get("entity_id")
            if not entity_id:
                raise RegistrationError(
                    f"{source_kind} registration needs entity_id"
                )
            district = self._district_node(district_id)
            entity = self._entity_node(
                district, entity_id,
                payload.get("entity_type"), payload.get("name", ""),
            )

            def written() -> Tuple:  # everything this branch may write
                return (entity.name, entity.proxy_uris.get(source_kind),
                        entity.bounds, entity.gis_feature_id,
                        entity.properties.get("commodity"))

            before = written()
            if payload.get("name") and not entity.name:
                entity.name = payload["name"]
            # a contested slot changing hands ends the loser's
            # registration: its next renewal must re-register in full
            self._tokens.pop(entity.proxy_uris.get(source_kind), None)
            entity.proxy_uris[source_kind] = uri
            bounds = payload.get("bounds")
            if bounds:
                entity.bounds = BoundingBox.from_list(bounds)
            if payload.get("gis_feature_id"):
                entity.gis_feature_id = payload["gis_feature_id"]
            if payload.get("commodity"):
                entity.properties["commodity"] = payload["commodity"]
            return {"attached": "entity", "entity_id": entity_id}, \
                before != written()
        raise RegistrationError(f"unknown source kind {source_kind!r}")

    def _register_device_proxy(self, payload: Dict) -> Tuple[Dict, bool]:
        district_id = payload.get("district_id")
        uri = payload.get("uri")
        if not district_id or not uri:
            raise RegistrationError("registration needs district_id and uri")
        devices = payload.get("devices", [])
        if not devices:
            raise RegistrationError(
                "device proxy registered without devices"
            )
        attached = []
        changed = False
        district = self._district_node(district_id)
        for device_data in devices:
            description = DeviceDescription.from_dict(device_data)
            entity = self._entity_node(district, description.entity_id)
            node = DeviceNode(
                device_id=description.device_id,
                proxy_uri=uri,
                protocol=description.protocol,
                quantities=description.quantities,
                is_actuator=description.is_actuator,
                properties={"location": description.location},
            )
            existing = entity.devices.get(description.device_id)
            changed = changed or existing != node
            if existing is not None and existing.proxy_uri != uri:
                raise RegistrationError(
                    f"device {description.device_id} already "
                    f"registered by {existing.proxy_uri}"
                )
            entity.devices[description.device_id] = node
            attached.append(description.device_id)
        pruned = self._prune_stale_devices(district, uri, set(attached))
        return {"attached": "devices", "device_ids": attached}, \
            changed or pruned

    def _prune_stale_devices(self, district, uri: str,
                             reported: set) -> bool:
        """Drop this proxy's device leaves that vanished from its payload.

        A registration is the proxy's authoritative full device list:
        when a heartbeat re-registers with *fewer* devices (a sensor
        was unplugged, a fleet shrank), the leaves it no longer reports
        must stop resolving immediately rather than lingering until a
        full lease eviction.  Entities hollowed out by the prune (no
        proxy URIs, no devices — so no registration left on them) are
        removed with it.  Returns whether anything was pruned.
        """
        pruned = False
        for entity in list(district.entities.values()):
            stale = [d_id for d_id, node in entity.devices.items()
                     if node.proxy_uri == uri and d_id not in reported]
            for device_id in stale:
                del entity.devices[device_id]
                pruned = True
            if stale and not entity.proxy_uris and not entity.devices:
                del district.entities[entity.entity_id]
        return pruned

    def _register_measurement(self, payload: Dict) -> Tuple[Dict, bool]:
        district_id = payload.get("district_id")
        uri = payload.get("uri")
        if not district_id or not uri:
            raise RegistrationError("registration needs district_id and uri")
        district = self._district_node(district_id)
        joined = uri not in district.measurement_uris
        if joined:
            district.measurement_uris.append(uri)
        return {"attached": "district", "district_id": district_id}, joined

    # -- queries (in-process API) ------------------------------------------

    def resolve_area(self, query: AreaQuery):
        """Resolve an area query against the ontology.

        Expired leases are swept first, so answers never redirect the
        client to a proxy whose heartbeat has stopped.
        """
        self.expire_leases()
        self.resolves_served += 1
        tracer = self.host.network.tracer
        # nests under the GET /resolve server span when the query
        # arrived over the Web Service
        span = tracer.span("ontology resolve", kind=INTERNAL,
                           host=self.host.name) \
            if tracer is not None else nullcontext()
        with span:
            return resolve(self.ontology, query)

    # -- web-service routes ---------------------------------------------------

    def _register_route(self, request: Request) -> Response:
        try:
            body = self.register(request.body or {})
        except NotPrimaryError as exc:
            # retryable: the caller should fail over to another master
            return error(503, str(exc))
        except UnknownRegistrationError as exc:
            return error(exc.status, str(exc))
        except RegistrationError as exc:
            return error(400, str(exc))
        return ok(body)

    def _resolve_route(self, request: Request) -> Response:
        self.expire_leases()  # evictions must land before the token read
        token = self.epoch_token()

        def not_modified() -> None:
            # the caller's held answer is still valid: no forest walk,
            # no serialization
            self.resolve_not_modified += 1
            self.resolves_served += 1

        return conditional(request, token, self._resolve_answer,
                           not_modified)

    def _resolve_answer(self, params: Dict[str, str]) -> Response:
        """The full ``/resolve`` answer: one forest walk."""
        try:
            resolved = self.resolve_area(AreaQuery.from_params(params))
        except QueryError as exc:
            return error(400, str(exc))
        except UnknownEntityError as exc:
            return error(404, str(exc))
        return ok(resolved.to_dict())

    def _ontology_route(self, request: Request) -> Response:
        return ok(self.ontology.to_dict())

    def metrics(self) -> Dict:
        """Flat counter snapshot served by ``GET /metrics``."""
        counters = {
            "registrations": self.registrations,
            "lease_renewals": self.lease_renewals,
            "renewals_refused": self.renewals_refused,
            "resolves_served": self.resolves_served,
            "active_leases": self.active_leases,
            "lease_evictions": self.lease_evictions,
            "ontology_nodes": self.ontology.node_count(),
            "ontology_epoch": self.ontology_epoch,
            "resolve_not_modified": self.resolve_not_modified,
            "requests_served": self.service.requests_served,
            "requests_failed": self.service.requests_failed,
            "handler_errors": self.service.handler_errors,
            "snapshots_written": self.snapshots_written,
        }
        counters.update(self.replication_status())
        return counters

    def _metrics_route(self, request: Request) -> Response:
        self.expire_leases()
        return ok({"component": self.metrics()})
