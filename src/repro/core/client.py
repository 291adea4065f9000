"""The end-user application: resolve, fetch, integrate.

:class:`DistrictClient` implements the client workflow of Figure 1(a):

1. ask the master to resolve an area query — the master answers with
   proxy Web-Service URIs, never data;
2. fetch each entity's models directly from its BIM/SIM proxies and its
   GIS feature from the district's GIS proxy;
3. fetch device data directly from the Device-proxies;
4. integrate everything client-side into an
   :class:`~repro.core.integration.IntegratedModel`.

Steps 2 and 3 are one concurrent round: the proxies are independent
hosts, so every model request and one data request per Device-proxy go
out together and the client waits for the slowest, not for the sum.
For a held resolve steps 1-3 overlap: the held answer's fetches go out
with its revalidation, and a changed answer keeps only what it names.
Resolves, models and device data are conditional GETs: the client holds
every answer with its token in one LRU table, sends the token back as
``if_none_match`` and reuses the held answer on a 304.  A Device-proxy's
token is its local database's insert count, so a re-asked ``/data``
answers 304 until the proxy stores a new sample.

The client also exposes remote control (actuation through the owning
Device-proxy) and live subscriptions on the middleware.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import nullcontext
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.common import serialization
from repro.common.cdf import ActuationResult, EntityModel
from repro.common.serialization import JSON_FORMAT
from repro.errors import IntegrationError, QueryError, ReproError, ServiceError
from repro.middleware.broker import Event
from repro.middleware.peer import MiddlewarePeer, Subscription
from repro.middleware.topics import (
    actuation_topic, decode_event, measurement_filter,
)
from repro.network.resilience import FailoverSet, ResiliencePolicy
from repro.network.transport import Host
from repro.network.webservice import HttpClient, Response, Round
from repro.observability.tracing import INTERNAL, emit
from repro.core.integration import IntegratedModel, integrate
from repro.ontology.queries import (
    AreaQuery,
    ResolvedArea,
    ResolvedDevice,
    ResolvedEntity,
)
from repro.storage.query import RangeQuery


#: bound on the held-answer table: districtbench's area_query holds at
#: most 797 answers (seed 17: 128 models, 299 distinct areas, 370
#: distinct /data requests), so a read-heavy client keeps every answer
#: it revalidates
HELD_ANSWERS_MAX = 1024


class DistrictClient:
    """An end-user application speaking to a master (or master set).

    *master_uri* accepts one URI (the paper's single master), a
    sequence of URIs, or a shared
    :class:`~repro.network.resilience.FailoverSet` — a replicated
    master set in seniority order (see
    :mod:`repro.core.replication`).  Master calls stick to the replica
    that last worked and rotate to the next on timeouts, open circuits
    and 5xx answers, so a primary kill costs one failed call instead of
    an outage.

    Every resolve, model and data answer is held with its token and
    revalidated on the next identical request (a bodyless 304 while it
    is unchanged).  A 304 is exactly as fresh as a full body, so the
    default *resolve_cache_ttl* of 0 — always revalidate — adds no
    staleness.  A TTL > 0 (simulated seconds) also serves a resolve
    answer younger than the TTL from memory with no network traffic,
    which bounds staleness instead: a proxy evicted mid-TTL can keep
    resolving from this client for at most ``resolve_cache_ttl``
    seconds.
    """

    def __init__(self, host: Host,
                 master_uri: Union[str, Sequence[str], FailoverSet],
                 broker_host: Union[str, Sequence[str], None] = None,
                 timeout: float = 5.0,
                 policy: Optional[ResiliencePolicy] = None,
                 resolve_cache_ttl: float = 0.0):
        self.host = host
        self.masters = master_uri if isinstance(master_uri, FailoverSet) \
            else FailoverSet(master_uri)
        self.http = HttpClient(host, timeout=timeout, policy=policy)
        self.peer = MiddlewarePeer(host, broker_host) if broker_host \
            else None
        #: models in hand after a fetch, 304-revalidated ones included
        self.models_fetched = 0
        self.data_requests = 0
        self.fetch_failures = 0
        self.resolve_cache_ttl = resolve_cache_ttl
        #: resolves answered from memory inside the TTL, no round trip
        self.held_hits = 0
        #: conditional GETs sent, and the 304s that reused a held answer
        self.revalidations = 0
        self.not_modified = 0
        #: (path or uri, sorted params) -> (token, answer, fetched_at)
        self._held: "OrderedDict[Tuple, Tuple[str, Any, float]]" = \
            OrderedDict()

    @property
    def master_failovers(self) -> int:
        """How many times master calls rotated to another replica."""
        return self.masters.failovers

    # -- step 1: resolution ----------------------------------------------

    def resolve(self, query: AreaQuery,
                use_cache: bool = True) -> ResolvedArea:
        """Ask the master which proxies serve the queried area.

        With a replicated master set the answer may come from a
        read-only standby while the primary is down.

        A repeated query is revalidated against the master's ontology
        epoch — one tiny conditional GET, answered 304 with no body
        while nothing changed — or, inside :attr:`resolve_cache_ttl`,
        served from memory; ``use_cache=False`` forces a full fetch for
        one call.
        """
        return self._resolve(query, use_cache)[0]

    def _resolve(self, query: AreaQuery, use_cache: bool,
                 plan: Callable = lambda area: ((), (), {})) -> Tuple:
        """:meth:`resolve`, sending in its round the calls *plan* makes of
        the held area; returns the answer, its plan and :meth:`_fetch`'s
        *sent*.  A 304 hands back the held area, whose plan is exact."""
        params = query.to_params()
        key = ("/resolve", tuple(sorted(params.items())))
        held = self._held.get(key) if use_cache else None
        if held is not None and \
                self.host.network.scheduler.now - held[2] \
                < self.resolve_cache_ttl:
            self._held.move_to_end(key)
            self.held_hits += 1
            emit(self.host.network, "held_answer_hit", host=self.host.name,
                 token=held[0], client=self.host.name)
            return held[1], plan(held[1]), None
        self._trim_held()
        early = plan(held[1]) if use_cache and key in self._held \
            else ((), (), {})  # nothing held (or trimmed): nothing early
        if use_cache:
            params = self._conditional(key, params)
        sent = self.http.issue(
            [{"uri": self.masters.current + "/resolve", "params": params}]
            + [{"uri": call["uri"], "params": self._conditional(
                call_key, call["params"])} for call_key, call in early[1]])
        try:
            area = self._held_answer(key, self.http.failover(
                self.masters, "/resolve", params=params, sent=sent),
                True, ResolvedArea.from_dict)
        except ReproError:
            sent.dropped.update(range(len(sent.calls)))  # nobody waits
            raise
        return area, early if held and area is held[1] else plan(area), \
            (sent, {call_key: index
                    for index, (call_key, _) in enumerate(early[1], 1)})

    # -- conditional GET: one held-answer table ------------------------------

    def _conditional(self, key: Tuple, params: Dict[str, str]
                     ) -> Dict[str, str]:
        """*params*, with the held token as ``if_none_match`` when this
        client holds an answer for *key*."""
        held = self._held.get(key)
        if held is None:
            return params
        self.revalidations += 1
        return {**params, "if_none_match": held[0]}

    def _held_answer(self, key: Tuple, outcome: Union[Response, Exception],
                     strict: bool, decode: Callable[[Dict], Any]) -> Any:
        """The answer one conditional GET put in hand; None if it failed.

        A 304 hands back the held answer and restarts its TTL; a 200 is
        decoded and held under its token.  A 304 for an answer this
        client does not hold is a failed fetch, as is any non-2xx.
        """
        revalidated = isinstance(outcome, Response) and outcome.status == 304
        held = self._held.get(key) if revalidated else None
        if held is not None:
            self.not_modified += 1
            token, answer, _ = held
        else:
            if revalidated:
                outcome = ServiceError(304, "this client does not hold it")
            elif isinstance(outcome, Response) and not outcome.ok:
                outcome = ServiceError(outcome.status, outcome.reason)
            if isinstance(outcome, Exception):  # a failed fetch
                if strict:
                    raise outcome
                self.fetch_failures += 1
                return None
            token, answer = outcome.body["token"], decode(outcome.body)
        self._held[key] = (token, answer, self.host.network.scheduler.now)
        self._held.move_to_end(key)
        return answer

    def _trim_held(self) -> None:
        """Evict the least recently used answers beyond the bound; run
        before a round sends tokens, so each is held when its 304 lands."""
        while len(self._held) > HELD_ANSWERS_MAX:
            self._held.popitem(last=False)

    @staticmethod
    def _decode_model(body: Dict) -> EntityModel:
        document = serialization.decode(body["document"], body["format"])
        if isinstance(document, list):
            raise IntegrationError(f"a {body['format']} model answer "
                                   f"decoded to a list")
        return document

    # -- steps 2 and 3: model and data retrieval, one concurrent round ------

    @staticmethod
    def _model_calls(entity: ResolvedEntity, gis_uris: Tuple[str, ...],
                     fmt: str = JSON_FORMAT) -> List[Tuple[str, Dict]]:
        """One entity's model requests: BIM/SIM, then its GIS feature.
        A proxy answers JSON unless asked otherwise, so only another
        *fmt* is sent."""
        params = {} if fmt == JSON_FORMAT else {"format": fmt}
        calls = [{"uri": entity.proxy_uris[source_kind].rstrip("/") + "/model",
                  "params": params}
                 for source_kind in sorted(entity.proxy_uris)]
        if entity.gis_feature_id and gis_uris:
            calls.append({
                "uri": gis_uris[0].rstrip("/")
                + f"/feature/{entity.gis_feature_id}",
                "params": {**params, "entity_id": entity.entity_id},
            })
        return [(entity.entity_id, call) for call in calls]

    @staticmethod
    def _plan(model_calls: List[Tuple[str, Dict]],
              series: Sequence[Tuple[str, str, RangeQuery]]) -> Tuple:
        """*model_calls*; every call of the round, models then ONE ``/data``
        per Device-proxy, under its held-answer key; series by proxy."""
        by_proxy: Dict[str, List[Tuple[str, RangeQuery]]] = {}
        for entity_id, proxy_uri, query in series:
            by_proxy.setdefault(proxy_uri, []).append((entity_id, query))
        calls = [call for _, call in model_calls] + [
            {"uri": proxy_uri.rstrip("/") + "/data",
             "params": RangeQuery.to_series_params(
                 [query for _, query in members])}
            for proxy_uri, members in by_proxy.items()]
        return model_calls, [
            ((call["uri"], tuple(sorted(call["params"].items()))), call)
            for call in calls], by_proxy

    def _fetch(self, planned: Tuple, strict: bool,
               sent: Optional[Tuple[Round, Dict[Tuple, int]]] = None
               ) -> Tuple[Dict[str, List[EntityModel]], Dict[str, Dict]]:
        """Fetch models and device data in one concurrent round.

        Every model call of the :meth:`_plan` *planned* and ONE ``/data``
        call per Device-proxy — carrying all the ``(entity_id,
        proxy_uri, query)`` series that proxy serves, which share one
        window — are issued at once: the proxies are independent hosts,
        so the round costs its slowest request, not the sum.  Returns
        the decoded models and the ``(device, quantity)`` sample lists,
        each keyed by entity id.  Every call is a conditional GET: an
        answer this client already holds is asked for with its token,
        and a 304 hands back the held one.

        A call *sent* already, (round, {key: index}), is waited for
        there; one this round does not name is dropped.

        With *strict* the first failed call, in call order (models, then
        data), raises; otherwise it is counted in
        :attr:`fetch_failures` and its model is missing / its series
        are empty.
        """
        model_calls, plan, by_proxy = planned
        self.data_requests += len(by_proxy)
        pending, named = sent or (Round(()), {})
        early = [named[key] if key in named else None for key, _ in plan]
        pending.dropped.update(set(named.values()).difference(early))
        self._trim_held()
        late = iter(self.http.gather([
            {"uri": call["uri"],
             "params": self._conditional(key, call["params"])}
            for (key, call), index in zip(plan, early) if index is None]))
        self.http.wait(pending, [i for i in early if i is not None])
        outcomes = [next(late) if index is None else pending.outcomes[index]
                    for index in early]
        decoders = [self._decode_model] * len(model_calls) \
            + [itemgetter("series")] * len(by_proxy)
        answers = [self._held_answer(key, outcome, strict, decode)
                   for (key, _), outcome, decode
                   in zip(plan, outcomes, decoders)]
        models: Dict[str, List[EntityModel]] = {}
        for (entity_id, _), model in zip(model_calls, answers):
            if model is not None:
                self.models_fetched += 1
                models.setdefault(entity_id, []).append(model)
        measurements: Dict[str, Dict] = {}
        for members, samples in zip(by_proxy.values(),
                                    answers[len(model_calls):]):
            for (entity_id, query), answer in zip(
                    members, samples or [[]] * len(members)):
                measurements.setdefault(entity_id, {})[
                    (query.device_id, query.quantity)
                ] = [(t, v) for t, v in answer]
        return models, measurements

    def fetch_entity_models(self, entity: ResolvedEntity,
                            gis_uris: Tuple[str, ...] = (),
                            fmt: str = JSON_FORMAT,
                            strict: bool = True) -> List[EntityModel]:
        """Fetch every source model of one entity from its proxies.

        With ``strict=False`` an unreachable or failing proxy degrades
        the answer (its model is simply missing) instead of raising —
        the behaviour a resilient dashboard wants during partial
        outages.  Failures are counted in :attr:`fetch_failures`.
        """
        models, _ = self._fetch(self._plan(
            self._model_calls(entity, gis_uris, fmt), ()), strict)
        return models.get(entity.entity_id, [])

    def fetch_device_data(self, device: ResolvedDevice, quantity: str,
                          start: Optional[float] = None,
                          end: Optional[float] = None,
                          bucket: Optional[float] = None,
                          agg: str = "mean",
                          strict: bool = True
                          ) -> List[Tuple[float, float]]:
        """Fetch one device quantity's samples from its Device-proxy.

        With ``strict=False`` an unreachable or failing Device-proxy
        yields an empty sample list (counted in :attr:`fetch_failures`)
        instead of raising — mirroring the model-fetch behaviour so a
        degraded ``build_area_model(with_data=True)`` completes.
        """
        if quantity not in device.quantities:
            raise QueryError(
                f"device {device.device_id} does not sense {quantity!r}"
            )
        query = RangeQuery(device.device_id, quantity, start=start, end=end,
                           bucket=bucket, agg=agg)
        _, data = self._fetch(
            self._plan([], [("", device.proxy_uri, query)]), strict)
        return data[""][(device.device_id, quantity)]

    # -- step 4: integration ---------------------------------------------------

    def build_area_model(self, query: AreaQuery,
                         with_data: bool = False,
                         data_start: Optional[float] = None,
                         data_end: Optional[float] = None,
                         data_bucket: Optional[float] = None,
                         strict: bool = True
                         ) -> IntegratedModel:
        """The full workflow: resolve, fetch models (and data), integrate.

        ``strict=False`` degrades gracefully through proxy outages (the
        affected sources are missing from the model) instead of raising.

        With tracing installed on the network the whole workflow roots
        one trace: a ``build_area_model`` span whose children are the
        per-request client spans (resolve, each model/data fetch), each
        in turn parenting the server span of the proxy that answered.
        """
        tracer = self.host.network.tracer
        span = tracer.span("build_area_model", kind=INTERNAL,
                           host=self.host.name,
                           attributes={"strict": strict,
                                       "with_data": with_data}) \
            if tracer is not None else nullcontext()

        def plan(area: ResolvedArea) -> Tuple:
            return self._plan(
                [call for entity in area.entities
                 for call in self._model_calls(entity, area.gis_uris)],
                [(entity.entity_id, device.proxy_uri,
                  RangeQuery(device.device_id, quantity, start=data_start,
                             end=data_end, bucket=data_bucket))
                 for entity in area.entities if with_data
                 for device in entity.devices
                 for quantity in device.quantities])

        with span:
            resolved, planned, sent = self._resolve(query, True, plan)
            models, measurements = self._fetch(planned, strict, sent)
            return integrate(resolved, models, measurements)

    # -- control and live data --------------------------------------------------

    def actuate(self, device: ResolvedDevice, command: str,
                value: Optional[float] = None,
                on_result: Optional[Callable[[ActuationResult], None]] = None
                ) -> None:
        """Send a command to an actuator through its Device-proxy.

        Returns None once the proxy has dispatched the command (its 202
        has no body); the eventual :class:`ActuationResult` is published
        on ``actuation/<device>`` and passed to *on_result* if given
        (requires a broker connection).  A refused command raises
        :class:`~repro.errors.ServiceError`.
        """
        if not device.is_actuator:
            raise QueryError(f"device {device.device_id} is not an actuator")
        if on_result is not None:
            if self.peer is None:
                raise QueryError(
                    "actuation callback requires a broker connection"
                )

            subscription: List[Subscription] = []

            def deliver(event: Event) -> None:
                # exact on actuation/<device>, but any peer may publish
                # there: wait on past a body that is not a result
                try:
                    result = decode_event(event.topic, event.payload,
                                          event.published_at)
                except (KeyError, TypeError, ValueError, ReproError):
                    return
                on_result(result)
                # one-shot: drop the subscription once the result arrived,
                # so repeated actuate() calls do not accumulate live
                # subscriptions on the broker
                if subscription:
                    subscription.pop().unsubscribe()

            subscription.append(
                self.peer.subscribe(actuation_topic(device.device_id),
                                    deliver)
            )
        self.http.post(
            device.proxy_uri.rstrip("/") + f"/actuate/{device.device_id}",
            body={"command": command, "value": value},
        )

    def subscribe_measurements(self, callback: Callable[[Event], None],
                               district_id: str = "+",
                               entity_id: str = "+",
                               device_id: str = "+",
                               quantity: str = "+") -> Subscription:
        """Live subscription to measurement events (requires broker)."""
        if self.peer is None:
            raise QueryError("subscription requires a broker connection")
        pattern = measurement_filter(district_id, entity_id, device_id,
                                     quantity)
        return self.peer.subscribe(pattern, callback)
