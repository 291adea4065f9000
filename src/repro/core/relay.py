"""Relay mode: the ablation of the master's redirect design.

The paper's master "redirects the users to the interested data sources"
instead of fetching data itself.  :class:`RelayingMaster` adds the
alternative — a ``/fetch`` endpoint where the master resolves the area,
queries every proxy itself, and returns the merged payload — so the A1
ablation benchmark can measure what the redirect design buys: with a
relay, every byte of every answer flows through the master's host and
concurrent clients queue behind each other.

This is deliberately a subclass used only by the ablation; the
production deployment never relays.
"""

from __future__ import annotations

from typing import Dict, List

from repro.common import serialization
from repro.errors import QueryError, UnknownEntityError
from repro.network.transport import Host
from repro.network.webservice import GET, HttpClient, Request, Response, error, ok
from repro.core.client import DistrictClient
from repro.core.master import MasterNode
from repro.ontology.queries import AreaQuery
from repro.storage.query import RangeQuery


class RelayingMaster(MasterNode):
    """A master node that can also fetch and merge on the client's behalf."""

    def __init__(self, host: Host, processing_delay: float = 2e-4):
        super().__init__(host, processing_delay)
        self.relays_served = 0
        self._relay_client = HttpClient(host)
        self.service.add_route(GET, "/fetch", self._fetch_route)

    def _fetch_route(self, request: Request) -> Response:
        try:
            query = AreaQuery.from_params(request.params)
            resolved = self.resolve_area(query)
        except QueryError as exc:
            return error(400, str(exc))
        except UnknownEntityError as exc:
            return error(404, str(exc))
        entities = {entity.entity_id: {
            "entity_id": entity.entity_id,
            "entity_type": entity.entity_type,
            "models": [],
            "samples": {},
        } for entity in resolved.entities}
        # the client's own round (DistrictClient._plan), all at once
        model_calls = [call for entity in resolved.entities for call
                       in DistrictClient._model_calls(entity,
                                                      resolved.gis_uris)]
        _, plan, by_proxy = DistrictClient._plan(model_calls, [
            (entity.entity_id, device.proxy_uri,
             RangeQuery(device.device_id, quantity))
            for entity in resolved.entities
            if request.params.get("with_data") == "1"
            for device in entity.devices for quantity in device.quantities])
        outcomes = self._relay_client.gather([call for _, call in plan])
        # a dark proxy degrades the answer (its outcome is an exception
        # or a non-2xx), it does not 500 the relay
        for (entity_id, _), outcome in zip(model_calls, outcomes):
            if isinstance(outcome, Response) and outcome.ok:
                entities[entity_id]["models"].append(
                    outcome.body["document"])
        for members, outcome in zip(by_proxy.values(),
                                    outcomes[len(model_calls):]):
            if isinstance(outcome, Response) and outcome.ok:
                for (entity_id, query), samples in zip(
                        members, outcome.body["series"]):
                    entities[entity_id]["samples"][
                        f"{query.device_id}/{query.quantity}"] = samples
        self.relays_served += 1
        return ok({
            "district_id": resolved.district_id,
            "entities": list(entities.values()),
        })


def decode_relayed_models(entity_payload: Dict) -> List:
    """Decode the JSON model documents in a relayed entity payload."""
    return [serialization.from_json(doc)
            for doc in entity_payload.get("models", [])]
