"""Database-proxies for BIM, SIM and GIS sources.

"Each proxy offers a Web Service interface which allows data retrieval
and translation from its database to an open standard, such as JSON or
XML."  All model routes therefore accept ``?format=json|xml`` and return
the encoded CDF document; translation counters feed the C5 benchmark.

Model answers are conditional GETs
(:func:`~repro.network.webservice.conditional`) under the store's
:attr:`version`: a caller holding the current token gets a bodyless
304 — no translation, no encoding.  A store only changes through its
verbs, each of which moves the version, so a 304 is exactly as fresh
as a full body.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.common import serialization
from repro.common.cdf import EntityModel
from repro.common.serialization import JSON_FORMAT
from repro.datasources.bim import BimStore
from repro.datasources.geometry import BoundingBox
from repro.datasources.gis import GisStore
from repro.datasources.sim import SimStore
from repro.errors import TranslationError, UnknownEntityError
from repro.network.transport import Host
from repro.network.webservice import (
    GET,
    Request,
    Response,
    conditional,
    error,
    ok,
)
from repro.proxies.base import Proxy
from repro.proxies.translators import (
    translate_bim,
    translate_gis_feature,
    translate_sim,
)


class DatabaseProxy(Proxy):
    """Common machinery of the three database-proxy families."""

    proxy_kind = "database"
    source_kind = ""  # bim | sim | gis; set by subclasses

    def __init__(self, host: Host, processing_delay: float = 2e-4):
        super().__init__(host, processing_delay)
        #: model answers that carried a body (a 304 translates nothing)
        self.translations = 0

    def _model_route(self, request: Request) -> Response:
        return self._model_response(request, self.translate)

    def _model_response(self, request: Request,
                        build: Callable[[], EntityModel]) -> Response:
        """Answer a model request as a conditional GET under the store's
        version: 304, or the translated, encoded model and its token."""
        fmt = request.params.get("format", JSON_FORMAT)
        if fmt not in serialization.FORMATS:
            return error(400, f"unknown format {fmt!r}")

        def answer(_params: Dict[str, str]) -> Response:
            try:
                encoded = serialization.encode(build(), fmt)
            except TranslationError as exc:
                return error(500, str(exc))
            self.translations += 1
            return ok({"format": fmt, "document": encoded})

        return conditional(request, str(self.store.version), answer)


class BimProxy(DatabaseProxy):
    """Proxy wrapping one building's BIM database."""

    source_kind = "bim"

    def __init__(self, host: Host, store: BimStore, entity_id: str,
                 district_id: str, name: str = "",
                 gis_feature_id: str = "",
                 bounds: Optional[BoundingBox] = None):
        super().__init__(host)
        self.store = store
        self.entity_id = entity_id
        self.district_id = district_id
        self.entity_name = name or store.project_name
        # deployment configuration: this building's mapping into the GIS
        self.gis_feature_id = gis_feature_id
        self.bounds = bounds
        self.service.add_route(GET, "/model", self._model_route)
        self.service.add_route(GET, "/spaces", self._spaces_route)
        self.service.add_route(GET, "/record/{guid}", self._record_route)

    def translate(self):
        """The building's CDF model (used in-process by tests/benches)."""
        return translate_bim(self.store, self.entity_id)

    def descriptor(self) -> Dict:
        descriptor = {
            "source_kind": self.source_kind,
            "district_id": self.district_id,
            "entity_id": self.entity_id,
            "entity_type": "building",
            "name": self.entity_name,
        }
        if self.gis_feature_id:
            descriptor["gis_feature_id"] = self.gis_feature_id
        if self.bounds is not None:
            descriptor["bounds"] = self.bounds.to_list()
        return descriptor

    def _spaces_route(self, request: Request) -> Response:
        spaces = [
            {
                "guid": record["GlobalId"],
                "name": record["Name"],
                "properties": self.store.property_sets(record["GlobalId"]),
            }
            for record in self.store.spaces()
        ]
        return ok({"spaces": spaces})

    def _record_route(self, request: Request) -> Response:
        guid = request.path_params["guid"]
        try:
            record = self.store.record(guid)
        except UnknownEntityError as exc:
            return error(404, str(exc))
        body = dict(record)
        body["properties"] = self.store.property_sets(guid)
        return ok(body)


class SimProxy(DatabaseProxy):
    """Proxy wrapping one distribution network's SIM database."""

    source_kind = "sim"

    def __init__(self, host: Host, store: SimStore, entity_id: str,
                 district_id: str, gis_feature_id: str = "",
                 bounds: Optional[BoundingBox] = None):
        super().__init__(host)
        self.store = store
        self.entity_id = entity_id
        self.district_id = district_id
        self.gis_feature_id = gis_feature_id
        self.bounds = bounds
        self.service.add_route(GET, "/model", self._model_route)

    def translate(self):
        return translate_sim(self.store, self.entity_id)

    def descriptor(self) -> Dict:
        descriptor = {
            "source_kind": self.source_kind,
            "district_id": self.district_id,
            "entity_id": self.entity_id,
            "entity_type": "network",
            "name": self.store.network_name,
            "commodity": self.store.commodity,
        }
        if self.gis_feature_id:
            descriptor["gis_feature_id"] = self.gis_feature_id
        if self.bounds is not None:
            descriptor["bounds"] = self.bounds.to_list()
        return descriptor


class GisProxy(DatabaseProxy):
    """Proxy wrapping a district's GIS database."""

    source_kind = "gis"

    def __init__(self, host: Host, store: GisStore, district_id: str):
        super().__init__(host)
        self.store = store
        self.district_id = district_id
        self.service.add_route(GET, "/feature/{feature_id}",
                               self._feature_route)

    def translate_feature(self, feature_id: str, entity_id: str,
                          entity_type: Optional[str] = None):
        return translate_gis_feature(
            self.store.feature(feature_id), entity_id, entity_type
        )

    def descriptor(self) -> Dict:
        return {
            "source_kind": self.source_kind,
            "district_id": self.district_id,
            "name": self.store.district_name,
        }

    def _feature_route(self, request: Request) -> Response:
        try:
            feature = self.store.feature(request.path_params["feature_id"])
        except UnknownEntityError as exc:
            return error(404, str(exc))
        entity_id = request.params.get("entity_id", "bld-0000")
        return self._model_response(
            request, lambda: translate_gis_feature(feature, entity_id))
