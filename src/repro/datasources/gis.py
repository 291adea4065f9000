"""GIS database: georeferenced features of the district.

One (or more) GIS stores per district hold the footprints, routes and
administrative references of everything in the area.  The native schema
is feature-oriented: layers of features, each a WKT geometry plus a flat
property map keyed by *cadastral parcel id* — the administrative key the
SIM databases also use, making the GIS the join table between building
models and distribution networks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.datasources.geometry import BoundingBox, Geometry, parse_wkt
from repro.errors import ConfigurationError, UnknownEntityError

LAYER_BUILDINGS = "buildings"
LAYER_ROUTES = "network_routes"
LAYER_BOUNDARY = "district_boundary"
LAYERS = (LAYER_BUILDINGS, LAYER_ROUTES, LAYER_BOUNDARY)


@dataclass
class Feature:
    """One GIS feature: id, layer, WKT geometry, flat properties."""

    feature_id: str
    layer: str
    wkt: str
    properties: Dict[str, object] = field(default_factory=dict)

    @property
    def geometry(self) -> Geometry:
        """Parsed geometry (parsed on access; the store keeps WKT text)."""
        return parse_wkt(self.wkt)


class GisStore:
    """A district's GIS database in its native feature schema.

    :attr:`version` moves with every :meth:`add_feature` (see
    :class:`~repro.datasources.bim.BimStore`).
    """

    def __init__(self, district_name: str):
        self.district_name = district_name
        self.version = 0
        self._features: Dict[str, Feature] = {}
        self._ids = itertools.count(1)

    def __len__(self) -> int:
        return len(self._features)

    def add_feature(self, layer: str, geometry: Geometry,
                    properties: Optional[Dict[str, object]] = None,
                    feature_id: Optional[str] = None) -> Feature:
        """Insert a feature; returns it with its assigned id."""
        if layer not in LAYERS:
            raise ConfigurationError(f"unknown GIS layer {layer!r}")
        fid = feature_id if feature_id is not None \
            else f"ft-{next(self._ids):05d}"
        if fid in self._features:
            raise ConfigurationError(f"duplicate feature id {fid!r}")
        feature = Feature(fid, layer, geometry.to_wkt(),
                          dict(properties or {}))
        self._features[fid] = feature
        self.version += 1
        return feature

    def feature(self, feature_id: str) -> Feature:
        """Look up a feature by id."""
        try:
            return self._features[feature_id]
        except KeyError:
            raise UnknownEntityError(
                f"no GIS feature {feature_id!r}"
            ) from None

    def layer(self, layer: str) -> List[Feature]:
        """All features of one layer, in insertion order."""
        if layer not in LAYERS:
            raise ConfigurationError(f"unknown GIS layer {layer!r}")
        return [f for f in self._features.values() if f.layer == layer]

    def features(self) -> List[Feature]:
        """All features, in insertion order."""
        return list(self._features.values())

    # -- spatial queries -----------------------------------------------------

    def query_bbox(self, bbox: BoundingBox, layer: Optional[str] = None
                   ) -> List[Feature]:
        """Features whose geometry's bounds intersect *bbox*."""
        candidates = self.layer(layer) if layer else self.features()
        return [
            f for f in candidates
            if f.geometry.bounds().intersects(bbox)
        ]

    def query_point(self, x: float, y: float, layer: str = LAYER_BUILDINGS
                    ) -> List[Feature]:
        """Polygon features of *layer* containing the point."""
        return [
            f for f in self.layer(layer)
            if f.geometry.contains_point((x, y))
        ]

    def district_bounds(self) -> BoundingBox:
        """Bounds of the whole district (union of all feature bounds)."""
        features = self.features()
        if not features:
            raise UnknownEntityError("GIS store is empty")
        boxes = [f.geometry.bounds() for f in features]
        return BoundingBox(
            min(b.min_x for b in boxes), min(b.min_y for b in boxes),
            max(b.max_x for b in boxes), max(b.max_y for b in boxes),
        )
