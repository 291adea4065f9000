"""BIM database: one Building Information Model export per building.

The paper's Figure 1(a) gives "a database for each building (obtained
from each Building Information Model, BIM)".  The native schema here is
IFC-flavoured: a flat table of records keyed by 22-character GlobalIds,
typed ``IfcBuilding`` / ``IfcBuildingStorey`` / ``IfcSpace`` /
``IfcSensor`` / ``IfcFlowTerminal``, linked by parent GlobalIds, with
attribute payloads carried in separate ``IfcPropertySet`` records — the
structural idioms (GUID keys, type tags, detached property sets) that
make raw BIM exports awkward to consume and motivate the
Database-proxy's translation step.
"""

from __future__ import annotations

import string
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError, UnknownEntityError

IFC_BUILDING = "IfcBuilding"
IFC_STOREY = "IfcBuildingStorey"
IFC_SPACE = "IfcSpace"
IFC_SENSOR = "IfcSensor"
IFC_FLOW_TERMINAL = "IfcFlowTerminal"
IFC_PROPERTY_SET = "IfcPropertySet"

_IFC_TYPES = (IFC_BUILDING, IFC_STOREY, IFC_SPACE, IFC_SENSOR,
              IFC_FLOW_TERMINAL, IFC_PROPERTY_SET)

_GUID_ALPHABET = string.ascii_letters + string.digits + "_$"


def make_guid(rng: np.random.RandomState) -> str:
    """Mint a 22-character IFC-style GlobalId."""
    indices = rng.randint(0, len(_GUID_ALPHABET), size=22).tolist()
    return "".join([_GUID_ALPHABET[i] for i in indices])


class BimStore:
    """One building's BIM export in its native record schema.

    :attr:`version` moves with every mutating verb (the ``add_*``
    methods and :meth:`set_property`); the BIM proxy answers an
    unchanged version with a 304, so an edit that bypasses the verbs
    stays invisible to clients that already hold the model.
    """

    def __init__(self, project_name: str):
        self.project_name = project_name
        self.version = 0
        self._records: Dict[str, Dict] = {}
        self._root_guid: Optional[str] = None

    def __len__(self) -> int:
        return len(self._records)

    # -- construction -----------------------------------------------------

    def add_record(self, guid: str, ifc_type: str, name: str,
                   parent: Optional[str] = None) -> str:
        """Insert an IFC record; returns its GlobalId."""
        if ifc_type not in _IFC_TYPES:
            raise ConfigurationError(f"unknown IFC type {ifc_type!r}")
        if guid in self._records:
            raise ConfigurationError(f"duplicate GlobalId {guid!r}")
        if parent is not None and parent not in self._records:
            raise ConfigurationError(f"parent GlobalId {parent!r} missing")
        if ifc_type == IFC_BUILDING:
            if self._root_guid is not None:
                raise ConfigurationError(
                    "BIM export already has an IfcBuilding root"
                )
            self._root_guid = guid
        self._records[guid] = {
            "GlobalId": guid,
            "type": ifc_type,
            "Name": name,
            "parent": parent,
        }
        self.version += 1
        return guid

    def add_property_set(self, of_guid: str, pset_guid: str, name: str,
                         properties: Dict[str, object]) -> str:
        """Attach an IfcPropertySet to an existing record."""
        if of_guid not in self._records:
            raise ConfigurationError(
                f"property set targets missing GlobalId {of_guid!r}"
            )
        guid = self.add_record(pset_guid, IFC_PROPERTY_SET, name, of_guid)
        self._records[guid]["props"] = dict(properties)
        return guid

    def set_property(self, pset_guid: str, name: str, value: object) -> None:
        """Set one property of an IfcPropertySet (a re-survey edit)."""
        record = self._records.get(pset_guid)
        if record is None or record["type"] != IFC_PROPERTY_SET:
            raise ConfigurationError(
                f"{pset_guid!r} is not an IfcPropertySet"
            )
        record.setdefault("props", {})[name] = value
        self.version += 1

    # -- native queries -----------------------------------------------------

    def record(self, guid: str) -> Dict:
        try:
            return self._records[guid]
        except KeyError:
            raise UnknownEntityError(f"no BIM record {guid!r}") from None

    def root(self) -> Dict:
        """The IfcBuilding record."""
        if self._root_guid is None:
            raise UnknownEntityError("BIM export has no IfcBuilding")
        return self._records[self._root_guid]

    def by_type(self, ifc_type: str) -> List[Dict]:
        """All records of one IFC type, in insertion order."""
        return [r for r in self._records.values() if r["type"] == ifc_type]

    def children(self, guid: str) -> List[Dict]:
        """Records whose parent is *guid* (property sets excluded)."""
        return [
            r for r in self._records.values()
            if r["parent"] == guid and r["type"] != IFC_PROPERTY_SET
        ]

    def property_sets(self, guid: str) -> Dict[str, object]:
        """Merged properties of every IfcPropertySet attached to *guid*."""
        merged: Dict[str, object] = {}
        for record in self._records.values():
            if record["type"] == IFC_PROPERTY_SET and \
                    record["parent"] == guid:
                merged.update(record.get("props", {}))
        return merged

    def spaces(self) -> List[Dict]:
        """All IfcSpace records."""
        return self.by_type(IFC_SPACE)

    def sensors(self) -> List[Dict]:
        """All device placements (IfcSensor + IfcFlowTerminal)."""
        return self.by_type(IFC_SENSOR) + self.by_type(IFC_FLOW_TERMINAL)


def build_office_bim(rng: np.random.RandomState, name: str,
                     storeys: int, spaces_per_storey: int,
                     floor_area_m2: float, cadastral_id: str,
                     year_built: int, use: str = "office") -> BimStore:
    """Construct a plausible building BIM export (office layout)."""
    if storeys < 1 or spaces_per_storey < 1:
        raise ConfigurationError("building needs storeys and spaces")
    store = BimStore(name)
    root = store.add_record(make_guid(rng), IFC_BUILDING, name)
    store.add_property_set(root, make_guid(rng), "Pset_BuildingCommon", {
        "GrossFloorArea": floor_area_m2,
        "NumberOfStoreys": storeys,
        "YearOfConstruction": year_built,
        "CadastralReference": cadastral_id,
        "OccupancyType": use,
    })
    storey_area = floor_area_m2 / storeys
    for level in range(storeys):
        storey = store.add_record(
            make_guid(rng), IFC_STOREY, f"Level {level}", root
        )
        store.add_property_set(storey, make_guid(rng), "Pset_Storey", {
            "Elevation": 3.2 * level,
            "GrossArea": storey_area,
        })
        for index in range(spaces_per_storey):
            space = store.add_record(
                make_guid(rng), IFC_SPACE,
                f"Room {level}{index:02d}", storey
            )
            store.add_property_set(space, make_guid(rng), "Pset_Space", {
                "NetArea": storey_area / spaces_per_storey * 0.85,
                "LongName": f"Office {level}.{index:02d}",
            })
    return store
