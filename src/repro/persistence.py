"""Persistence: the snapshot files that make stateful nodes restartable.

* **ontology snapshots** — the master's district forest as a JSON file;
  an alternative recovery path to proxy re-registration after a master
  restart (see :class:`~repro.simulation.faults.FaultInjector`);
* **measurement-DB state snapshots** — the measurement database's
  block store plus its ingest bookkeeping, the companion of its
  write-ahead log (see :mod:`repro.storage.durability`);
* **broker state snapshots** — the middleware broker's durable state.

Formats are versioned; loading a file with an unknown version fails
loudly rather than guessing.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import SerializationError
from repro.ontology.model import DistrictOntology
from repro.storage.blocks import BlockStore

_ONTOLOGY_VERSION = 1
#: columnar BlockStore dump ("engine": "blocks") carrying sealed blocks
#: + rollup state verbatim; version 1 (a row-per-series dump) is no
#: longer written or read
_MDB_STATE_VERSION_BLOCKS = 2
_BROKER_STATE_VERSION = 1


def _write_json(path: str, payload: Dict) -> None:
    tmp_path = path + ".tmp"
    with open(tmp_path, "w") as handle:
        json.dump(payload, handle)
    os.replace(tmp_path, path)  # atomic on POSIX


def _read_json(path: str) -> Dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot load {path!r}: {exc}") from exc


# --------------------------------------------------------------------------
# ontology snapshots


@dataclass
class OntologySnapshot:
    """A loaded master-state snapshot: the forest plus lease metadata.

    *leases* maps registered proxy URIs to their absolute lease-expiry
    times on the simulated clock (empty for permanent registrations and
    for snapshots written before leases existed).  *ontology_epoch* is
    the master's forest version at snapshot time (0 for snapshots
    written before epochs existed), restored so resolve-cache
    validators stay monotone across a master restart.
    """

    ontology: DistrictOntology
    leases: Dict[str, float] = field(default_factory=dict)
    ontology_epoch: int = 0


def save_ontology(ontology: DistrictOntology, path: str,
                  leases: Optional[Dict[str, float]] = None,
                  epoch: int = 0) -> None:
    """Write the ontology forest to *path* as a versioned JSON snapshot.

    *leases* (proxy URI -> absolute expiry, simulated seconds) rides
    along so a restarted master can restore its lease table too — see
    :meth:`repro.core.master.MasterNode.recover_from_snapshot`.
    *epoch* persists the master's ontology epoch for the same reason.
    """
    _write_json(path, {
        "format": "repro-ontology",
        "version": _ONTOLOGY_VERSION,
        "ontology": ontology.to_dict(),
        "leases": {uri: float(expiry)
                   for uri, expiry in (leases or {}).items()},
        "ontology_epoch": int(epoch),
    })


def _check_ontology_header(path: str, payload: Dict) -> None:
    if payload.get("format") != "repro-ontology":
        raise SerializationError(f"{path!r} is not an ontology snapshot")
    if payload.get("version") != _ONTOLOGY_VERSION:
        raise SerializationError(
            f"unsupported ontology snapshot version "
            f"{payload.get('version')!r}"
        )


def load_ontology(path: str) -> DistrictOntology:
    """Load an ontology snapshot written by :func:`save_ontology`."""
    payload = _read_json(path)
    _check_ontology_header(path, payload)
    return DistrictOntology.from_dict(payload["ontology"])


def load_ontology_snapshot(path: str) -> OntologySnapshot:
    """Load an ontology snapshot *with* its lease metadata.

    Snapshots written before leases were persisted load with an empty
    lease table (every registration treated as permanent).
    """
    payload = _read_json(path)
    _check_ontology_header(path, payload)
    return OntologySnapshot(
        ontology=DistrictOntology.from_dict(payload["ontology"]),
        leases={uri: float(expiry)
                for uri, expiry in payload.get("leases", {}).items()},
        ontology_epoch=int(payload.get("ontology_epoch", 0)),
    )


# --------------------------------------------------------------------------
# measurement-DB state snapshots (durable data plane)


@dataclass
class MeasurementState:
    """A loaded measurement-DB snapshot: store plus ingest bookkeeping.

    The companion of the write-ahead log (see
    :mod:`repro.storage.durability`): *database* holds every series at
    snapshot time, *freshness* the per-device newest-sample timestamps,
    *dedup_keys* the idempotent-ingest window (so redeliveries of
    samples already in the snapshot stay deduplicated after recovery),
    and *entity_for_device* the device -> entity ownership that entity
    targets of ``query_range`` fan out over.
    """

    database: BlockStore
    freshness: Dict[str, float] = field(default_factory=dict)
    dedup_keys: list = field(default_factory=list)
    entity_for_device: Dict[str, str] = field(default_factory=dict)


def save_measurement_state(database: BlockStore, path: str,
                           freshness: Optional[Dict[str, float]] = None,
                           dedup_keys=None,
                           entity_for_device: Optional[Dict[str, str]]
                           = None) -> None:
    """Atomically snapshot a measurement store plus ingest bookkeeping.

    A *recovery* artifact: beside the store it persists the freshness
    table and the dedup window, so a restarted measurement DB resumes
    with exact idempotent-ingest state instead of re-counting
    redelivered samples.  The store's sealed blocks and rollup state
    are carried verbatim (recovery must not recompute rollups from raw
    data it may no longer retain).
    """
    _write_json(path, {
        "format": "repro-mdb-state",
        "version": _MDB_STATE_VERSION_BLOCKS,
        "engine": "blocks",
        "tsdb": database.to_dict(),
        "freshness": {device: float(t)
                      for device, t in (freshness or {}).items()},
        "dedup_keys": [list(key) for key in (dedup_keys or [])],
        "entity_for_device": dict(entity_for_device or {}),
    })


def load_measurement_state(path: str) -> MeasurementState:
    """Load a recovery snapshot written by :func:`save_measurement_state`."""
    payload = _read_json(path)
    if payload.get("format") != "repro-mdb-state":
        raise SerializationError(f"{path!r} is not a measurement-DB "
                                 f"state snapshot")
    version = payload.get("version")
    if version != _MDB_STATE_VERSION_BLOCKS:
        raise SerializationError(
            f"unsupported measurement-DB state version {version!r}"
        )
    if payload.get("engine") != "blocks":
        raise SerializationError(
            f"unknown storage engine {payload.get('engine')!r} in "
            f"{path!r}"
        )
    return MeasurementState(
        database=BlockStore.from_dict(payload["tsdb"]),
        freshness={device: float(t)
                   for device, t in payload.get("freshness", {}).items()},
        dedup_keys=[tuple(key) for key in payload.get("dedup_keys", [])],
        entity_for_device=dict(payload.get("entity_for_device", {})),
    )


# --------------------------------------------------------------------------
# broker state snapshots (broker HA)


def save_broker_state(state: Dict, path: str) -> None:
    """Atomically snapshot the middleware broker's durable state.

    *state* is :meth:`repro.middleware.broker.Broker.state_snapshot` —
    retained events, subscription registry, pending acked deliveries,
    deferred pub-acks, the dead-letter queue and the id/op high-water
    marks.  Written with the same tmp + ``os.replace`` recipe as every
    other snapshot, so a crash mid-write leaves the previous snapshot
    intact.
    """
    _write_json(path, {
        "format": "repro-broker-state",
        "version": _BROKER_STATE_VERSION,
        "state": state,
    })


def load_broker_state(path: str) -> Dict:
    """Load a broker-state snapshot written by :func:`save_broker_state`."""
    payload = _read_json(path)
    if payload.get("format") != "repro-broker-state":
        raise SerializationError(f"{path!r} is not a broker-state snapshot")
    if payload.get("version") != _BROKER_STATE_VERSION:
        raise SerializationError(
            f"unsupported broker-state version {payload.get('version')!r}"
        )
    return dict(payload.get("state", {}))
