"""Hierarchical topic grammar for the event-driven middleware.

Topics are ``/``-separated hierarchies mirroring the district ontology,
e.g. ``district/dst-0001/building/bld-0007/device/dev-00a3/power``.
Subscription filters may use ``+`` to match exactly one level and a
trailing ``#`` to match any remainder (MQTT semantics, which the
SEEMPubS middleware the paper builds on also adopted).  Matching is one
rule, :func:`levels_match`, on levels the broker splits only once.
"""

from __future__ import annotations

from sys import intern
from typing import Any, List, Sequence, Union

from repro.common.cdf import ActuationResult, Measurement
from repro.errors import ConfigurationError, SerializationError

SINGLE = "+"
MULTI = "#"


def validate_topic(topic: str) -> List[str]:
    """Split and validate a concrete (wildcard-free) topic."""
    levels = _split(topic)
    for level in levels:
        if level in (SINGLE, MULTI):
            raise ConfigurationError(
                f"wildcard {level!r} not allowed in concrete topic {topic!r}"
            )
    return levels


def validate_filter(pattern: str) -> List[str]:
    """Split and validate a subscription filter."""
    levels = _split(pattern)
    for i, level in enumerate(levels):
        if level == MULTI and i != len(levels) - 1:
            raise ConfigurationError(
                f"'#' must be the last level in filter {pattern!r}"
            )
    return levels


def _split(text: str) -> List[str]:
    if not text or text.startswith("/") or text.endswith("/"):
        raise ConfigurationError(f"malformed topic {text!r}")
    levels = text.split("/")
    if any(level == "" for level in levels):
        raise ConfigurationError(f"empty level in topic {text!r}")
    return levels


def topic_matches(pattern: str, topic: str) -> bool:
    """True if concrete *topic* matches subscription *pattern*."""
    return levels_match(validate_filter(pattern), validate_topic(topic))


def levels_match(filter_levels: Sequence[str],
                 topic_levels: Sequence[str]) -> bool:
    """:func:`topic_matches` on a validated filter and topic, split."""
    for i, flevel in enumerate(filter_levels):
        if flevel == MULTI:
            return True
        if i >= len(topic_levels):
            return False
        if flevel != SINGLE and flevel != topic_levels[i]:
            return False
    return len(filter_levels) == len(topic_levels)


def join(*levels: str) -> str:
    """Join topic levels, validating each is non-empty and slash-free."""
    for level in levels:
        if not level or "/" in level:
            raise ConfigurationError(f"bad topic level {level!r}")
    return "/".join(levels)


# --------------------------------------------------------------------------
# canonical topic layout used across the infrastructure


def measurement_topic(district_id: str, entity_id: str, device_id: str,
                      quantity: str) -> str:
    """Topic on which a device-proxy publishes one device quantity: it
    names them, so the event is only ``Measurement.to_event()``."""
    return join("district", district_id, "entity", entity_id,
                "device", device_id, quantity)


def measurement_filter(district_id: str = SINGLE, entity_id: str = SINGLE,
                       device_id: str = SINGLE, quantity: str = SINGLE
                       ) -> str:
    """Filter over measurement topics; unset levels default to ``+``."""
    return join("district", district_id, "entity", entity_id,
                "device", device_id, quantity)


def district_filter(district_id: str) -> str:
    """Filter matching every event of one district."""
    return join("district", district_id) + "/" + MULTI


def registry_topic(district_id: str) -> str:
    """Topic announcing proxy registrations in a district."""
    return join("registry", district_id)


def actuation_topic(device_id: str) -> str:
    """Topic carrying actuation results for a device."""
    return join("actuation", device_id)


def decode_event(topic: str, payload: Any, published_at: float
                 ) -> Union[Measurement, ActuationResult]:
    """The CDF record a device event carries: its topic names the device
    (and a measurement's entity and quantity), its envelope's
    *published_at* an actuation result's ``completed_at`` (unless the
    payload spells it), its payload the rest.
    The names are interned: split afresh per event, they would give
    every record a caller keeps its own copy of the same id."""
    levels = topic.split("/")
    if len(levels) == 7 and levels[0] == "district" and \
            levels[2] == "entity" and levels[4] == "device":
        return Measurement.from_dict(dict(
            payload, entity_id=intern(levels[3]),
            device_id=intern(levels[5]), quantity=intern(levels[6])))
    if len(levels) == 2 and levels[0] == "actuation":
        return ActuationResult.from_dict(
            {"completed_at": published_at, **payload,
             "device_id": intern(levels[1])})
    raise SerializationError(f"{topic!r} is not a device event topic")
