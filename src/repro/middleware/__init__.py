"""Event-driven publish/subscribe middleware (SEEMPubS substitute).

Rebuilds the "main feature" of the middleware the paper's infrastructure
sits on: a topic broker with hierarchical topics and MQTT-style
wildcards, and a peer API used by device-proxies (publishing samples),
the global measurement database (subscribing to everything) and user
applications (subscribing to areas of interest).
"""

from repro.middleware.broker import Broker, BrokerStats, Event
from repro.middleware.peer import MiddlewarePeer, Subscription, connect
from repro.middleware.topics import (
    actuation_topic,
    decode_event,
    district_filter,
    join,
    measurement_filter,
    measurement_topic,
    registry_topic,
    topic_matches,
)

__all__ = [
    "Broker",
    "BrokerStats",
    "Event",
    "MiddlewarePeer",
    "Subscription",
    "actuation_topic",
    "connect",
    "decode_event",
    "district_filter",
    "join",
    "measurement_filter",
    "measurement_topic",
    "registry_topic",
    "topic_matches",
]
