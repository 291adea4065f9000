"""Exception hierarchy for the district-integration framework.

Every error raised by the framework derives from :class:`ReproError`, so
applications can catch one base class at the integration boundary.  The
sub-hierarchy mirrors the package layout: network/transport failures,
protocol decoding failures, proxy/translation failures, ontology and
query failures, and storage failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by this library."""


class ConfigurationError(ReproError):
    """A component was wired or configured inconsistently."""


# --------------------------------------------------------------------------
# network


class NetworkError(ReproError):
    """Base class for simulated-network failures."""


class UnknownHostError(NetworkError):
    """A message was addressed to a host that is not on the network."""


class RequestTimeoutError(NetworkError):
    """A web-service request did not complete within its deadline."""


class ServiceError(NetworkError):
    """A web service returned an error status."""

    def __init__(self, status: int, reason: str = ""):
        super().__init__(f"service returned {status}: {reason}")
        self.status = status
        self.reason = reason


class CircuitOpenError(NetworkError):
    """A request was fast-failed because the target's circuit is open."""


# --------------------------------------------------------------------------
# protocols / devices


class ProtocolError(ReproError):
    """Base class for device-protocol failures."""


class FrameDecodeError(ProtocolError):
    """A protocol frame could not be decoded (corrupt or wrong format)."""


class FrameEncodeError(ProtocolError):
    """A command or reading could not be encoded into a protocol frame."""


class UnsupportedCommandError(ProtocolError):
    """A device received a command it cannot execute."""


# --------------------------------------------------------------------------
# data / translation


class TranslationError(ReproError):
    """A native source record could not be translated to the common format."""


class SerializationError(ReproError):
    """A common-data-format document could not be encoded or decoded."""


class UnitError(ReproError):
    """An operation mixed incompatible physical units."""


# --------------------------------------------------------------------------
# ontology / master / integration


class OntologyError(ReproError):
    """Base class for district-ontology failures."""


class UnknownEntityError(OntologyError):
    """An ontology query referenced an entity that does not exist."""


class NotPrimaryError(ReproError):
    """A write reached a master that is not the writable primary.

    Raised by a standby (writes must go to the primary) or by a fenced
    primary that lost contact with its standbys (see
    :mod:`repro.core.replication`).  The master's ``/register`` route
    maps it to a retryable 503 so clients fail over to the next master
    in their set instead of treating it as a permanent refusal.
    """


class RegistrationError(ReproError):
    """A proxy registration was rejected by the master node."""


class UnknownRegistrationError(RegistrationError):
    """A lease renewal named a registration the master does not hold."""

    #: its ``/register`` status (Precondition Failed: the token is the
    #: precondition); the proxy answers it with a full registration
    status = 412


class QueryError(ReproError):
    """An area or data query was malformed or unsatisfiable."""


class IntegrationError(ReproError):
    """Retrieved data could not be merged into a coherent model."""


# --------------------------------------------------------------------------
# storage


class StorageError(ReproError):
    """Base class for time-series / database failures."""


class SeriesNotFoundError(StorageError):
    """A queried time series does not exist in the store."""


class BackpressureError(StorageError):
    """An ingest queue is full; the caller should retry later.

    Raised by a consumer whose bounded ingest queue is saturated.  The
    middleware translates it into a *busy* negative acknowledgement so
    the broker redelivers after a delay instead of dead-lettering.
    """


class PoisonPayloadError(StorageError):
    """A payload failed translation/validation and cannot be ingested.

    Raised by a consumer for malformed events.  The middleware
    translates it into a *poison* negative acknowledgement; after the
    broker's redelivery budget is exhausted the event moves to the
    dead-letter queue instead of wedging the consumer.
    """
