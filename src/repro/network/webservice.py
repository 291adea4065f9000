"""Simulated REST-style Web Services over the transport layer.

Every architectural box in the paper exposes a Web Service: the master
node, each Device-proxy and each Database-proxy.  :class:`WebService`
implements a small REST router (path templates with ``{param}``
placeholders) bound to a simulated host; :class:`HttpClient` issues
requests with timeouts and returns futures.

Requests and responses travel as transport messages, so they pay
realistic network latency, can be dropped by failure injection, and the
client's timeout converts a lost message into
:class:`~repro.errors.RequestTimeoutError` — exactly what a real HTTP
client would observe.
"""

from __future__ import annotations

import itertools
import re
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.common.identifiers import ServiceUri
from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    NetworkError,
    RequestTimeoutError,
    ServiceError,
)
from repro.network.futures import Future
from repro.network.resilience import FailoverSet, ResiliencePolicy
from repro.network.scheduler import EventHandle
from repro.network.transport import Host, Message, frame_size
from repro.observability.tracing import CLIENT, SERVER, decode_header, emit

_SERVER_PORT = "http"
#: every HttpClient on a host takes its replies on this one port
_REPLY_PORT = "http-reply"
_PARAM_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")

GET = "GET"
POST = "POST"
METHODS = (GET, POST)


@dataclass(frozen=True)
class Request:
    """An in-flight web-service request."""

    method: str
    path: str
    params: Dict[str, str] = field(default_factory=dict)
    body: Any = None
    path_params: Dict[str, str] = field(default_factory=dict)
    sender: str = ""


@dataclass(frozen=True)
class Response:
    """A web-service response; ``body`` is a JSON-able payload."""

    status: int
    body: Any = None
    reason: str = ""

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


def ok(body: Any = None) -> Response:
    """Build a 200 response."""
    return Response(200, body)


def error(status: int, reason: str) -> Response:
    """Build an error response with a reason string."""
    return Response(status, None, reason)


def conditional(request: Request, token: str,
                answer: Callable[[Dict[str, str]], Response],
                on_not_modified: Callable[[], None] = lambda: None
                ) -> Response:
    """Answer a conditional GET for a resource whose version is *token*.

    A caller whose ``if_none_match`` equals *token* already holds the
    current answer and gets a bodyless 304 (*on_not_modified* runs,
    *answer* does not).  Any other caller gets ``answer(params)``, where
    *params* are the request's params without the validator (popped
    from ``request.params``, the server's own copy); a 2xx body gets
    ``"token"`` written into it, in place, so the caller can revalidate.
    """
    params = request.params
    if params.pop("if_none_match", None) == token:
        on_not_modified()
        return Response(304)
    response = answer(params)
    if response.ok:
        response.body["token"] = token
    return response


RouteHandler = Callable[[Request], Response]


class _Route:
    def __init__(self, method: str, template: str, handler: RouteHandler):
        if method not in METHODS:
            raise ConfigurationError(f"unsupported method {method!r}")
        self.method = method
        self.template = template
        self.handler = handler
        pattern = _PARAM_RE.sub(r"(?P<\1>[^/]+)", template)
        self._regex = re.compile(f"^{pattern}$")

    def match(self, method: str, path: str) -> Optional[Dict[str, str]]:
        if method != self.method:
            return None
        match = self._regex.match(path)
        return match.groupdict() if match else None


class Router:
    """Dispatches (method, path) to handlers with path parameters.

    Parameter-free routes land in an exact ``(method, path)`` dispatch
    table consulted first — one dict lookup instead of a regex scan —
    with the template scan as fallback for parameterised paths.  First
    registration still wins: a literal route whose path is already
    matched by an earlier-registered template stays off the exact table
    so the scan order decides, exactly as the seed router did.
    """

    def __init__(self) -> None:
        self._routes: List[_Route] = []
        self._exact: Dict[tuple, _Route] = {}

    def add(self, method: str, template: str, handler: RouteHandler) -> None:
        """Register *handler* for *method* on *template* (e.g. ``/d/{id}``)."""
        route = _Route(method, template, handler)
        if not _PARAM_RE.search(template):
            shadowed = any(
                earlier.match(method, template) is not None
                for earlier in self._routes
            )
            if not shadowed:
                self._exact[(method, sys.intern(template))] = route
        self._routes.append(route)

    def dispatch(self, request: Request, profiler=None, node: str = ""
                 ) -> Response:
        """Route a request; 404 if no template matches.

        A template's path parameters are written into the request's own
        ``path_params``, so a templated request is built once.  With a
        *profiler*, the matched handler runs inside a
        ``(node, "http", "METHOD /template")`` frame — the route
        template, not the concrete path, so profile buckets stay
        low-cardinality.
        """
        route = self._exact.get((request.method, request.path))
        if route is None:
            for route in self._routes:
                params = route.match(request.method, request.path)
                if params is not None:
                    request.path_params.update(params)
                    break
            else:
                return error(404,
                             f"no route for {request.method} {request.path}")
        frame = None if profiler is None else profiler.enter(
            node, "http", f"{route.method} {route.template}")
        try:
            return route.handler(request)
        finally:
            if frame is not None:
                profiler.exit(frame)


class WebService:
    """A REST service bound to a simulated host.

    *processing_delay* models server-side compute per request, in
    seconds.  The host charges it on the request's delivery
    (:meth:`Host.serve`), so a request is two events, its delivery and
    its reply's: the handler runs when the processing window ends, and
    the reply leaves at once.
    """

    def __init__(self, host: Host, processing_delay: float = 1e-4):
        self.host = host
        self.router = Router()
        self.requests_served = 0
        self.requests_failed = 0
        #: requests whose handler raised (each also a 500 in
        #: requests_failed, a ``handler_error`` event and a span error)
        self.handler_errors = 0
        self._processing_delay = processing_delay
        host.bind(_SERVER_PORT, self._on_message)
        host.serve(_SERVER_PORT, processing_delay)

    @property
    def base_uri(self) -> str:
        """The ``svc://host/`` URI of this service."""
        return str(ServiceUri(self.host.name, "/"))

    def route(self, method: str, template: str) -> Callable:
        """Decorator form of :meth:`Router.add`."""
        def register(handler: RouteHandler) -> RouteHandler:
            self.router.add(method, template, handler)
            return handler
        return register

    def add_route(self, method: str, template: str,
                  handler: RouteHandler) -> None:
        self.router.add(method, template, handler)

    def close(self) -> None:
        """Unbind from the host (service goes dark; requests time out)."""
        self.host.unbind(_SERVER_PORT)

    def _on_message(self, message: Message) -> None:
        """Parse, dispatch, count and answer one request, whose
        processing window ends now."""
        payload = message.payload
        request = Request(
            method=payload.get("method", GET),
            path=payload["path"],
            # the server's own copy: a handler, or conditional()'s pop of
            # the validator, never touches the sender's dict
            params=dict(payload.get("params", ())),
            body=payload.get("body"),
            sender=message.sender,
        )
        network = self.host.network
        tracer = network.tracer
        span = None
        if tracer is not None:
            parent = decode_header(payload.get("trace"))
            if parent is not None:
                # server span: opened at the request's arrival, parented
                # to the caller's client span, closed when the response
                # is sent — it covers the modelled processing delay plus
                # dispatch; active so handler-side child spans and
                # events nest under this hop
                span = tracer.start_span(
                    f"{request.method} {request.path}", kind=SERVER,
                    host=self.host.name, parent=parent,
                    start=message.delivered_at - self._processing_delay,
                )
                previous = tracer.active
                tracer.active = span
        try:
            response = self.router.dispatch(request, network.profiler,
                                            self.host.name)
        except Exception as exc:  # handler bug -> 500, like a real server
            kind = type(exc).__name__
            self.handler_errors += 1
            emit(network, "handler_error", host=self.host.name,
                 method=request.method, path=request.path, error=kind,
                 detail=str(exc))
            if span is not None:
                span.attributes["error"] = kind
            response = error(500, f"{kind}: {exc}")
        finally:
            if span is not None:
                tracer.active = previous
        # 3xx answers (a conditional GET's 304 not-modified)
        # are successfully served, not failures: they must not burn the
        # availability SLOs built on requests_served/requests_failed
        served = 200 <= response.status < 400
        if span is not None:
            span.attributes["status"] = response.status
            tracer.finish(span, status="ok" if served else "error")
        if served:
            self.requests_served += 1
        else:
            self.requests_failed += 1
        # an empty reason and a None body are not sent: the client
        # reads a missing one as that default
        reply = {"request_id": payload["request_id"],
                 "status": response.status}
        if response.reason:
            reply["reason"] = response.reason
        if response.body is not None:
            reply["body"] = response.body
        self.host.send(message.sender, _REPLY_PORT, reply,
                       size=frame_size(reply))


class _Replies:
    """A host's one ``http-reply`` port, shared by every
    :class:`HttpClient` on it: one request-id counter and one table,
    request id -> (future, expiry timer, open client span or None).  An
    entry leaves on its reply or its expiry; a reply with none is late
    and dropped."""

    __slots__ = ("host", "ids", "pending")

    def __init__(self, host: Host):
        self.host = host
        self.ids = itertools.count(1)
        self.pending: Dict[int, Tuple[Future, EventHandle, Any]] = {}
        host.bind(_REPLY_PORT, self.deliver)

    def deliver(self, message: Message) -> None:
        payload = message.payload
        pending = self.pending.pop(payload["request_id"], None)
        if pending is None:
            return
        future, expiry, span = pending
        expiry.cancel()
        status = payload["status"]
        tracer = self.host.network.tracer
        if span is not None and tracer is not None:
            span.attributes["status"] = status
            tracer.finish(span, status="ok" if 200 <= status < 400
                          else "error")
        future.set_result(Response(status, payload.get("body"),
                                   payload.get("reason", "")))

    def expire(self, request_id: int, target: ServiceUri) -> None:
        future, _expiry, span = self.pending.pop(request_id)
        tracer = self.host.network.tracer
        if span is not None and tracer is not None:
            span.attributes["error"] = "RequestTimeoutError"
            tracer.finish(span, status="error")
        future.set_exception(RequestTimeoutError(
            f"request to {target} timed out"))


class Round:
    """Calls issued at once: ``outcomes[i]`` is None while call *i* is
    in flight; a call in ``dropped`` has no waiter and is not retried."""

    __slots__ = ("calls", "outcomes", "dropped")

    def __init__(self, calls: Sequence[Dict[str, Any]]):
        self.calls = calls
        self.outcomes: List[Any] = [None] * len(calls)
        self.dropped = set()


class HttpClient:
    """Issues web-service requests from a simulated host.

    :meth:`request` is asynchronous and returns a :class:`Future`;
    :meth:`gather` is the synchronous wait used by client applications
    — it issues a list of requests at once and steps the scheduler
    until every one has its response (or its timeout) — and
    :meth:`call` is the gather of one.

    An optional :class:`~repro.network.resilience.ResiliencePolicy`
    hardens the client: its circuit breaker fast-fails requests to hosts
    that keep failing (:class:`~repro.errors.CircuitOpenError`, no
    network traffic), and its retry policy makes :meth:`gather` retry
    each request's timeouts and 5xx answers with exponential backoff
    spent on the simulated clock.
    """

    def __init__(self, host: Host, timeout: float = 5.0,
                 policy: Optional[ResiliencePolicy] = None):
        self.host = host
        self.timeout = timeout
        self.policy = policy
        self.requests_sent = 0
        if host.http_replies is None:
            host.http_replies = _Replies(host)
        self._replies: _Replies = host.http_replies

    def request(
        self,
        uri: Union[str, ServiceUri],
        method: str = GET,
        params: Optional[Dict[str, str]] = None,
        body: Any = None,
        timeout: Optional[float] = None,
    ) -> Future:
        """Send a request; the future resolves to a :class:`Response`.

        A lost request or response resolves the future with
        :class:`RequestTimeoutError` after the timeout.  With a breaker
        in the client's policy, a request to an open-circuit host
        resolves immediately with :class:`CircuitOpenError`.
        """
        target = uri if isinstance(uri, ServiceUri) else ServiceUri.parse(uri)
        breaker = self.policy.breaker if self.policy is not None else None
        future = Future()
        tracer = self.host.network.tracer
        span = None
        if tracer is not None:
            span = tracer.start_span(
                f"{method} {target.path}", kind=CLIENT,
                host=self.host.name,
                attributes={"target": target.host},
            )
        if breaker is not None:
            now = self.host.network.scheduler.now
            before = breaker.state(target.host)
            allowed = breaker.allow(target.host, now)
            after = breaker.state(target.host)
            if after != before:
                self._breaker_event(target.host, before, after)
            if not allowed:
                future.set_exception(CircuitOpenError(
                    f"circuit open for host {target.host!r}"
                ))
                if span is not None:
                    span.attributes["error"] = "CircuitOpenError"
                    tracer.finish(span, status="error")
                return future
            future.add_done_callback(
                lambda fut: self._observe(target.host, fut)
            )
        replies = self._replies
        request_id = next(replies.ids)
        self.requests_sent += 1
        # only what a default does not say: the server reads a missing
        # method as GET, missing params as none and a missing body as None
        payload = {"path": target.path, "request_id": request_id}
        if method != GET:
            payload["method"] = method
        if params:
            payload["params"] = dict(params)
        if body is not None:
            payload["body"] = body
        if span is not None:
            payload["trace"] = [span.trace_id, span.span_id]
        self.host.send(target.host, _SERVER_PORT, payload,
                       size=frame_size(payload))
        deadline = timeout if timeout is not None else self.timeout
        replies.pending[request_id] = (
            future,
            self.host.network.scheduler.schedule(
                deadline, replies.expire, request_id, target
            ),
            span,
        )
        return future

    def issue(self, calls: Sequence[Dict[str, Any]]) -> Round:
        """Issue every call (:meth:`request` keyword arguments) at once."""
        pending = Round(calls)
        for index in range(len(calls)):
            self._attempt(pending, index, 1)
        return pending

    def wait(self, pending: Round, indices: Sequence[int]
             ) -> List[Union[Response, Exception]]:
        """Step the scheduler until the calls at *indices* of *pending*
        have their outcomes; returns those, in that order."""
        outcomes = pending.outcomes
        step = self.host.network.scheduler.step
        for index in indices:
            while outcomes[index] is None:
                if not step():
                    raise ConfigurationError(
                        "scheduler drained with request still pending")
        return [outcomes[index] for index in indices]

    def gather(self, calls: Sequence[Dict[str, Any]]
               ) -> List[Union[Response, Exception]]:
        """Issue every call at once; drive the scheduler until all resolve.

        Each call is a dict of :meth:`request` keyword arguments.  The
        result lists, in call order, each call's final
        :class:`Response` — whatever its status — or the exception it
        ended with (:class:`RequestTimeoutError`,
        :class:`CircuitOpenError`); nothing is raised for a failed
        call, so one dark host cannot hide the other answers.

        With a retry policy every call runs its own attempts: timeouts
        and 5xx answers are retried with backoff, and 429 answers after
        the server's advised ``retry_after``.  A retry is a timer on the
        simulated clock that re-issues the request, so the other calls
        of the round keep progressing while one backs off.
        """
        return self.wait(self.issue(calls), range(len(calls)))

    def _attempt(self, pending: Round, index: int, number: int) -> None:
        """Issue attempt *number* of one call of a round."""
        self.request(**pending.calls[index]).add_done_callback(
            lambda future: self._settle(pending, index, number, future))

    def _settle(self, pending: Round, index: int, number: int,
                future: Future) -> None:
        """One attempt resolved: schedule a retry or record the outcome."""
        policy = self.policy
        retry = policy.retry if policy is not None else None
        status = None
        try:
            outcome = future.result()
        except RequestTimeoutError as exc:
            outcome, cause = exc, "timeout"
        except CircuitOpenError as exc:
            outcome, cause = exc, None  # fast-fail: nothing to retry
        else:
            status = outcome.status
            cause = "http 429 backpressure" if status == 429 \
                else f"http {status}" if status >= 500 else None
        if cause is not None and retry is not None \
                and index not in pending.dropped:
            uri = pending.calls[index]["uri"]
            if number < retry.max_attempts:
                policy.retries += 1
                self._retry_event(uri, number, cause)
                delay = retry.backoff(number)
                if status == 429 and isinstance(outcome.body, dict):
                    # server-side backpressure: honour the advised
                    # Retry-After instead of the client's own backoff
                    # (which could come back before the server has
                    # drained)
                    delay = float(outcome.body.get("retry_after", delay))
                self.host.network.scheduler.schedule(
                    delay, self._attempt, pending, index, number + 1)
                return
            if status != 429:
                policy.exhausted += 1
                self._retry_event(uri, number, cause, exhausted=True)
        pending.outcomes[index] = outcome

    def call(
        self,
        uri: Union[str, ServiceUri],
        method: str = GET,
        params: Optional[Dict[str, str]] = None,
        body: Any = None,
        timeout: Optional[float] = None,
        check: bool = True,
    ) -> Response:
        """Synchronous request: the :meth:`gather` of one call.

        With *check* (default) a non-2xx response raises
        :class:`ServiceError`; otherwise the raw :class:`Response` is
        returned for the caller to inspect.  A call that ended in a
        timeout or an open circuit raises that error.
        """
        outcome, = self.gather([{
            "uri": uri, "method": method, "params": params, "body": body,
            "timeout": timeout,
        }])
        if isinstance(outcome, Exception):
            raise outcome
        if check and not outcome.ok:
            raise ServiceError(outcome.status, outcome.reason)
        return outcome

    def failover(self, replicas: FailoverSet, path: str, method: str = GET,
                 params: Optional[Dict[str, str]] = None, body: Any = None,
                 sent: Optional[Round] = None) -> Response:
        """Call *path* on each replica at most once, from the one that
        last worked, until one answers 2xx or 3xx (a 304 is an answer).

        Timeouts, open circuits and 5xx (a standby's 503) rotate to the
        next replica; a 4xx raises :class:`ServiceError` at once.  When
        every replica failed the last error is raised.  The first call
        of a round *sent* to ``replicas.current`` is the first attempt.
        """
        last_error: Optional[NetworkError] = None
        for _ in range(len(replicas)):
            uri = replicas.current
            outcome, = self.wait(sent or self.issue([{
                "uri": uri + path, "method": method, "params": params,
                "body": body}]), [0])
            sent = None
            if isinstance(outcome, NetworkError):
                last_error = outcome
            elif outcome.status < 400:
                return outcome
            else:
                last_error = ServiceError(outcome.status, outcome.reason)
                if outcome.status < 500:
                    raise last_error
            emit(self.host.network, "failover", host=self.host.name,
                 failed=uri, next=replicas.advance(), client=self.host.name)
        raise last_error

    def _retry_event(self, uri, attempt: int, cause: str,
                     exhausted: bool = False) -> None:
        """Report one retry decision as a structured trace event."""
        emit(self.host.network,
             "retry_exhausted" if exhausted else "retry",
             host=self.host.name,
             uri=str(uri), attempt=attempt, cause=cause,
             client=self.host.name)

    def _observe(self, target_host: str, future: Future) -> None:
        """Feed one resolved request into the breaker's state machine."""
        breaker = self.policy.breaker
        now = self.host.network.scheduler.now
        before = breaker.state(target_host)
        try:
            response = future.result()
        except NetworkError:  # timed out, or fast-failed by the breaker
            breaker.record_failure(target_host, now)
        else:
            if response.status >= 500:
                breaker.record_failure(target_host, now)
            else:
                breaker.record_success(target_host)
        after = breaker.state(target_host)
        if after != before:
            self._breaker_event(target_host, before, after)

    def _breaker_event(self, target_host: str, before: str, after: str
                       ) -> None:
        """Report a circuit state change as a structured trace event."""
        emit(self.host.network, "breaker_state", host=self.host.name,
             target=target_host, previous=before, state=after,
             client=self.host.name)

    def get(self, uri, params: Optional[Dict[str, str]] = None, **kw
            ) -> Response:
        """Synchronous GET."""
        return self.call(uri, GET, params=params, **kw)

    def post(self, uri, body: Any = None, **kw) -> Response:
        """Synchronous POST."""
        return self.call(uri, POST, body=body, **kw)
