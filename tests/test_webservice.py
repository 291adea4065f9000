"""Tests for the simulated REST web-service layer."""

import pytest

from repro.errors import RequestTimeoutError, ServiceError
from repro.network.scheduler import Scheduler
from repro.network.transport import LatencyModel, Network
from repro.network.webservice import (
    GET,
    POST,
    HttpClient,
    Request,
    Response,
    Router,
    WebService,
    conditional,
    error,
    ok,
)
from repro.observability import install


@pytest.fixture
def net():
    return Network(Scheduler(), latency=LatencyModel(jitter=0.0))


@pytest.fixture
def service(net):
    host = net.add_host("server")
    svc = WebService(host)

    @svc.route(GET, "/ping")
    def ping(request):
        return ok("pong")

    @svc.route(GET, "/items/{item_id}")
    def get_item(request):
        return ok({"item": request.path_params["item_id"]})

    @svc.route(POST, "/items/{item_id}")
    def set_item(request):
        return ok({"item": request.path_params["item_id"],
                   "body": request.body})

    @svc.route(GET, "/fail")
    def fail(request):
        return error(503, "maintenance")

    @svc.route(GET, "/crash")
    def crash(request):
        raise RuntimeError("handler bug")

    return svc


@pytest.fixture
def client(net, service):
    return HttpClient(net.add_host("client"))


class TestRouter:
    def test_dispatch_literal(self):
        router = Router()
        router.add(GET, "/a", lambda r: ok(1))
        assert router.dispatch(Request(GET, "/a")).body == 1

    def test_dispatch_with_params(self):
        router = Router()
        router.add(GET, "/d/{x}/{y}", lambda r: ok(r.path_params))
        resp = router.dispatch(Request(GET, "/d/foo/bar"))
        assert resp.body == {"x": "foo", "y": "bar"}

    def test_no_match_404(self):
        router = Router()
        resp = router.dispatch(Request(GET, "/missing"))
        assert resp.status == 404

    def test_method_mismatch_404(self):
        router = Router()
        router.add(POST, "/a", lambda r: ok(1))
        assert router.dispatch(Request(GET, "/a")).status == 404

    def test_param_does_not_cross_segments(self):
        router = Router()
        router.add(GET, "/d/{x}", lambda r: ok(r.path_params))
        assert router.dispatch(Request(GET, "/d/a/b")).status == 404


class TestRequestResponse:
    def test_get_round_trip(self, client):
        resp = client.get("svc://server/ping")
        assert resp.ok and resp.body == "pong"

    def test_path_params_reach_handler(self, client):
        resp = client.get("svc://server/items/it-42")
        assert resp.body == {"item": "it-42"}

    def test_post_with_body(self, client):
        resp = client.post("svc://server/items/it-1", body={"v": 3})
        assert resp.body == {"item": "it-1", "body": {"v": 3}}

    def test_error_status_raises_service_error(self, client):
        with pytest.raises(ServiceError) as exc:
            client.get("svc://server/fail")
        assert exc.value.status == 503

    def test_error_status_returned_when_unchecked(self, client):
        resp = client.call("svc://server/fail", check=False)
        assert resp.status == 503 and resp.reason == "maintenance"

    def test_handler_exception_becomes_500(self, client):
        resp = client.call("svc://server/crash", check=False)
        assert resp.status == 500
        assert "handler bug" in resp.reason

    def test_handler_error_is_counted_and_traced(self, net, service,
                                                  client):
        from repro.observability import install

        install(net)
        tracer = net.tracer

        @service.route(GET, "/lookup")
        def lookup(request):
            return ok({}["missing"])

        with tracer.span("caller", host="client"):
            resp = client.call("svc://server/lookup", check=False)
        assert resp.status == 500
        assert service.handler_errors == 1
        assert service.requests_failed == 1
        (server,) = [span for span in tracer.spans(name="GET /lookup")
                     if span.kind == "server"]
        assert server.attributes["error"] == "KeyError"
        assert server.status == "error"
        (event,) = tracer.events("handler_error")
        assert event in server.events
        assert event.attributes["error"] == "KeyError"
        assert event.attributes["path"] == "/lookup"

    def test_unknown_path_404(self, client):
        resp = client.call("svc://server/nowhere", check=False)
        assert resp.status == 404

    def test_request_counts(self, net, service, client):
        client.get("svc://server/ping")
        client.call("svc://server/fail", check=False)
        assert service.requests_served == 1
        assert service.requests_failed == 1
        assert client.requests_sent == 2

    def test_network_latency_observed(self, net, service, client):
        t0 = net.scheduler.now
        client.get("svc://server/ping")
        assert net.scheduler.now > t0


class TestTimeouts:
    def test_request_to_offline_host_times_out(self, net, service, client):
        net.set_host_online("server", False)
        with pytest.raises(RequestTimeoutError):
            client.get("svc://server/ping", timeout=0.5)

    def test_request_to_closed_service_times_out(self, net, service, client):
        service.close()
        with pytest.raises(RequestTimeoutError):
            client.get("svc://server/ping", timeout=0.5)

    def test_timeout_advances_clock_only_to_deadline(self, net, service,
                                                     client):
        net.set_host_online("server", False)
        with pytest.raises(RequestTimeoutError):
            client.get("svc://server/ping", timeout=0.5)
        assert net.scheduler.now == pytest.approx(0.5, abs=1e-6)

    def test_late_response_after_timeout_is_ignored(self, net, client):
        host = net.add_host("slow")
        svc = WebService(host, processing_delay=2.0)
        svc.add_route(GET, "/x", lambda r: ok("late"))
        with pytest.raises(RequestTimeoutError):
            client.get("svc://slow/x", timeout=0.5)
        # drain the late response; must not crash or resolve anything
        net.scheduler.run_until_idle()

    def test_server_dark_when_its_window_ends_never_runs_the_handler(
            self, net, client):
        """The host's state is checked when the processing window ends:
        a server that goes dark inside it, and stays dark, never runs
        the handler, so nothing is served and the client times out."""
        host = net.add_host("slow")
        svc = WebService(host, processing_delay=2.0)
        ran = []
        svc.add_route(GET, "/x", lambda r: (ran.append(r), ok("late"))[1])
        net.scheduler.schedule(1.0, net.set_host_online, "slow", False)
        with pytest.raises(RequestTimeoutError):
            client.get("svc://slow/x", timeout=5.0)
        assert ran == []
        assert svc.requests_served == svc.requests_failed == 0

    def test_server_back_when_its_window_ends_serves_the_request(
            self, net, client):
        """A request that arrives while the server is dark, in a window
        that ends after the server is back, is served."""
        host = net.add_host("slow")
        svc = WebService(host, processing_delay=2.0)
        svc.add_route(GET, "/x", lambda r: ok("served"))
        net.scheduler.schedule(1e-3, net.set_host_online, "slow", False)
        net.scheduler.schedule(1.0, net.set_host_online, "slow", True)
        assert client.get("svc://slow/x", timeout=5.0).body == "served"
        assert svc.requests_served == 1

    def test_answered_requests_leave_no_expiry_timer(self, net, service,
                                                     client):
        """The expiry timer is cancelled by the reply: N answered
        requests leave no live event behind (they used to sit in the
        heap for `timeout` seconds and fire as no-ops)."""
        live = net.scheduler.pending
        before = net.scheduler.events_processed
        for _ in range(25):
            assert client.get("svc://server/ping").body == "pong"
        assert net.scheduler.pending == live
        # 25 x (request delivery after the processing delay, reply
        # delivery) ...
        assert net.scheduler.events_processed - before == 50
        net.scheduler.run_until_idle()
        # ... and no dead timer fires afterwards
        assert net.scheduler.events_processed - before == 50

    def test_timed_out_requests_leave_the_reply_table_empty(self, net,
                                                           client):
        """An entry leaves the host's reply table on its expiry; a reply
        that lands after it finds no entry and is dropped."""
        host = net.add_host("slow")
        WebService(host, processing_delay=2.0).add_route(
            GET, "/x", lambda r: ok("late"))
        replies = client.host.http_replies
        futures = [client.request("svc://slow/x", timeout=0.5),
                   client.request("svc://server/ping", timeout=0.5)]
        assert len(replies.pending) == 2
        net.set_host_online("server", False)
        net.scheduler.run_until(1.0)
        assert replies.pending == {}
        delivered = net.stats.messages_delivered
        net.scheduler.run_until_idle()  # the slow reply lands at ~2 s
        assert net.stats.messages_delivered == delivered + 2
        assert replies.pending == {}
        for future in futures:
            with pytest.raises(RequestTimeoutError):
                future.result()

    def test_late_reply_after_expiry_resolves_nothing(self, net, client):
        host = net.add_host("slow")
        svc = WebService(host, processing_delay=2.0)
        svc.add_route(GET, "/x", lambda r: ok("late"))
        future = client.request("svc://slow/x", timeout=0.5)
        net.scheduler.run_until(1.0)
        with pytest.raises(RequestTimeoutError):
            future.result()
        net.scheduler.run_until_idle()   # the reply lands at ~2 s
        assert svc.requests_served == 1
        with pytest.raises(RequestTimeoutError):
            future.result()
        assert net.scheduler.pending == 0


class TestAsyncRequests:
    def test_futures_resolve_independently(self, net, service):
        client = HttpClient(net.add_host("c2"))
        f1 = client.request("svc://server/ping")
        f2 = client.request("svc://server/items/a")
        net.scheduler.run_until_idle()
        assert f1.result().body == "pong"
        assert f2.result().body == {"item": "a"}

    def test_two_clients_do_not_interfere(self, net, service):
        c1 = HttpClient(net.add_host("c1"))
        c2 = HttpClient(net.add_host("c2"))
        f1 = c1.request("svc://server/items/one")
        f2 = c2.request("svc://server/items/two")
        net.scheduler.run_until_idle()
        assert f1.result().body == {"item": "one"}
        assert f2.result().body == {"item": "two"}

    def test_two_clients_on_one_host_get_only_their_own_replies(
            self, net, service):
        host = net.add_host("shared")
        c1, c2 = HttpClient(host), HttpClient(host)
        assert c1.host.http_replies is c2.host.http_replies
        f1 = [c1.request(f"svc://server/items/one-{i}") for i in range(3)]
        f2 = [c2.request(f"svc://server/items/two-{i}") for i in range(3)]
        # one counter per host: no two requests share an id
        assert sorted(host.http_replies.pending) == list(range(1, 7))
        net.scheduler.run_until_idle()
        assert [f.result().body for f in f1] == \
            [{"item": f"one-{i}"} for i in range(3)]
        assert [f.result().body for f in f2] == \
            [{"item": f"two-{i}"} for i in range(3)]
        assert c1.requests_sent == c2.requests_sent == 3
        assert host.http_replies.pending == {}

    def test_base_uri(self, service):
        assert service.base_uri == "svc://server/"


class TestProcessingDelay:
    def test_callable_delay(self, net):
        """A constant delay is charged on the request's delivery: the
        handler runs at arrival + delay."""
        host = net.add_host("srv2")
        svc = WebService(host, processing_delay=0.25)
        svc.add_route(GET, "/x", lambda r: ok(None))
        seen = []
        serve = host._ports["http"]
        host._ports["http"] = lambda message: (
            seen.append((message, net.scheduler.now)), serve(message))
        HttpClient(net.add_host("c3")).get("svc://srv2/x")
        (message, ran), = seen
        arrival = message.sent_at + net.latency.delay("c3", "srv2",
                                                      message.size)
        assert ran == message.delivered_at == arrival + 0.25


class TestExactDispatchTable:
    """Parameter-free routes dispatch through the exact (method, path)
    table; semantics must stay identical to the seed's template scan."""

    def test_literal_route_lands_on_exact_table(self):
        router = Router()
        router.add(GET, "/ping", lambda r: ok("pong"))
        assert (GET, "/ping") in router._exact
        assert router.dispatch(Request(GET, "/ping")).body == "pong"

    def test_parameterised_route_stays_off_exact_table(self):
        router = Router()
        router.add(GET, "/d/{x}", lambda r: ok(r.path_params))
        assert router._exact == {}

    def test_earlier_template_shadows_later_literal(self):
        # first registration wins, exactly as the seed scan order did:
        # a literal path already matched by an earlier template must
        # NOT jump the queue via the exact table
        router = Router()
        router.add(GET, "/d/{x}", lambda r: ok("template"))
        router.add(GET, "/d/special", lambda r: ok("literal"))
        assert (GET, "/d/special") not in router._exact
        assert router.dispatch(Request(GET, "/d/special")).body == "template"

    def test_later_template_does_not_shadow_earlier_literal(self):
        router = Router()
        router.add(GET, "/d/special", lambda r: ok("literal"))
        router.add(GET, "/d/{x}", lambda r: ok("template"))
        assert router.dispatch(Request(GET, "/d/special")).body == "literal"
        assert router.dispatch(Request(GET, "/d/other")).body == "template"

    def test_exact_table_is_method_specific(self):
        router = Router()
        router.add(GET, "/a", lambda r: ok("get"))
        router.add(POST, "/a", lambda r: ok("post"))
        assert router.dispatch(Request(GET, "/a")).body == "get"
        assert router.dispatch(Request(POST, "/a")).body == "post"

    def test_exact_route_preserves_request_fields(self):
        router = Router()
        seen = []
        router.add(POST, "/ingest", lambda r: (seen.append(r), ok(None))[1])
        request = Request(POST, "/ingest", params={"q": "1"},
                          body={"v": 2}, sender="c1")
        router.dispatch(request)
        assert seen[0].body == {"v": 2}
        assert seen[0].params == {"q": "1"}
        assert seen[0].sender == "c1"
        assert seen[0].path_params == {}

    def test_templated_route_fills_the_request_it_was_given(self):
        # a templated request is built once: its path params are
        # written into it, not into a second Request
        router = Router()
        seen = []
        router.add(POST, "/actuate/{device_id}",
                   lambda r: (seen.append(r), ok(None))[1])
        request = Request(POST, "/actuate/dev-7", body={"command": "on"},
                          sender="c1")
        router.dispatch(request)
        assert seen == [request] and seen[0] is request
        assert request.path_params == {"device_id": "dev-7"}


class TestBodySizeHint:
    """A reply is charged exactly the estimate of its envelope — sizes
    feed latency, and latency feeds event ordering."""

    def test_hinted_reply_charges_identical_bytes(self, net):
        from repro.network.transport import estimate_size

        body = {"attached": "devices", "device_ids": ["d1", "d2", "d3"]}
        WebService(net.add_host("server")).add_route(
            POST, "/register", lambda r: ok(body))
        client = HttpClient(net.add_host("client"))
        sent = []
        original_deliver = net._deliver

        def spy(sender, recipient, port, payload, size, sent_at):
            sent.append((payload, size))
            original_deliver(sender, recipient, port, payload, size, sent_at)

        net._deliver = spy
        assert client.post("svc://server/register", body={"x": 1}).body \
            == body
        (_, request_size), (reply, reply_size) = sent
        assert reply["body"] == body
        assert reply_size == estimate_size(reply)
        assert net.stats.bytes_sent == request_size + reply_size


class TestBodylessReplies:
    """A 304 or an error puts no ``"body"`` key on the wire at all."""

    def test_304_and_error_replies_carry_no_body_key(self, net):
        svc = WebService(net.add_host("server"))
        svc.add_route(GET, "/thing", lambda r: conditional(
            r, "t1", lambda params: ok({"v": 1})))
        svc.add_route(GET, "/broken", lambda r: error(409, "conflict"))
        client = HttpClient(net.add_host("client"))
        replies = []
        original_deliver = net._deliver

        def spy(sender, recipient, port, payload, size, sent_at):
            if sender == "server":
                replies.append(payload)
            original_deliver(sender, recipient, port, payload, size, sent_at)

        net._deliver = spy
        full = client.get("svc://server/thing")
        again = client.get("svc://server/thing", check=False,
                           params={"if_none_match": full.body["token"]})
        refused = client.get("svc://server/broken", check=False)
        assert full.body == {"v": 1, "token": "t1"}
        assert (again.status, again.body, again.reason) == (304, None, "")
        assert (refused.status, refused.body) == (409, None)
        assert refused.reason == "conflict"
        assert [("body" in reply) for reply in replies] == \
            [True, False, False]


class TestWireEnvelope:
    """A request is ``{"path", "request_id"}`` plus only what differs
    from a default, a reply ``{"request_id", "status"}`` plus a reason
    and a body when it has them; the size each sender passes to
    ``send`` must equal the transport's own walk of the payload: size
    feeds latency, and latency feeds event order."""

    @staticmethod
    def sends(net):
        sent = []
        send = net.send

        def spy(sender, recipient, port, payload, size=None):
            if port.startswith("http"):
                sent.append((port, payload, size))
            send(sender, recipient, port, payload, size=size)

        net.send = spy
        return sent

    @staticmethod
    def serve(service):
        service.add_route(GET, "/thing", lambda r: conditional(
            r, "t1", lambda params: ok({"v": 1, "params": params})))
        service.add_route(GET, "/busy", lambda r: Response(
            429, {"retry_after": 0.5}, "slow down"))

    def test_only_what_a_default_does_not_say_travels(self, net, service,
                                                      client):
        self.serve(service)
        sent = self.sends(net)
        full = client.get("svc://server/thing")
        client.get("svc://server/thing", check=False,
                   params={"if_none_match": full.body["token"]})
        client.get("svc://server/nowhere", check=False)
        keys = [(port, set(payload)) for port, payload, _ in sent]
        assert keys == [
            ("http", {"path", "request_id"}),
            ("http-reply", {"request_id", "status", "body"}),
            ("http", {"path", "request_id", "params"}),
            ("http-reply", {"request_id", "status"}),
            ("http", {"path", "request_id"}),
            ("http-reply", {"request_id", "status", "reason"}),
        ]
        assert sent[-1][1]["status"] == 404

    @pytest.mark.parametrize("traced", [False, True])
    def test_every_sized_send_equals_a_full_estimate(self, net, service,
                                                     client, traced):
        from repro.network.transport import estimate_size

        if traced:
            install(net)
        self.serve(service)
        sent = self.sends(net)
        token = client.get("svc://server/thing").body["token"]
        calls = [
            {"uri": "svc://server/ping"},
            {"uri": "svc://server/ping", "params": {}},
            {"uri": "svc://server/thing", "params": {"q": "1"}},
            {"uri": "svc://server/thing",
             "params": {"if_none_match": token}},                # 304
            {"uri": "svc://server/nowhere"},                      # 404
            {"uri": "svc://server/busy"},                         # 429
            {"uri": "svc://server/crash"},                        # 500
            {"uri": "svc://server/fail"},                         # 503
            {"uri": "svc://server/items/a", "method": POST},
            {"uri": "svc://server/items/a", "method": POST,
             "body": {"v": [1, 2.5, None, True]}},
            {"uri": "svc://server/items/a", "method": POST,
             "body": [1, "two"]},
            {"uri": "svc://server/items/a", "method": POST,
             "body": "some text"},
            # non-ASCII: both need the real encoder
            {"uri": "svc://server/items/café"},
            {"uri": "svc://server/thing", "params": {"q": "naïve"}},
        ]
        outcomes = client.gather(calls)
        assert [o.status for o in outcomes] == \
            [200, 200, 200, 304, 404, 429, 500, 503] + [200] * 4 + [200, 200]
        assert len(sent) == 2 * (1 + len(calls))
        assert all(("trace" in payload) is traced
                   for port, payload, _ in sent if port == "http")
        unsized = [payload for _, payload, size in sent if size is None]
        assert [payload.get("path") for payload in unsized] == \
            ["/items/café", "/thing", None, None]
        for _port, payload, size in sent:
            if size is not None:
                assert size == estimate_size(payload), payload
