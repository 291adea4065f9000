"""Suite-wide invariants.

Every web-service reply any test provokes is checked on its way out: a
body must not carry a non-finite float (``json.dumps(..., allow_nan=
False)`` would refuse it, and a client cannot size or parse it).  A NaN
window or bucket width is a 400 where the query is parsed — see
``storage/query.py`` — so none can reach an answer.
"""

import math

import pytest

from repro.network.webservice import Router


def non_finite(body) -> bool:
    """True when a float anywhere inside *body* is NaN or infinite."""
    if isinstance(body, float):
        return not math.isfinite(body)
    if isinstance(body, dict):
        return any(map(non_finite, body.values()))
    if isinstance(body, (list, tuple)):
        return any(map(non_finite, body))
    return False


#: ``"GET /data"``-style names of the replies that broke the rule; a
#: handler's own exceptions become a 500, so the check reports here
#: instead of raising inside the web service
_violations = []


@pytest.fixture(autouse=True, scope="session")
def _watch_reply_bodies():
    dispatch = Router.dispatch

    def watched(self, request, *args, **kwargs):
        response = dispatch(self, request, *args, **kwargs)
        if non_finite(response.body):
            _violations.append(f"{request.method} {request.path}")
        return response

    Router.dispatch = watched
    yield
    Router.dispatch = dispatch


@pytest.fixture(autouse=True)
def finite_reply_bodies(_watch_reply_bodies):
    """Fail the test during which a reply carried a non-finite float."""
    del _violations[:]
    yield
    assert not _violations, \
        f"non-finite float in the reply body of {_violations}"
