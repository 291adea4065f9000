"""Tests for the exception hierarchy contract."""

import ast
import inspect
from pathlib import Path

import pytest

from repro import errors


def all_error_classes():
    return [
        obj for _name, obj in inspect.getmembers(errors, inspect.isclass)
        if issubclass(obj, Exception)
    ]


class TestHierarchy:
    def test_everything_derives_from_repro_error(self):
        for cls in all_error_classes():
            assert issubclass(cls, errors.ReproError), cls

    def test_catching_base_catches_all(self):
        for cls in all_error_classes():
            if cls in (errors.ReproError, errors.ServiceError):
                continue  # need constructor args
            with pytest.raises(errors.ReproError):
                raise cls("boom")

    def test_network_family(self):
        for cls in (errors.UnknownHostError, errors.RequestTimeoutError):
            assert issubclass(cls, errors.NetworkError)

    def test_protocol_family(self):
        for cls in (errors.FrameDecodeError, errors.FrameEncodeError,
                    errors.UnsupportedCommandError):
            assert issubclass(cls, errors.ProtocolError)

    def test_service_error_carries_status(self):
        exc = errors.ServiceError(503, "maintenance")
        assert exc.status == 503
        assert "503" in str(exc) and "maintenance" in str(exc)
        assert isinstance(exc, errors.NetworkError)

    def test_storage_family(self):
        assert issubclass(errors.SeriesNotFoundError, errors.StorageError)

    def test_ontology_family(self):
        assert issubclass(errors.UnknownEntityError, errors.OntologyError)


#: every ``except Exception`` left in ``src/repro``, as (file, function);
#: a new catch-all fails here until it is narrowed or listed on purpose
CATCH_ALLS = {
    ("middleware/peer.py", "MiddlewarePeer._dispatch"),
    ("network/webservice.py", "WebService._respond"),
    ("network/scheduler.py", "PeriodicTask._fire"),
    ("protocols/coap.py", "CoapAdapter.decode_command"),
    ("gridsim/flow.py", "demands_from_model"),
}


def catch_alls(root: Path):
    """(file, enclosing function) of every ``except Exception`` under
    *root*, one entry per handler."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = []

        def visit(node):
            named = isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                      ast.AsyncFunctionDef))
            if named:
                scopes.append(node.name)
            if isinstance(node, ast.ExceptHandler) and \
                    isinstance(node.type, ast.Name) and \
                    node.type.id == "Exception":
                found.append((path.relative_to(root).as_posix(),
                              ".".join(scopes)))
            for child in ast.iter_child_nodes(node):
                visit(child)
            if named:
                scopes.pop()

        visit(tree)
    return found


class TestCatchAlls:
    def test_exactly_the_listed_catch_alls_remain(self):
        found = catch_alls(Path(errors.__file__).parent)
        assert sorted(found) == sorted(CATCH_ALLS)
