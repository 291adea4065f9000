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
#: a new catch-all fails here until it is narrowed or listed on purpose.
#: Each of the three counts and traces what it catches.
CATCH_ALLS = {
    ("middleware/peer.py", "MiddlewarePeer._dispatch"),
    ("network/webservice.py", "WebService._on_message"),
    ("network/scheduler.py", "PeriodicTask._fire"),
}

#: the conditional GET is written once per side: the one server
#: function that compares ``if_none_match`` with the current token, and
#: the one client function that sends it
CONDITIONAL_GET = {
    ("network/webservice.py", "conditional"),
    ("core/client.py", "DistrictClient._conditional"),
}

#: the one server function that answers 304 and the one client function
#: that takes a 304 for its held answer; no other site branches on it
NOT_MODIFIED = {
    ("network/webservice.py", "conditional"),
    ("core/client.py", "DistrictClient._held_answer"),
}


def sites(root: Path, matches):
    """(file, enclosing function) of every AST node under *root* that
    *matches*, one entry per node."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = []

        def visit(node):
            named = isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                      ast.AsyncFunctionDef))
            if named:
                scopes.append(node.name)
            if matches(node):
                found.append((path.relative_to(root).as_posix(),
                              ".".join(scopes)))
            for child in ast.iter_child_nodes(node):
                visit(child)
            if named:
                scopes.pop()

        visit(tree)
    return found


def catch_alls(root: Path):
    """Every ``except Exception`` handler under *root*."""
    return sites(root, lambda node: isinstance(node, ast.ExceptHandler)
                 and isinstance(node.type, ast.Name)
                 and node.type.id == "Exception")


class TestCatchAlls:
    def test_exactly_the_listed_catch_alls_remain(self):
        found = catch_alls(Path(errors.__file__).parent)
        assert sorted(found) == sorted(CATCH_ALLS)


class TestConditionalGet:
    def test_one_function_per_side_touches_the_validator(self):
        found = sites(Path(errors.__file__).parent,
                      lambda node: isinstance(node, ast.Constant)
                      and node.value == "if_none_match")
        assert sorted(found) == sorted(CONDITIONAL_GET)

    def test_one_function_per_side_handles_a_304(self):
        found = sites(Path(errors.__file__).parent,
                      lambda node: isinstance(node, ast.Constant)
                      and type(node.value) is int and node.value == 304)
        assert set(found) == NOT_MODIFIED
