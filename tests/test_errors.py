"""Tests for the exception hierarchy contract."""

import inspect

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
