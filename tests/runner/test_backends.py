"""Unit tests for the backend spec grammar and backend resolution.

The conformance suite (``test_backend_conformance.py``) proves the
backends behave identically end-to-end; this file covers the seams —
spec parsing and backend resolution.
"""

import pytest

from repro.runner import (
    BACKEND_ENV,
    LocalPoolBackend,
    SerialBackend,
    parse_backend_spec,
    resolve_backend,
)


class TestParseBackendSpec:
    def test_bare_name(self):
        assert parse_backend_spec("serial") == ("serial", None)

    def test_name_with_workers(self):
        assert parse_backend_spec("local-pool:4") == ("local-pool", 4)

    def test_case_and_whitespace_are_forgiven(self):
        assert parse_backend_spec("  Local-Pool:8 ") == ("local-pool", 8)

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="NAME\\[:WORKERS\\]"):
            parse_backend_spec("   ")

    def test_non_numeric_workers_rejected(self):
        with pytest.raises(ValueError, match="bad worker count"):
            parse_backend_spec("serial:many")

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="at least 1 worker"):
            parse_backend_spec("local-pool:0")


class TestResolveBackend:
    def test_instance_passes_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_none_without_env_means_auto(self):
        assert resolve_backend(None, env={}) is None

    def test_auto_spec_means_auto(self):
        assert resolve_backend("auto", env={}) is None

    def test_env_supplies_default(self):
        backend = resolve_backend(None, env={BACKEND_ENV: "local-pool:3"})
        assert isinstance(backend, LocalPoolBackend)
        assert backend.workers == 3

    def test_explicit_spec_beats_env(self):
        backend = resolve_backend("serial", env={BACKEND_ENV: "local-pool"})
        assert isinstance(backend, SerialBackend)

    def test_spec_workers_beat_jobs_workers(self):
        backend = resolve_backend("local-pool:5", workers=2)
        assert isinstance(backend, LocalPoolBackend)
        assert backend.workers == 5

    def test_jobs_workers_fill_in(self):
        backend = resolve_backend("local-pool", workers=3)
        assert backend.workers == 3

    def test_retired_subprocess_spec_lists_options(self):
        with pytest.raises(ValueError, match="serial, local-pool"):
            resolve_backend(None, env={BACKEND_ENV: "subprocess:2"})

    def test_unknown_backend_lists_options(self):
        with pytest.raises(ValueError, match="serial, local-pool"):
            resolve_backend("quantum", env={})
