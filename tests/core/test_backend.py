"""The fixed kernel-tier record of :mod:`repro.core.backend`.

Every analysis runs on numpy; the module only answers which tier that is,
in the ``requested`` / ``backend`` / ``fallback_reason`` shape the
benchmark host fingerprint records.
"""

import dataclasses

import pytest

from repro.core import backend
from repro.core.backend import ResolvedBackend, resolve_backend


def test_resolves_to_numpy_without_fallback():
    resolved = resolve_backend()
    assert resolved == ResolvedBackend("numpy", "numpy", None)
    assert resolved == resolve_backend()


def test_record_has_the_fingerprint_fields():
    names = [field.name for field in dataclasses.fields(ResolvedBackend)]
    assert names == ["requested", "backend", "fallback_reason"]


def test_record_is_immutable():
    resolved = resolve_backend()
    with pytest.raises(dataclasses.FrozenInstanceError):
        resolved.backend = "other"


def test_module_exports_only_the_record():
    assert sorted(backend.__all__) == ["ResolvedBackend", "resolve_backend"]
