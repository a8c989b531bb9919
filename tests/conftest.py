"""Fixtures shared by the test modules."""

import pytest

from ttsupport import homalg, smith


@pytest.fixture
def smith_forms(monkeypatch):
    """The matrices of every Smith form taken while the test runs, through
    smith's binding of the one routine and homalg's."""
    seen = []
    take = smith.smith_normal_form

    def counting(a):
        seen.append(a)
        return take(a)

    monkeypatch.setattr(smith, "smith_normal_form", counting)
    monkeypatch.setattr(homalg, "smith_normal_form", counting)
    return seen
