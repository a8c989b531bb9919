"""Fixtures shared by the test modules."""

import pytest

from ttsupport import homalg, smith


@pytest.fixture(autouse=True)
def _no_kept_smith_forms():
    """Every test starts with no Smith form kept by smith_normal_form, so
    counts and timings do not depend on the tests that ran before."""
    smith._memo.clear()


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


@pytest.fixture
def computed_smith_forms(monkeypatch):
    """The matrices of every Smith form computed while the test runs, not
    read from the forms smith_normal_form keeps."""
    seen = []
    compute = smith._smith_form

    def counting(a):
        seen.append(a)
        return compute(a)

    monkeypatch.setattr(smith, "_smith_form", counting)
    return seen


@pytest.fixture
def fp_ranks(monkeypatch):
    """The matrices of every reduction mod p taken while the test runs, each
    a certified rank: through smith's binding, which rank_p and fp_kernel
    call, and homalg's."""
    seen = []
    reduce = smith.fp_reduce

    def counting(mat, p):
        seen.append(mat)
        return reduce(mat, p)

    monkeypatch.setattr(smith, "fp_reduce", counting)
    monkeypatch.setattr(homalg, "fp_reduce", counting)
    return seen
