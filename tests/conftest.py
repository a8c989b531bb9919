"""Fixtures shared by the test modules."""

import inspect
import textwrap

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


@pytest.fixture
def weakened():
    """weakened(fn, clause, stand_in="pass"): a copy of the function fn,
    compiled from its own source in its own module's namespace, with the one
    line that contains clause replaced by stand_in (indentation kept).  This
    is the copy without the clause of a certificate's mutant table."""

    def build(fn, clause, stand_in="pass"):
        lines = textwrap.dedent(inspect.getsource(fn)).splitlines()
        hits = [k for k, line in enumerate(lines) if clause in line]
        assert len(hits) == 1, "%r is not on exactly one line of %s" % (clause, fn.__name__)
        line = lines[hits[0]]
        lines[hits[0]] = line[: len(line) - len(line.lstrip())] + stand_in
        namespace = dict(fn.__globals__)
        exec(compile("\n".join(lines), inspect.getsourcefile(fn), "exec"), namespace)
        return namespace[fn.__name__]

    return build
