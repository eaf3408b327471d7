"""Golden rows of `verify --checks all --deterministic` on the five named
corpora, and the rule that verify builds no element object.

tests/golden/<corpus>.tsv holds one line per report row: check_id, input,
lhs, rhs and verdict, tab-separated, under a header naming the python, numpy
and sumprodlab versions the rows were written with.  Trend rows print floats,
whose digits depend on the numpy/libm build, so a version change fails by
name instead of as a wall of changed rows.  A change that moves rows on
purpose rewrites the files in the same commit (at jobs = 1):

    PYTHONPATH=src python tests/test_golden.py

The rows are regenerated with GSet.elements refusing every read, so the same
run shows that the kernels and checks work on the integer view alone:
Fraction and ModP objects are built only where input is parsed and output is
printed.
"""

from __future__ import annotations

import difflib
from fractions import Fraction
from pathlib import Path

import pytest

from sumprodlab.families import generate_from_string
from sumprodlab.harness import (RectProfile, build_report, check_ids, named_corpus,
                                rect_decompose, run_suite)
from sumprodlab.setops import GSet

GOLDEN = Path(__file__).resolve().parent / "golden"
# jobs per corpus for the comparison; the two costliest run in a pool of two,
# which halves their time and keeps the pool's merged rows under test as well
CORPORA = {"identity": 1, "spectral": 1, "exact": 1, "series": 2, "subgroup-scan": 2}
HEADER = "check_id\tinput\tlhs\trhs\tverdict"


def versions() -> str:
    return " ".join(f"{k}={v}" for k, v in build_report([]).versions.items())


def line(r) -> str:
    """One report row (a CheckResult) as its golden line."""
    return "\t".join((r.check_id, r.inputs, r.lhs, r.rhs, r.verdict))


def rows(inputs, jobs: int = 1) -> list[str]:
    """The deterministic report's rows over every check."""
    return [line(r) for r in run_suite(check_ids("all"), inputs, jobs=jobs)]


def write(corpus: str) -> None:
    text = "\n".join([f"# {versions()}", HEADER, *rows(named_corpus(corpus))])
    (GOLDEN / f"{corpus}.tsv").write_text(text + "\n")


def _no_elements(A: GSet):
    raise AssertionError(f"{A.label()}'s elements were decoded")


@pytest.fixture(scope="module")
def fresh() -> dict[str, list[str]]:
    """Each corpus's rows, built while GSet.elements raises (a forked pool
    worker inherits the patch); the inputs are parsed first, as input may
    build elements."""
    inputs = {corpus: named_corpus(corpus) for corpus in CORPORA}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GSet, "elements", property(_no_elements))
        return {corpus: rows(inputs[corpus], jobs) for corpus, jobs in CORPORA.items()}


@pytest.mark.parametrize("corpus", CORPORA)
def test_report_rows_match_golden(fresh, corpus):
    header, columns, *want = (GOLDEN / f"{corpus}.tsv").read_text().splitlines()
    if header != f"# {versions()}":
        pytest.fail(f"{corpus}.tsv was written under {header[2:]}, this run has "
                    f"{versions()}; check the rows by hand, then rewrite the files")
    assert columns == HEADER
    changed = list(difflib.unified_diff(want, fresh[corpus], "golden", "now", lineterm="", n=0))
    assert not changed, "\n".join(changed)


def test_verify_decodes_no_element(fresh, monkeypatch):
    assert all(fresh.values())  # every check ran on every corpus with elements refused
    # no corpus input ends in case 2, whose cover keeps its last round's set
    A = generate_from_string("union(ap(n=12),geo(q=3,n=6,start=1000))")
    monkeypatch.setattr(GSet, "elements", property(_no_elements))
    cover = rect_decompose(A, profile=RectProfile("desk", Fraction(100), 0))
    assert cover.case == "case2-iterated" and cover.rounds == 2


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for corpus in CORPORA:
        write(corpus)
