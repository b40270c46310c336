"""The checks on the seeded corpus of perturbed bialgebras, spans, maps and
forms (see tests/corpus/regen.py): every outcome of `build_double`, of
`restrict`, of `dual_bracket` and of `dual_bialgebra`, hash or rejection
message, every check line of `verify`, `check_compatibility` and the dual
table's `validate`, and every check line of the map and form checks must
match the committed line."""

import json
from functools import cache

import pytest

from corpus.regen import (
    CORPUS, DUAL_CORPUS, MAPS_CORPUS, RESTRICT_CORPUS, VERIFY_CORPUS, lines,
    restrict_inputs,
)

cached_lines = cache(lines)


def _changed(path):
    want = path.read_text().splitlines()
    got = cached_lines()[path]
    assert len(got) == len(want)
    return [(json.loads(w), json.loads(g))
            for w, g in zip(want, got) if w != g]


def test_build_double_outcomes_match_the_corpus():
    assert _changed(CORPUS) == []


def test_verify_reports_match_the_corpus():
    assert _changed(VERIFY_CORPUS) == []


def test_restrict_outcomes_match_the_corpus():
    assert _changed(RESTRICT_CORPUS) == []


def test_every_restriction_the_corpus_accepts_passes_verify():
    # `restrict` does not verify its result; a verified input decides it
    from superbialg import restrict
    accepted = []
    for _, _, b, sub in restrict_inputs():
        try:
            accepted.append(restrict(b, sub))
        except ValueError:  # each rejection is pinned by the corpus file
            continue
    assert len(accepted) == RESTRICT_CORPUS.read_text().count('"sha256"')
    for sub in accepted:
        rep = sub.verify()
        assert rep.passed, rep.first_failure()


def test_map_and_form_checks_match_the_corpus():
    assert _changed(MAPS_CORPUS) == []


def test_dual_outcomes_match_the_corpus():
    assert _changed(DUAL_CORPUS) == []
