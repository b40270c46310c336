"""`build_double` on the seeded corpus of perturbed bialgebras
(see tests/corpus/regen.py): every outcome, hash or rejection message,
must match the committed line."""

import json

from corpus.regen import CORPUS, lines


def test_build_double_outcomes_match_the_corpus():
    want = CORPUS.read_text().splitlines()
    got = lines()
    assert len(got) == len(want)
    changed = [(json.loads(w), json.loads(g))
               for w, g in zip(want, got) if w != g]
    assert changed == []
