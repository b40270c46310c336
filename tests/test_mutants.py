"""The mutation gate's table applies to the source as it stands.

`python tests/mutants.py` takes minutes, and a mutant whose old string no
longer occurs exactly once in its file shows there only after the
unmutated run.  This checks every mutant against the package's own files
(`mutants.ROOT`, not the copy that a mutation run imports), and that the
test file a mutant runs first exists.
"""

import pytest

import mutants
from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_applies_exactly_once(mutant):
    text = (ROOT / "src" / "superbialg" / mutant.file).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.first is None or (ROOT / "tests" / mutant.first).is_file()


def test_named_mutants_run_alone_and_an_unknown_name_exits_2(monkeypatch,
                                                             capsys):
    first, second = MUTANTS[3], MUTANTS[0]
    assert mutants.select([first.name, second.name]) == [first, second]
    assert mutants.select([]) == MUTANTS

    def no_run(*args, **kwargs):
        raise AssertionError("tier-1 ran")
    monkeypatch.setattr(mutants, "tier1", no_run)
    assert mutants.main([first.name, "no-such-mutant", "nor-this"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: no mutant named no-such-mutant, nor-this\n"
