"""The mutation gate's table applies to the source as it stands.

`python tests/mutants.py` takes minutes, and a mutant whose old string no
longer occurs exactly once in its file shows there only after the
unmutated run.  This checks every mutant against the package's own files
(`mutants.ROOT`, not the copy that a mutation run imports), and that the
test file a mutant runs first exists.
"""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_applies_exactly_once(mutant):
    text = (ROOT / "src" / "superbialg" / mutant.file).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.first is None or (ROOT / "tests" / mutant.first).is_file()
