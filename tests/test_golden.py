"""Byte-for-byte gate on the command's outputs (see tests/golden/regen.py)."""

import pytest

from golden.regen import CASES, HERE, run_case


@pytest.mark.parametrize("name,args,out", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(name, args, out, tmp_path, monkeypatch):
    monkeypatch.delenv("SUPERBIALG_COLOR", raising=False)
    monkeypatch.chdir(tmp_path)
    code, text = run_case(args, out)
    assert code == 0
    assert text == (HERE / f"{name}.out").read_text()
    if out is not None:
        assert (tmp_path / out).read_bytes() == (HERE / out).read_bytes()
