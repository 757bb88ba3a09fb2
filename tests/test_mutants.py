"""The mutation runner, `tests/mutants.py`: stale and surviving mutants fail the run."""

from __future__ import annotations

import mutants
import pytest
from mutants import Mutant

QUICK = ("tests/test_fim.py::TestSerialization::test_check_chain_names_the_first_field_with_a_token",)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: f"{m.path}:{m.old.strip()[:40]}")
def test_each_seeded_mutant_matches_its_file_once(mutant):
    text = (mutants.ROOT / "src" / "stepfim" / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1


def test_an_old_text_that_no_longer_matches_is_stale():
    assert mutants.run_mutant(Mutant("fim.py", "no such text", "", QUICK)) == "stale"


def test_a_mutant_that_changes_nothing_survives_and_fails_the_run(capsys):
    same = 'FIM_PREFIX = "<|fim_prefix|>"'
    assert mutants.main([Mutant("fim.py", same, same, QUICK)]) == 1
    assert capsys.readouterr().out.splitlines() == [f"survived fim.py: {same}", "0 of 1 mutants killed"]
