"""Byte identity of the CLI on the 610-problem corpus (``corpus.py``).

Every run's stdout, stderr, exit status and audit log must hash to the digest
committed in ``golden/corpus.sha256``, and every char-0 run must print the same
and exit the same without ``--log``.  The whole corpus takes about 13 s.
"""

import pytest

from corpus import DIGESTS, check, problems, read_digests

GROUPS = ("sextic", "octic-", "tall-1-", "tall-7-", "tall-51-", "readme-")


def test_corpus_has_every_run():
    names = [name for name, _, _ in problems()]
    assert len(names) == len(set(names)) == 610
    assert sorted(read_digests()) == sorted(f"{n} {fmt}" for n in names
                                            for fmt in ("text", "structured"))


@pytest.mark.parametrize("group", GROUPS)
def test_corpus_outputs_match_digests(group):
    stored = {run: d for run, d in read_digests().items() if run.startswith(group)}
    found, unlogged = check(lambda name: name.startswith(group))
    assert stored and found.keys() == stored.keys()
    changed = sorted(run for run in stored if stored[run] != found[run])
    assert not changed, f"outputs differ from {DIGESTS.name}: {changed}"
    assert not unlogged, f"outputs differ without --log: {unlogged}"
