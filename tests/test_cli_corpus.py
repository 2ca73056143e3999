"""CLI byte identity: every argv of the pinned corpus (``cli_corpus.json``,
written by ``cli_corpus.py``) still gives the stdout digest, stderr digest
and exit code it was pinned with."""

import json
import re

import pytest

from cli_corpus import TABLE, corpus, run

PINNED = json.loads(TABLE.read_text())


def test_the_table_pins_exactly_the_generated_corpus():
    assert {part: [row[0] for row in rows] for part, rows in PINNED.items()} == corpus()


@pytest.mark.parametrize("part", sorted(PINNED))
def test_pinned_cli_output(part):
    changed = [argv for argv, *pinned in PINNED[part] if run(argv) != pinned]
    assert changed == []


def test_every_exit2_row_exits_2():
    assert {row[3] for row in PINNED["exit2"]} == {2}


def test_readme_states_the_row_count():
    readme = (TABLE.parent.parent / "README.md").read_text()
    (count,) = re.findall(r"(\d+) `nijalg check` /\s+`nijalg eval` argv lists", readme)
    assert int(count) == sum(map(len, PINNED.values()))
