"""CLI byte identity: every argv of the pinned corpus (``cli_corpus.json``,
written by ``cli_corpus.py``) still gives the stdout digest, stderr digest
and exit code it was pinned with."""

import json
import re

import pytest

import cli_corpus
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


def test_the_check_mode_prints_each_row_that_differs(tmp_path, monkeypatch, capsys):
    # one row of two pinned with another exit code, and one generated row the
    # table lacks: both are printed, and the check exits 1
    argvs = [["eval", "a * b"], ["eval", "a..b"], ["eval", "b"]]
    rows = [[argv, *run(argv)] for argv in argvs[:2]]
    rows[1][3] = 0
    table = tmp_path / "corpus.json"
    table.write_text(json.dumps({"eval": rows}))
    monkeypatch.setattr(cli_corpus, "TABLE", table)
    monkeypatch.setattr(cli_corpus, "corpus", lambda: {"eval": argvs})
    assert cli_corpus.main(["--check"]) == 1
    out, err = capsys.readouterr()
    printed = [json.loads(line) for line in out.splitlines()]
    assert [(row["row"], row["pinned"] is None) for row in printed] == [(1, False), (2, True)]
    assert printed[0]["now"][3] == 2
    assert err == "1 of 3 rows match\n"
    table.write_text(json.dumps({"eval": [[argv, *run(argv)] for argv in argvs]}))
    assert cli_corpus.main(["--check"]) == 0
