"""Gold files (`phrase<TAB>gold_id` per line) read the same way by
`load_gold` and by file-level evaluation: a malformed line is a
ParseError naming the file and line, not a relabelled phrase."""

from __future__ import annotations

import json

import pytest

from kbcanon.cli import main
from kbcanon.errors import ParseError
from kbcanon.kb import PhraseKind, load_gold
from kbcanon.pipeline import evaluate_clusters_file

BAD_LINES = ["Obama\tE1\textra", "Obama\t", "Obama\t  ", "\tE1"]


def write_files(tmp_path, bad_line):
    clusters = tmp_path / "clusters.jsonl"
    clusters.write_text(json.dumps({"members": ["Obama", "Barack Obama"]}) + "\n")
    gold = tmp_path / "gold.tsv"
    gold.write_text(f"Barack Obama\tE1\n{bad_line}\n", encoding="utf-8")
    return clusters, gold


@pytest.mark.parametrize("bad_line", BAD_LINES)
def test_load_gold_and_evaluate_reject_the_same_line(tmp_path, toy_kb, bad_line):
    clusters, gold = write_files(tmp_path, bad_line)
    with pytest.raises(ParseError) as from_load:
        load_gold(gold, toy_kb, PhraseKind.NP)
    with pytest.raises(ParseError) as from_evaluate:
        evaluate_clusters_file(clusters, gold)
    assert from_load.value.line_no == from_evaluate.value.line_no == 2
    assert str(from_load.value) == str(from_evaluate.value)
    assert str(from_evaluate.value).startswith(f"{gold}:2:")


def test_evaluate_command_exits_2_on_an_extra_field(tmp_path, capsys):
    clusters, gold = write_files(tmp_path, BAD_LINES[0])
    rc = main(["evaluate", "--clusters", str(clusters), "--gold", str(gold)])
    assert rc == 2
    assert f"{gold}:2:" in capsys.readouterr().err


def test_load_gold_rejects_a_phrase_without_gold_id(tmp_path, toy_kb):
    _, gold = write_files(tmp_path, "Obama")
    with pytest.raises(ParseError, match=":2:"):
        load_gold(gold, toy_kb, PhraseKind.NP)
