"""Every text reader names the file and line of bytes that are not UTF-8,
and still reads UTF-8 text that is not ASCII."""

from __future__ import annotations

import pytest

from kbcanon.errors import ParseError
from kbcanon.kb import PhraseKind, TripleFormat, build_kb, load_gold, load_triples, read_yaml
from kbcanon.side_info import load_kbp, load_ppdb, load_synsets

from .conftest import records_from_spo

KB = build_kb(records_from_spo([("a", "r", "b"), ("café", "r", "b")]))

# file name, a first line, a second line with text that is not ASCII, reader
READERS = {
    "triples": ("kb.jsonl", '{"subject": "a", "relation": "r", "object": "b"}\n',
                '{"subject": "café", "relation": "r", "object": "b"}\n', load_triples),
    "triples_json": ("kb.json", '[{"subject": "a", "relation": "r", "object": "b"},\n',
                     '{"subject": "café", "relation": "r", "object": "b"}]\n',
                     lambda path: load_triples(path, TripleFormat.JSON)),
    "gold": ("gold.tsv", "a\tE1\n", "café\tE2\n",
             lambda path: load_gold(path, KB, PhraseKind.NP)),
    "ppdb": ("ppdb.tsv", "a\tan a\t0.9\n", "café\tcafe\t0.9\n",
             lambda path: load_ppdb(path, 0.5)),
    "synsets": ("synsets.tsv", "a\ts1\n", "café\ts2\n", load_synsets),
    "kbp": ("kbp.tsv", "r\tper:origin\n", "rés\tper:origin\n", load_kbp),
    "yaml": ("config.yaml", "seed: 1\n", "out_dir: café\n", read_yaml),
}


@pytest.mark.parametrize("bad", [b"caf\xe9\n", b"\xc3\n", b"ok \xff\xfe ok\n"])
@pytest.mark.parametrize("name", sorted(READERS))
def test_bytes_not_utf8_name_the_file_and_line(tmp_path, name, bad):
    file_name, first, _, read = READERS[name]
    path = tmp_path / file_name
    path.write_bytes(first.encode("utf-8") + bad)
    with pytest.raises(ParseError, match=rf"{file_name}:2: not UTF-8: .*byte 0x") as e:
        read(path)
    assert e.value.line_no == 2


@pytest.mark.parametrize("name", sorted(READERS))
def test_utf8_text_reads(tmp_path, name):
    file_name, first, second, read = READERS[name]
    path = tmp_path / file_name
    path.write_text(first + second, encoding="utf-8")
    assert read(path)
