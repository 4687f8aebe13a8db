"""Malformed rows in the synset and relation-category files raise a
ParseError that names the file and the line."""

from __future__ import annotations

import pytest

from kbcanon.errors import ParseError
from kbcanon.side_info import load_kbp, load_synsets


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def assert_names_line(err, path, line_no):
    assert err.line_no == line_no
    assert str(err).startswith(f"{path}:{line_no}: ")


def test_synset_row_with_three_fields(tmp_path):
    # a paraphrase-style row is not a synset row
    path = write(tmp_path, "synsets.tsv",
                 "car\tn01,n02\npicture\timage\t0.9\n")
    with pytest.raises(ParseError, match="phrase<TAB>synset_ids") as info:
        load_synsets(path)
    assert_names_line(info.value, path, 2)


def test_synset_row_with_empty_id_list(tmp_path):
    path = write(tmp_path, "synsets.tsv", "car\tn01\n\npicture\t , ,\n")
    with pytest.raises(ParseError, match="empty synset-id list") as info:
        load_synsets(path)
    assert_names_line(info.value, path, 3)


def test_synset_ids_are_comma_separated(tmp_path):
    path = write(tmp_path, "synsets.tsv", "Car\tn01, n02\ncar\tn03\n")
    assert load_synsets(path) == {"car": {"n01", "n02", "n03"}}


def test_kbp_row_with_three_fields(tmp_path):
    path = write(tmp_path, "kbp.tsv",
                 "was born in\tper:city_of_birth\nborn in\tper:city_of_birth\textra\n")
    with pytest.raises(ParseError, match="relation_phrase<TAB>category") as info:
        load_kbp(path)
    assert_names_line(info.value, path, 2)
