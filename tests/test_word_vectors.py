"""Word-vector files in the plain, word2vec text and fastText .vec
layouts."""

from __future__ import annotations

import numpy as np
import pytest

from kbcanon.embedding import load_word_vectors
from kbcanon.errors import ParseError


def test_word2vec_text_header(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("2 3\nnew 1 0 0.5\nyork 0 1 -0.5\n", encoding="utf-8")
    vectors, dim = load_word_vectors(path)
    assert dim == 3
    assert sorted(vectors) == ["new", "york"]
    assert np.array_equal(vectors["york"], [0.0, 1.0, -0.5])


def test_fasttext_vec_trailing_space(tmp_path):
    path = tmp_path / "vectors.vec"
    path.write_text("2 3\nnew 1 0 0.5 \nyork 0 1 -0.5 \n", encoding="utf-8")
    vectors, dim = load_word_vectors(path)
    assert dim == 3
    assert np.array_equal(vectors["new"], [1.0, 0.0, 0.5])


def test_header_dimension_must_match_rows(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("2 4\nnew 1 0 0.5\nyork 0 1 -0.5\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r":2: dimension 3 != header's 4"):
        load_word_vectors(path)
