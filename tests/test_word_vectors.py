"""Word-vector files in the plain, word2vec text and fastText .vec
layouts, and the rows the loader keeps."""

from __future__ import annotations

import numpy as np
import pytest

import kbcanon.embedding
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from kbcanon.embedding import default_init_rng, init_embeddings, load_word_vectors
from kbcanon.errors import ParseError
from kbcanon.kb import build_kb

from .conftest import records_from_spo, write_kb_vectors


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


@pytest.mark.parametrize("count", [1, 3, 10])
def test_header_count_must_match_rows(tmp_path, count):
    # a truncated download keeps its header: two rows of a declared three
    path = tmp_path / "vectors.txt"
    path.write_text(f"{count} 2\nnew 1 0\nyork 0 1\n", encoding="utf-8")
    with pytest.raises(ParseError,
                       match=rf"vectors\.txt:1: the header counts {count} rows, the file holds 2"):
        load_word_vectors(path)


def test_header_dimension_must_match_rows(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("2 4\nnew 1 0 0.5\nyork 0 1 -0.5\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r":2: dimension 3 != header's 4"):
        load_word_vectors(path)


# ---------------------------------------------------------------------------
# every row checked, only the KB's rows kept


def kb_of(*spo):
    return build_kb(records_from_spo(spo))


@pytest.mark.parametrize("text", ["", "2 3\n", "\n  \n\n", "2 3\n\n"])
@pytest.mark.parametrize("with_kb", [False, True])
def test_file_without_rows_is_empty(tmp_path, text, with_kb):
    path = tmp_path / "vectors.txt"
    path.write_text(text, encoding="utf-8")
    kb = kb_of(("new york", "r", "x")) if with_kb else None
    with pytest.raises(ParseError, match=r":1: vectors file is empty"):
        load_word_vectors(path, kb)


def test_rows_outside_the_kb_are_checked_and_dropped(tmp_path):
    kb = kb_of(("New York", "r", "x"))
    path = tmp_path / "vectors.txt"
    path.write_text("new 1 0\nzebra 0.5 0.5\nyork 0 1\n", encoding="utf-8")
    vectors, dim = load_word_vectors(path, kb)
    assert dim == 2
    assert sorted(vectors) == ["new", "york"]
    assert np.array_equal(vectors["york"], [0.0, 1.0])
    path.write_text("new 1 0\nzebra 0.5 x\nyork 0 1\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r":2: non-numeric vector entry"):
        load_word_vectors(path, kb)
    path.write_text("new 1 0\nzebra 0.5\nyork 0 1\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r":2: dimension 1 != first row's 2"):
        load_word_vectors(path, kb)


def test_no_kb_token_in_the_file_is_not_an_error(tmp_path):
    kb = kb_of(("new york", "was in", "paris"))
    path = tmp_path / "vectors.txt"
    path.write_text("zebra 1 0 2\nlion 0 1 2\n", encoding="utf-8")
    assert load_word_vectors(path, kb) == ({}, 3)
    emb = init_embeddings(kb, load_word_vectors(path, kb), 3, default_init_rng(2))
    expected = init_embeddings(kb, None, 3, default_init_rng(2))
    assert emb.np_vectors.tobytes() == expected.np_vectors.tobytes()
    assert emb.rel_vectors.tobytes() == expected.rel_vectors.tobytes()


def test_kept_rows_give_the_same_embeddings(tmp_path, synth_kb):
    path = write_kb_vectors(tmp_path / "vectors.txt", synth_kb, 6, distractors=50)
    full, _ = load_word_vectors(path)
    kept, _ = load_word_vectors(path, synth_kb)
    assert len(kept) == len(full) - 50
    assert all(np.array_equal(kept[t], full[t]) for t in kept)
    a = init_embeddings(synth_kb, (full, 6), 6, default_init_rng(1))
    b = init_embeddings(synth_kb, (kept, 6), 6, default_init_rng(1))
    assert a.np_vectors.tobytes() == b.np_vectors.tobytes()
    assert a.rel_vectors.tobytes() == b.rel_vectors.tobytes()


@pytest.mark.parametrize("data, line_no", [
    (b"new 1 0\nyo\xffrk 0 1\n", 2),
    (b"\xe9t\xe9 1 0\nyork 0 1\n", 1),
    (b"new 1 0\nyork 0 1\nzebra 0 \xc3\n", 3),
])
def test_bytes_not_utf8_name_the_file_and_line(tmp_path, data, line_no):
    path = tmp_path / "vectors.txt"
    path.write_bytes(data)
    with pytest.raises(ParseError, match=rf"vectors\.txt:{line_no}: not UTF-8: .*byte 0x") as e:
        load_word_vectors(path)
    assert e.value.line_no == line_no


def test_utf8_tokens_and_any_line_end_load(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_bytes("été 1 0\r\nnaïve 0 1\rzoo 2 2\n".encode("utf-8"))
    vectors, dim = load_word_vectors(path)
    assert dim == 2
    assert sorted(vectors) == ["naïve", "zoo", "été"]


@pytest.mark.parametrize("rows, c_reader", [
    (["new\t1 0 0", "york 0 1"], True),          # the C reader converts the chunk
    (["york 1_0 0 1", "new\t1 0 0 1"], False),   # it refuses 1_0: line by line
])
def test_tab_in_a_token_names_its_line(tmp_path, rows, c_reader):
    # split at the first space, the tab's line would load as the token
    # "new\t1" with one entry fewer
    entries = [row.partition(" ")[2] for row in rows]
    assert (kbcanon.embedding._loadtxt(entries) is not None) == c_reader
    path = tmp_path / "vectors.txt"
    path.write_text("".join(f"{row}\n" for row in rows), encoding="utf-8")
    line_no = 1 + next(k for k, row in enumerate(rows) if "\t" in row)
    with pytest.raises(ParseError, match=rf"vectors\.txt:{line_no}: expected .* separated by single spaces"):
        load_word_vectors(path)


_ENTRY = st.one_of(
    st.floats().map(repr),
    st.text(alphabet="0123456789.eE+-_ naifINFty\t\x0b\x0c\x1c\x1f\x85١٣٥０　",
            min_size=1, max_size=8),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
            min_size=1, max_size=4),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_ENTRY, min_size=1, max_size=5))
@example(["1_0", "nan", "-inf", "1e400", "١"])
@example(["1", "0x1"])
@example(["\t1", "-nan", "-0.0", "5e-324", "1\x1c"])
def test_row_conversion_is_float_of_each_entry(tmp_path, entries):
    path = tmp_path / "vectors.txt"
    line = "w " + " ".join(entries) + "\n"
    path.write_text(line, encoding="utf-8")
    parts = line.rstrip().split(" ")
    assume(len(parts) >= 2)
    try:
        expected = np.asarray([float(x) for x in parts[1:]], dtype=float)
    except ValueError as e:
        with pytest.raises(ParseError) as got:
            load_word_vectors(path)
        assert str(got.value) == f"{path}:1: non-numeric vector entry: {e}"
    else:
        vectors, dim = load_word_vectors(path)
        assert dim == len(parts) - 1
        assert vectors["w"].tobytes() == expected.tobytes()


_ROWS = ["new 1 0 0.5", "york 0 1 -0.5", "zoo 2 2 2", "ant -1 1e400 nan", "bee 5e-324 -0.0 3"]


@pytest.mark.parametrize("bad", [
    {2: "zoo 2 2"},                         # a width change...
    {2: "zoo 2 2", 3: "ant -1 x nan"},      # ...then a bad entry on the next line
    {1: "york 0 x -0.5", 2: "zoo 2 2"},     # a bad entry, then a width change
    {3: "ant 2 2 2 2", 4: "bee 1_0 1 1"},   # float() accepts 1_0, numpy's reader does not
    {2: "zoo", 3: "ant 0x1 2 2"},           # a row without entries
    {4: "bee 1\x1c 1 1"},                   # numpy's reader strips \x1c, float() does not
    {2: "zoo\t2 2 2 2"},                    # a tab in a token, entries of the file's width
])
def test_chunk_boundary_inside_an_invalid_region(tmp_path, monkeypatch, bad):
    # Cut the rows into chunks at every size from one character up: the
    # chunk boundary then falls before, inside and after the invalid
    # lines, and the first of them is always the one named, as when the
    # whole file is one chunk.
    rows = [bad.get(k, row) for k, row in enumerate(_ROWS)]
    path = tmp_path / "vectors.txt"
    path.write_text("".join(f"{row}\n" for row in rows), encoding="utf-8")
    with pytest.raises(ParseError) as whole:
        load_word_vectors(path)
    assert whole.value.line_no == min(bad) + 1
    for size in range(1, sum(map(len, rows)) + 2):
        monkeypatch.setattr(kbcanon.embedding, "_VECTOR_CHUNK", size)
        with pytest.raises(ParseError) as chunked:
            load_word_vectors(path)
        assert str(chunked.value) == str(whole.value)


def test_any_chunk_size_loads_the_same_bits(tmp_path, monkeypatch):
    path = tmp_path / "vectors.txt"
    path.write_text("5 3\n" + "".join(f"{row}\n" for row in _ROWS), encoding="utf-8")
    expected = {r.split(" ")[0]: np.array([float(x) for x in r.split(" ")[1:]])
                for r in _ROWS}
    for size in range(1, sum(map(len, _ROWS)) + 2):
        monkeypatch.setattr(kbcanon.embedding, "_VECTOR_CHUNK", size)
        vectors, dim = load_word_vectors(path)
        assert dim == 3
        assert {t: v.tobytes() for t, v in vectors.items()} == {
            t: v.tobytes() for t, v in expected.items()}
