"""The row reader behind both matrix formats, against a reference reader.

``parse_inline`` reads one row per ';' part, and ``parse_matrix`` one row
per line.  ``parse_inline_reference`` reads the same parts with ``int()``
on every token; on text without '#' or line breaks both readers must give
its rows or its error message.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubiquity import MatrixFormatError, parse_inline, parse_matrix
from helpers import parse_inline_reference, read_rows_reference

SPACE = st.sampled_from([" ", "  ", "\t", " \t "])
# the reader's table holds the canonical spellings of -255..255; every
# other spelling below must read as int() reads it
EDGE_ENTRIES = ["255", "-255", "256", "-256", "-0", "+0", "007", "1_0",
               "\u0663"]
BAD_TOKENS = ["x", "1.5", "--", "-", "1e3", "++1", "+-1", "\u00b2", "1.0",
              "0x1"]
ENTRY = st.one_of(
    st.integers(-9, 9).map(str),
    st.integers(0, 99).map(lambda k: f"+{k}"),
    st.integers(-300, 300).map(str),
    st.integers(10 ** 24, 10 ** 25 - 1).map(
        lambda k: str(k) if k % 2 else f"-{k}"),
    st.sampled_from(EDGE_ENTRIES),
)
TOKEN = st.one_of(ENTRY, st.sampled_from(BAD_TOKENS))


@st.composite
def part(draw, tokens):
    text = ""
    for token in draw(tokens):
        text += draw(SPACE) + token
    return text + draw(st.sampled_from(["", " ", "\t"]))


@st.composite
def inline_text(draw):
    # mostly square, so the reader is exercised past its count checks
    n = draw(st.integers(0, 5))
    if draw(st.booleans()):
        row = part(st.lists(ENTRY, min_size=n, max_size=n))
        parts = [draw(row) for _ in range(n)]
    else:
        parts = draw(st.lists(part(st.lists(TOKEN, max_size=5)),
                              max_size=5))
    empties = draw(st.lists(st.sampled_from(["", " ", "\t"]), max_size=3))
    for empty in empties:
        parts.insert(draw(st.integers(0, len(parts))), empty)
    return draw(st.sampled_from(["", ";", " ; "])) + ";".join(parts) + \
        draw(st.sampled_from(["", ";", ";\t"]))


def outcome(parse, text, rows_as_vectors):
    try:
        return parse(text, rows_as_vectors)
    except MatrixFormatError as exc:
        return f"error: {exc}"


@settings(max_examples=600, deadline=None)
@given(inline_text(), st.booleans())
def test_inline_reader_matches_reference(text, rows_as_vectors):
    assert outcome(parse_inline, text, rows_as_vectors) == \
        outcome(parse_inline_reference, text, rows_as_vectors)


@settings(max_examples=300, deadline=None)
@given(inline_text(), st.booleans())
def test_file_reader_matches_reference(text, rows_as_vectors):
    parts = [p.strip() for p in text.split(";") if p.strip()]
    if not parts:
        return
    body = "\n".join(parts)
    assert outcome(parse_matrix, f"{len(parts)}\n{body}", rows_as_vectors) \
        == outcome(read_rows_reference, parts, rows_as_vectors)


@pytest.mark.parametrize("token", EDGE_ENTRIES + BAD_TOKENS)
def test_each_token_reads_as_int_reads_it(token):
    text = f"{token} 1; 2 {token}"
    expected = outcome(parse_inline_reference, text, False)
    assert outcome(parse_inline, text, False) == expected
    assert outcome(parse_matrix, f"2\n{token} 1\n2 {token}", False) == \
        expected
    if isinstance(expected, tuple):
        assert expected == ((int(token), 1), (2, int(token)))
        assert all(type(v) is int for row in parse_inline(text) for v in row)
    else:
        assert expected == f"error: bad matrix row '{token} 1'"


def test_generated_text_reaches_every_outcome():
    # the strategy above hits rows, each error message and both sizes
    seen = set()

    @settings(max_examples=300, deadline=None, database=None)
    @given(inline_text())
    def collect(text):
        result = outcome(parse_inline, text, False)
        if isinstance(result, tuple):
            seen.add("rows")
            if any(abs(v) >= 10 ** 24 for row in result for v in row):
                seen.add("long")
        else:
            seen.add(result.split(" ")[1])
    collect()
    assert {"rows", "long", "empty", "bad", "row"} <= seen


@pytest.mark.parametrize("text, message", [
    ("# c; 2 0\n0 2", "inline row '2 0\\n0 2' holds a line break"),
    ("# c; 2 0; 0 2", "bad matrix row '# c'"),
    ("1 2\u20283 4", "inline row '1 2\\u20283 4' holds a line break"),
    (" ; \t;", "empty inline matrix"),
])
def test_inline_parts_are_rows(text, message):
    with pytest.raises(MatrixFormatError) as exc:
        parse_inline(text)
    assert str(exc.value) == message


def test_file_and_inline_read_the_same_rows():
    text = "# a comment\n\n  3\n1 0 -1\n\t# another\n+2 1 0 \n0 0 1"
    rows = ((1, 0, -1), (2, 1, 0), (0, 0, 1))
    assert parse_matrix(text) == rows
    assert parse_inline("1 0 -1; +2 1 0 ;0 0 1") == rows
    # a line break beside a ';' is stripped with its part's other space
    assert parse_inline("\n1 0 -1;\n+2 1 0\t;0 0 1\n") == rows
    assert parse_matrix(text, True) == parse_inline("1 0 -1;2 1 0;0 0 1",
                                                    True) == tuple(zip(*rows))
    # one leading byte-order mark is dropped, before any comment
    assert parse_matrix("\ufeff" + text) == rows
    assert parse_matrix("\ufeff2\r\n2 0\r\n1 2\r\n") == ((2, 0), (1, 2))


@pytest.mark.parametrize("text, message", [
    ("\ufeff\ufeff2\n2 0\n1 2", "first data line must be the dimension, "
     "got '\\ufeff2'"),
    ("2\n\ufeff2 0\n1 2", "bad matrix row '\\ufeff2 0'"),
    ("2\n2 0\ufeff\n1 2", "bad matrix row '2 0\\ufeff'"),
])
def test_byte_order_mark_past_the_first_is_a_bad_token(text, message):
    # U+FEFF is no white space to str.split, so it sticks to a token
    with pytest.raises(MatrixFormatError) as exc:
        parse_matrix(text)
    assert str(exc.value) == message
