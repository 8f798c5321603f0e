"""The truth and outcome file reader against the token-list reader it replaced."""

from pathlib import Path

import numpy as np
import pytest

from _child import traced
from lleval.cache import _read_outcomes

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def reference_read_outcomes(path, length, name):
    """The reader before files were parsed as bytes, kept as the reference."""
    from lleval.cache import _outcomes

    tokens = Path(path).read_text().replace(",", " ").split()
    for t, tok in enumerate(tokens):
        if tok not in ("0", "1"):
            raise ValueError(f"{path}: token {t + 1} is {tok!r}, expected 0 or 1")
    return _outcomes([tok == "1" for tok in tokens], length, name)


ASCII_SEPARATORS = [" ", ",", ", ", ",,", "\t", "\n", "\r\n", "\r", "\v", "\f"]
# whitespace to str.split() only
OTHER_SEPARATORS = ["\x1c", "\x1f", "\x85", "\xa0", "\u2003", "\u3000"]
BAD_TOKENS = [
    "01", "10", "2", "0.0", "1.0", "-0", "+1", "x", "\u0661", "\x00", "\ufeff1",
]


@st.composite
def outcome_texts(draw):
    """0/1 tokens between separators; in some files one bad token, or
    separators only ``str.split()`` knows.  An empty separator runs two
    tokens into one bad token."""
    tokens = draw(st.lists(st.sampled_from(["0", "1"]), max_size=12))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(tokens)))
        tokens.insert(at, draw(st.sampled_from(BAD_TOKENS)))
    other = draw(st.sampled_from([[], OTHER_SEPARATORS]))
    seps = st.sampled_from(ASCII_SEPARATORS + other + [""])
    parts = [draw(seps)]
    for tok in tokens:
        parts += [tok, draw(seps)]
    return "".join(parts)


def _outcome(reader, path, length):
    try:
        return reader(path, length, "truth")
    except ValueError as exc:
        return str(exc)


def check_matches_reference(path, length):
    want = _outcome(reference_read_outcomes, path, length)
    got = _outcome(_read_outcomes, path, length)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.dtype == bool and np.array_equal(got, want)


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=outcome_texts(), extra=st.integers(-1, 1))
def test_matches_reference_reader(tmp_path, text, extra):
    path = tmp_path / "truth.txt"
    path.write_bytes(text.encode("utf-8"))
    tokens = _outcome(reference_read_outcomes, path, None)
    # the right length, one short or one over; a bad file fails on its token
    length = (0 if isinstance(tokens, str) else tokens.size) + extra
    check_matches_reference(path, length)


def test_tokens_across_a_chunk_edge(tmp_path):
    from lleval.cache import _WRITE_CHUNK

    path = tmp_path / "truth.txt"
    for text in (
        " " * (_WRITE_CHUNK - 1) + "01 1",  # "01" straddles the edge
        " " * (_WRITE_CHUNK - 2) + "1 0 1",  # lone digits on both sides of it
        "1 " * _WRITE_CHUNK,
    ):
        path.write_text(text)
        check_matches_reference(path, None)


@pytest.mark.parametrize("sep", [" ", ", "])
def test_peak_memory_is_under_two_bytes_per_file_byte(tmp_path, sep):
    n = 1_000_000
    row = np.random.default_rng(19).random(n) < 0.5
    path = tmp_path / "truth.txt"
    path.write_text(sep.join("1" if hit else "0" for hit in row) + "\n")
    with traced() as memory:
        got = _read_outcomes(path, n, "truth")
        _, peak = memory()
    assert np.array_equal(got, row)
    # the file's bytes, then one outcome per two of them: 1.7x (", ") and
    # 1.8x (" ") the file.  A full-length digit mask and the gathered digits
    # peaked at 2.7x and 3.0x, the token-list reader at 6.3x and 9.5x
    assert peak <= 2 * path.stat().st_size
