"""``import_csv`` against the token-at-a-time parser it replaced."""

from pathlib import Path

import numpy as np
import pytest

from lleval import AccuracyCache, import_csv

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def reference_import_csv(path, has_confidence=False):
    """The parser before rows were parsed with numpy, kept as the reference."""
    text = Path(path).read_text()
    rows: list[list[float]] = []
    width: int | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        tokens = line.split(",")
        values = []
        for colno, tok in enumerate(tokens, start=1):
            try:
                values.append(float(tok))
            except ValueError:
                raise ValueError(
                    f"row {lineno}, column {colno}: not a number: {tok.strip()!r}"
                ) from None
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ValueError(
                f"row {lineno}: ragged row, expected {width} values, got {len(values)}"
            )
        for colno, v in enumerate(values, start=1):
            if has_confidence:
                if not 0.0 <= v <= 1.0:
                    raise ValueError(
                        f"row {lineno}, column {colno}: value {v} outside [0, 1]"
                    )
            elif v not in (0.0, 1.0):
                raise ValueError(
                    f"row {lineno}, column {colno}: value {v} is not 0 or 1"
                )
        rows.append(values)
    matrix = np.array(rows, dtype=np.float64).reshape(len(rows), width or 0)
    confidence = matrix.astype(np.float32) if has_confidence else None
    return AccuracyCache.from_dense(matrix >= 0.5, confidence)


SPECIAL_TOKENS = [
    "0", "1", "0.0", "1.0", " 1", "0 ", "\t1", "-0", "+1", "1e0", "1E-0", ".5",
    "0.5", "0.49999999", "0.5000000001", "1.0000001", "2", "-1", "1e400", "-1e-400",
    "nan", "NaN", "inf", "-inf", "infinity", "1_0", "0_1", "1__0", "0x1", "١",
    "٠.٥", "", " ", "x", "1.0.0", "--1", " 1",
]
tokens = st.one_of(
    st.sampled_from(SPECIAL_TOKENS),
    st.floats(0.0, 1.0).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(str),
    st.integers(-2, 3).map(str),
    st.text(max_size=3),
)
binary_tokens = st.sampled_from(["0", "1", "0.0", "1.0", " 1", "1 "])


@st.composite
def csv_texts(draw):
    width = draw(st.integers(0, 6))
    mostly_valid = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "ragged"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        count = width if kind == "row" else draw(st.integers(1, 7))
        pool = binary_tokens if mostly_valid else tokens
        if mostly_valid and draw(st.integers(0, 9)) == 0:
            pool = tokens
        lines.append(",".join(draw(pool) for _ in range(max(count, 1))))
    sep = draw(st.sampled_from(["\n", "\r\n", " "]))
    return sep.join(lines) + draw(st.sampled_from(["", sep]))


def _outcome(path, has_confidence, parse):
    try:
        return parse(path, has_confidence=has_confidence)
    except ValueError as exc:
        return str(exc)


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=csv_texts(), has_confidence=st.booleans())
def test_matches_reference_parser(tmp_path, text, has_confidence):
    path = tmp_path / "m.csv"
    path.write_text(text, encoding="utf-8")
    got = _outcome(path, has_confidence, import_csv)
    want = _outcome(path, has_confidence, reference_import_csv)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, AccuracyCache)
        assert got == want
        assert (got.confidence is not None) == has_confidence


@pytest.mark.parametrize("has_confidence", [False, True])
def test_larger_csv_matches_reference(tmp_path, has_confidence):
    rng = np.random.default_rng(18)
    values = rng.random((37, 203))
    if not has_confidence:
        values = (values < 0.5).astype(int)
    path = tmp_path / "m.csv"
    path.write_text("\n".join(",".join(map(str, row)) for row in values.tolist()))
    got = import_csv(path, has_confidence)
    assert got == reference_import_csv(path, has_confidence)
    assert (got.num_models, got.num_samples) == (37, 203)
