"""The CSV writer against Python's ``"%.17g" %`` on over a million doubles.

The draw is seeded, so the test is deterministic.  It covers random bit
patterns over every exponent and sign (subnormals, NaN payloads and the
infinities among them), powers of ten and their neighbours (the doubles
nearest 10**k that lie below it round up to the next power), exact rounding
ties at the 17th digit, dyadic rationals, integers and a linspace.  Before
them, one call writes blocks whose decimal exponents lie far apart, so each
formatting pass reads the kernel's constants for its own exponents.  With
``%`` cut to three digits, subnormals and the largest magnitudes must still
read 17: the kernel formats them.

A Hypothesis test then draws tables made of runs of equal cells, which the
writer formats once per run: constant columns, runs across the boundary of
a formatting pass, NaNs and zeros whose bits differ, infinities, subnormals
and rounding ties inside runs.
"""

import io
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lindosc import csvout
from lindosc.csvout import write_csv

WIDTH = 8


def _doubles() -> np.ndarray:
    rng = np.random.default_rng(20261018)
    bits = rng.integers(0, 2**64, size=620_000, dtype=np.uint64, endpoint=False)
    sign = np.uint64(1 << 63)
    subnormal = rng.integers(1, 2**52, size=20_000, dtype=np.uint64)
    nan_payload = rng.integers(1, 2**52, size=2_000, dtype=np.uint64) | np.uint64(0x7FF << 52)
    patterns = np.concatenate([bits, subnormal, subnormal | sign, nan_payload, nan_payload | sign])
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    up, down = np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf)
    near = [powers, up, down, np.nextafter(up, np.inf), np.nextafter(down, -np.inf)]
    # x = m / 2**q with m odd and 1e(17-q) <= x < 1e(18-q) has exactly 18
    # significant digits, the last a 5: a tie at 17 digits
    ties = []
    for q in range(2, 25):
        lo = int(np.ceil(10.0 ** (17 - q) * 2.0**q))
        hi = min(int(10.0 ** (18 - q) * 2.0**q), 2**53)
        if hi - lo > 2:
            m = rng.integers(lo, hi, size=2_000) | 1
            ties.append(np.ldexp(m.astype(float), -q))
    dyadic = np.ldexp(
        rng.integers(-(2**53), 2**53, size=100_000).astype(float),
        rng.integers(-80, 80, size=100_000),
    )
    scaled = rng.standard_normal(100_000) * 10.0 ** rng.uniform(-300, 300, 100_000)
    signed = np.concatenate([*near, *ties])
    x = np.concatenate(
        [patterns.view(np.float64), signed, -signed, dyadic, scaled,
         rng.integers(-(10**17), 10**17, size=20_000).astype(float),
         np.linspace(-5.0, 5.0, 40_001)]
    )
    return x[: x.size // WIDTH * WIDTH].reshape(-1, WIDTH)


def _blocks() -> list[np.ndarray]:
    """2-D blocks of one ``write_csv`` call, each over its own exponents."""
    rng = np.random.default_rng(20261019)
    sign = rng.choice([-1.0, 1.0], size=(64, WIDTH))
    moderate = sign * 10.0 ** rng.uniform(-3.0, 3.0, sign.shape)
    large = sign * 10.0 ** rng.uniform(264.5, 265.5, sign.shape)
    small = sign * 10.0 ** rng.uniform(-265.5, -264.5, sign.shape)
    # floor(log10 x) is one too high at most of these, so the kernel
    # rescales them with the neighbouring exponent
    powers = np.array([float(f"1e{k}") for k in range(20, 60)])
    exact = np.concatenate([powers, np.nextafter(powers, -np.inf)])
    # beyond decimal exponent 270 in magnitude, subnormals among them, the
    # kernel scales |x| by 2**-+600 first; the doubles next to 1e+-270 lie
    # on either side of that boundary
    edges = np.concatenate([
        np.ldexp(rng.integers(1, 2**52, size=WIDTH * 6).astype(float), -1074),
        np.nextafter([1e-270, -1e-270], 0.0),
        np.nextafter([1e270, -1e270], [np.inf, -np.inf]),
        [5e-324, -2.2250738585072009e-308, 2.2250738585072014e-308, -1e-300],
        [1e-280, -1e-271, 1e271, -1e280, 1e300, -1e308, 1.7976931348623157e308, -1e290],
    ])
    return [moderate, large, exact.reshape(-1, WIDTH), small, edges.reshape(-1, WIDTH)]


def test_write_csv_matches_format_17g_on_a_million_doubles():
    line = ",".join(["%.17g"] * WIDTH) + "\n"
    blocks = _blocks()
    handle = io.StringIO()
    write_csv(handle, "h", blocks)
    got = handle.getvalue().splitlines(keepends=True)
    assert got[0] == "h\n"
    start = 1
    for block in blocks:
        assert got[start : start + len(block)] == [line % tuple(row) for row in block.tolist()]
        start += len(block)
    assert start == len(got)

    table = _doubles()
    assert table.size >= 1_000_000
    handle = io.StringIO()
    write_csv(handle, "h", table)
    expected = "h\n" + "".join(line % tuple(row) for row in table.tolist())
    got = handle.getvalue()
    for mine, ref in zip(got.splitlines(), expected.splitlines()):
        assert mine == ref  # names the first differing row
    assert got == expected


def test_the_kernel_formats_the_extreme_magnitudes(monkeypatch):
    # subnormals, magnitudes near 1e-300 and 1e300 and the largest double:
    # with ``%`` cut to three digits they still read 17, so the kernel, not
    # ``%``, formatted them (none of them is a rounding tie)
    rng = np.random.default_rng(20261020)
    near = 10.0 ** rng.uniform(-0.5, 0.5, size=62)
    subnormal = np.ldexp(rng.integers(1, 2**52, size=62).astype(float), -1074)
    x = np.concatenate([subnormal, near * 1e-300, near * 1e300,
                        [1.7976931348623157e308, 5e-324]])
    table = np.concatenate([x, -x]).reshape(-1, WIDTH)
    expected = ["h"] + [",".join("%.17g" % v for v in row) for row in table.tolist()]
    monkeypatch.setattr(csvout, "_FLOAT", "%.3g")
    handle = io.StringIO()
    write_csv(handle, "h", table)
    assert handle.getvalue().splitlines() == expected


PASS = 1 << 13  # cells per formatting pass of the writer


def _bits(pattern: int) -> float:
    return float(np.array([pattern], np.uint64).view(np.float64)[0])


def _tie(q: int, m: int) -> float:
    """A double with 18 significant digits, the last a 5 (see ``_doubles``)."""
    lo = int(np.ceil(10.0 ** (17 - q) * 2.0**q))
    hi = min(int(10.0 ** (18 - q) * 2.0**q), 2**53)
    return float(np.ldexp(float((lo + m % (hi - lo)) | 1), -q))


SIGNED = st.integers(0, 1).map(lambda s: s << 63)
CELLS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf]),
    # NaNs that differ only in their payload and sign bits
    st.builds(lambda s, m: _bits(s | 0x7FF << 52 | m), SIGNED, st.integers(1, 2**52 - 1)),
    st.builds(lambda s, m: _bits(s | m), SIGNED, st.integers(1, 2**52 - 1)),
    st.builds(_tie, st.integers(2, 20), st.integers(0, 2**40)),
)


@st.composite
def run_tables(draw) -> np.ndarray:
    """A table whose columns each cycle through a few cells in runs: of one
    row (so ``[0.0, -0.0]`` alternates), of about ``mean`` rows, or one run
    over the whole column.  Some tables span more than one formatting pass."""
    width = draw(st.integers(1, 9))
    per_pass = PASS // width
    rows = draw(st.integers(1, 40) | st.integers(per_pass - 2, 2 * per_pass + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    columns = []
    for _ in range(width):
        cells = draw(st.lists(CELLS, min_size=1, max_size=4))
        mean = draw(st.sampled_from([1, 4, 100, per_pass, None]))
        if mean is None:
            lengths = np.array([rows])
        else:
            lengths = rng.geometric(1.0 / mean, size=rows)
        run = np.repeat(np.arange(lengths.size), lengths)[:rows]
        columns.append(np.array(cells)[run % len(cells)])
    return np.column_stack(columns)


def _mixed_runs() -> np.ndarray:
    """Three passes of five columns: one constant, ``0.0``/``-0.0``
    alternating, two NaN payloads and their negatives in runs of three, and
    runs of 1000 through an infinity, a subnormal and a rounding tie, the
    last column cycling through the same cells one row at a time."""
    rows = 3 * PASS // 5 + 7
    nans = [_bits(s | 0x7FF << 52 | m) for s in (0, 1 << 63) for m in (1, 2**51)]
    cells = np.array([np.inf, _bits(3), _tie(5, 12345), -np.inf, -_bits(2**52 - 1)])
    k = np.arange(rows)
    return np.column_stack([
        np.full(rows, 0.1),
        np.where(k % 2, -0.0, 0.0),
        np.array(nans)[k // 3 % 4],
        cells[k // 1000 % 5],
        cells[k % 5],
    ])


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(table=run_tables(), pieces=st.integers(0, 4))
@example(table=_mixed_runs(), pieces=0)
@example(table=_mixed_runs(), pieces=3)
def test_write_csv_matches_format_17g_on_runs(table, pieces):
    expected = "h\n" + "".join(
        ",".join("%.17g" % x for x in row) + "\n" for row in table.tolist()
    )
    # the table whole, or cut into that many blocks, some of them empty
    rows = np.array_split(table, pieces) if pieces else table
    text = io.StringIO()
    write_csv(text, "h", rows)
    # as lines, so that a failure names the first differing row
    lines = expected.splitlines(keepends=True)
    assert text.getvalue().splitlines(keepends=True) == lines
    # a file handle gets the bytes on its buffer: every line, the header
    # too, ends in "\n", also where the handle would translate newlines
    for newline in ("\n", "\r\n"):
        raw = io.BytesIO()
        handle = io.TextIOWrapper(raw, encoding="utf-8", newline=newline)
        write_csv(handle, "h", rows)
        handle.flush()
        assert raw.getvalue().decode().splitlines(keepends=True) == lines
    # and a path, which the writer opens itself
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        write_csv(path, "h", rows)
        with open(path, "rb") as f:
            assert f.read().decode().splitlines(keepends=True) == lines


class _Tee(io.TextIOWrapper):
    """A text handle that also keeps every string written to it."""

    def __init__(self, raw):
        super().__init__(raw, encoding="utf-8")
        self.seen = []

    def write(self, text):
        self.seen.append(text)
        return super().write(text)


def test_write_csv_writes_text_through_a_wrapper_subclass():
    table = np.column_stack([np.zeros(3), np.arange(3.0)])
    handle = _Tee(io.BytesIO())
    write_csv(handle, "a,b", table)
    assert "".join(handle.seen) == "a,b\n0,0\n0,1\n0,2\n"
