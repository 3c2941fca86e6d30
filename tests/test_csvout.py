"""The CSV writer against Python's ``"%.17g" %`` on over a million doubles.

The draw is seeded, so the test is deterministic.  It covers random bit
patterns over every exponent and sign (subnormals, NaN payloads and the
infinities among them), powers of ten and their neighbours (the doubles
nearest 10**k that lie below it round up to the next power), exact rounding
ties at the 17th digit, dyadic rationals, integers and a linspace.  Before
them, one call writes blocks whose decimal exponents lie far apart, so each
formatting pass reads the kernel's constants for its own exponents.
"""

import io

import numpy as np

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
    # all left to ``%``: subnormals and the doubles next to the sure range
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
