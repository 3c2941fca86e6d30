"""CSV output: every cell is exactly Python's ``"%.17g" % x``.

``write_csv`` formats whole blocks of doubles with NumPy array operations and
no per-cell Python call.  For a finite non-zero ``x`` it scales ``|x|`` by
``10**(16 - e)``, where ``e`` is the decimal exponent, so that the 17
significant digits are the integer part of the product ``y``.  The power of
ten is held in two parts, ``hi + lo``, and ``|x| * hi`` is formed exactly as
a sum of two doubles by Dekker's product (Dekker 1971, *Numer. Math.*
18:224).  That fixes ``y`` to about 1e-13, far below the 1e-9 margin from a
rounding tie that the kernel asks for.  For ``|e| > 270``, subnormals
included, ``|x|`` is first scaled by the exact power of two ``2**-600``
(``e > 270``) or ``2**600`` (``e < -270``), whose inverse ``hi`` and ``lo``
carry, so that Dekker's split never overflows and no partial product
underflows.  ``floor(log10|x|)`` can be one off next to a power of ten, so
a ``y`` outside ``[1e16, 1e17)`` is scaled again with the neighbouring
exponent and its power of two.  The 17 digits are then laid
out by the ``%g`` rules with word-wide bit operations: fixed notation for
``-4 <= e < 17`` and exponent notation otherwise, trailing zeros and a bare
point dropped, and the exponent given with at least two digits.  The
constants of an exponent (``hi``, ``lo``, the layout bytes) are computed once
per process, when a block first needs them; each formatting pass gathers
those of its own exponents, one more on either side for the corrections.

Python's own ``%`` (Gay's correctly rounded dtoa) formats only the cells the
kernel cannot certify: ``y`` within 1e-9 of a rounding tie.  ``nan``
(whatever its sign bit), ``inf``, ``-inf``, ``0`` and ``-0`` are laid out by
the kernel.

Equal float64 bits give equal ``%.17g`` text, and the cells of a column share
a separator, so a cell whose bits equal those of the cell above it reuses
that cell's 32-byte slot.  The kernel formats only the first cell of each
run of equal cells down a column, and the slots are expanded column by
column back to the rows.  Comparing bits, not values, keeps ``0`` and
``-0``, NaN payloads and the ``%`` cells apart.  The runs start afresh in
every pass.
"""

from __future__ import annotations

import functools
import io
import math
from pathlib import Path
from typing import IO, Callable, Iterable

import numpy as np

__all__ = ["format_float", "write_csv"]

_FLOAT = "%.17g"  # locale-independent, round-trips every double
_CHUNK = 1 << 13  # cells per formatting pass: temporaries of about 1 MiB
_PRESCALE = 270  # beyond this decimal exponent |x| is first scaled by 2**-+600
_TIE = 1e-9  # digits this close to a rounding tie are left to ``%``
_SPLIT = 134217729.0  # 2**27 + 1, splits a double into two 26-bit halves
_SLOT = 32  # bytes of one formatted cell, zero bytes dropped on output
_ASCII = "0123456789+-.,\neinaf"  # every character a cell or separator uses

# A cell is built in a 32-byte slot of four little-endian 64-bit words, at
# fixed places; the unused bytes stay zero and are dropped on output:
#   byte 0       "-" for a negative sign
#   bytes 1-5    "0.", "0.0", "0.00" or "0.000" before the digits of 1e-4..1
#   bytes 6-23   the significant digits, with the point after the first
#                ``point`` of them
#   bytes 24-28  "e+XX" or "e-XXX" in exponent notation; "nan", "inf" or "0"
#   byte 29      "," or the newline
_BODY = 6
_WORDS = np.dtype("<u8")  # slot words, little-endian on any host
_SEP_SHIFT = np.uint64(8 * (29 - 24))
_NAN, _INF, _ZERO = (
    np.uint64(int.from_bytes(text, "little")) for text in (b"nan", b"inf", b"0")
)


def format_float(x: float) -> str:
    """Locale-independent formatting with 17 significant digits."""
    return _FLOAT % float(x)


def write_csv(
    target: str | Path | IO[str],
    header: str,
    rows: np.ndarray | Iterable[np.ndarray],
) -> None:
    """Write ``header`` and then one line per row, each cell exactly
    ``"%.17g" % x``, to a path or an open text handle.

    ``rows`` is a 2-D array, or an iterable of 2-D arrays (blocks of rows
    of one width) in output order.  The cells are formatted by the
    array kernel described in the module docstring, in passes of at most
    ``2**13`` cells (whole rows; a wider row is one pass), so the writer
    streams and its temporaries stay near 1 MiB.  The header and each pass
    are one ``write`` call each: of bytes to the binary ``buffer`` of an
    ``io.TextIOWrapper`` (exactly that type) whose encoding keeps ASCII as
    is (files, stdout), after flushing its text layer, and of text to any
    other handle (``StringIO``).  A wrapper's newline translation is so
    bypassed: every line of the file, the header too, ends in ``"\\n"``
    whatever its ``newline``.
    """
    if not hasattr(target, "write"):
        with open(target, "w", encoding="utf-8", newline="\n") as handle:
            return write_csv(handle, header, rows)
    write = _line_writer(target, header)
    for block in [rows] if isinstance(rows, np.ndarray) else rows:
        step = max(1, _CHUNK // max(block.shape[1], 1))
        for start in range(0, len(block), step):
            write(_format_rows(block[start : start + step]))


def _line_writer(target: IO[str], header: str) -> Callable[[bytes], object]:
    """Write ``header`` and its newline to ``target``, and return the
    ``write`` that takes a pass's ASCII bytes there."""
    if (
        type(target) is io.TextIOWrapper
        and _ASCII.encode(target.encoding) == _ASCII.encode("ascii")
    ):
        target.flush()
        write = target.buffer.write
        write((header + "\n").encode(target.encoding, target.errors))
        return write
    target.write(header + "\n")
    return lambda data: target.write(data.decode("ascii"))


def _format_rows(block: np.ndarray) -> bytes:
    """The CSV lines of one 2-D block as ASCII: its cells' slots, zero bytes
    dropped, each run of equal cells down a column formatted once."""
    rows, width = block.shape
    ends = np.full(width, ord(","), np.uint64)
    ends[-1] = ord("\n")
    x = np.ascontiguousarray(block, dtype=np.float64)
    bits = x.view(np.uint64)
    # column-major, where the cells of a run follow its first cell
    fresh = np.empty((width, rows), bool)
    fresh[:, 0] = True
    np.not_equal(bits[1:].T, bits[:-1].T, out=fresh[:, 1:])
    firsts = _cells(x.T[fresh], np.repeat(ends, fresh.sum(axis=1)))
    run = np.cumsum(fresh, dtype=np.intp) - 1  # each cell's run
    slots = firsts.take(run.reshape(width, rows).T.ravel(), axis=0)
    return slots.tobytes().translate(None, b"\0")


# The per-exponent columns of ``_window``, in ``_exponent_row`` order.
_ROW_COLUMNS = (
    ("scale", np.float64), ("hi", np.float64), ("hi_head", np.float64),
    ("hi_tail", np.float64), ("lo", np.float64), ("point", np.int64),
    ("lead", np.int64), ("prefix", np.uint64), ("expo", np.uint64),
)


@functools.cache
def _exponent_row(e: int) -> tuple[float, ...]:
    """The kernel's constants for the decimal exponent ``e``, computed once.

    ``scale``, the power of two ``|x|`` is first multiplied by (1 unless
    ``|e| > 270``); ``hi``, ``hi_head``, ``hi_tail`` and ``lo`` of
    ``10**(16 - e) / scale = hi + lo`` (``hi`` correctly rounded, ``lo`` the
    correctly rounded remainder, ``hi_head + hi_tail = hi`` its Dekker
    split); ``point``, the digits before the point (17, none, in
    ``0.000ddd``); ``lead``, the digits always shown; ``prefix`` and
    ``expo``, the slot bytes 1-5 and 24-28.
    """
    shift = 600 * ((e > _PRESCALE) - (e < -_PRESCALE))  # scale = 2**-shift
    num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
    num, den = (num << shift, den) if shift > 0 else (num, den << -shift)
    hi = num / den  # int true division rounds correctly
    hi_num, hi_den = hi.as_integer_ratio()
    lo = (num * hi_den - hi_num * den) / (den * hi_den)
    c = _SPLIT * hi
    head = c - (c - hi)
    if -4 <= e < 0:  # 0.000ddd: the point comes before the digits
        point, lead, head_bytes, tail_bytes = 17, 1, b"\0" + b"0.000"[: 1 - e], b""
    elif 0 <= e < 17:  # ddd.ddd: every integer digit is shown
        point, lead, head_bytes, tail_bytes = e + 1, e + 1, b"", b""
    else:  # d.ddde+XX
        point, lead, head_bytes, tail_bytes = 1, 1, b"", b"e%+03d" % e
    prefix, expo = (int.from_bytes(b, "little") for b in (head_bytes, tail_bytes))
    return math.ldexp(1.0, -shift), hi, head, hi - head, lo, point, lead, prefix, expo


def _window(first: int, last: int) -> dict[str, np.ndarray]:
    """The ``_exponent_row`` columns of the exponents ``first..last``, each
    an array indexed by ``e - first``; ``scale`` only where one exponent
    lies beyond 270 in magnitude, as it is 1 for all others."""
    columns = zip(*map(_exponent_row, range(first, last + 1)))
    table = {
        name: np.array(column, dtype)
        for (name, dtype), column in zip(_ROW_COLUMNS, columns)
    }
    if -_PRESCALE <= first and last <= _PRESCALE:
        del table["scale"]
    return table


@functools.cache
def _digit_tables() -> dict[str, np.ndarray]:
    """The exponent-independent lookup tables, built on first use.

    Per four-digit group: its ``"%04d"`` ASCII word and its trailing zeros,
    each from the 100 two-digit pairs.  Per ``point * 18 + kept`` digits
    shown: the masks ``before``, ``after`` and the point byte ``dot`` of slot
    words 0-2, cut at the last digit.
    """
    pairs = range(100)
    ascii2 = np.frombuffer(b"".join(b"%02d" % k for k in pairs), "<u2")
    ascii2 = ascii2.astype(np.uint64)
    zeros2 = np.array([2 if k == 0 else int(k % 10 == 0) for k in pairs])
    # group 100 * a + b is the pair a, then the pair b; its trailing zeros
    # are those of b, or two more than those of a when b is 00
    ascii4 = (ascii2[:, None] | ascii2[None, :] << np.uint64(16)).ravel()
    zeros4 = np.where(zeros2 == 2, 2 + zeros2[:, None], zeros2).ravel()
    # per (point, kept): the slot bytes of the digits before the point and
    # after it, and the point itself, cut after the last digit shown
    points = np.arange(18)[:, None, None]
    kept = np.arange(18)[None, :, None]
    pos = np.arange(24)
    cut = pos < _BODY + kept + (kept > points)

    def words(fill: np.ndarray) -> np.ndarray:
        return fill.astype(np.uint8).view(_WORDS).reshape(-1, 3).T.copy()

    before = words(np.where((pos < _BODY + points) & cut, 0xFF, 0))
    after = words(np.where((pos > _BODY + points) & cut, 0xFF, 0))
    dot = words(np.where((pos == _BODY + points) & cut, ord("."), 0))
    return {
        "ascii4": ascii4, "zeros4": zeros4,
        "before": before, "after": after, "dot": dot,
    }


def _scaled(
    ax: np.ndarray, i: np.ndarray, consts: dict[str, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """``floor(y)`` as int64 and ``y - floor(y)`` for ``y = ax * 10**(16 - e)``,
    with the constants of ``e`` at index ``i`` of the ``_window`` ``consts``.

    ``ax`` is first multiplied by ``scale`` where the window has one.
    ``ax * hi = p + err`` exactly (Dekker's product with 26-bit halves), and
    ``ax * lo`` adds the rest; for ``y < 2**63`` the fraction is within about
    1e-13 of the exact one.
    """
    if "scale" in consts:
        ax = ax * consts["scale"][i]
    hi, head, tail = consts["hi"][i], consts["hi_head"][i], consts["hi_tail"][i]
    p = ax * hi
    c = _SPLIT * ax
    a_head = c - (c - ax)
    a_tail = ax - a_head
    err = a_tail * tail - (((p - a_head * head) - a_tail * head) - a_head * tail)
    whole = np.floor(p)
    f = (p - whole) + (err + ax * consts["lo"][i])
    carry = np.floor(f)
    return whole.astype(np.int64) + carry.astype(np.int64), f - carry


def _divmod(v: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.divmod`` by a constant, through the faster floor division."""
    q = v // d
    return q, v - q * d


def _cells(x: np.ndarray, sep: np.ndarray) -> np.ndarray:
    """The ``(n, 4)`` word slots of the cells ``x``, each ``"%.17g" % x``
    followed by its separator ``sep`` (character codes), zero-padded."""
    t = _digit_tables()
    ax = np.abs(x)
    digits = (ax > 0.0) & (ax < np.inf)  # false for 0, inf and nan
    ax = np.where(digits, ax, 1.0)  # laid out below; its frac is 0, no tie
    e = np.floor(np.log10(ax)).astype(np.int64)
    # the block's exponents, one more each side for the corrections below
    e0 = int(e.min()) - 1
    consts = _window(e0, int(e.max()) + 1)
    num, frac = _scaled(ax, e - e0, consts)
    off = (num < 10**16) | (num >= 10**17)  # log10 one off at a power of ten
    if off.any():
        e[off] += np.where(num[off] < 10**16, -1, 1)
        num[off], frac[off] = _scaled(ax[off], e[off] - e0, consts)
    num += frac > 0.5
    carry = num == 10**17  # rounded up to the next power of ten
    num[carry] = 10**16
    e += carry

    # the 17 digits d0 a0..a7 b0..b7 as ASCII, and how many to show
    top, low8 = _divmod(num, 10**8)
    first, mid8 = _divmod(top, 10**8)
    a_hi, a_lo = _divmod(mid8, 10**4)
    b_hi, b_lo = _divmod(low8, 10**4)
    ascii4, zeros4 = t["ascii4"], t["zeros4"]
    a = ascii4[a_hi] | ascii4[a_lo] << np.uint64(32)
    b = ascii4[b_hi] | ascii4[b_lo] << np.uint64(32)
    d0 = (first + ord("0")).astype(np.uint64)
    zeros = np.where(
        low8 == 0,
        8 + np.where(a_lo == 0, 4 + zeros4[a_hi], zeros4[a_lo]),
        np.where(b_lo == 0, 4 + zeros4[b_hi], zeros4[b_lo]),
    )
    i = e - e0
    point = consts["point"][i]
    kept = np.maximum(17 - zeros, consts["lead"][i])
    j = point * 18 + kept

    # digits at slot bytes 6.. (before the point) and 7.. (after it)
    u8, u56 = np.uint64(8), np.uint64(56)
    before = (d0 << np.uint64(48) | a << u56, a >> u8 | b << u56, b >> u8)
    after = (d0 << u56, a, b)
    cells = np.empty((x.size, 4), _WORDS)
    slots = cells.T  # word w of every cell in row w
    for w in range(3):
        slots[w] = (
            (before[w] & t["before"][w][j])
            | (after[w] & t["after"][w][j])
            | t["dot"][w][j]
        )
    slots[0] |= consts["prefix"][i]
    slots[3] = consts["expo"][i]
    if not digits.all():
        k = np.flatnonzero(~digits)
        slots[:, k] = 0
        slots[3, k] = np.where(np.isnan(x[k]), _NAN, np.where(x[k] == 0.0, _ZERO, _INF))
    slots[0] |= (np.signbit(x) & ~np.isnan(x)) * np.uint64(ord("-"))
    slots[3] |= sep << _SEP_SHIFT
    for k in np.flatnonzero(np.abs(frac - 0.5) < _TIE).tolist():
        cell = (_FLOAT % x[k]).encode() + bytes([int(sep[k])])
        slots[:, k] = np.frombuffer(cell.ljust(_SLOT, b"\0"), _WORDS)
    return cells
