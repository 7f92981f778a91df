"""Deterministic CSV/JSON writers.

Files are bit-stable across runs: 17-significant-digit floats, LF line
endings, sorted JSON keys, deterministic row order.  The grid CSV writer
makes the bytes of ``%.17g`` with a numpy kernel (``_format17``) and calls
the per-value formatter only for the values whose digits the kernel cannot
prove.

The JSON schemas shipped in ``als/schemas`` document the sidecar and report
formats.  Nothing here checks them: each command builds a fixed shape whose
bounds its option types already enforce, and the tests validate every kind
of file against its schema.
"""

from __future__ import annotations

import json
from functools import lru_cache

import numpy as np


def fmt(value: float) -> str:
    """17-significant-digit decimal representation."""
    return f"{float(value):.17g}"


def write_json(path, obj: dict) -> None:
    """Write obj as sorted, indented JSON.

    A NaN or infinite value raises ``ValueError``: JSON has no such token.
    """
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


# The %.17g kernel of write_grid_csv: decimal digits with proven rounding.
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting factor
_Q_MIN, _Q_MAX = -270, 300  # the scales 10**q in the table: q = 16 - k for the range below
_KERNEL_MIN, _KERNEL_MAX = 1e-280, 1e280  # the magnitudes the kernel formats
_TIE_MARGIN = 1e-6  # the rounding is proven when frac(t) is this far from 1/2
_WIDTH = 25  # the longest %.17g text, "-1.2345678901234567e-308", and a separator
_BLOCK_CELLS = 1 << 15  # the values formatted, or the cells gathered, in one block


@lru_cache(maxsize=None)
def _pow10_table() -> tuple[np.ndarray, ...]:
    """10**q for q = _Q_MIN.._Q_MAX as double-doubles hi + lo, with hi split
    into halves of 26 bits for Dekker's product.  hi and lo are each rounded
    correctly from exact integers: int / int is a correctly rounded division."""
    hi, lo = [], []
    for q in range(_Q_MIN, _Q_MAX + 1):
        num, den = 10 ** max(q, 0), 10 ** max(-q, 0)
        h = num / den
        m, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - m * den) / (den * d))
    hi = np.array(hi)
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    table = (hi, np.array(lo), hi_hi, hi - hi_hi)
    for col in table:
        col.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _digit_table() -> tuple[np.ndarray, np.ndarray]:
    """For each integer c below 10**4: its four ASCII digits as one uint32
    word, and the place (1-4) of its last nonzero digit (0 for c = 0)."""
    n = np.arange(10**4)[:, None]
    ascii_digits = (48 + n // 10 ** np.arange(3, -1, -1) % 10).astype(np.uint8)
    last = np.where(n[:, 0] > 0, 4 - np.argmax(ascii_digits[:, ::-1] != 48, axis=1), 0)
    ascii_words = ascii_digits.view(np.uint32).ravel()
    ascii_words.flags.writeable = last.flags.writeable = False
    return ascii_words, last


def _divmod(x: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """np.divmod by a scalar, much faster: numpy's // by a scalar skips the
    general integer division."""
    q = x // d
    return q, x - q * d


def _void_rows(a: np.ndarray) -> np.ndarray:
    """The rows of a contiguous 2-D array as one item each: gathers and
    scatters of rows run much faster on this view."""
    return a.view(np.dtype((np.void, a.shape[1] * a.itemsize))).ravel()


def _layout(negative: bool, exponent: int, kept: int) -> list:
    """The %.17g text of a value with this sign, decimal exponent and number
    of significant digits kept: literal bytes and [i, j) ranges of its 17
    digits.  Fixed notation for -4 <= exponent < 17, as %g uses."""
    text = [b"-"] if negative else []
    if -4 <= exponent < 0:
        return text + [b"0." + b"0" * (-1 - exponent), (0, kept)]
    if 0 <= exponent < 17:
        point = exponent + 1
        return text + [(0, point)] + ([b".", (point, kept)] if kept > point else [])
    return text + [(0, 1)] + ([b".", (1, kept)] if kept > 1 else []) + [b"e%+03d" % exponent]


def _format17(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of ``'%.17g' % x`` for each x in values.

    Returns ``(text, size)``: row i of the uint8 array ``text`` holds the
    ``size[i]`` bytes of values[i] and then a ``,``.  The values are formatted
    in blocks of _BLOCK_CELLS, which bounds the memory of the temporaries.
    """
    text = np.empty((len(values), _WIDTH), np.uint8)
    size = np.empty(len(values), np.intp)
    for start in range(0, len(values), _BLOCK_CELLS):
        block = slice(start, start + _BLOCK_CELLS)
        _format_block(values[block], text[block], size[block])
    return text, size


def _format_block(values: np.ndarray, text: np.ndarray, size: np.ndarray) -> None:
    """Write the bytes of ``'%.17g' % x`` and a ``,`` into row i of text, and
    their number less the comma into size[i], for each x = values[i].

    For |x| in [_KERNEL_MIN, _KERNEL_MAX], with k = floor(log10|x|) and
    q = 16 - k, Dekker's error-free product gives p + e = |x|*hi exactly, and
    t = e + |x|*lo, where hi + lo is 10**q as a double-double.  p >= 1e16 >
    2**53 is an integer, so the 17 significant digits are the integer
    D = p + floor(t) + (frac(t) > 1/2).  t is off by about 5e-15 at most, so
    D is the correctly rounded value when frac(t) is more than _TIE_MARGIN
    from 1/2, and k is the decimal exponent when 10**16 <= p + floor(t) and
    D < 10**17 (a log10 off by one next to a power of ten fails this).
    Every other value falls back to ``'%.17g' % x``: zeros, NaN, infinities,
    magnitudes outside the range, exact ties and off-by-one exponents.
    """
    mag = np.abs(values)
    kernel = np.flatnonzero((mag >= _KERNEL_MIN) & (mag <= _KERNEL_MAX))
    mag = mag[kernel]
    exponent = np.floor(np.log10(mag)).astype(np.intp)
    hi, lo, hi_hi, hi_lo = (col[16 - _Q_MIN - exponent] for col in _pow10_table())
    p = mag * hi
    c = _SPLIT * mag
    mag_hi = c - (c - mag)
    mag_lo = mag - mag_hi
    t = (((mag_hi * hi_hi - p) + mag_hi * hi_lo + mag_lo * hi_hi) + mag_lo * hi_lo) + mag * lo
    whole = np.floor(t)
    frac = t - whole
    floor = p.astype(np.int64) + whole.astype(np.int64)
    significand = floor + (frac > 0.5)
    proven = (np.abs(frac - 0.5) > _TIE_MARGIN) & (floor >= 10**16) & (significand < 10**17)
    kernel, exponent, significand = kernel[proven], exponent[proven], significand[proven]

    # D as its lead digit and four words of four digits; word w holds digits
    # 4w - 2 .. 4w + 1, and the last nonzero word holds the last kept digit
    upper, lower = _divmod(significand, 10**8)
    lead, upper = _divmod(upper.astype(np.int32), 10**8)
    words = [lead, *_divmod(upper, 10**4), *_divmod(lower.astype(np.int32), 10**4)]
    ascii_words, last = _digit_table()
    kept = np.ones(len(kernel), np.intp)
    for w in range(1, 5):
        kept = np.where(words[w] > 0, 4 * w - 3 + last[words[w]], kept)

    # One layout per (sign, exponent, digits kept): a stable sort makes each
    # group a run of rows, filled with slice assignments.
    negative = np.signbit(values[kernel]).astype(np.uint16)
    key = negative << 15 | (exponent + 324).astype(np.uint16) << 5 | kept.astype(np.uint16)
    order = np.argsort(key, kind="stable")
    key = key[order]
    # the lead's word is "000d", so the 17 digits are bytes 3..19 of the words
    digits = np.take(ascii_words, np.stack([word[order] for word in words], axis=1)).view(np.uint8)[:, 3:]
    rows = np.empty((len(order), _WIDTH), np.uint8)
    rows_size = np.empty(len(order), np.intp)
    starts = np.flatnonzero(np.diff(key, prepend=-1, append=-1)).tolist()
    for a, b in zip(starts[:-1], starts[1:]):
        group = int(key[a])
        pos = 0
        for piece in _layout(group >> 15, (group >> 5 & 1023) - 324, group & 31):
            if isinstance(piece, bytes):
                rows[a:b, pos : pos + len(piece)] = np.frombuffer(piece, np.uint8)
                pos += len(piece)
            else:
                rows[a:b, pos : pos + piece[1] - piece[0]] = digits[a:b, piece[0] : piece[1]]
                pos += piece[1] - piece[0]
        rows[a:b, pos] = ord(",")
        rows_size[a:b] = pos
    kernel = kernel[order]
    _void_rows(text)[kernel] = _void_rows(rows)
    size[kernel] = rows_size

    fallback = np.ones(len(values), bool)
    fallback[kernel] = False
    for i in np.flatnonzero(fallback).tolist():
        s = ("%.17g," % values[i]).encode()
        text[i, : len(s)] = np.frombuffer(s, np.uint8)
        size[i] = len(s) - 1


def write_grid_csv(
    path,
    grid: np.ndarray,
    x_min: float,
    x_max: float,
    y_min: float,
    y_max: float,
) -> None:
    """Grid CSV: comment row with the grid spec, then ny rows of nx values.

    The bytes are those of formatting every cell with ``%.17g`` (``fmt``).
    Each distinct row is built once, keyed on its bits (so ``-0.0`` and
    ``0.0`` stay apart): the densities ``als`` writes repeat most values, and
    often whole rows, through their parity and mirror symmetries.  The
    distinct values of the distinct rows are formatted at once by
    ``_format17``, and each block of at most ``_BLOCK_CELLS`` cells of the
    distinct rows is gathered from those bytes, with a comma after each cell
    and a newline after each row.
    """
    grid = np.ascontiguousarray(grid, dtype=np.float64)
    ny, nx = grid.shape
    bits = grid.view(np.uint64)
    number: dict[bytes, int] = {}
    row_of = [number.setdefault(row.tobytes(), len(number)) for row in bits]
    distinct = bits[np.unique(row_of, return_index=True)[1]]
    # ravel first: NumPy 2.0 changed the shape of return_inverse for N-d input
    values, inverse = np.unique(distinct.ravel(), return_inverse=True)
    inverse = inverse.reshape(distinct.shape)
    text, size = _format17(values.view(np.float64))
    width = int(size.max(initial=0)) + 1
    text = _void_rows(np.ascontiguousarray(text[:, :width]))
    lines = []
    step = max(1, _BLOCK_CELLS // nx)
    for r in range(0, len(inverse), step):
        cells = inverse[r : r + step]
        cell_text = text[cells].view(np.uint8).reshape(*cells.shape, width)
        cell_size = size[cells]
        cell_text[np.arange(len(cells)), -1, cell_size[:, -1]] = ord("\n")
        data = cell_text[np.arange(width) <= cell_size[..., None]].tobytes()
        ends = np.cumsum((cell_size + 1).sum(axis=1)).tolist()
        lines.extend(data[a:b] for a, b in zip([0] + ends[:-1], ends))
    with open(path, "wb") as fh:
        fh.write(
            ("# " + ",".join([fmt(x_min), fmt(x_max), fmt(y_min), fmt(y_max), str(nx), str(ny)]) + "\n").encode()
        )
        fh.writelines(lines[i] for i in row_of)


def write_table_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else fmt(v) for v in row) + "\n")
