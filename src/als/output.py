"""Deterministic CSV/JSON writers.

Files are bit-stable across runs: 17-significant-digit floats, LF line
endings, sorted JSON keys, deterministic row order.  Both CSV writers
share one row writer, which makes the bytes of ``%.17g`` with a numpy
kernel (``_format17``) and calls the per-value formatter only for the
values whose digits the kernel cannot prove, once per bit pattern.  It
finds repeated rows, and rows repeated in reverse, from their bits, so a
symmetric density formats about a quarter of its cells.

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
    The values the kernel leaves (zeros among them) are formatted by
    ``'%.17g' % x`` once per distinct bit pattern.
    """
    text = np.empty((len(values), _WIDTH), np.uint8)
    size = np.empty(len(values), np.intp)
    fallback = [np.empty(0, np.intp)]
    for start in range(0, len(values), _BLOCK_CELLS):
        block = slice(start, start + _BLOCK_CELLS)
        fallback.append(start + _format_block(values[block], text[block], size[block]))
    fallback = np.concatenate(fallback)
    patterns, inverse = np.unique(values[fallback].view(np.uint64), return_inverse=True)
    strings = ["%.17g," % value for value in patterns.view(np.float64).tolist()]
    pattern_text = np.frombuffer("".join(s.ljust(_WIDTH) for s in strings).encode(), np.uint8)
    _void_rows(text)[fallback] = _void_rows(pattern_text.reshape(-1, _WIDTH))[inverse]
    size[fallback] = np.array([len(s) - 1 for s in strings], np.intp)[inverse]
    return text, size


def _format_block(values: np.ndarray, text: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Write the bytes of ``'%.17g' % x`` and a ``,`` into row i of text, and
    their number less the comma into size[i], for each x = values[i] the
    kernel can prove; return the indices of the others.

    For |x| in [_KERNEL_MIN, _KERNEL_MAX], with k = floor(log10|x|) and
    q = 16 - k, Dekker's error-free product gives p + e = |x|*hi exactly, and
    t = e + |x|*lo, where hi + lo is 10**q as a double-double.  p >= 1e16 >
    2**53 is an integer, so the 17 significant digits are the integer
    D = p + floor(t) + (frac(t) > 1/2).  t is off by about 5e-15 at most, so
    D is the correctly rounded value when frac(t) is more than _TIE_MARGIN
    from 1/2, and k is the decimal exponent when 10**16 <= p + floor(t) and
    D < 10**17 (a log10 off by one next to a power of ten fails this).
    Every other value is left to ``'%.17g' % x``: zeros, NaN, infinities,
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
    return np.flatnonzero(fallback)


def _write_rows(path, first: str, grid: np.ndarray) -> None:
    """The line ``first``, then one line per row of grid, each value as ``%.17g``.

    Rows are keyed on their bits (so ``-0.0`` and ``0.0`` stay apart), and
    the densities ``als`` writes repeat most of them through their mirror
    and inversion symmetries.  A row equal to an earlier row reuses its
    line; a row equal to an earlier row reversed reuses that row's cells in
    reverse; a palindromic row formats only its first ceil(nx/2) cells.
    Only the cells left, those of the other rows, are formatted, at once,
    by ``_format17``.  Each block of at most ``_BLOCK_CELLS`` cells of the
    distinct lines is gathered from those bytes, with a comma after each
    cell and a newline after each row.
    """
    grid = np.ascontiguousarray(grid, dtype=np.float64)
    nx = grid.shape[1]
    bits = grid.view(np.uint64)
    half = (nx + 1) // 2
    # the cells of a distinct line, by kind: 0, a row of formatted values;
    # 1, an earlier such row reversed; 2, a formatted left half and its mirror
    orders = np.stack([np.arange(nx), np.arange(nx)[::-1], np.r_[np.arange(half), np.arange(nx // 2)[::-1]]])
    line_of: dict[bytes, int] = {}
    row_of, base, kind, taken, halved = [], [], [], [], []
    offset = 0  # the formatted values so far: whole rows and left halves
    for j, row in enumerate(bits):
        key = row.tobytes()
        if key not in line_of:
            mirror = row[::-1].tobytes()
            if mirror in line_of:
                base.append(base[line_of[mirror]])
                kind.append(1)
            else:
                halved.append(mirror == key)
                base.append(offset)
                kind.append(2 if halved[-1] else 0)
                taken.append(j)
                offset += half if halved[-1] else nx
            line_of[key] = len(base) - 1
        row_of.append(line_of[key])
    formatted = np.ones((len(taken), nx), bool)
    formatted[np.array(halved, bool), half:] = False
    values = grid[np.array(taken, np.intp)][formatted]
    base, kind = np.array(base, np.intp), np.array(kind, np.intp)
    text, size = _format17(values)
    width = int(size.max(initial=0)) + 1
    text = _void_rows(np.ascontiguousarray(text[:, :width]))
    keep = _void_rows(np.arange(width) <= np.arange(width)[:, None])  # row s: the first s + 1 bytes
    lines = [b"\n"] * len(base)  # the line of a row of no cells
    step = max(1, _BLOCK_CELLS // max(nx, 1))
    for r in range(0, len(base) if nx else 0, step):
        cells = base[r : r + step, None] + orders[kind[r : r + step]]
        cell_text = text[cells].view(np.uint8).reshape(*cells.shape, width)
        cell_size = size[cells]
        cell_text[np.arange(len(cells)), -1, cell_size[:, -1]] = ord("\n")
        data = cell_text[keep[cell_size].view(bool).reshape(cell_text.shape)].tobytes()
        ends = np.cumsum((cell_size + 1).sum(axis=1)).tolist()
        lines[r : r + step] = (data[a:b] for a, b in zip([0] + ends[:-1], ends))
    with open(path, "wb") as fh:
        fh.write((first + "\n").encode())
        fh.writelines(lines[i] for i in row_of)


def write_grid_csv(path, grid: np.ndarray, x_min: float, x_max: float, y_min: float, y_max: float) -> None:
    """Grid CSV: comment row with the grid spec, then ny rows of nx values, as ``fmt`` writes them."""
    ny, nx = np.shape(grid)
    _write_rows(path, "# " + ",".join([fmt(x_min), fmt(x_max), fmt(y_min), fmt(y_max), str(nx), str(ny)]), grid)


def write_table_csv(path, header: list[str], rows) -> None:
    """Table CSV: the header line, then each row of numbers as ``%.17g`` values."""
    _write_rows(path, ",".join(header), np.array(rows, dtype=np.float64).reshape(-1, len(header)))
