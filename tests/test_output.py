"""Grid and table CSV writers: byte equality with the per-value formatter; the shipped schemas."""

from fractions import Fraction

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from als.modes import hlg_block, level_density, rotate_block
from als.output import _BLOCK_CELLS, _digit_table, _format17, _pow10, _pow10_rows, fmt, write_grid_csv, write_table_csv
from als.specfun import cell_centres
from oracles import schema


def reference_grid_csv(path, grid, x_min, x_max, y_min, y_max):
    """The per-value writer that write_grid_csv must reproduce byte for byte."""
    ny, nx = grid.shape
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            "# " + ",".join([fmt(x_min), fmt(x_max), fmt(y_min), fmt(y_max), str(nx), str(ny)]) + "\n"
        )
        for row in grid:
            fh.write(",".join(fmt(v) for v in row) + "\n")


rng = np.random.default_rng(7)

_x = (np.arange(24) - 11.5) * 0.25  # cell centres, symmetric about 0
_x25 = cell_centres(25, -3.0, 3.0)
_c256 = cell_centres(256, -5.0, 5.0)
_inverted = rng.standard_normal((4, 10))
_inverted = np.vstack([_inverted, _inverted[::-1, ::-1]])
_mostly_zeros = np.where(rng.random((64, 80)) < 0.96, 0.0, rng.standard_normal((64, 80)))
_mostly_zeros[rng.random((64, 80)) < 0.03] = -0.0
_mostly_zeros[::7, ::3] = 5e-324 * rng.integers(1, 4, (10, 27))

GRIDS = {
    "random_64x48": rng.standard_normal((64, 48)) * 10.0 ** rng.uniform(-300, 300, (64, 48)),
    "special_values": np.array([[0.0, -0.0, 5e-324, 1e308, 1 / 3, 0.1, 1e16]]),
    "mirror_symmetric": _x[None, :] ** 2 * np.exp(-(_x[None, :] ** 2 + 0.5 * _x[:, None] ** 2)),
    "signed_zeros_and_subnormal": np.array([[0.0, -0.0, 5e-324], [5e-324, -0.0, 0.0], [5e-324, 5e-324, 0.0]]),
    "constant": np.full((5, 7), 1 / 3),
    "one_row": rng.standard_normal((1, 9)),
    "one_column": rng.standard_normal((9, 1)),
    "strided_view": rng.standard_normal((10, 7))[::2, ::-1],
    "float32": rng.standard_normal((8, 6)).astype(np.float32),
    # rows 0, 2 and 5 are one row, and so are rows 1 and 4: each joined once
    "repeated_rows": rng.standard_normal((3, 5))[[0, 1, 0, 2, 1, 0]],
    # the same row but for the sign of one zero: two distinct rows
    "rows_differing_in_signed_zero": np.array([[1.5, 0.0, 2.5], [1.5, -0.0, 2.5], [1.5, 0.0, 2.5]]),
    # exact ties at 17 digits (2**-25 = 2.98023223876953125e-08) and non-finite cells
    "ties_and_nonfinite": np.array(
        [[2.0**-25, -(2.0**-25), np.nan, np.inf], [-np.inf, 3 * 2.0**-26, 0.5, -0.0], [np.nan, 2.0**-25, 1e-300, 1e300]]
    ),
    # a rotated order-10 density as `als density` renders it
    "level_density_256": level_density([rotate_block(hlg_block(4, 6, 0.3), 0.7)], _c256, _c256),
    # more distinct rows than one block of cells, and more distinct values
    # than one block of values: both blocked loops run more than once
    "more_rows_than_a_block": rng.standard_normal((2 * _BLOCK_CELLS // 512 + 1, 512)),
    # no cells: four empty lines, or the header alone
    "zero_columns": np.zeros((4, 0)),
    "zero_rows": np.zeros((0, 5)),
    # row j is row ny-1-j reversed, as a rotated density is, but no row is a palindrome
    "inversion_symmetric": _inverted,
    # palindromic rows of odd width, no two alike
    "odd_palindromes": np.exp(-(_x25[None, :] ** 2) * (1 + np.arange(25)[:, None] / 7)),
    # the reverse of row 0 but for the sign of one zero, then the exact reverse
    "reverse_but_a_signed_zero": np.array([[1.5, 0.0, 2.5, 3.0], [3.0, 2.5, -0.0, 1.5], [3.0, 2.5, 0.0, 1.5]]),
    # at least 90% zeros of either sign, with subnormals and a few normal values
    "mostly_zeros": _mostly_zeros,
}


@pytest.mark.parametrize("name", GRIDS)
def test_matches_per_value_writer(name, tmp_path):
    grid = GRIDS[name]
    bounds = (-5.0, 5.0, -1 / 3, 2.5)
    write_grid_csv(tmp_path / "new.csv", grid, *bounds)
    reference_grid_csv(tmp_path / "ref.csv", grid, *bounds)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


_row = [3, -4, 0, 2, 1.25, -0.0, 1 / 3, 2.0**-25, 1e-300, 7]
TABLES = {
    # decompose's rows: integer indices (n, m, l, n_r), then floats
    "integers_then_floats": [_row, [0, 5, -5, 0, 3.0, 0.1, -0.1, 0.01, 1e16, 2.0]],
    # a row repeated, and a row equal to another reversed: the writer reuses their text
    "repeated_and_reversed_rows": [_row, _row[::-1], _row, [1.0, 2.0, 1.0] * 3 + [5.0]],
    "no_rows": [],
}


@pytest.mark.parametrize("name", TABLES)
def test_table_matches_per_value_writer(name, tmp_path):
    header = [f"c{i}" for i in range(10)]
    write_table_csv(tmp_path / "new.csv", header, TABLES[name])
    reference = "".join(",".join(fmt(v) for v in row) + "\n" for row in TABLES[name])
    assert (tmp_path / "new.csv").read_bytes() == (",".join(header) + "\n" + reference).encode()


def test_blocked_grid_spans_blocks():
    grid = GRIDS["more_rows_than_a_block"]
    assert len(grid) > 2 * (_BLOCK_CELLS // grid.shape[1])
    assert len(np.unique(grid)) > _BLOCK_CELLS


def _kernel_text(values):
    """The text _format17 makes for each value; each must be followed by a comma."""
    values = np.asarray(values, dtype=np.float64)
    text, size = _format17(values)
    assert np.array_equal(text[np.arange(len(values)), size], np.full(len(values), ord(",")))
    return [bytes(row[:n]).decode() for row, n in zip(text, size)]


def _assert_matches_formatter(values):
    expected = ["%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]
    assert _kernel_text(values) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_kernel_matches_formatter_on_bit_patterns(patterns):
    _assert_matches_formatter(np.array(patterns, dtype=np.uint64).view(np.float64))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=64))
def test_kernel_matches_formatter_on_floats(values):
    _assert_matches_formatter(values)


def _ties():
    """Exact ties at 17 digits: m * 2**-k whose exact decimal m * 5**k has 18 digits."""
    return [m * 2.0**-k for k in range(1, 60) for m in range(1, 200, 2) if len(str(m * 5**k)) == 18]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_kernel_sweep(sign):
    """Every decimal exponent from -324 to 308 with 1 to 17 kept digits (the
    layout edges X = -5, -4, 16 and 17 among them), each exponent's
    neighbours of 10**X, the extremes and the exact ties."""
    kept = ["123456789012345678"[:n] for n in range(1, 18)] + ["9" * 17, "10000000000000001"]
    values = [float(f"{d[0]}.{d[1:]}e{x}") for x in range(-324, 309) for d in kept]
    powers = [10.0**x for x in range(-307, 309)]
    values += powers + np.nextafter(powers, 0).tolist() + np.nextafter(powers, np.inf).tolist()
    values += [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308, 1e-280, 1e280]
    ties = _ties()
    assert 2.0**-25 in ties and "%.17g" % 2.0**-25 == "2.9802322387695312e-08"  # half to even
    _assert_matches_formatter(sign * np.array(values + ties))


def _is_nearest(x: float, exact: Fraction) -> bool:
    """x is the double nearest exact: nearer than both of its neighbours, or
    as near and even (10**23 is a tie)."""
    err = abs(Fraction(x) - exact)
    even = int(np.float64(x).view(np.uint64)) % 2 == 0
    neighbours = [abs(Fraction(float(np.nextafter(x, to))) - exact) for to in (-np.inf, np.inf)]
    return all(err < d or (err == d and even) for d in neighbours)


def _significant_bits(x: float) -> int:
    m = abs(x.as_integer_ratio()[0])
    return (m >> ((m & -m).bit_length() - 1)).bit_length() if m else 0


def test_pow10_is_a_correctly_rounded_double_double():
    """Every scale the kernel can use (q = 16 - k for |x| in [1e-280, 1e280]):
    hi is 10**q rounded, lo is the rest rounded, and hi splits exactly into
    two halves of at most 26 bits, against exact rationals."""
    for q in range(-270, 301):
        hi, lo, hi_hi, hi_lo = _pow10(q)
        exact = Fraction(10) ** q
        assert _is_nearest(hi, exact), q
        assert _is_nearest(lo, exact - Fraction(hi)), q
        assert Fraction(hi_hi) + Fraction(hi_lo) == Fraction(hi), q
        assert _significant_bits(hi_hi) <= 26 and _significant_bits(hi_lo) <= 26, q


def test_pow10_rows_gather_each_scale():
    q = np.array([5, -3, 5, 297, -264])
    assert np.array_equal(_pow10_rows(q), np.array([_pow10(k) for k in q.tolist()]).T)
    assert _pow10_rows(q[:0]).shape == (4, 0)


def test_digit_table_spells_every_word():
    ascii_words, last = _digit_table()
    assert ascii_words.view(np.uint8).tobytes() == "".join(f"{c:04d}" for c in range(10**4)).encode()
    assert last.tolist() == [len(f"{c:04d}".rstrip("0")) for c in range(10**4)]


def test_grids_have_the_structure_they_name():
    inverted = GRIDS["inversion_symmetric"]
    assert np.array_equal(inverted, inverted[::-1, ::-1])
    assert not any(np.array_equal(row, row[::-1]) for row in inverted)
    palindromes = GRIDS["odd_palindromes"]
    assert palindromes.shape[1] % 2 and np.array_equal(palindromes, palindromes[:, ::-1])
    assert len({row.tobytes() for row in palindromes}) == len(palindromes)
    signed = GRIDS["reverse_but_a_signed_zero"]
    assert np.array_equal(signed[1], signed[0][::-1]) and signed[1].tobytes() != signed[0][::-1].tobytes()
    assert signed[2].tobytes() == signed[0][::-1].tobytes()
    zeros = GRIDS["mostly_zeros"]
    assert np.mean(zeros == 0) >= 0.9 and np.signbit(zeros[zeros == 0]).any()
    assert np.count_nonzero((zeros != 0) & (np.abs(zeros) < 2.2e-308)) > 100


def test_symmetric_grid_repeats_values():
    grid = GRIDS["mirror_symmetric"]
    assert np.array_equal(grid, grid[::-1, ::-1])
    assert len(np.unique(grid)) * 4 == grid.size


@pytest.mark.parametrize("name", ["density_sidecar", "verify_report", "berry_report", "decompose_sidecar"])
def test_shipped_schema_is_valid(name):
    """Each shipped schema is itself valid under its metaschema."""
    shipped = schema(name)
    jsonschema.validators.validator_for(shipped).check_schema(shipped)
