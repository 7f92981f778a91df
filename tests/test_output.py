"""Grid CSV writer: byte equality with the per-value formatter; schema validation."""

import jsonschema
import numpy as np
import pytest

from als.output import fmt, load_schema, validate, write_grid_csv


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
}


@pytest.mark.parametrize("name", GRIDS)
def test_matches_per_value_writer(name, tmp_path):
    grid = GRIDS[name]
    bounds = (-5.0, 5.0, -1 / 3, 2.5)
    write_grid_csv(tmp_path / "new.csv", grid, *bounds)
    reference_grid_csv(tmp_path / "ref.csv", grid, *bounds)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_symmetric_grid_repeats_values():
    grid = GRIDS["mirror_symmetric"]
    assert np.array_equal(grid, grid[::-1, ::-1])
    assert len(np.unique(grid)) * 4 == grid.size


def _valid_berry_report():
    return {
        "loop": {"family": "latitude", "alpha": 0.3},
        "mode": {"n": 0, "m": 1, "n_r": 0, "l": 1},
        "segments": 50,
        "solid_angle": 1.0,
        "berry_phase": -0.5,
        "expected_phase": -0.5,
        "deviation": 0.0,
    }


@pytest.mark.parametrize("key, value", [("segments", None), ("segments", "50"), ("mode", {"n": 0})])
def test_validate_raises_the_jsonschema_error(key, value):
    """A missing key (value None) or a wrong type raises what jsonschema.validate raises."""
    report = _valid_berry_report()
    validate(report, "berry_report")
    if value is None:
        del report[key]
    else:
        report[key] = value
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(report, load_schema("berry_report"))
    with pytest.raises(jsonschema.ValidationError) as raised:
        validate(report, "berry_report")
    assert str(raised.value) == str(expected.value)
    assert raised.value.message == expected.value.message


@pytest.mark.parametrize("name", ["density_sidecar", "verify_report", "berry_report", "decompose_sidecar"])
def test_shipped_schema_is_valid(name):
    """validate skips the metaschema check that jsonschema.validate makes on every call."""
    schema = load_schema(name)
    jsonschema.validators.validator_for(schema).check_schema(schema)
