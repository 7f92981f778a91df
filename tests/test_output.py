"""Grid CSV writer: byte equality with the per-value formatter."""

import numpy as np
import pytest

from als.output import fmt, write_grid_csv


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

GRIDS = {
    "random_64x48": rng.standard_normal((64, 48)) * 10.0 ** rng.uniform(-300, 300, (64, 48)),
    "special_values": np.array([[0.0, -0.0, 5e-324, 1e308, 1 / 3, 0.1, 1e16]]),
}


@pytest.mark.parametrize("name", GRIDS)
def test_matches_per_value_writer(name, tmp_path):
    grid = GRIDS[name]
    bounds = (-5.0, 5.0, -1 / 3, 2.5)
    write_grid_csv(tmp_path / "new.csv", grid, *bounds)
    reference_grid_csv(tmp_path / "ref.csv", grid, *bounds)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
