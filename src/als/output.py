"""Deterministic CSV/JSON writers and the shipped sidecar schemas.

Files are bit-stable across runs: 17-significant-digit floats, LF line
endings, sorted JSON keys, deterministic row order.
"""

from __future__ import annotations

import json
from importlib import resources

import jsonschema
import numpy as np


def fmt(value: float) -> str:
    """17-significant-digit decimal representation."""
    return f"{float(value):.17g}"


def load_schema(name: str) -> dict:
    """Load one of the shipped JSON schemas by stem name."""
    path = resources.files("als.schemas").joinpath(f"{name}.schema.json")
    return json.loads(path.read_text(encoding="utf-8"))


def validate(obj: dict, schema_name: str) -> None:
    jsonschema.validate(obj, load_schema(schema_name))


def write_json(path, obj: dict, schema_name: str | None = None) -> None:
    if schema_name is not None:
        validate(obj, schema_name)
    text = json.dumps(obj, sort_keys=True, indent=2)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def write_grid_csv(
    path,
    grid: np.ndarray,
    x_min: float,
    x_max: float,
    y_min: float,
    y_max: float,
) -> None:
    """Grid CSV: comment row with the grid spec, then ny rows of nx values.

    Each row goes through one ``%``-template; ``'%.17g' % x`` and ``fmt(x)``
    use the same float formatter, so the bytes are those of ``fmt``.
    """
    ny, nx = grid.shape
    row_fmt = ",".join(["%.17g"] * nx) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            "# " + ",".join([fmt(x_min), fmt(x_max), fmt(y_min), fmt(y_max), str(nx), str(ny)]) + "\n"
        )
        fh.writelines(row_fmt % tuple(row.tolist()) for row in grid)


def write_table_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else fmt(v) for v in row) + "\n")
