"""Deterministic CSV/JSON writers and the shipped sidecar schemas.

Files are bit-stable across runs: 17-significant-digit floats, LF line
endings, sorted JSON keys, deterministic row order.
"""

from __future__ import annotations

import json
from functools import lru_cache
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


@lru_cache(maxsize=None)
def _validator(schema_name: str):
    """One validator per shipped schema.  Unlike ``jsonschema.validate`` it does
    not re-check the schema against its metaschema on every call; the tests
    run ``check_schema`` on each shipped schema instead."""
    schema = load_schema(schema_name)
    return jsonschema.validators.validator_for(schema)(schema)


def validate(obj: dict, schema_name: str) -> None:
    """Raise the ``jsonschema.ValidationError`` that ``jsonschema.validate`` would."""
    error = jsonschema.exceptions.best_match(_validator(schema_name).iter_errors(obj))
    if error is not None:
        raise error


def write_json(path, obj: dict, schema_name: str) -> None:
    """Validate obj against the named shipped schema, then write it."""
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

    Each distinct value is formatted once, keyed on its bits (so ``-0.0`` and
    ``0.0`` stay apart), and each distinct row is joined once, keyed on the
    bytes of its row of value indices.  The densities ``als`` writes repeat
    most values, and often whole rows, through their parity and mirror
    symmetries.  ``'%.17g' % x`` and ``fmt(x)`` use the same float
    formatter, so the bytes are those of ``fmt``.
    """
    grid = np.ascontiguousarray(grid, dtype=np.float64)
    ny, nx = grid.shape
    # ravel first: NumPy 2.0 changed the shape of return_inverse for N-d input
    bits, inverse = np.unique(grid.view(np.uint64).ravel(), return_inverse=True)
    text = "%.17g\n" * len(bits) % tuple(bits.view(np.float64).tolist())
    text = np.array(text.split("\n")[:-1], dtype=object)
    joined: dict[bytes, str] = {}
    lines = []
    for row in inverse.reshape(ny, nx):
        key = row.tobytes()
        line = joined.get(key)
        if line is None:
            line = joined[key] = ",".join(text[row].tolist()) + "\n"
        lines.append(line)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            "# " + ",".join([fmt(x_min), fmt(x_max), fmt(y_min), fmt(y_max), str(nx), str(ny)]) + "\n"
        )
        fh.writelines(lines)


def write_table_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else fmt(v) for v in row) + "\n")
