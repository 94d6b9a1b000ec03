"""Torus-indexed integer occupancy states.

A state assigns a non-negative group size to every cell of a 1D or 2D
discrete torus. States are immutable after construction: the backing
array is frozen, so instances can be shared freely between threads and
serve as dictionary-free value objects. All index arithmetic is modular.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

import numpy as np

_UINT64_MAX = 2**64 - 1
_INT64_MAX = 2**63 - 1

@dataclass(frozen=True)
class TorusShape:
    """Dimensions of a cyclic lattice, one entry per axis (1D or 2D).

    Every dimension must be at least 3: the dynamics reads both distinct
    neighbors of a cell, which degenerates on smaller tori.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        try:
            dims = tuple(operator.index(d) for d in self.dims)
        except TypeError as exc:
            raise ValueError(f"torus dimensions must be integers, got {self.dims!r}") from exc
        object.__setattr__(self, "dims", dims)
        if not 1 <= len(dims) <= 2:
            raise ValueError(f"torus must be 1D or 2D, got {len(dims)} dims")
        if any(d < 3 for d in dims):
            raise ValueError(f"every torus dimension must be >= 3, got {dims}")
        if prod(dims) > _UINT64_MAX:
            raise ValueError("torus cell count exceeds the 64-bit range")

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def total_cells(self) -> int:
        return prod(self.dims)


def _exact_mass(values: np.ndarray) -> int:
    # float64 sum is a safe overestimate detector: far below 2**62 the exact
    # sum provably fits int64, so the vectorized integer sum is trustworthy.
    if float(values.sum(dtype=np.float64)) < 2.0**62:
        return int(values.sum(dtype=np.int64))
    mass = sum(values.ravel().tolist())
    if mass > _INT64_MAX:
        raise OverflowError("total mass exceeds the 64-bit accumulator range")
    return mass


class LatticeState:
    """Occupancies on a torus: ``values[m]`` elements in cell ``m``.

    Values are non-negative 64-bit integers; 2D cells are indexed
    row-major as ``(k1, k2)``. Total mass is computed exactly once at
    construction, which also guarantees that later accumulation steps
    cannot overflow the signed 64-bit range.
    """

    __slots__ = ("shape", "values", "_mass")

    def __init__(self, shape: TorusShape, values: Iterable[int] | np.ndarray):
        arr = np.asarray(values)
        if arr.dtype.kind not in "iub":
            raise ValueError("occupancies must be integers in the 64-bit range")
        if arr.dtype.kind == "u" and arr.size and int(arr.max()) > _INT64_MAX:
            raise OverflowError("occupancy exceeds the 64-bit accumulator range")
        arr = arr.astype(np.int64, copy=True)
        if arr.ndim == 1 and shape.ndim == 2:
            arr = arr.reshape(shape.dims)
        if arr.shape != shape.dims:
            raise ValueError(f"values shape {arr.shape} does not match torus {shape.dims}")
        if arr.size and int(arr.min()) < 0:
            raise ValueError("occupancies must be non-negative")
        arr.setflags(write=False)
        self.shape = shape
        self.values = arr
        self._mass = _exact_mass(arr)

    def total_mass(self) -> int:
        """Sum of all occupancies; invariant under the dynamics."""
        return self._mass

    def shift(self, offset: Sequence[int]) -> "LatticeState":
        """Translate the whole state so cell ``m`` moves to ``m + offset``."""
        if len(offset) != self.shape.ndim:
            raise ValueError(f"offset has {len(offset)} components, torus has {self.shape.ndim}")
        shifted = np.roll(self.values, tuple(int(o) for o in offset), axis=tuple(range(self.shape.ndim)))
        return LatticeState(self.shape, shifted)

    def reflect(self) -> "LatticeState":
        """Map cell ``m`` to ``-m`` on every axis; an involution."""
        out = self.values
        for axis, d in enumerate(self.shape.dims):
            idx = (-np.arange(d)) % d
            out = np.take(out, idx, axis=axis)
        return LatticeState(self.shape, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatticeState):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.values, other.values)

    __hash__ = None  # mutable-array semantics: compare by value, never hash

    def __repr__(self) -> str:
        return f"LatticeState(dims={self.shape.dims}, mass={self._mass})"

    def to_json_dict(self) -> dict:
        """Row-major serialization: ``{"dims": [...], "values": [...]}``."""
        return {"dims": list(self.shape.dims), "values": self.values.ravel().tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "LatticeState":
        if not isinstance(data, dict) or "dims" not in data or "values" not in data:
            raise ValueError("state object must have 'dims' and 'values' keys")
        values = data["values"]
        if not isinstance(data["dims"], list) or not isinstance(values, list):
            raise ValueError("state 'dims' and 'values' must be lists")
        shape = TorusShape(tuple(data["dims"]))
        if len(values) != shape.total_cells:
            raise ValueError(
                f"expected {shape.total_cells} values for dims {shape.dims}, got {len(values)}"
            )
        if any(not isinstance(v, int) or isinstance(v, bool) or not 0 <= v <= _INT64_MAX for v in values):
            raise ValueError("occupancies must be integers in 0..2**63-1")
        try:
            return cls(shape, np.asarray(values, dtype=np.int64))
        except OverflowError as exc:
            raise ValueError(str(exc)) from exc


def load_state(path) -> LatticeState:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    return LatticeState.from_json_dict(data)
