"""The evolution step: gradient repulsion plus merge-on-collision.

Each neighbor pushes an occupied cell away from itself at a distance
equal to the neighbor's size, so the net move is minus the central
difference of the surrounding occupancies: the group at ``k`` jumps to
``k - (T(k+1) - T(k-1))`` on a 1D torus, componentwise on a 2D torus.
Groups landing in the same cell merge by summing. Displacements of any
magnitude are legal and wrap around the torus.

``tick_kernel`` returns the one production kernel: a function on raw
flat int64 arrays that calls the C function ``tick`` in ``_tick.c``, so
that a tick costs one pass over the cells and no ``LatticeState``
rebuild. The C source is compiled with gcc on the first import into a
shared library named by ``importlib.util.source_hash`` of the gcc
command and the source, next to the source, and loaded with ctypes;
later imports load the built file. A build next to the source removes
the other libraries there. Where the package directory cannot
be written, the library is built in, and later loaded from, the per-user
cache ``$XDG_CACHE_HOME/groupform`` (else ``~/.cache/groupform``).
Without gcc and without a built library the import fails.
``step`` applies the kernel once and wraps the result at the API
boundary. ``step_oracle`` is a deliberately naive reference that tests
every (target, source) pair against the defining condition, kept
around purely for equivalence testing.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
from pathlib import Path
from typing import Callable

import numpy as np

from .lattice import LatticeState, TorusShape

# One tick on flat row-major int64 occupancies: T(n) -> T(n+1).
Tick = Callable[[np.ndarray], np.ndarray]

_SOURCE = Path(__file__).with_name("_tick.c")
# the gcc command before its output and source; it names the library along with the source
_COMPILE = ("gcc", "-O2", "-shared", "-fPIC")


class _Unwritable(ImportError):
    """The directory a library was to be built in cannot be written."""


def _build(library: Path) -> None:
    """Compile ``_SOURCE`` into ``library``, atomically.

    gcc writes a temporary file in the same directory, which is then
    renamed into place, so processes importing at once never load a
    partly written library. A missing directory is created. Any failure
    is an ``ImportError``, an ``_Unwritable`` one when the directory
    cannot be written.
    """
    import subprocess
    import tempfile

    try:
        if not library.parent.exists():  # the per-user cache, on its first build
            os.makedirs(library.parent, exist_ok=True)
        fd, partial = tempfile.mkstemp(prefix=library.name + ".", suffix=".tmp", dir=library.parent)
        os.close(fd)
        try:
            try:
                done = subprocess.run(
                    [*_COMPILE, "-o", partial, str(_SOURCE)],
                    capture_output=True, text=True,
                )
            except FileNotFoundError as exc:
                raise ImportError(f"building {library.name} needs gcc, which is not on PATH") from exc
            if done.returncode != 0:
                raise ImportError(f"gcc failed to build {library.name} from {_SOURCE}:\n{done.stderr}")
            os.chmod(partial, 0o755)  # mkstemp creates the file readable by its owner only
            os.replace(partial, library)
        finally:
            if os.path.exists(partial):
                os.unlink(partial)
    except OSError as exc:
        raise _Unwritable(f"cannot build {library.name} in {library.parent}: {exc}") from exc


def _cache_dir() -> Path:
    cache = os.environ.get("XDG_CACHE_HOME", "")
    return (Path(cache) if os.path.isabs(cache) else Path.home() / ".cache") / "groupform"


def _cached_or_built(library: Path) -> Path:
    """``library``, missing next to the source: the per-user cache's copy,
    else a new build there or, where that directory cannot be written, in
    the cache."""
    cached = _cache_dir() / library.name
    if cached.exists():
        return cached
    try:
        _build(library)
    except _Unwritable as unwritable:
        try:
            _build(cached)
        except ImportError as exc:
            raise ImportError(f"{unwritable}; {exc}") from exc
        return cached
    # libraries of an older source or gcc command; the per-user cache keeps
    # its others, which other checkouts may still load
    for stale in library.parent.glob("_tick_*.so"):
        if stale != library:
            stale.unlink(missing_ok=True)
    return library


def _load_tick():
    # 64 bits over the gcc command and the source
    build_hash = importlib.util.source_hash(repr(_COMPILE).encode() + _SOURCE.read_bytes()).hex()
    library = _SOURCE.with_name(f"_tick_{build_hash}.so")
    if not library.exists():
        library = _cached_or_built(library)
    c_tick = ctypes.CDLL(str(library)).tick
    c_tick.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64]
    c_tick.restype = ctypes.c_int
    return c_tick


_c_tick = _load_tick()


def tick_kernel(shape: TorusShape) -> Tick:
    """The production tick for ``shape``, on flat row-major int64 arrays.

    The returned function maps the occupancies T(n), a C-contiguous int64
    array of ``shape.total_cells`` non-negative values, to a new flat
    array holding T(n+1), and never writes to its argument. Any other
    dtype, layout or size is a ``ValueError``. Each tick scans every cell
    once in C, skipping empty ones: it reduces each gradient modulo the
    axis length before forming the target (so occupancies near 2**63
    never wrap), and merges colliding groups with overflow-checked int64
    sums; a merged group above 2**63 - 1 is an ``OverflowError``.
    """
    n = shape.total_cells
    d0, d1 = shape.dims if shape.ndim == 2 else (1, *shape.dims)

    def tick(values: np.ndarray) -> np.ndarray:
        if values.dtype != np.int64 or not values.flags.c_contiguous or values.size != n:
            raise ValueError(
                f"tick needs a C-contiguous int64 array of {n} cells, "
                f"got {values.dtype} {values.shape} (C-contiguous: {values.flags.c_contiguous})"
            )
        out = np.empty(n, dtype=np.int64)
        if _c_tick(values.ctypes.data, out.ctypes.data, d0, d1):
            raise OverflowError("accumulation overflow: a merged group exceeds 2**63 - 1")
        return out

    return tick


MASS_NOT_CONSERVED = "accumulation overflow: mass not conserved by step"


def conserved_state(reference: LatticeState, values: np.ndarray) -> LatticeState:
    """Wrap kernel output as a state on ``reference``'s torus, checking its mass.

    The initial-mass bound in ``LatticeState`` rules out accumulation
    overflow, so this check runs once per call at the API boundary, not
    once per tick.
    """
    state = LatticeState(reference.shape, values)
    if state.total_mass() != reference.total_mass():
        raise OverflowError(MASS_NOT_CONSERVED)
    return state


def step(state: LatticeState) -> LatticeState:
    """Advance the state one tick; total mass is conserved exactly.

    Only occupied cells are visited: each scatters its value onto its own
    cell minus the central difference of its neighbours, wrapped onto the
    torus, and deposits on a common target accumulate.
    """
    return conserved_state(state, tick_kernel(state.shape)(state.values.reshape(-1)))


def step_oracle(state: LatticeState) -> LatticeState:
    """Literal reference step: double loop over all (target, source) pairs.

    For every cell pair the defining condition "source minus target equals
    the central difference at the source, modulo the torus" is evaluated
    directly, with no skipping of empty cells and no precomputation.
    """
    dims = state.shape.dims
    if len(dims) == 1:
        (m1,) = dims
        t = state.values.tolist()
        out = [0] * m1
        for m in range(m1):
            acc = 0
            for k in range(m1):
                g = t[(k + 1) % m1] - t[(k - 1) % m1]
                if (k - m - g) % m1 == 0:
                    acc += t[k]
            out[m] = acc
    else:
        m1, m2 = dims
        t = state.values.tolist()
        out = [[0] * m2 for _ in range(m1)]
        for a in range(m1):
            for b in range(m2):
                acc = 0
                for x in range(m1):
                    row = t[x]
                    up = t[(x + 1) % m1]
                    dn = t[(x - 1) % m1]
                    for y in range(m2):
                        g1 = up[y] - dn[y]
                        g2 = row[(y + 1) % m2] - row[(y - 1) % m2]
                        if (x - a - g1) % m1 == 0 and (y - b - g2) % m2 == 0:
                            acc += row[y]
                out[a][b] = acc
    return LatticeState(state.shape, np.asarray(out, dtype=np.int64))
