"""Periodic grid discretization and spectral Bessel-type kernels.

A Grid is a periodic lattice discretization of the plane or the line with
cell measure h^n.  Kernels are built by sampling the symbol
(1 + |xi|^2)^(-alpha/2) at the discrete frequencies 2*pi*k/L and applying the
inverse discrete Fourier transform.  That discrete-periodic kernel is the
model kernel: monotonicity and subadditivity of the induced capacity are
exact for it, and fidelity to the continuum is a separate convergence
diagnostic.

Negative ringing of the inverse transform is clipped to zero (capacity
theory needs a nonnegative kernel); the clipped mass is recorded and grids
whose clipped mass exceeds CLIP_TOLERANCE of the total are rejected as too
coarse for the requested alpha.

Kernels and the local maximal operator's ball transfers share one spectral
cache, bounded to the CACHE_GEOMETRIES most recently used entries.
"""
from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .measure import MAX_CELLS, Field, _same_space

__all__ = [
    "Grid",
    "KernelSpec",
    "make_grid",
    "bessel_kernel",
    "convolve",
    "CLIP_TOLERANCE",
]

CLIP_TOLERANCE = 1e-6

# wrap-around suppression: box must exceed data diameter by this margin
DECAY_MARGIN = 8.0


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class Grid:
    """Periodic lattice on a centered box [-L/2, L/2)^n, n in {1, 2}.

    Cell centers along each axis sit at x_j = (j + 1/2) h - L/2 with
    h = L/N.  Fields on the grid are stored flat in row-major order.
    """

    def __init__(self, n: int, L: float, N: int):
        if n not in (1, 2):
            raise ValueError(f"grid dimension must be 1 or 2, got {n}")
        if not (L > 0.0 and math.isfinite(L)):
            raise ValueError(f"side length must be positive and finite, got {L}")
        if not _is_power_of_two(N):
            raise ValueError(f"points per axis must be a power of two, got {N}")
        if N < 8:
            raise ValueError(f"need at least 8 points per axis, got {N}")
        if N ** n > MAX_CELLS:
            raise ValueError(f"grid n={n}, N={N} has {N ** n} cells; the "
                             f"largest allowed grid has {MAX_CELLS}")
        h = L / N
        if h > 0.25:
            raise ValueError(
                f"spacing h={h:.4g} exceeds 1/4; unit-radius balls unresolvable")
        self.n = n
        self.L = float(L)
        self.N = int(N)
        self.h = h
        self._weights = np.full(self.size, self.cell_measure)
        self._weights.setflags(write=False)

    @property
    def size(self) -> int:
        return self.N ** self.n

    @property
    def cell_measure(self) -> float:
        return self.h ** self.n

    @property
    def total_mass(self) -> float:
        return self.L ** self.n

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.n

    def axis_coords(self) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        return (np.arange(self.N) + 0.5) * self.h - self.L / 2.0

    def coords(self) -> np.ndarray:
        """(size, n) array of cell-center coordinates, row-major."""
        x = self.axis_coords()
        if self.n == 1:
            return x[:, None]
        X, Y = np.meshgrid(x, x, indexing="ij")
        return np.column_stack([X.ravel(), Y.ravel()])

    def radius(self) -> np.ndarray:
        """|x| at every cell center (flat)."""
        c = self.coords()
        return np.sqrt((c ** 2).sum(axis=1))

    def __repr__(self) -> str:
        return f"Grid(n={self.n}, L={self.L}, N={self.N}, h={self.h:.4g})"


def make_grid(n: int, L: float, N: int) -> Grid:
    """Validated periodic grid (see Grid for the constraints)."""
    return Grid(n, L, N)


# ---------------------------------------------------------------------------
# Kernel construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """Realized nonnegative convolution kernel with its spectral provenance.

    `kernel` is the displacement table g(x_j - x_m) indexed like an FFT
    (entry 0 = zero displacement).  `transfer` is the cell-measure-scaled
    real-input transform (`rfftn`) used by convolve: the half spectrum of
    shape (N//2+1,) in 1-D and (N, N//2+1) in 2-D, the last axis keeping
    only the nonnegative frequencies.  It is real because the kernel is
    even.  Its zero-frequency entry is 1 up to roundoff after the post-clip
    renormalization, so the kernel has unit total mass.
    """

    grid: Grid
    alpha: float
    symbol: np.ndarray = field(repr=False)
    kernel: np.ndarray = field(repr=False)
    transfer: np.ndarray = field(repr=False)
    clipped_mass: float = 0.0


CACHE_GEOMETRIES = 16  # entries kept by the one cache of kernels and ball transfers

_kernel_cache: OrderedDict = OrderedDict()
_kernel_lock = threading.Lock()


def _cached(key, build):
    """The spectral cache's entry under `key`, marked most recently used.
    On a miss `build()` makes it under the lock, so each key is built once,
    and the least recently used entry beyond CACHE_GEOMETRIES is evicted."""
    with _kernel_lock:
        hit = _kernel_cache.get(key)
        if hit is not None:
            _kernel_cache.move_to_end(key)
            return hit
        hit = _kernel_cache[key] = build()
        if len(_kernel_cache) > CACHE_GEOMETRIES:
            _kernel_cache.popitem(last=False)
        return hit


def _frequency_grid(grid: Grid) -> np.ndarray:
    xi = 2.0 * np.pi * np.fft.fftfreq(grid.N, d=grid.h)
    if grid.n == 1:
        return xi ** 2
    return xi[:, None] ** 2 + xi[None, :] ** 2


def bessel_kernel(grid: Grid, alpha: float) -> KernelSpec:
    """Kernel with symbol (1 + |xi|^2)^(-alpha/2) on the grid frequencies.

    The inverse transform is clipped at zero and renormalized to unit mass;
    the clipped mass (relative to the total) is recorded and must stay below
    CLIP_TOLERANCE, otherwise the grid is rejected as too coarse.  The
    realized kernel is even by construction (real even symbol), so the
    induced convolution is symmetric in the integral pairing.

    Construction is cached per (grid geometry, alpha) in the spectral cache
    (`_cached`); concurrent readers are safe and each key is built once.
    """
    if not (0.0 < alpha <= grid.n):
        raise ValueError(f"alpha must lie in (0, n]={grid.n}, got {alpha}")

    def build() -> KernelSpec:
        sym = (1.0 + _frequency_grid(grid)) ** (-alpha / 2.0)
        raw = np.fft.ifftn(sym).real / grid.cell_measure
        negative = raw[raw < 0.0]
        clipped = float(-negative.sum() * grid.cell_measure)  # total mass is 1
        if clipped > CLIP_TOLERANCE:
            raise ValueError(
                f"grid too coarse for alpha={alpha}: clipped kernel mass "
                f"{clipped:.3e} exceeds {CLIP_TOLERANCE:.0e}")
        ker = np.clip(raw, 0.0, None)
        ker /= ker.sum() * grid.cell_measure
        transfer = np.fft.rfftn(ker).real * grid.cell_measure  # even => real
        ker.setflags(write=False)
        transfer.setflags(write=False)
        sym.setflags(write=False)
        return KernelSpec(grid=grid, alpha=float(alpha), symbol=sym, kernel=ker,
                          transfer=transfer, clipped_mass=clipped)

    return _cached((grid.n, grid.L, grid.N, float(alpha)), build)


def _ball_transfers(grid: Grid) -> list:
    """FFT transfer functions of the normalized ball indicators, one
    `(transfer, r, cells)` per radius r in {h, 2h, ..., floor(1/h) h}, kept
    in the spectral cache under ("balls", n, L, N)."""
    def build() -> list:
        h = grid.h
        # displacement distances j*h, FFT-indexed with periodic wrap
        d = np.abs(np.fft.fftfreq(grid.N) * grid.N) * h
        dist = d if grid.n == 1 else np.sqrt(d[:, None] ** 2 + d[None, :] ** 2)
        transfers = []
        for r in (k * h for k in range(1, int(math.floor(1.0 / h)) + 1)):
            ball = (dist <= r + 1e-12).astype(float)
            transfers.append((np.fft.fftn(ball / ball.sum()), r, int(ball.sum())))
        return transfers

    return _cached(("balls", grid.n, grid.L, grid.N), build)


def convolve(grid: Grid, kernel: KernelSpec, f: Field) -> Field:
    """Periodic convolution through the real-input transform domain.

    The field is real, so only the half spectrum is formed (`rfftn`),
    multiplied by the kernel's half-spectrum `transfer` and inverted with
    `irfftn` at the grid shape.  Scaled by the cell measure, so convolving
    the all-ones field returns the kernel mass 1.  Nonnegative inputs stay
    nonnegative up to transform roundoff; negative outputs no lower than
    -1e-12 * max|output| are clipped to zero.
    """
    # kernels are cached by geometry, so compare by value, not identity
    if (kernel.grid.n, kernel.grid.L, kernel.grid.N) != (grid.n, grid.L, grid.N):
        raise ValueError("kernel was built for a different grid")
    _same_space(grid, f)
    return Field(grid, _convolve_values(grid, kernel, f.values))


def _convolve_values(grid: Grid, kernel: KernelSpec,
                     values: np.ndarray) -> np.ndarray:
    """Convolve a (size,) field or each row of a (B, size) stack of fields.

    The transforms run over the trailing grid axes, so a row's output does
    not depend on the other rows.  They are the steps of `rfftn`/`irfftn`,
    spelled out and bit for bit: `rfft` along the last axis, on the plane
    `fft` along the first, the product with the half-spectrum transfer,
    then `ifft` along the first axis and `irfft` along the last.  The column
    transforms and the transfer product update the call's one spectrum
    array in place, with the same bits; no buffer outlives the call.

    The tiny-negative clip is decided per row: only rows whose input is
    nonnegative and whose output went negative are clipped, each against
    its own floor -1e-12 max|output|.
    """
    lead = values.shape[:-1]
    spec = np.fft.rfft(values.reshape(lead + (-1, grid.N)))
    if grid.n == 2:
        np.fft.fft(spec, axis=-2, out=spec)
    spec *= kernel.transfer
    if grid.n == 2:
        np.fft.ifft(spec, axis=-2, out=spec)
    out = np.fft.irfft(spec, n=grid.N).reshape(lead + (-1,))
    # one reduction per test; the mask is built only when roundoff went negative
    low = np.minimum.reduce(out, -1)
    clip = (np.minimum.reduce(values, -1) >= 0.0) & (low < 0.0)
    if np.count_nonzero(clip):
        top = np.maximum(np.maximum.reduce(out, -1), -low)
        floor = np.where(clip, -1e-12 * top, 0.0)[..., None]  # 0: no clip
        out[(out < 0.0) & (out >= floor)] = 0.0
    return out
