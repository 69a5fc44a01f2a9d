"""Periodic grids, spectral kernels, convolution, and the file formats."""
import math
from collections import OrderedDict

import numpy as np
import pytest
from scipy.integrate import quad

from capflow import grid as grid_mod
from capflow.grid import (CACHE_GEOMETRIES, CLIP_TOLERANCE, Grid,
                          _convolve_values, bessel_kernel, convolve, make_grid)
from capflow.measure import MAX_CELLS, DiscreteMeasureSpace, Field, pairing
from capflow import modelio


def test_make_grid_examples():
    g = make_grid(1, 4.0, 16)
    assert g.h == 0.25 and g.size == 16
    g2 = make_grid(2, 8.0, 64)
    assert g2.h == 0.125 and g2.size == 4096
    with pytest.raises(ValueError):
        make_grid(1, 4.0, 6)          # not a power of two
    with pytest.raises(ValueError):
        make_grid(1, 8.0, 16)         # h = 0.5 > 1/4
    with pytest.raises(ValueError):
        make_grid(3, 8.0, 64)         # dimension
    with pytest.raises(ValueError):
        make_grid(1, 1.0, 4)          # under 8 points


def test_largest_allowed_grid(tmp_path):
    # a batch holds B x size arrays: grids above MAX_CELLS cells are refused
    # by name before anything is allocated
    assert Grid(2, 16.0, 1024).size == MAX_CELLS
    for n, N in ((2, 2048), (1, 2 * MAX_CELLS)):
        with pytest.raises(ValueError, match=rf"n={n}, N={N} .* {MAX_CELLS}"):
            Grid(n, 16.0, N)
    big = tmp_path / "big.txt"
    big.write_text("field v1 grid=2048x2048 L=16.0\n")
    with pytest.raises(ValueError, match=rf"{big}: grid n=2, N=2048"):
        modelio.read_grid_field(big)


def test_cell_centers_and_measure():
    g = make_grid(1, 4.0, 16)
    x = g.axis_coords()
    assert x[0] == pytest.approx(-2.0 + 0.125)
    assert g.cell_measure * g.size == pytest.approx(g.total_mass)


def test_kernel_mass_and_evenness():
    g = make_grid(1, 16.0, 256)
    for alpha in (0.5, 1.0):
        k = bessel_kernel(g, alpha)
        assert k.kernel.sum() * g.cell_measure == pytest.approx(1.0, abs=1e-10)
        assert np.all(k.kernel >= 0.0)
        assert k.clipped_mass <= CLIP_TOLERANCE
        flipped = np.roll(k.kernel[::-1], 1)
        assert np.abs(k.kernel - flipped).max() <= 1e-15 * k.kernel.max()
    with pytest.raises(ValueError):
        bessel_kernel(g, 1.5)   # alpha above the dimension
    with pytest.raises(ValueError, match="too coarse"):
        bessel_kernel(g, 0.25)  # slow symbol decay: clipped mass over budget


def test_kernel_cache_single_construction():
    g = make_grid(1, 16.0, 256)
    assert bessel_kernel(g, 0.5) is bessel_kernel(g, 0.5)


def test_kernel_cache_is_bounded_lru(monkeypatch):
    # more keys than the bound: the cache stays at the bound, a key in use
    # is kept, and an evicted key is rebuilt equal to its first build
    monkeypatch.setattr(grid_mod, "_kernel_cache", OrderedDict())
    g = make_grid(1, 16.0, 256)
    first = bessel_kernel(g, 0.5)
    kept = bessel_kernel(g, 0.55)
    for k in range(CACHE_GEOMETRIES + 4):
        bessel_kernel(g, 0.6 + 0.02 * k)
        assert bessel_kernel(g, 0.55) is kept          # recently used: kept
        assert len(grid_mod._kernel_cache) <= CACHE_GEOMETRIES
    assert len(grid_mod._kernel_cache) == CACHE_GEOMETRIES
    again = bessel_kernel(g, 0.5)
    assert again is not first                          # evicted, rebuilt
    for name in ("symbol", "kernel", "transfer"):
        assert np.array_equal(getattr(again, name), getattr(first, name))
    assert again.clipped_mass == first.clipped_mass
    assert bessel_kernel(g, 0.5) is again


def test_coarse_plane_grid_rejected():
    with pytest.raises(ValueError, match="too coarse"):
        bessel_kernel(make_grid(2, 12.0, 64), 1.0)


def test_kernel_against_direct_quadrature():
    # band-limited inverse transform evaluated by direct oscillatory quadrature
    g = make_grid(1, 16.0, 256)
    k = bessel_kernel(g, 1.0)
    band = math.pi / g.h
    for x in (0.0, 1.0):
        ref, _ = quad(lambda xi: (1 + xi * xi) ** -0.5 * math.cos(xi * x) / math.pi,
                      0.0, band, limit=400)
        j = int(round(x / g.h))
        assert k.kernel[j] == pytest.approx(ref, rel=1e-4)


def test_kernel_against_continuum_closed_form():
    # alpha = 1 on the line has the closed-form continuum kernel K0(|x|)/pi;
    # the discrete-periodic kernel lands within grid error and refinement
    # tightens every probe
    from scipy.special import k0
    devs = {}
    for N in (256, 512):
        g = make_grid(1, 16.0, N)
        k = bessel_kernel(g, 1.0)
        for x in (0.5, 1.0, 2.0):
            j = int(round(x / g.h))
            cont = float(k0(x)) / math.pi
            devs[(N, x)] = abs(k.kernel[j] - cont) / cont
            assert devs[(N, x)] <= 5e-3
    for x in (0.5, 1.0, 2.0):
        assert devs[(512, x)] < devs[(256, x)]


def test_convolution_identities():
    g = make_grid(1, 16.0, 256)
    k = bessel_kernel(g, 0.5)
    ones = Field.of(g, np.ones(g.size))
    out = convolve(g, k, ones)
    assert np.abs(out.values - 1.0).max() <= 1e-10

    # a unit point mass reproduces the kernel table, translated
    j0 = 17
    delta = np.zeros(g.size)
    delta[j0] = 1.0 / g.cell_measure
    moved = convolve(g, k, Field.of(g, delta)).values
    assert moved[j0] == pytest.approx(k.kernel[0], rel=1e-10)
    assert moved[(j0 + 5) % g.size] == pytest.approx(k.kernel[5], rel=1e-8)

    rng = np.random.default_rng(0)
    f = rng.standard_normal(g.size)
    h = rng.standard_normal(g.size)
    lin = convolve(g, k, Field.of(g, f + h)).values
    apart = convolve(g, k, Field.of(g, f)).values + convolve(g, k, Field.of(g, h)).values
    assert np.abs(lin - apart).max() <= 1e-12 * max(1.0, np.abs(apart).max())


def test_convolution_pairing_symmetry_and_monotonicity():
    g = make_grid(1, 16.0, 256)
    k = bessel_kernel(g, 0.5)
    rng = np.random.default_rng(1)
    f = Field.of(g, rng.standard_normal(g.size))
    h = Field.of(g, rng.standard_normal(g.size))
    lhs = pairing(convolve(g, k, f), h)
    rhs = pairing(f, convolve(g, k, h))
    assert lhs == pytest.approx(rhs, rel=1e-10)

    a = np.abs(f.values)
    b = a + np.abs(h.values)
    ca = convolve(g, k, Field.of(g, a)).values
    cb = convolve(g, k, Field.of(g, b)).values
    assert np.all(ca <= cb + 1e-12)
    assert ca.min() >= 0.0


@pytest.mark.parametrize("n, N, L, alpha", [(1, 256, 16.0, 0.5),
                                             (1, 512, 16.0, 0.5),
                                             (2, 128, 12.0, 1.0),
                                             (2, 256, 12.0, 1.0)])
def test_half_spectrum_convolution_matches_complex_reference(n, N, L, alpha):
    g = make_grid(n, L, N)
    k = bessel_kernel(g, alpha)
    assert k.transfer.shape == g.shape[:-1] + (N // 2 + 1,)
    assert k.transfer.dtype == np.float64
    # reference: full complex transform of the same kernel table
    full = np.fft.fftn(k.kernel).real * g.cell_measure
    rng = np.random.default_rng(N + n)
    spike = np.zeros(g.size)
    spike[rng.integers(g.size)] = 1.0 / g.cell_measure
    for v in (rng.standard_normal(g.size), rng.random(g.size), spike):
        ref = np.fft.ifftn(np.fft.fftn(v.reshape(g.shape)) * full).real.ravel()
        out = _convolve_values(g, k, v)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(out).max()
        if v.min() >= 0.0:
            assert out.min() >= 0.0


@pytest.mark.parametrize("n, N, L, alpha", [(1, 256, 16.0, 0.5),
                                             (2, 128, 12.0, 1.0)])
def test_batched_convolution_matches_each_row(n, N, L, alpha):
    # a (B, size) stack is convolved row by row: the same bits as one row at
    # a time, with the tiny-negative clip decided per row
    g = make_grid(n, L, N)
    k = bessel_kernel(g, alpha)
    rng = np.random.default_rng(N)
    spike = np.zeros(g.size)
    spike[rng.integers(g.size)] = 1.0 / g.cell_measure
    sparse = rng.random(g.size) * (rng.random(g.size) < 0.05)
    rows = np.stack([rng.standard_normal(g.size), sparse, spike,
                     rng.random(g.size)])
    batch = _convolve_values(g, k, rows)
    assert batch.shape == rows.shape
    for v, out in zip(rows, batch):
        assert np.array_equal(out, _convolve_values(g, k, v))
    assert batch[1:].min() >= 0.0 and batch[0].min() < 0.0


@pytest.mark.parametrize("N, r0, r1", [
    *(pytest.param(128, r0, r1, id=f"{r0}-{r1}")
      for r0, r1 in [(0, 128), (3, 17), (62, 80), (127, 128)]),
    pytest.param(256, 60, 130, id="N256-60-130")])
def test_row_window_apply_matches_the_whole_grid(N, r0, r1):
    # fields supported on a band of whole rows, the rows of a batch filling
    # different parts of the band (the first and the last row included), go
    # through the whole-grid apply: each batch row has the bits of its own
    # single-row apply, and the batch has the bits of rfftn/irfftn wherever
    # the tiny-negative clip leaves a cell alone.  The transforms run in
    # place on the apply's own spectrum, never on the caller's input
    g = make_grid(2, 12.0, N)
    k = bessel_kernel(g, 1.0)
    N = g.N
    win = slice(r0 * N, r1 * N)
    rng = np.random.default_rng(r0)
    rows = np.zeros((4, g.size))
    rows[0, win] = rng.standard_normal(win.stop - win.start)
    rows[1, win] = rng.random(win.stop - win.start)
    rows[2, r0 * N + rng.integers(N)] = 1.0 / g.cell_measure   # first row
    rows[3, (r1 - 1) * N:r1 * N] = rng.random(N)                 # last row
    before = rows.copy()
    full = _convolve_values(g, k, rows)
    raw = np.fft.irfftn(np.fft.rfftn(rows.reshape((4,) + g.shape), axes=(1, 2))
                        * k.transfer, s=g.shape, axes=(1, 2)).reshape(4, -1)
    assert np.array_equal(full[raw >= 0.0], raw[raw >= 0.0])
    for v, out in zip(rows, full):
        assert np.array_equal(_convolve_values(g, k, v), out)
    assert np.array_equal(rows, before)


def test_whole_grid_apply_clips_a_spike_ring():
    # a spike's potential rings below zero at roundoff on its own row (and
    # about half a box away); the tiny-negative clip zeroes exactly those
    # cells and leaves every other cell with the bits of rfftn/irfftn
    g = make_grid(2, 12.0, 128)
    k = bessel_kernel(g, 1.0)
    N = g.N
    v = np.zeros(g.size)
    v[70 * N + 20] = 1.0 / g.cell_measure
    raw = np.fft.irfftn(np.fft.rfftn(v.reshape(g.shape)) * k.transfer,
                        s=g.shape, axes=(0, 1)).ravel()
    assert raw.min() < 0.0
    full = _convolve_values(g, k, v)
    assert np.all(full[raw < 0.0] == 0.0)
    assert np.array_equal(full[raw >= 0.0], raw[raw >= 0.0])


def test_grid_mismatch_errors():
    g = make_grid(1, 16.0, 256)
    other = make_grid(1, 16.0, 128)
    k = bessel_kernel(g, 0.5)
    with pytest.raises(ValueError):
        convolve(other, k, Field.of(other, np.ones(other.size)))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def test_finite_model_roundtrip(tmp_path):
    sp = DiscreteMeasureSpace([1.0, 2.5, 3.25])
    path = tmp_path / "model.txt"
    modelio.write_finite_model(path, sp, {"f": np.array([0.5, -1.0, 2.0]),
                                          "g": np.array([1, 1, 0.0])})
    space, fields = modelio.read_finite_model(path)
    assert np.array_equal(space.weights, sp.weights)
    assert set(fields) == {"f", "g"}
    assert np.array_equal(fields["f"], [0.5, -1.0, 2.0])


def test_finite_model_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("atoms 2\n1.0\n")
    with pytest.raises(ValueError):
        modelio.read_finite_model(p)
    p.write_text("molecules 2\n1.0 1.0\n")
    with pytest.raises(ValueError):
        modelio.read_finite_model(p)


def test_grid_field_roundtrip(tmp_path):
    for n, N in ((1, 64), (2, 16)):
        g = make_grid(n, 4.0, N)
        vals = np.arange(g.size, dtype=float)
        path = tmp_path / f"field{n}.txt"
        modelio.write_grid_field(path, g, vals)
        header = path.read_text().splitlines()[0]
        assert header.startswith("field v1 grid=")
        assert "layout=row-major" in header
        g2, back = modelio.read_grid_field(path)
        assert (g2.n, g2.N, g2.L) == (g.n, g.N, g.L)
        assert np.array_equal(back, vals)
        # binding to an existing grid keeps the instance
        g3, back2 = modelio.read_grid_field(path, g)
        assert g3 is g
        assert np.array_equal(back2, vals)


def test_grid_field_header_mismatch(tmp_path):
    g = make_grid(1, 4.0, 64)
    path = tmp_path / "f.txt"
    modelio.write_grid_field(path, g, np.zeros(g.size))
    with pytest.raises(ValueError):
        modelio.read_grid_field(path, make_grid(1, 4.0, 32))


def test_mask_readers(tmp_path):
    g = make_grid(1, 4.0, 16)
    path = tmp_path / "mask.txt"
    bools = np.zeros(g.size)
    bools[3:7] = 1.0
    modelio.write_grid_field(path, g, bools)
    got = modelio.read_mask_values(path, g)
    assert got.sum() == 4 and got.dtype == bool

    sp = DiscreteMeasureSpace([1, 1, 1])
    bare = tmp_path / "bare.txt"
    bare.write_text("0 1 1\n")
    got = modelio.read_mask_values(bare, sp)
    assert list(got) == [False, True, True]
    bad = tmp_path / "bad.txt"
    bad.write_text("0 2 1\n")
    with pytest.raises(ValueError):
        modelio.read_mask_values(bad, sp)


_MASK16 = " ".join(["0"] * 12 + ["1"] * 4)


@pytest.mark.parametrize("reader, text, message", [
    ("finite", "", "empty file"),
    ("finite", "\n   \n\n", "empty file"),
    ("grid", "", "empty file"),
    ("grid", f"field v1 L=4.0 layout=row-major\n{_MASK16}\n", "needs grid= and L="),
    ("grid", f"\nfield v1 grid=16\n{_MASK16}\n", "needs grid= and L="),
    ("finite", "atoms x\n1 1\n", "atom count 'x' is not an integer"),
    ("finite", "atoms 2.5\n1 1\n", "atom count '2.5' is not an integer"),
    ("finite", "atoms -3\n", "atom count must be at least 1, got -3"),
    ("finite", "atoms 0\n", "atom count must be at least 1, got 0"),
    ("grid", f"field v1 grid=abc L=4.0\n{_MASK16}\n", "grid 'abc' is not an integer"),
    ("grid", f"field v1 grid=qxq L=4.0\n{_MASK16}\n", "grid 'q' is not an integer"),
    ("grid", f"field v1 grid=4x4x4 L=4.0\n{_MASK16}\n", "anisotropic"),
    ("grid", f"field v1 grid=16 L=abc\n{_MASK16}\n", "L 'abc' is not a number"),
    ("grid", "field v1 grid=0 L=4.0\n", "power of two, got 0"),
    ("grid", f"field v1 grid=16 L=-4.0\n{_MASK16}\n", "positive and finite"),
    ("mask", "\n\n", "empty file"),
    ("mask", f"field v1 layout=row-major\n{_MASK16}\n", "needs grid= and L="),
    ("mask", f"\nfield v1 grid=16 L=4.0 layout=row-major\n{_MASK16}\n", None),
    ("mask", f"\n  \nfield v1 grid=16 L=4.0\n{_MASK16}\n", None),
])
def test_readers_share_the_header_rule(tmp_path, reader, text, message):
    # every reader takes the first non-blank line as its header and names
    # the file in its errors; a grid-format mask after blank lines is read
    # as the grid reader reads it
    g = make_grid(1, 4.0, 16)
    path = tmp_path / "input.txt"
    path.write_text(text)
    read = {"finite": modelio.read_finite_model,
            "grid": modelio.read_grid_field,
            "mask": lambda p: modelio.read_mask_values(p, g)}[reader]
    if message is None:
        assert np.array_equal(read(path), modelio.read_grid_field(path, g)[1] == 1.0)
        return
    with pytest.raises(ValueError) as err:
        read(path)
    assert str(path) in str(err.value) and message in str(err.value)


@pytest.mark.parametrize("reader, text", [
    ("mask", "1 0 x 1\n"),
    ("kernel", "1 0 x 1\n"),
    ("finite", "atoms 4\n1 0 x 1\n"),
    ("finite", "atoms 4\n1 1 1 1\nfield f\n1 0 x 1\n"),
    ("grid", "field v1 grid=8 L=2.0 layout=row-major\n1 0 x 1 0 0 0 0\n"),
], ids=["mask", "kernel", "finite-weights", "finite-field", "grid"])
def test_readers_name_a_non_numeric_entry(tmp_path, reader, text):
    # each reader names the file and the token, not float()'s bare message
    path = tmp_path / "input.txt"
    path.write_text(text)
    read = {"mask": lambda p: modelio.read_mask_values(p, DiscreteMeasureSpace(np.ones(4))),
            "kernel": lambda p: modelio.read_kernel_matrix(p, 2),
            "finite": modelio.read_finite_model,
            "grid": modelio.read_grid_field}[reader]
    with pytest.raises(ValueError) as err:
        read(path)
    assert str(path) in str(err.value) and "'x'" in str(err.value)
