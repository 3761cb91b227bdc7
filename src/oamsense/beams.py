"""Scalar field engine: Gaussian / Laguerre-Gaussian modes, phase masks,
angular-spectrum propagation and modal diagnostics.

Fields live on square n x n grids (n a power of two) with pixel pitch in
metres; the grid origin sits at pixel (n//2, n//2).  A field's total power is
sum(|a|^2) * pitch^2.  ScalarField instances are immutable values: the sample
array is marked read-only and every operation allocates its output, so fields
can be shared freely between threads.  All reductions use fixed numpy
ordering, making results bit-deterministic.

An LG mode depends on a pixel (i, j) only through the integer key i^2 + j^2
and the phase exp(i l phi).  The waist search of conversion_metrics uses
this: it projects the field onto exp(i l phi) and bins it by that key once,
after which the overlap with LG_{p,l} at any waist is a 1-D sum over the
distinct radii of the grid instead of a full n x n mode.  Every mode the
package builds has p = 0, whose Laguerre factor L_0^|l| is exactly 1, so a
waist costs an exponential and, for l != 0, a power of sqrt(u) per radius,
and no Laguerre evaluation.  The search over the waist is Brent's
parabolic-interpolation method, written here rather than imported from
scipy.optimize, whose import alone outlasts a scored field: it places a
peak of the smooth F(w0) inside its bracket to sqrt(eps) in 11-20
evaluations, and one beyond an end on that end in about 40.

A pillar grating is scored by one pipeline, a wavelength scan of which
grating_metrics is the one-wavelength case: swg lays out the design and
re-tunes it to each wavelength, and a Gaussian input is converted against
LG_{0, delta_l * phase_sign}.  The grating lights only its footprint (12%
of the pixels at n = 1024 and 50 nm), and the scan works there alone.  It
builds what does not depend on the wavelength once: the layout, the
pixel -> pillar index, the Gaussian's samples on the footprint, its power
and the radial bins.  None of these holds a whole n x n complex array: the
Gaussian is built a block of rows at a time and only its footprint samples
are kept, with one n x n float array of |a|^2 whose np.sum is make_gaussian's
normalization and then the unit field's power, in make_gaussian's pairwise
order; the radial bins are counted a block of rows at a time.  Per
wavelength it re-tunes the layout, takes each footprint pixel's pillar
transmission, multiplies the input by it and runs the waist search on the
footprint; an n x n field is built only to propagate it (z_eval != 0) or
for a caller that keeps it.  Traced peaks: a two-wavelength scan at n = 512
and 80 nm, 6.5 MiB (15.6 MiB when it built the whole Gaussian field);
grating_metrics at n = 1024 and 50 nm, 34.6 MiB (61.1), 2.2 times the
16 MiB field it keeps; make_gaussian at n = 1024, 26.5 MiB (58.0), since
make_lg also builds its samples a block of rows at a time, straight into
the field's array.  Every sample is the bit the whole-grid meshgrid
arithmetic gives.  conversion_metrics scores a
mask that may light any pixel through the same scorer, on every pixel.
beam-sim, fidelity_vs_wavelength and demo 04 all go through the scan.
That is why beams imports swg at module level; swg imports only table, so
there is no cycle.

azimuthal_spectrum band-limit upsamples a field by 2 (up to n = 2048) and
samples it on polar rings.  The upsampled field is never held whole, and
the spectrum has no array of its own: it is built in place, a block at a
time, in the first inverse-transform pass's 2n x n array, which keeps only
the n rows that hold the spectrum, stored transposed so that each block of
columns of the field is read from a contiguous block of its rows.  The
second pass finishes a block of columns at a time.  Each ring sample is
interpolated in numpy from the block that holds it, with the arithmetic of
scipy's order-1 map_coordinates, so every power fraction is the one
whole-array resampling gives, bit for bit.  The samples are stored in the
part of the first pass's array that the blocks have already used, wherever
they fit there (n >= 1024).  At n = 1024 a spectrum's traced peak is
42.6 MiB, 2.7 times the field's 16 MiB (61.1 MiB when it held the
spectrum, the n x 2n rows and an array of ring samples side by side), where
a whole 2n x 2n grid alone is 64 MiB.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import swg, table


_BLOCK = 64  # grid rows, columns of the upsampled field, or radii of the rings, per block


class BandLimitWarning(UserWarning):
    """Propagation kernel undersampled where the field carries power."""


@dataclass(frozen=True)
class LGIndex:
    """Laguerre-Gaussian mode label: radial index p >= 0, azimuthal index l,
    waist w0 (m)."""

    p: int
    l: int
    w0: float

    def __post_init__(self) -> None:
        if self.p < 0:
            raise ValueError("p must be >= 0")
        if not self.w0 > 0.0:
            raise ValueError("w0 must be > 0")


@dataclass(frozen=True)
class ScalarField:
    """Complex optical field sampled on a uniform square grid."""

    n: int
    pitch: float
    lam: float
    amps: np.ndarray

    def __post_init__(self) -> None:
        _check_grid(self.n, self.pitch, self.lam)
        amps = np.ascontiguousarray(self.amps, dtype=np.complex128)
        if amps.shape != (self.n, self.n):
            raise ValueError(f"amps must have shape ({self.n}, {self.n})")
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amps must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    def total_power(self) -> float:
        return float(np.sum(_abs2(self.amps))) * self.pitch**2

    def axis(self) -> np.ndarray:
        """Transverse coordinates (m) of pixel centres along one side."""
        return _axis(self.n, self.pitch)

    def with_amps(self, amps: np.ndarray) -> "ScalarField":
        return ScalarField(n=self.n, pitch=self.pitch, lam=self.lam, amps=amps)


def _check_grid(n: int, pitch: float, lam: float) -> None:
    if n < 32 or (n & (n - 1)) != 0:
        raise ValueError("grid size n must be a power of two, >= 32")
    if not (pitch > 0.0 and lam > 0.0):
        raise ValueError("pitch and wavelength must be > 0")


def _abs2(amps: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|amps|^2, squared in place: the bits of np.abs(amps) ** 2."""
    out = np.abs(amps, out=out)
    return np.square(out, out=out)


def _axis(n: int, pitch: float) -> np.ndarray:
    return (np.arange(n) - n // 2) * pitch


def _normalized(field: ScalarField) -> ScalarField:
    p = field.total_power()
    if p == 0.0:
        raise ValueError("zero-power field")
    return field.with_amps(field.amps / math.sqrt(p))


def _check_sampling(w0: float, pitch: float) -> None:
    if w0 < 4.0 * pitch:
        raise ValueError(f"w0 = {w0} under-sampled: requires w0 >= 4 * pitch")


def _lg_radial(p: int, l: int, w0: float, r2: np.ndarray) -> np.ndarray:
    """Unnormalized LG_{p,l} radial profile at squared radii r2 (m^2).

    L_0^|l| is exactly 1, so a p = 0 mode evaluates no Laguerre polynomial:
    exp(-r^2/w0^2) times 1.0 is the same float64, and a product of two
    floats does not depend on their order, so every profile is bit for bit
    the Laguerre * exp * sqrt(u)^|l| product.  The exponential is taken in
    the profile's own buffer, and u = 2 r^2 / w0^2 only where p or l needs it.
    """
    radial = np.negative(r2)
    radial /= w0**2
    np.exp(radial, out=radial)
    if p == 0 and l == 0:
        return radial
    u = 2.0 * r2
    u /= w0**2
    if p != 0:
        from scipy.special import eval_genlaguerre

        radial *= eval_genlaguerre(p, abs(l), u)
    if l != 0:
        np.sqrt(u, out=u)
        u **= abs(l)
        radial *= u
    return radial


def _lg_rows(n: int, pitch: float, idx: LGIndex):
    """Yield (rows, amps): the unnormalized LG_{p,l} samples of make_lg on
    one block of _BLOCK grid rows at a time, as a fresh complex array.

    r^2 is x^2 along the row plus x^2 down the column, broadcast, and phi is
    arctan2 of the two; each sample is the float64 the whole-grid meshgrid
    form gives.  The phase is multiplied by the profile in place, as
    phase *= radial: that is the operand order in which numpy evaluated the
    whole-grid radial * exp(i l phi) in its temporary, and the other order
    can give the opposite sign to a zero where a sample underflows.
    """
    x = _axis(n, pitch)
    for r in range(0, n, _BLOCK):
        rows = slice(r, r + _BLOCK)
        radial = _lg_radial(idx.p, idx.l, idx.w0, x[None, :] ** 2 + x[rows, None] ** 2)
        if idx.l == 0:
            yield rows, radial.astype(np.complex128)
            continue
        amps = 1j * idx.l * np.arctan2(x[rows, None], x[None, :])
        np.exp(amps, out=amps)
        amps *= radial
        yield rows, amps


def make_gaussian(n: int, pitch: float, lam: float, w0: float) -> ScalarField:
    """Unit-power Gaussian at its waist, centred on the grid."""
    return make_lg(n, pitch, lam, LGIndex(p=0, l=0, w0=w0))


def make_lg(n: int, pitch: float, lam: float, idx: LGIndex) -> ScalarField:
    """Unit-power Laguerre-Gaussian mode LG_{p,l} at its waist.

    Amplitude ~ (sqrt(2) r / w0)^|l| L_p^|l|(2 r^2 / w0^2) exp(-r^2/w0^2)
    exp(i l phi), normalized on the grid.  The waist must satisfy
    w0 >= 4 * pitch so the mode is adequately sampled.

    The samples are built a block of rows at a time (_lg_rows) into the
    field's one complex array, |a|^2 into one n x n float array whose
    np.sum is the power, and the normalization divides in place.
    """
    _check_sampling(idx.w0, pitch)
    _check_grid(n, pitch, lam)
    amps = np.empty((n, n), dtype=np.complex128)
    power = np.empty((n, n))
    for rows, block in _lg_rows(n, pitch, idx):
        amps[rows] = block
        _abs2(block, out=power[rows])
    p = float(np.sum(power)) * pitch**2
    del power
    if p == 0.0:
        raise ValueError("zero-power field")
    amps /= math.sqrt(p)
    return ScalarField(n=n, pitch=pitch, lam=lam, amps=amps)


def _gaussian_on(n: int, pitch: float, lam: float, w0: float, support: np.ndarray):
    """(inputs, p_in): make_gaussian(n, pitch, lam, w0).amps.ravel()[support]
    and that field's total_power(), bit for bit, with no n x n complex array.

    support holds flat row-major pixel indices in increasing order.  The
    Gaussian is built a block of rows at a time, twice: once for the power
    that normalizes it and the samples on the support, and once, divided by
    the norm, for the power of the unit field.  Each power is np.sum over
    one n x n float array of |a|^2, so its pairwise order is make_lg's.
    """
    _check_sampling(w0, pitch)
    _check_grid(n, pitch, lam)
    idx = LGIndex(p=0, l=0, w0=w0)
    power = np.empty((n, n))
    inputs = np.empty(len(support), dtype=np.complex128)
    ends = np.searchsorted(support, np.arange(0, n + _BLOCK, _BLOCK) * n)
    for k, (rows, block) in enumerate(_lg_rows(n, pitch, idx)):
        _abs2(block, out=power[rows])
        lit = slice(ends[k], ends[k + 1])
        inputs[lit] = block.ravel()[support[lit] - rows.start * n]
    p = float(np.sum(power)) * pitch**2
    if p == 0.0:
        raise ValueError("zero-power field")
    norm = math.sqrt(p)
    inputs /= norm
    for rows, block in _lg_rows(n, pitch, idx):
        block /= norm
        _abs2(block, out=power[rows])
    return inputs, float(np.sum(power)) * pitch**2


def vortex_mask(n: int, pitch: float, delta_l: int) -> np.ndarray:
    """Unit-modulus spiral phase mask exp(i delta_l phi) about the grid centre."""
    x = _axis(n, pitch)
    return np.exp(1j * delta_l * np.arctan2(x[:, None], x[None, :]))


def apply_mask(field: ScalarField, mask: np.ndarray) -> ScalarField:
    """Pixel-wise product of a field with a transmission mask."""
    mask = np.asarray(mask)
    if mask.shape != field.amps.shape:
        raise ValueError(
            f"mask shape {mask.shape} does not match field grid {field.amps.shape}"
        )
    return field.with_amps(field.amps * mask)


def propagate(field: ScalarField, z: float) -> ScalarField:
    """Exact scalar angular-spectrum propagation over a distance z (m).

    Evanescent components are removed (never amplified) for any z != 0, so
    power is conserved on the propagating band and propagate(-z) undoes
    propagate(z) there.  A BandLimitWarning is emitted when the propagation
    phase is undersampled in a spectral region that carries more than 1e-9
    of the field power.
    """
    if not math.isfinite(z):
        raise ValueError("z must be finite")
    if z == 0.0:
        return field.with_amps(field.amps.copy())
    k = 2.0 * math.pi / field.lam
    kx = 2.0 * math.pi * np.fft.fftfreq(field.n, d=field.pitch)
    kxx, kyy = np.meshgrid(kx, kx, indexing="xy")
    kz2 = k * k - kxx**2 - kyy**2
    propagating = kz2 > 0.0
    kz = np.sqrt(np.where(propagating, kz2, 0.0))

    spectrum = np.fft.fft2(np.fft.ifftshift(field.amps))
    power = np.abs(spectrum) ** 2
    total = float(np.sum(power))
    if total > 0.0:
        # Local spectral phase slope must stay below pi per sample.
        dk = 2.0 * math.pi / (field.n * field.pitch)
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(
                propagating,
                np.maximum(np.abs(kxx), np.abs(kyy)) * abs(z) / np.maximum(kz, 1e-300),
                0.0,
            )
        bad = propagating & (slope * dk > math.pi)
        if float(np.sum(power[bad])) > 1e-9 * total:
            warnings.warn(
                "angular-spectrum kernel undersampled for this z; "
                "enlarge the grid or reduce z",
                BandLimitWarning,
                stacklevel=2,
            )
    kernel = np.where(propagating, np.exp(1j * kz * z), 0.0)
    out = np.fft.fftshift(np.fft.ifft2(spectrum * kernel))
    return field.with_amps(out)


def fidelity(field: ScalarField, reference: ScalarField) -> float:
    """Squared magnitude of the normalized overlap, in [0, 1].

    Both fields are normalized internally, so F = |<field, ref>|^2 for
    unit-power inputs.  Symmetric, and invariant under a global phase of
    either argument.
    """
    if field.n != reference.n or field.pitch != reference.pitch:
        raise ValueError("fields must share one grid (n, pitch)")
    a = _normalized(field).amps
    b = _normalized(reference).amps
    overlap = np.sum(a * np.conj(b)) * field.pitch**2
    # the overlap and the two normalisations round separately: F(a, a) can
    # come out at 1 + 4e-16
    return min(float(np.abs(overlap) ** 2), 1.0)


_SAMPLE_CHUNK = 16384  # ring samples interpolated at a time
_UPSAMPLED_UP_TO = 2048  # largest n whose spectrum is taken on the grid upsampled by 2
_N_THETA = 1024  # samples per ring


def _upsampled_cols(amps: np.ndarray, factor: int) -> np.ndarray:
    """First pass of band-limited upsampling by spectral zero padding, stored
    transposed: cols[x, k] of shape (n * factor, n).

    fft2(ifftshift(amps)) is built in cols[:n], transposed, as np.fft.fft2
    computes it: the 1-D transforms along axis 1 of the shifted field, a
    block of rows at a time, then those along axis 0.  The spectrum is then
    padded in FFT order, zeros going between its positive and negative
    frequencies, and the inverse transform runs one axis at a time, as ifft2
    does.  Along axis 1 only the n rows that hold the spectrum are padded and
    transformed, a block of rows at a time, since the inverse transform of a
    zero row is zero; row k of the result, its halves swapped, is stored as
    column k of cols, over the spectrum rows the block has just read.  With
    factor 1 the field itself is returned, transposed.
    """
    if factor == 1:
        return amps.T
    n = amps.shape[0]
    size, h = n * factor, n // 2
    step = min(_BLOCK, h)
    cols = np.empty((size, n), dtype=np.complex128)
    spectrum = cols[:n]  # spectrum[kx, ky]
    shifted = np.empty((step, n), dtype=np.complex128)
    for r in range(0, n, step):
        src = amps[(r + h) % n:][:step]  # rows r .. r + step of ifftshift(amps)
        shifted[:, :h] = src[:, h:]
        shifted[:, h:] = src[:, :h]
        spectrum[:, r:r + step] = np.fft.fft(shifted, axis=1).T
    for r in range(0, n, step):
        spectrum[r:r + step] = np.fft.fft(spectrum[r:r + step], axis=1)
    index = np.arange(n)
    index[h:] += size - n
    half = size // 2
    padded = np.zeros((step, size), dtype=np.complex128)
    for r in range(0, n, step):
        padded[:, index] = spectrum[:, r:r + step].T
        t = np.fft.ifft(padded, axis=1)
        cols[:half, r:r + step] = t[:, half:].T
        cols[half:, r:r + step] = t[:, :half].T
    return cols


def _column_block(cols: np.ndarray, factor: int, c: int) -> np.ndarray:
    """Columns c .. c + _BLOCK of the upsampled field, transposed, the last
    of them an overlap column shared with the next block (absent at the
    right edge).

    The block's rows of _upsampled_cols are put back on the n * factor
    positions they hold in the padded array, zeros between, transformed
    along axis 1, scaled and stored with their halves swapped.  Together the
    swaps are the fftshift, and each 1-D transform is the one a whole-array
    pass makes, so the blocks put side by side are the upsampled field bit
    for bit.  With factor 1 a block is a view of the field's own columns.
    """
    if factor == 1:
        return cols[c:c + _BLOCK + 1]
    size, n = cols.shape
    index = np.arange(n)
    index[n // 2:] += size - n
    half = size // 2
    padded = np.zeros((min(_BLOCK + 1, size - c), size), dtype=np.complex128)
    padded[:, index] = cols[c:c + len(padded)]
    t = np.fft.ifft(padded, axis=1)
    t *= factor * factor
    padded[:, :half] = t[:, half:]
    padded[:, half:] = t[:, :half]
    return padded


def azimuthal_spectrum(field: ScalarField, l_values) -> np.ndarray:
    """Power fraction carried by each azimuthal order exp(i l phi).

    The field is band-limit upsampled (by 2 up to n = 2048) and resampled
    onto polar rings about the grid centre; an FFT along the angle projects
    out the harmonics, and ring powers are summed radially.  Fractions are
    relative to the field's total power, so they sum to <= 1 over any set
    of orders, which must be integers.

    The upsampled field is never held whole (see the module docstring).
    Each ring sample is taken from the column block that holds its column
    floor(col), with the arithmetic of scipy's map_coordinates at order 1:
    weights w0 = 1 - t and w1 = 1 - w0 on each axis, the four corners
    summed from 0.0 in row-major order as (value * row weight) * column
    weight, and the parts joined as re + 1j * im.  The blocks of samples
    are found from one int16 array holding each sample's block.  The
    samples are stored a column block after another, each block's in ring
    order, in the flat start of the first pass's array, whose rows the
    blocks made so far no longer need, wherever each block's samples fit
    there (n >= 1024 at factor 2), and in an array of their own elsewhere.  The
    rings are gathered back out a block of radii at a time, from the count
    of samples each (ring block, column block) pair holds, and transformed;
    only the harmonics asked for are kept.  map_coordinates run on each
    block gives the same bits, but at n = 1024 it raises a fresh process's
    peak RSS by 34 MiB against the gather's 9 MiB, and beam-sim's by 12 MB.
    """
    l_values = list(l_values)
    for l in l_values:  # a float or a bool would be truncated to an order
        if isinstance(l, (bool, np.bool_)) or not isinstance(l, (int, np.integer)):
            raise ValueError(f"azimuthal order {l!r} is not an integer")
    l_values = np.asarray(l_values, dtype=int)
    total = field.total_power()
    if total == 0.0:
        raise ValueError("zero-power field")
    n_theta = _N_THETA
    if np.any(np.abs(l_values) >= n_theta // 2):
        raise ValueError(f"|l| must be < {n_theta // 2}")
    up = 2 if field.n <= _UPSAMPLED_UP_TO else 1
    cols = _upsampled_cols(field.amps, up)
    n = field.n * up
    pitch = field.pitch / up
    n_r = n // 2 - 1
    radii = (np.arange(n_r) + 0.5) * pitch
    theta = np.arange(n_theta) * (2.0 * math.pi / n_theta)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    # the column block of each ring sample, in ring-major order, and the
    # samples each (ring block, column block) pair holds
    n_blocks = -(-n // _BLOCK)
    owner = np.empty((n_r, n_theta), dtype=np.int16)
    counts = np.empty((-(-n_r // _BLOCK), n_blocks), dtype=np.intp)
    for b, r in enumerate(range(0, n_r, _BLOCK)):
        x = radii[r:r + _BLOCK, None] * cos_t[None, :] / pitch + n // 2
        owner[r:r + _BLOCK] = np.floor(x) // _BLOCK
        counts[b] = np.bincount(owner[r:r + _BLOCK].ravel(), minlength=n_blocks)
    per_block = counts.sum(axis=0)
    start = np.cumsum(per_block) - per_block  # of each column block's samples
    done = np.minimum(np.arange(1, n_blocks + 1) * _BLOCK, n) * field.n  # cols read by then
    if up > 1 and np.all(start + per_block <= done):
        store = cols.reshape(-1)
    else:
        store = np.empty(n_r * n_theta, dtype=np.complex128)
    for c in range(0, n, _BLOCK):
        block = _column_block(cols, up, c)
        samples = np.flatnonzero(owner == c // _BLOCK)
        out = store[start[c // _BLOCK]:]
        for s in range(0, len(samples), _SAMPLE_CHUNK):
            k = samples[s:s + _SAMPLE_CHUNK]
            ring, angle = np.divmod(k, n_theta)
            rr = radii[ring]
            y = rr * sin_t[angle] / pitch + n // 2
            x = rr * cos_t[angle] / pitch + n // 2
            y0, x0 = np.floor(y), np.floor(x)
            wy0 = 1.0 - (y - y0)
            wx0 = 1.0 - (x - x0)
            i, j = y0.astype(np.intp), x0.astype(np.intp) - c
            re = np.zeros(len(k))
            im = np.zeros(len(k))
            for di, wy in ((0, wy0), (1, 1.0 - wy0)):
                for dj, wx in ((0, wx0), (1, 1.0 - wx0)):
                    v = block[j + dj, i + di]
                    re += v.real * wy * wx
                    im += v.imag * wy * wx
            out[s:s + len(k)] = re + 1j * im
    del block
    at = start + np.cumsum(counts, axis=0) - counts  # where each pair's samples start
    harmonics = l_values % n_theta
    a_l = np.empty((len(l_values), n_r), dtype=np.complex128)  # a_l(r), one row per order
    for b, r in enumerate(range(0, n_r, _BLOCK)):
        rings = owner[r:r + _BLOCK]
        order = np.argsort(rings.ravel(), kind="stable")  # by column block, then ring order
        polar = np.empty(rings.shape, dtype=np.complex128)
        polar.reshape(-1)[order] = np.concatenate(
            [store[at[b, c]:at[b, c] + counts[b, c]] for c in range(n_blocks)])
        coeffs = np.fft.fft(polar, axis=1) / n_theta
        a_l[:, r:r + _BLOCK] = coeffs[:, harmonics].T
    # power in order l: 2 pi * integral |a_l(r)|^2 r dr
    ring_weight = 2.0 * math.pi * radii * pitch
    fractions = np.empty(len(l_values))
    for i in range(len(l_values)):
        fractions[i] = float(np.sum(np.abs(a_l[i]) ** 2 * ring_weight)) / total
    return fractions


_SQRT_EPS = math.sqrt(np.finfo(np.float64).eps)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_PROBE_REARMS = 1  # times a winning step of at most 2 * tol re-arms _brent_min's probe


def _brent_min(fun, lo: float, hi: float) -> tuple[float, float]:
    """Minimize fun over [lo, hi], 0 < lo < hi, returning (x, fun(x)).

    Brent's method (R. P. Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 5), the loop of scipy.optimize.fminbound: each
    step is the vertex of the parabola through the three best points so far,
    or a golden-section step into the larger side of the bracket when the
    parabola falls outside it or does not halve the step before last.  The
    bracket [a, b] always holds the minimum of a function that is
    single-minimum on [lo, hi].  The search stops once both ends lie within
    2 * sqrt(eps) * |x| of the best point x, the spacing below which float64
    values of a smooth function no longer order points near its minimum.

    One step is added to fminbound's loop: the first time the parabola is
    refused while x lies within 2 * tol of one end, the step is tol toward
    the other, which closes the bracket if x is the minimum.  Parabolas
    fitted to values at the float64 floor then fall just outside the near
    end, and golden steps would take a dozen more evaluations to bring the
    far end in.  At that floor the probe itself can win by rounding noise
    and leave the far end where it was, so a step of at most 2 * tol that
    becomes the new best re-arms it, at most _PROBE_REARMS times per call:
    the probe fires once per arming, and the cap keeps a run of winning
    probes from crawling tol by tol.  One re-arm is enough: a search at
    n = 256 that took 30 evaluations without it takes 15 with one, and
    none with more.  The steps stay at least tol = sqrt(eps) * |x| inside
    (lo, hi); an end of [lo, hi] that the bracket never left is then
    evaluated itself, since a minimum beyond it lies there, so that such a
    search ends on the edge exactly.  The steps depend only on the values
    of fun, so a repeat call returns the same floats.
    """
    a, b = lo, hi
    x = w = v = a + _GOLDEN * (b - a)  # best, second best and previous w
    fx = fw = fv = fun(x)
    d = e = 0.0  # the last step and the one before it
    armed, rearms = True, _PROBE_REARMS
    while True:
        m = 0.5 * (a + b)
        tol = _SQRT_EPS * abs(x)
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            break
        golden = True
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                golden = False
                d = p / q
                if x + d - a < 2.0 * tol or b - (x + d) < 2.0 * tol:
                    d = tol if x <= m else -tol  # no evaluation next to an end
        if golden and armed and min(x - a, b - x) <= 2.0 * tol:
            armed = False  # once per arming, so a run of such steps cannot crawl
            d = e = tol if x <= m else -tol
        elif golden:
            e = a - x if x >= m else b - x
            d = _GOLDEN * e
        step = max(abs(d), tol)
        u = x - step if d < 0.0 else x + step
        fu = fun(u)
        if fu <= fx:
            if not armed and rearms and abs(u - x) <= 2.0 * tol:
                armed, rearms = True, rearms - 1
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    for end in (lo, hi):
        if end in (a, b):
            f_end = fun(end)
            if f_end < fx:
                x, fx = end, f_end
    return x, fx


def _on_grid(values: np.ndarray, support, n: int) -> np.ndarray:
    """The n x n array holding values at the support pixels, zeros elsewhere."""
    if isinstance(support, slice):  # every pixel: the values are the grid already
        return values.reshape(n, n)
    grid = np.zeros(n * n, dtype=values.dtype)
    grid[support] = values
    return grid.reshape(n, n)


def _waist_fidelity(n: int, pitch: float, p: int, l: int, support=slice(None)):
    """fidelity(field, make_lg(..., LGIndex(p, l, w0))) as a function of w0,
    split at the field: bind(amps, power) returns fid(w0).

    A field that is zero outside a support is given by amps, its samples at
    the support pixels (flat row-major indices in increasing order, or
    slice(None) for every pixel), and power, its sum(|a|^2) over the grid.
    The field is projected onto exp(i l phi) and binned by the integer key
    i^2 + j^2 of its pixel offsets once; each waist then costs one sum over
    the distinct keys: the overlap sum(radial * proj) and the reference
    power sum(count * radial^2).  The pixel keys and the exp(-i l phi)
    projection depend only on the grid and l; they are built here once, on
    the support pixels alone, and bind projects and bins each field.  The
    count and squared radius of each key present come from the whole grid,
    since the reference mode's power is a whole-grid sum; the keys are
    counted a block of rows at a time by np.add.at into one array, which is
    as fast as one bincount of the whole grid's keys.  Binning on the
    support gives every bin the bits binning the whole grid does: a pixel
    outside adds +-0 to its bin's running sum, which changes no sum.
    """
    offsets = np.arange(n) - n // 2
    size = 2 * (n // 2) ** 2 + 1  # the largest key is that of the corner (-n/2, -n/2)
    counts = np.zeros(size, dtype=np.intp)
    for r in range(0, n, _BLOCK):
        np.add.at(counts, (offsets[r:r + _BLOCK, None] ** 2 + offsets[None, :] ** 2).ravel(), 1)
    present = np.flatnonzero(counts)
    counts = counts[present].astype(np.float64)  # cast once, not in each dot
    r2 = present * pitch**2
    pixels = np.arange(n * n)[support]
    rows, cols = offsets[pixels // n], offsets[pixels % n]
    del pixels
    phase = np.exp(-1j * l * np.arctan2(rows, cols)) if l != 0 else None
    keys = rows**2 + cols**2
    del rows, cols

    def bind(amps: np.ndarray, power: float):
        weighted = amps * phase if l != 0 else amps
        proj = (np.bincount(keys, weights=weighted.real, minlength=size)[present]
                + 1j * np.bincount(keys, weights=weighted.imag, minlength=size)[present])
        del weighted

        def fid(w0: float) -> float:
            _check_sampling(w0, pitch)
            if power == 0.0:
                raise ValueError("zero-power field")
            radial = _lg_radial(p, l, w0, r2)
            ref_power = float(np.dot(counts, radial**2))
            if not math.isfinite(ref_power):
                raise ValueError(f"LG_({p},{l}) at w0 = {w0} is not finite on this grid")
            return float(np.abs(np.dot(radial, proj)) ** 2) / (power * ref_power)

        return fid

    return bind


@dataclass(frozen=True)
class ConversionMetrics:
    """Mode-conversion scores: waist-optimized fidelity, fidelity at the
    nominal reference waist, the optimizing waist, power transmission, and
    the conversion efficiency eta = fidelity * t_swg.

    output is the scored field (masked, then propagated by z_eval), kept for
    callers that export or analyse it, and None where a caller keeps only
    the scores; it takes no part in equality or repr.
    """

    fidelity: float
    fidelity_fixed_waist: float
    w0_opt: float
    t_swg: float
    eta: float
    output: ScalarField | None = dataclasses.field(default=None, compare=False, repr=False)


def _scorer(n: int, pitch: float, p_in: float, target: LGIndex, z_eval: float,
            support=slice(None)):
    """conversion_metrics split at the mask: score(amps, lam, keep) scores
    one masked input.

    The input is an n x n field of pitch pitch and power p_in.  support
    holds the flat, row-major indices of the pixels the mask can light, in
    increasing order, or slice(None) for every pixel; amps is the masked
    input at those pixels.  The radial bins of the waist search are built
    once, on the support at z_eval = 0 and on every pixel otherwise, since
    propagation spreads the field over the grid.  score sums the power of
    amps over the whole n x n grid, zeros outside the support, so that
    np.sum's pairwise order, and so t_swg, is that of the whole field.  The
    field itself is put on the grid only to propagate it (at wavelength lam)
    or, with keep, to return it as output; then the waist search maximizes
    the fidelity with _brent_min, which returns the fidelity at its optimum
    along with it.
    """
    scored = support if z_eval == 0.0 else slice(None)
    by_waist = _waist_fidelity(n, pitch, target.p, target.l, scored)
    lo = max(0.3 * target.w0, 4.0 * pitch)

    def score(amps: np.ndarray, lam: float, keep: bool) -> ConversionMetrics:
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amps must be finite")
        power = float(np.sum(_on_grid(np.abs(amps) ** 2, support, n)))
        t_swg = power * pitch**2 / p_in
        out = None
        if keep or z_eval != 0.0:
            out = ScalarField(n=n, pitch=pitch, lam=lam, amps=_on_grid(amps, support, n))
        if z_eval != 0.0:
            out = propagate(out, z_eval)
            amps = out.amps.ravel()
            power = float(np.sum(np.abs(out.amps) ** 2))
            if not keep:
                out = None
        fid = by_waist(amps, power)
        f_fixed = fid(target.w0)
        w_opt, f_neg = _brent_min(lambda w: -fid(w), lo, 3.0 * target.w0)
        f_opt = -f_neg
        if f_fixed > f_opt:  # keep the better of the two ends of the search
            f_opt, w_opt = f_fixed, target.w0
        return ConversionMetrics(
            fidelity=f_opt,
            fidelity_fixed_waist=f_fixed,
            w0_opt=w_opt,
            t_swg=t_swg,
            eta=f_opt * t_swg,
            output=out,
        )

    return score


def conversion_metrics(
    field_in: ScalarField,
    mask: np.ndarray,
    target: LGIndex,
    z_eval: float = 0.0,
) -> ConversionMetrics:
    """Score a phase mask as an OAM converter against a target LG mode.

    The mask is applied, the field optionally propagated by z_eval, and the
    fidelity against LG_{p,l} evaluated.  The reference waist is optimized by
    Brent's method over [0.3, 3] x target.w0, to sqrt(eps) relative (the
    fixed-waist value is reported alongside, and wins if it is the higher).
    t_swg is output power over input power.

    The fidelity equals fidelity(out, make_lg(...)) but is computed by radial
    projection: the output field is binned once by pixel radius after
    removing exp(i l phi), so each waist of the search costs a 1-D sum over
    the distinct radii of the grid, not an n x n reference mode.  The mask
    may light any pixel, so the scorer's support is every pixel.
    """
    masked = apply_mask(field_in, mask).amps.ravel()
    score = _scorer(field_in.n, field_in.pitch, field_in.total_power(), target, z_eval)
    return score(masked, field_in.lam, keep=True)


def _grating_scan(design: swg.SWGDesign, lams: list[float], n: int, pitch: float, w0: float,
                  z_eval: float, keep: bool):
    """Yield grating_metrics at each wavelength of lams, doing the
    wavelength-independent work once (see fidelity_vs_wavelength); with
    keep, each scored field is kept as output.

    The scorer's support is the footprint of swg.pillar_index, the pixels
    the grating lights.  The Gaussian input comes from _gaussian_on, its
    samples on the footprint and its power, so the scan builds no n x n
    complex array before its first wavelength; at z_eval = 0 a wavelength
    builds none unless keep asks for the field.
    """
    layout = swg.generate_layout(design)
    inside, nearest = swg.pillar_index(layout, n, pitch)
    support = np.flatnonzero(inside)
    del inside
    target = LGIndex(p=0, l=design.delta_l * design.phase_sign, w0=w0)
    inputs, p_in = _gaussian_on(n, pitch, lams[0], w0, support)
    score = _scorer(n, pitch, p_in, target, z_eval, support)
    for lam in lams:
        transmission = swg.pillar_transmission(swg.retune_layout(design, layout, lam))
        yield score(inputs * transmission[nearest], lam, keep)


def grating_metrics(design: swg.SWGDesign, lam: float, n: int, pitch: float, w0: float,
                    z_eval: float = 0.0) -> ConversionMetrics:
    """Conversion metrics of a pillar-grating design at one wavelength.

    The design's layout is generated and its phases re-tuned to lam through
    the dispersion table; a unit-power Gaussian of waist w0 goes through
    the grating and is scored against LG_{0, delta_l * phase_sign} at the
    same waist.  This is the one-wavelength case of the scan of
    fidelity_vs_wavelength: the layout, the pixel -> pillar index, the
    Gaussian's samples on the grating's footprint and the radial bins are
    built once, then the retune, each footprint pixel's transmission and
    the waist search run for lam.  The scored field is scattered onto the
    n x n grid and kept in output.
    """
    return next(_grating_scan(design, [lam], n, pitch, w0, z_eval, keep=True))


def fidelity_vs_wavelength(
    design: swg.SWGDesign,
    lambdas,
    n: int = 1024,
    pitch: float = 50e-9,
    w0: float = 5e-6,
    z_eval: float = 0.0,
) -> list[tuple[float, ConversionMetrics]]:
    """grating_metrics at each of a positive, increasing run of wavelengths.

    What does not depend on the wavelength is done once per scan: the
    layout, the pixel -> pillar index, the Gaussian input on the grating's
    footprint and the radial bins of the waist search.  Each wavelength
    costs a retune, the transmission of each footprint pixel, the masked
    field on the footprint and its waist search; at z_eval = 0 no n x n
    complex array is built.  Only the scores are kept (output is None).
    """
    lams = list(lambdas)
    if any(l <= 0.0 for l in lams) or any(b <= a for a, b in zip(lams, lams[1:])):
        raise ValueError("wavelengths must be positive and increasing")
    return list(zip(lams, _grating_scan(design, lams, n, pitch, w0, z_eval, keep=False)))


def save_raster(matrix: np.ndarray, path) -> None:
    """Comma-separated matrix export (one grid row per line), for plotting.

    Each cell is written as repr(float(v)), byte for byte, by
    table.write_table, which formats each distinct magnitude once.
    """
    table.write_table(path, None, np.asarray(matrix).T)
