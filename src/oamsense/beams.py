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
grating_metrics is the one-wavelength case: swg lays out the design, re-tunes
it to each wavelength and rasterizes it to a mask, and a Gaussian input is
converted against LG_{0, delta_l * phase_sign}.  A scan builds what does not
depend on the wavelength once: the layout, the pixel -> pillar index, the
Gaussian's amplitudes and the radial bins.  Per wavelength it re-tunes the
layout, gathers the mask, masks (and propagates) the input at that
wavelength and runs the waist search.  beam-sim, fidelity_vs_wavelength and
demo 04 all go through it.  That is why beams imports swg at module level;
swg imports only table, so there is no cycle.

azimuthal_spectrum band-limit upsamples a field by 2 (up to n = 2048) and
samples it on polar rings.  The upsampled field is never held whole: the
first inverse-transform pass keeps only the n rows that hold the spectrum,
in a compact n x 2n array, and the second pass finishes a block of columns
at a time.  Each ring sample is interpolated in numpy from the block that
holds it, with the arithmetic of scipy's order-1 map_coordinates, so every
power fraction is the one whole-array resampling gives, bit for bit.  At
n = 1024 a spectrum's traced peak is 61 MiB, 3.8 times the field's 16 MiB,
where a whole 2n x 2n grid alone is 64 MiB.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import swg, table


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
        if self.n < 32 or (self.n & (self.n - 1)) != 0:
            raise ValueError("grid size n must be a power of two, >= 32")
        if not (self.pitch > 0.0 and self.lam > 0.0):
            raise ValueError("pitch and wavelength must be > 0")
        amps = np.ascontiguousarray(self.amps, dtype=np.complex128)
        if amps.shape != (self.n, self.n):
            raise ValueError(f"amps must have shape ({self.n}, {self.n})")
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amps must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    def total_power(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2)) * self.pitch**2

    def axis(self) -> np.ndarray:
        """Transverse coordinates (m) of pixel centres along one side."""
        return (np.arange(self.n) - self.n // 2) * self.pitch

    def with_amps(self, amps: np.ndarray) -> "ScalarField":
        return ScalarField(n=self.n, pitch=self.pitch, lam=self.lam, amps=amps)


def _grids(n: int, pitch: float):
    x = (np.arange(n) - n // 2) * pitch
    xx, yy = np.meshgrid(x, x, indexing="xy")
    return xx, yy


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
    the Laguerre * exp * sqrt(u)^|l| product.
    """
    radial = np.exp(-r2 / w0**2)
    u = 2.0 * r2 / w0**2
    if p != 0:
        from scipy.special import eval_genlaguerre

        radial = radial * eval_genlaguerre(p, abs(l), u)
    if l != 0:
        radial = radial * np.sqrt(u) ** abs(l)
    return radial


def make_gaussian(n: int, pitch: float, lam: float, w0: float) -> ScalarField:
    """Unit-power Gaussian at its waist, centred on the grid."""
    return make_lg(n, pitch, lam, LGIndex(p=0, l=0, w0=w0))


def make_lg(n: int, pitch: float, lam: float, idx: LGIndex) -> ScalarField:
    """Unit-power Laguerre-Gaussian mode LG_{p,l} at its waist.

    Amplitude ~ (sqrt(2) r / w0)^|l| L_p^|l|(2 r^2 / w0^2) exp(-r^2/w0^2)
    exp(i l phi), normalized on the grid.  The waist must satisfy
    w0 >= 4 * pitch so the mode is adequately sampled.
    """
    _check_sampling(idx.w0, pitch)
    xx, yy = _grids(n, pitch)
    radial = _lg_radial(idx.p, idx.l, idx.w0, xx**2 + yy**2)
    if idx.l != 0:
        phi = np.arctan2(yy, xx)
        amps = radial * np.exp(1j * idx.l * phi)
    else:
        amps = radial.astype(np.complex128)
    return _normalized(ScalarField(n=n, pitch=pitch, lam=lam, amps=amps))


def vortex_mask(n: int, pitch: float, delta_l: int) -> np.ndarray:
    """Unit-modulus spiral phase mask exp(i delta_l phi) about the grid centre."""
    xx, yy = _grids(n, pitch)
    return np.exp(1j * delta_l * np.arctan2(yy, xx))


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


_BLOCK = 64  # columns of the upsampled field, or radii of the rings, per block
_SAMPLE_CHUNK = 16384  # ring samples interpolated at a time
_UPSAMPLED_UP_TO = 2048  # largest n whose spectrum is taken on the grid upsampled by 2


def _upsampled_rows(amps: np.ndarray, factor: int) -> np.ndarray:
    """First pass of band-limited upsampling by spectral zero padding.

    The spectrum is padded in FFT order, zeros going between its positive
    and negative frequencies, and the inverse transform runs one axis at a
    time, as ifft2 does.  Along axis 1 only the n rows that hold the
    spectrum are padded and transformed, a block of rows at a time, since
    the inverse transform of a zero row is zero; each row is stored with
    its column halves swapped.  The result is the compact n x (n * factor)
    array of those rows, and the n x n spectrum is freed on return.  With
    factor 1 the field itself is returned.
    """
    if factor == 1:
        return amps
    n = amps.shape[0]
    size = n * factor
    index = np.arange(n)
    index[n // 2:] += size - n
    spectrum = np.fft.fft2(np.fft.ifftshift(amps))
    rows = np.empty((n, size), dtype=np.complex128)
    step = min(_BLOCK, n // 2)
    padded = np.zeros((step, size), dtype=np.complex128)
    for r in range(0, n, step):
        padded[:, index] = spectrum[r:r + step]
        rows[r:r + step] = np.fft.fftshift(np.fft.ifft(padded, axis=1), axes=1)
    return rows


def _column_block(rows: np.ndarray, factor: int, c: int) -> np.ndarray:
    """Columns c .. c + _BLOCK of the upsampled field, the last of them an
    overlap column shared with the next block (absent at the right edge).

    The block's columns of _upsampled_rows are put back on the n * factor
    rows they hold in the padded array, zeros between, transformed along
    axis 0, scaled and stored with their row halves swapped.  Together the
    swaps are the fftshift, and each 1-D transform is the one a whole-array
    pass makes, so the blocks put side by side are the upsampled field bit
    for bit.  With factor 1 a block is a view of the field's own columns.
    """
    if factor == 1:
        return rows[:, c:c + _BLOCK + 1]
    n, size = rows.shape
    index = np.arange(n)
    index[n // 2:] += size - n
    width = min(_BLOCK + 1, size - c)
    padded = np.zeros((size, width), dtype=np.complex128)
    padded[index] = rows[:, c:c + width]
    t = np.fft.ifft(padded, axis=0)
    t *= factor * factor
    return np.concatenate([t[size // 2:], t[:size // 2]])


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
    are found from one int16 array holding each sample's block.  The rings
    are transformed a block of radii at a time, and only the harmonics
    asked for are kept.  map_coordinates run on each block gives the same
    bits, but at n = 1024 it raises a fresh process's peak RSS by 34 MiB
    against the gather's 9 MiB, and beam-sim's by 12 MB.
    """
    l_values = list(l_values)
    for l in l_values:  # a float or a bool would be truncated to an order
        if isinstance(l, (bool, np.bool_)) or not isinstance(l, (int, np.integer)):
            raise ValueError(f"azimuthal order {l!r} is not an integer")
    l_values = np.asarray(l_values, dtype=int)
    total = field.total_power()
    if total == 0.0:
        raise ValueError("zero-power field")
    n_theta = 1024
    if np.any(np.abs(l_values) >= n_theta // 2):
        raise ValueError(f"|l| must be < {n_theta // 2}")
    up = 2 if field.n <= _UPSAMPLED_UP_TO else 1
    rows = _upsampled_rows(field.amps, up)
    n = field.n * up
    pitch = field.pitch / up
    n_r = n // 2 - 1
    radii = (np.arange(n_r) + 0.5) * pitch
    theta = np.arange(n_theta) * (2.0 * math.pi / n_theta)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    # the column block of each ring sample, in ring-major order
    owner = np.empty((n_r, n_theta), dtype=np.int16)
    for r in range(0, n_r, _BLOCK):
        cols = radii[r:r + _BLOCK, None] * cos_t[None, :] / pitch + n // 2
        owner[r:r + _BLOCK] = np.floor(cols) // _BLOCK
    owner = owner.ravel()
    polar = np.empty(n_r * n_theta, dtype=np.complex128)
    for c in range(0, n, _BLOCK):
        block = _column_block(rows, up, c)
        samples = np.flatnonzero(owner == c // _BLOCK)
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
                    v = block[i + di, j + dj]
                    re += v.real * wy * wx
                    im += v.imag * wy * wx
            polar[k] = re + 1j * im
    del rows, block, owner
    polar = polar.reshape(n_r, n_theta)
    harmonics = l_values % n_theta
    a_l = np.empty((len(l_values), n_r), dtype=np.complex128)  # a_l(r), one row per order
    for r in range(0, n_r, _BLOCK):
        coeffs = np.fft.fft(polar[r:r + _BLOCK], axis=1) / n_theta
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


def _waist_fidelity(n: int, pitch: float, p: int, l: int):
    """fidelity(field, make_lg(..., LGIndex(p, l, w0))) as a function of w0,
    split at the field: bind(field) returns fid(w0).

    The field is projected onto exp(i l phi) and binned by the integer key
    i^2 + j^2 of its pixel offsets once; each waist then costs one sum over
    the distinct keys: the overlap sum(radial * proj) and the reference power
    sum(count * radial^2).  The pixel keys, the count and squared radius of
    each key present and the exp(-i l phi) projection depend only on the
    grid and l; they are built here once, and bind projects and bins each
    field.
    """
    offsets = np.arange(n) - n // 2
    keys = (offsets[:, None] ** 2 + offsets[None, :] ** 2).ravel()
    phase = np.exp(-1j * l * np.arctan2(offsets[:, None], offsets[None, :])) if l != 0 else None
    counts = np.bincount(keys)
    present = np.flatnonzero(counts)
    counts = counts[present].astype(np.float64)  # cast once, not in each dot
    r2 = present * pitch**2

    def bind(field: ScalarField):
        weighted = (field.amps * phase).ravel() if l != 0 else field.amps.ravel()
        proj = (np.bincount(keys, weights=weighted.real)[present]
                + 1j * np.bincount(keys, weights=weighted.imag)[present])
        del weighted
        power = float(np.sum(np.abs(field.amps) ** 2))

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
    callers that export or analyse it; it takes no part in equality or repr.
    """

    fidelity: float
    fidelity_fixed_waist: float
    w0_opt: float
    t_swg: float
    eta: float
    output: ScalarField | None = dataclasses.field(default=None, compare=False, repr=False)


def _scorer(field_in: ScalarField, target: LGIndex, z_eval: float):
    """conversion_metrics split at the mask: score(mask, lam) scores one mask.

    The input power and the radial bins of the waist search are built once.
    score applies the mask to the input's amplitudes at wavelength lam, the
    one propagate reads, and maximizes the fidelity over the waist with
    _brent_min, which returns the fidelity at its optimum along with it.
    """
    p_in = field_in.total_power()
    by_waist = _waist_fidelity(field_in.n, field_in.pitch, target.p, target.l)
    lo = max(0.3 * target.w0, 4.0 * field_in.pitch)

    def score(mask: np.ndarray, lam: float) -> ConversionMetrics:
        out = apply_mask(dataclasses.replace(field_in, lam=lam), mask)
        del mask  # a scan's mask is freed here, before the binning of the waist search
        t_swg = out.total_power() / p_in
        if z_eval != 0.0:
            out = propagate(out, z_eval)
        fid = by_waist(out)
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
    the distinct radii of the grid, not an n x n reference mode.
    """
    return _scorer(field_in, target, z_eval)(mask, field_in.lam)


def _grating_scan(design: swg.SWGDesign, lams: list[float], n: int, pitch: float, w0: float,
                  z_eval: float):
    """Yield grating_metrics at each wavelength of lams, doing the
    wavelength-independent work once (see fidelity_vs_wavelength)."""
    layout = swg.generate_layout(design)
    index = swg.pillar_index(layout, n, pitch)
    target = LGIndex(p=0, l=design.delta_l * design.phase_sign, w0=w0)
    score = _scorer(make_gaussian(n, pitch, lams[0], w0), target, z_eval)
    for lam in lams:
        # no name here holds a wavelength's mask, so it is freed once scored
        yield score(swg.gather_mask(swg.retune_layout(design, layout, lam), index), lam)


def grating_metrics(design: swg.SWGDesign, lam: float, n: int, pitch: float, w0: float,
                    z_eval: float = 0.0) -> ConversionMetrics:
    """Conversion metrics of a pillar-grating design at one wavelength.

    The design's layout is generated, its phases re-tuned to lam through the
    dispersion table and rasterized to a mask on an n x n grid; a unit-power
    Gaussian of waist w0 goes through it and is scored against
    LG_{0, delta_l * phase_sign} at the same waist.  The scored field is
    kept in output.  This is the one-wavelength case of the scan of
    fidelity_vs_wavelength: the layout, the pixel -> pillar index, the
    Gaussian and the radial bins are built once, then the retune, the mask
    gather and the waist search run for lam.
    """
    return next(_grating_scan(design, [lam], n, pitch, w0, z_eval))


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
    layout, the pixel -> pillar index, the Gaussian input and the radial
    bins of the waist search.  Each wavelength costs a retune, a gather of
    the mask, the masked (and propagated) field and its waist search.  Only
    the scores are kept (output is None), so a scan holds one field at a
    time.
    """
    lams = list(lambdas)
    if any(l <= 0.0 for l in lams) or any(b <= a for a, b in zip(lams, lams[1:])):
        raise ValueError("wavelengths must be positive and increasing")
    scan = _grating_scan(design, lams, n, pitch, w0, z_eval)
    # next(scan), not a loop variable, so a wavelength's scored field is
    # dropped before the next one is built
    return [(lam, dataclasses.replace(next(scan), output=None)) for lam in lams]


def save_raster(matrix: np.ndarray, path) -> None:
    """Comma-separated matrix export (one grid row per line), for plotting.

    Each cell is written as repr(float(v)), byte for byte, by
    table.write_table, which formats each distinct magnitude once.
    """
    table.write_table(path, None, np.asarray(matrix).T)
