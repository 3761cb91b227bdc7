"""Pillar-grating layout for transmissive OAM conversion.

A circular aperture is filled with a hexagonal lattice of high-index pillars.
The pillar diameter sets the local transmission phase (through the effective
refractive index), so stepping the diameter with azimuth imprints a spiral
phase exp(i delta_l phi) on a transmitted beam.  The diameter -> (phase,
amplitude) relation is a replaceable lookup table; the bundled default is a
linear 11-level ramp spanning [0, 2 pi * 10/11] at the design wavelength with
a uniform amplitude matching a 0.92 power transmission.

A layout is a NumPy record array of LAYOUT_DTYPE, one record per pillar with
the fields x, y (m), diameter (nm), phase (rad) and amplitude.  Columns read
as layout.diameter and single pillars as layout[k].diameter; every layout
function works on whole columns.

A layout is rasterized in two steps.  pillar_index finds each grid pixel's
nearest pillar from the positions alone; gather_mask fills a mask from the
layout's phases and amplitudes through that index.  Re-tuning to another
wavelength changes only the phases and amplitudes, so a wavelength scan
builds the index once.

Layout generation is pure and deterministic: one lattice vector points along
+x, a pillar sits at the origin, and sites are emitted in (y, x) raster
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import table

TWO_PI = 2.0 * math.pi

DEFAULT_DIAMETERS = tuple(float(d) for d in range(110, 211, 10))  # nm, 11 steps
DEFAULT_T_SWG = 0.92
LOOKUP_LAMBDA_RANGE = (700e-9, 1000e-9)

LAYOUT_HEADER = "x_m,y_m,diameter_nm,phase_rad,amplitude"


@dataclass(frozen=True)
class SWGLookup:
    """Tabulated per-diameter transmission phase and amplitude vs wavelength."""

    wavelengths: tuple[float, ...]
    phases: tuple[tuple[float, ...], ...]      # [wavelength][diameter], rad
    amplitudes: tuple[tuple[float, ...], ...]  # [wavelength][diameter], in [0, 1]

    def phase_amp_at(self, lam: float) -> tuple[np.ndarray, np.ndarray]:
        """Linear interpolation of the table at wavelength lam (m)."""
        w = np.asarray(self.wavelengths)
        if not w[0] <= lam <= w[-1]:
            raise ValueError(
                f"wavelength {lam} outside lookup range [{w[0]}, {w[-1]}] m"
            )
        phases = np.asarray(self.phases)
        amps = np.asarray(self.amplitudes)
        out_p = np.array([np.interp(lam, w, phases[:, j]) for j in range(phases.shape[1])])
        out_a = np.array([np.interp(lam, w, amps[:, j]) for j in range(amps.shape[1])])
        return out_p, out_a


def default_lookup(design_lambda: float = 840e-9, n_diameters: int = 11) -> SWGLookup:
    """Effective-medium stand-in table over 700-1000 nm.

    At the design wavelength the phases ramp linearly over the diameters,
    spanning exactly [0, 2 pi (1 - 1/n)] (endpoint-exclusive full circle);
    the amplitude is uniform sqrt(0.92).  The ramp span disperses linearly
    with wavelength, span(lam) = span0 * (2 - lam / design_lambda), so the
    levels at the design wavelength, and generate_layout's layouts, are the
    same for every design_lambda.
    """
    lo, hi = LOOKUP_LAMBDA_RANGE
    if not lo <= design_lambda <= hi:
        raise ValueError(f"design wavelength must lie in [{lo}, {hi}] m")
    span0 = TWO_PI * (n_diameters - 1) / n_diameters
    amp = math.sqrt(DEFAULT_T_SWG)
    wavelengths = [lo + 20e-9 * k for k in range(16)]  # 700..1000 nm step 20
    if design_lambda not in wavelengths:
        wavelengths = sorted(wavelengths + [design_lambda])
    phases = []
    amplitudes = []
    for lam in wavelengths:
        span = span0 * (2.0 - lam / design_lambda)
        phases.append(tuple(np.linspace(0.0, span, n_diameters)))
        amplitudes.append((amp,) * n_diameters)
    return SWGLookup(
        wavelengths=tuple(wavelengths),
        phases=tuple(phases),
        amplitudes=tuple(amplitudes),
    )


@dataclass(frozen=True)
class SWGDesign:
    """Grating design: aperture diameter, lattice constant, the available
    diameters, the target OAM shift and the lookup table.

    phase_sign flips the direction in which phase grows with diameter,
    turning a +delta_l design into -delta_l.
    """

    aperture_d: float = 20e-6
    lattice_a: float = 360e-9
    diameters: tuple[float, ...] = DEFAULT_DIAMETERS  # nanometres (file unit)
    delta_l: int = 1
    design_lambda: float = 840e-9
    lookup: SWGLookup = field(default=None)  # type: ignore[assignment]
    phase_sign: int = 1

    def __post_init__(self) -> None:
        if self.lookup is None:
            object.__setattr__(
                self, "lookup", default_lookup(self.design_lambda, len(self.diameters))
            )
        if not (self.aperture_d > 0.0 and self.lattice_a > 0.0):
            raise ValueError("aperture_d and lattice_a must be > 0")
        d = np.asarray(self.diameters)
        if np.any(np.diff(d) <= 0.0):
            raise ValueError("diameters must be strictly increasing")
        if np.any(d * 1e-9 >= self.lattice_a):
            raise ValueError("every diameter must be smaller than the lattice constant")
        if self.phase_sign not in (-1, 1):
            raise ValueError("phase_sign must be +1 or -1")
        phases, _ = self.lookup.phase_amp_at(self.design_lambda)
        if len(phases) != len(self.diameters):
            raise ValueError("lookup must tabulate one entry per diameter")
        span = float(np.max(phases) - np.min(phases))
        min_span = TWO_PI * (1.0 - 1.0 / len(phases))
        if span < min_span - 1e-9:
            raise ValueError(
                f"lookup phase span {span:.3f} rad below required {min_span:.3f} rad"
            )


#: One record per pillar: position (m), diameter (nm), and the transmission
#: phase (rad) and amplitude at the wavelength the layout was evaluated for.
LAYOUT_DTYPE = np.dtype(
    [(name, np.float64) for name in ("x", "y", "diameter", "phase", "amplitude")]
)


def _nearest_level(targets: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Index of the circularly nearest phase level for each target phase."""
    diff = np.abs(targets[:, None] - levels[None, :]) % TWO_PI
    diff = np.minimum(diff, TWO_PI - diff)
    return np.argmin(diff, axis=1)


def generate_layout(design: SWGDesign) -> np.recarray:
    """Hexagonal lattice clipped to the aperture, one LAYOUT_DTYPE record per pillar.

    Each site's target phase wrap(phase_sign * delta_l * azimuth) is
    quantized to the circularly nearest lookup level (error <= pi/n_levels);
    the pillar diameter and amplitude follow from that level.  Sites whose
    centres fall inside the aperture are kept, ordered by (y, x).
    """
    a = design.lattice_a
    radius = design.aperture_d / 2.0
    # row spacing is a sqrt(3)/2, and the skewed coordinate i + j/2 must span
    # the full disk on every row, so both index windows are widened
    mi = int(radius / a) + 2
    mj = int(radius / (a * math.sqrt(3.0) / 2.0)) + 2
    span = mi + (mj + 1) // 2 + 1
    jj, ii = np.meshgrid(np.arange(-mj, mj + 1), np.arange(-span, span + 1), indexing="ij")
    # lattice vectors a1 = a (1, 0), a2 = a (1/2, sqrt(3)/2)
    xs = a * (ii + 0.5 * jj).ravel()
    ys = a * (math.sqrt(3.0) / 2.0) * jj.ravel()
    inside = xs**2 + ys**2 <= radius**2
    xs, ys = xs[inside], ys[inside]

    phases, amps = design.lookup.phase_amp_at(design.design_lambda)
    levels = np.mod(phases, TWO_PI)
    target = np.mod(design.phase_sign * design.delta_l * np.arctan2(ys, xs), TWO_PI)
    idx = _nearest_level(target, levels)

    order = np.lexsort((xs, ys))
    idx = idx[order]
    diameters = np.asarray(design.diameters)
    return np.rec.fromarrays(
        [xs[order], ys[order], diameters[idx], phases[idx], amps[idx]], dtype=LAYOUT_DTYPE
    )


def retune_layout(design: SWGDesign, layout: np.recarray, lam: float) -> np.recarray:
    """Copy of the layout with phase/amplitude re-evaluated at another wavelength.

    Pillar positions and diameters are fabrication-fixed; only the lookup
    values change.  Swapping in a measured lookup table changes nothing else.
    Every diameter must be one of design.diameters exactly.
    """
    phases, amps = design.lookup.phase_amp_at(lam)
    diameters = np.asarray(design.diameters)
    j = np.minimum(np.searchsorted(diameters, layout.diameter), len(diameters) - 1)
    unknown = diameters[j] != layout.diameter
    if np.any(unknown):
        raise ValueError(
            f"layout diameter {float(layout.diameter[unknown][0])!r} nm is not "
            f"one of the design diameters {design.diameters}"
        )
    out = layout.copy()
    out.phase = phases[j]
    out.amplitude = amps[j]
    return out


def pillar_index(layout: np.recarray, n: int, pitch: float) -> tuple[np.ndarray, np.ndarray]:
    """Which pillar each pixel of an n x n grid takes, for gather_mask.

    Returns (inside, nearest): the n x n boolean footprint of the pattern
    and, for its pixels in row-major order, the index of the nearest pillar.
    Only pillar positions enter, so one index serves a layout and every
    retune_layout of it.  The grid must resolve the lattice:
    pitch <= lattice/4.

    scipy.spatial stays, though its import costs about 37 MB of RSS and
    0.4 s per beam-sim run: many pixels lie exactly as far from two
    pillars (1.4% of the footprint at n = 1024 and 50 nm, 3.1% at n = 512
    and 80 nm), and cKDTree's traversal order decides those ties.  A numpy
    nearest-pillar search matched it on every other pixel but on only
    40-60% of the ties, so replacing it changes the masks and needs a tie
    rule of its own.
    """
    from scipy.spatial import cKDTree

    if len(layout) == 0:
        raise ValueError("empty layout")
    pos = np.column_stack([layout.x, layout.y])
    tree = cKDTree(pos)
    # lattice constant recovered from the nearest-neighbour spacing
    dists, _ = tree.query(pos[len(pos) // 2], k=2)
    lattice = float(dists[1])
    if pitch > lattice / 4.0:
        raise ValueError(
            f"pitch {pitch} too coarse: must be <= lattice/4 = {lattice / 4.0}"
        )
    x = (np.arange(n) - n // 2) * pitch
    xx, yy = np.meshgrid(x, x, indexing="xy")
    r_sites = np.sqrt(np.sum(pos**2, axis=1))
    footprint = float(np.max(r_sites)) + lattice / 2.0
    inside = (xx**2 + yy**2) <= footprint**2
    _, nearest = tree.query(np.column_stack([xx[inside], yy[inside]]), k=1)
    return inside, nearest


def gather_mask(layout: np.recarray, index: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Complex transmission mask: each footprint pixel of a pillar_index takes
    its pillar's amplitude * exp(i phase); pixels outside are zero.

    The index must come from this layout's positions (or those of the layout
    it was re-tuned from).
    """
    inside, nearest = index
    mask = np.zeros(inside.shape, dtype=np.complex128)
    values = layout.amplitude * np.exp(1j * layout.phase)
    mask[inside] = values[nearest]
    return mask


def layout_to_mask(layout: np.recarray, n: int, pitch: float) -> np.ndarray:
    """Rasterize a layout to a complex transmission mask for the beam engine.

    Every grid pixel inside the pattern footprint takes the phase and
    amplitude of its nearest pillar (piecewise-constant cells); pixels
    outside are zero.  The grid must resolve the lattice: pitch <= lattice/4.
    The mask holds the layout's phases as they are; re-tune the layout first
    for another wavelength.
    """
    return gather_mask(layout, pillar_index(layout, n, pitch))


def export_layout(layout: np.recarray, path) -> None:
    """CSV dump in (y, x) raster order: x_m,y_m,diameter_nm,phase_rad,amplitude."""
    ordered = layout[np.lexsort((layout.x, layout.y))]
    table.write_table(path, LAYOUT_HEADER, [ordered[name] for name in LAYOUT_DTYPE.names])


def expected_site_count(design: SWGDesign) -> float:
    """Area-density estimate: aperture area over the hexagonal cell area."""
    radius = design.aperture_d / 2.0
    cell = (math.sqrt(3.0) / 2.0) * design.lattice_a**2
    return math.pi * radius**2 / cell
