import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from memory import traced_peak
from oamsense import beams, swg
from oracles import (
    export_layout_per_row,
    load_layout,
    pillar_index_meshgrid,
    staircase_vortex_mask,
)

TWO_PI = 2.0 * math.pi


class TestLookup:
    def test_default_ramp_endpoints(self):
        lookup = swg.default_lookup(840e-9)
        phases, amps = lookup.phase_amp_at(840e-9)
        assert phases[0] == 0.0
        assert phases[-1] == pytest.approx(TWO_PI * 10.0 / 11.0, rel=1e-12)
        assert np.allclose(amps, math.sqrt(0.92))

    def test_out_of_range_wavelength(self):
        lookup = swg.default_lookup(840e-9)
        with pytest.raises(ValueError, match="outside lookup range"):
            lookup.phase_amp_at(650e-9)
        with pytest.raises(ValueError, match="design wavelength"):
            swg.default_lookup(1200e-9)

    def test_dispersion_direction(self):
        lookup = swg.default_lookup(840e-9)
        span_short = np.ptp(lookup.phase_amp_at(720e-9)[0])
        span_long = np.ptp(lookup.phase_amp_at(960e-9)[0])
        assert span_short > TWO_PI * 10.0 / 11.0 > span_long


class TestDesign:
    def test_defaults_valid(self):
        design = swg.SWGDesign()
        assert design.aperture_d == 20e-6
        assert design.lattice_a == 360e-9
        assert len(design.diameters) == 11

    def test_diameter_constraints(self):
        with pytest.raises(ValueError, match="increasing"):
            swg.SWGDesign(diameters=(110.0, 110.0, 130.0))
        with pytest.raises(ValueError, match="lattice"):
            swg.SWGDesign(diameters=(110.0, 400.0))

    def test_insufficient_phase_span_rejected(self):
        bad = swg.SWGLookup(
            wavelengths=(700e-9, 1000e-9),
            phases=(tuple(np.linspace(0.0, 2.0, 11)),) * 2,
            amplitudes=((1.0,) * 11,) * 2,
        )
        with pytest.raises(ValueError, match="span"):
            swg.SWGDesign(lookup=bad)


class TestLayout:
    def test_site_count_matches_area_density(self):
        design = swg.SWGDesign()
        layout = swg.generate_layout(design)
        estimate = math.pi * (design.aperture_d / 2.0) ** 2 / (
            (math.sqrt(3.0) / 2.0) * design.lattice_a**2
        )
        assert abs(len(layout) - estimate) / estimate < 0.02

    def test_zero_shift_single_diameter(self):
        layout = swg.generate_layout(swg.SWGDesign(delta_l=0))
        assert {s.diameter for s in layout} == {110.0}

    def test_ring_walk_visits_all_diameters_in_order(self):
        design = swg.SWGDesign(delta_l=1)
        layout = swg.generate_layout(design)
        ring = [s for s in layout if 4.8e-6 <= math.hypot(s.x, s.y) <= 5.2e-6]
        ring.sort(key=lambda s: math.atan2(s.y, s.x))
        seq = [s.diameter for s in ring]
        dedup = [seq[0]]
        for d in seq[1:]:
            if d != dedup[-1]:
                dedup.append(d)
        if dedup[0] == dedup[-1]:
            dedup.pop()
        assert len(dedup) == 11
        diams = sorted(set(s.diameter for s in layout))
        idx = [diams.index(d) for d in dedup]
        start = idx.index(0)
        assert idx[start:] + idx[:start] == list(range(11))

    def test_quantized_phase_error_bounded(self):
        for delta_l in (1, 3, 10):
            layout = swg.generate_layout(swg.SWGDesign(delta_l=delta_l))
            worst = 0.0
            for s in layout:
                target = (delta_l * math.atan2(s.y, s.x)) % TWO_PI
                err = abs(s.phase - target) % TWO_PI
                worst = max(worst, min(err, TWO_PI - err))
            assert worst <= math.pi / 11.0 + 1e-9

    def test_sixfold_symmetry_of_lattice(self):
        layout = swg.generate_layout(swg.SWGDesign(delta_l=0))
        pos = np.array([(s.x, s.y) for s in layout])
        c, s60 = math.cos(math.pi / 3.0), math.sin(math.pi / 3.0)
        rotated = pos @ np.array([[c, s60], [-s60, c]])
        key = lambda arr: {(round(x * 1e12), round(y * 1e12)) for x, y in arr}
        assert key(pos) == key(rotated)

    def test_raster_order(self):
        layout = swg.generate_layout(swg.SWGDesign())
        keys = [(s.y, s.x) for s in layout]
        assert keys == sorted(keys)

    def test_phase_sign_flips_target(self):
        plus = swg.generate_layout(swg.SWGDesign(delta_l=1, phase_sign=1))
        minus = swg.generate_layout(swg.SWGDesign(delta_l=1, phase_sign=-1))
        site_p = max(plus, key=lambda s: s.y)
        site_m = next(s for s in minus if s.x == site_p.x and s.y == site_p.y)
        expected = (-math.atan2(site_p.y, site_p.x)) % TWO_PI
        err = abs(site_m.phase - expected) % TWO_PI
        assert min(err, TWO_PI - err) <= math.pi / 11.0 + 1e-9

    @pytest.mark.parametrize("phase_sign", [1, -1])
    @pytest.mark.parametrize("delta_l", [1, 2, 3])
    def test_layout_independent_of_design_wavelength(self, delta_l, phase_sign):
        # the bundled lookup puts the same levels at every design wavelength,
        # so the wavelength swg-gen designs at moves no pillar
        def layout_bytes(design_lambda):
            design = swg.SWGDesign(delta_l=delta_l, design_lambda=design_lambda,
                                   phase_sign=phase_sign)
            return swg.generate_layout(design).tobytes()

        reference = layout_bytes(840e-9)
        for design_lambda in np.linspace(700e-9, 1000e-9, 37):
            assert layout_bytes(float(design_lambda)) == reference


class TestMask:
    def test_constant_phase_disk_for_zero_shift(self):
        layout = swg.generate_layout(swg.SWGDesign(delta_l=0))
        mask = swg.layout_to_mask(layout, 512, 80e-9)
        inside = np.abs(mask) > 0.0
        assert np.allclose(np.angle(mask[inside]), 0.0, atol=1e-12)
        field_in = beams.make_gaussian(512, 80e-9, 840e-9, 2.5e-6)
        metrics = beams.conversion_metrics(field_in, mask, beams.LGIndex(0, 0, 2.5e-6))
        assert metrics.fidelity >= 0.99

    def test_resolution_guard(self):
        layout = swg.generate_layout(swg.SWGDesign())
        with pytest.raises(ValueError, match="lattice/4"):
            swg.layout_to_mask(layout, 128, 120e-9)

    def test_mask_is_gather_through_pillar_index(self):
        # the index depends on pillar positions only, so the one built from
        # the design-wavelength layout rasterizes every retune of it
        design = swg.SWGDesign(delta_l=2, phase_sign=-1)
        layout = swg.generate_layout(design)
        index = swg.pillar_index(layout, 256, 80e-9)
        for lam in (700e-9, 777e-9, 905e-9, 1000e-9):
            retuned = swg.retune_layout(design, layout, lam)
            retuned_index = swg.pillar_index(retuned, 256, 80e-9)
            assert all(np.array_equal(a, b) for a, b in zip(index, retuned_index))
            mask = swg.layout_to_mask(retuned, 256, 80e-9)
            assert mask.tobytes() == swg.gather_mask(retuned, index).tobytes()

    @staticmethod
    def _assert_index_is_oracle(layout, n, pitch):
        inside, nearest = swg.pillar_index(layout, n, pitch)
        expected_inside, expected_nearest = pillar_index_meshgrid(layout, n, pitch)
        assert inside.dtype == expected_inside.dtype
        assert np.array_equal(inside, expected_inside)
        assert nearest.dtype == expected_nearest.dtype
        assert np.array_equal(nearest, expected_nearest)

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([32, 64, 128, 256, 512]), pitch_frac=st.floats(0.05, 0.24),
           aperture_lattices=st.floats(2.0, 80.0), delta_l=st.integers(0, 3),
           lattice=st.one_of(st.just(360e-9), st.floats(320e-9, 1000e-9)),
           shuffle=st.randoms(use_true_random=False) | st.none())
    def test_pillar_index_matches_meshgrid_oracle(self, n, pitch_frac, aperture_lattices,
                                                  delta_l, lattice, shuffle):
        # footprints inside the grid and clipped by it, from three pillars
        # up; the lattice decides most pixels and cKDTree the rest
        design = swg.SWGDesign(aperture_d=aperture_lattices * lattice, lattice_a=lattice,
                               delta_l=delta_l)
        layout = swg.generate_layout(design)
        if shuffle is not None:
            layout = layout[shuffle.sample(range(len(layout)), len(layout))]
        self._assert_index_is_oracle(layout, n, pitch_frac * lattice)

    @pytest.mark.parametrize("n, pitch", [(512, 80e-9), (1024, 50e-9)])
    @pytest.mark.parametrize("order", ["raster", "shuffled", "repeated"])
    def test_default_design_index_is_oracle(self, n, pitch, order):
        # the two grids the benchmark scores, where 3.1% and 1.4% of the
        # footprint pixels tie between two pillars; a site that holds two
        # pillars is left to the tree
        layout = swg.generate_layout(swg.SWGDesign())
        if order == "shuffled":
            layout = layout[np.random.default_rng(7).permutation(len(layout))]
        elif order == "repeated":
            layout = np.concatenate([layout, layout[:50]]).view(np.recarray)
        self._assert_index_is_oracle(layout, n, pitch)

    @pytest.mark.parametrize("pillar", [0, 1000, "middle", -1])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_pillar_off_the_lattice_raises(self, pillar, axis):
        layout = swg.generate_layout(swg.SWGDesign())
        k = len(layout) // 2 if pillar == "middle" else pillar
        layout[axis][k] += 0.1 * swg.SWGDesign.lattice_a
        with pytest.raises(ValueError, match="not on one hexagonal lattice"):
            swg.pillar_index(layout, 256, 80e-9)

    def test_two_pillars_index_and_one_raises(self):
        # an aperture of exactly two lattice constants holds the centre
        # pillar and its neighbours; a smaller one holds the centre alone
        a = swg.SWGDesign.lattice_a
        layout = swg.generate_layout(swg.SWGDesign(aperture_d=2.0 * a))
        assert len(layout) >= 3
        self._assert_index_is_oracle(layout, 64, 80e-9)
        single = swg.generate_layout(swg.SWGDesign(aperture_d=np.nextafter(2.0 * a, 0.0)))
        assert len(single) == 1
        with pytest.raises(ValueError, match="layout of one pillar"):
            swg.pillar_index(single, 64, 80e-9)

    def test_pillar_index_traced_peak_below_whole_grid_index(self):
        # built a block of rows at a time (4.9 MiB): a whole-grid sum of
        # squares and a whole-footprint tree query trace 9.1 MiB here, and
        # the lattice arithmetic on the whole footprint at once 20.3 MiB
        layout = swg.generate_layout(swg.SWGDesign())
        swg.pillar_index(layout, 64, 80e-9)  # imports scipy.spatial untraced
        peak, (inside, _) = traced_peak(swg.pillar_index, layout, 1024, 50e-9)
        assert inside.shape == (1024, 1024)
        assert peak <= 9.1 * 2**20

    def test_pillar_index_checks_match_mask(self):
        layout = swg.generate_layout(swg.SWGDesign())

        def message(fn, *args):
            with pytest.raises(ValueError) as info:
                fn(*args)
            return str(info.value)

        for args, expected in (((layout[:0], 64, 80e-9), "empty layout"),
                               ((layout[:1], 64, 80e-9), "layout of one pillar"),
                               ((layout, 128, 120e-9), "pitch 1.2e-07 too coarse")):
            text = message(swg.pillar_index, *args)
            assert text == message(swg.layout_to_mask, *args)
            assert text.startswith(expected)

    def test_masked_gaussian_azimuthal_purity(self):
        layout = swg.generate_layout(swg.SWGDesign(delta_l=1))
        mask = swg.layout_to_mask(layout, 512, 80e-9)
        field_in = beams.make_gaussian(512, 80e-9, 840e-9, 5e-6)
        out = beams.apply_mask(field_in, mask)
        frac_layout = beams.azimuthal_spectrum(out, [1])[0]
        assert frac_layout >= 0.95
        # agreement with the ideal 11-level staircase within 2 percent
        stair = beams.apply_mask(
            beams.apply_mask(field_in, np.abs(mask)),  # same aperture/amplitude
            staircase_vortex_mask(512, 80e-9, 1, 11),
        )
        frac_stair = beams.azimuthal_spectrum(stair, [1])[0]
        assert frac_layout == pytest.approx(frac_stair, rel=0.02)

    def test_uniform_amplitude_transmission(self):
        layout = swg.generate_layout(swg.SWGDesign(delta_l=1))
        mask = swg.layout_to_mask(layout, 512, 80e-9)
        field_in = beams.make_gaussian(512, 80e-9, 840e-9, 5e-6)
        out = beams.apply_mask(field_in, mask)
        # pixel-sum oracle for the aperture clip factor
        covered = np.abs(mask) > 0.0
        clip = float(np.sum(np.abs(field_in.amps[covered]) ** 2)
                     / np.sum(np.abs(field_in.amps) ** 2))
        assert out.total_power() / field_in.total_power() == pytest.approx(
            0.92 * clip, rel=1e-9)

    def test_lookup_seam(self):
        # swapping the lookup re-labels phases but not geometry
        design = swg.SWGDesign()
        layout = swg.generate_layout(design)
        retuned = swg.retune_layout(design, layout, 760e-9)
        assert [(s.x, s.y, s.diameter) for s in retuned] == [
            (s.x, s.y, s.diameter) for s in layout]
        phases_760, _ = design.lookup.phase_amp_at(760e-9)
        diams = list(design.diameters)
        for s in retuned[:50]:
            assert s.phase == pytest.approx(phases_760[diams.index(s.diameter)])

    def test_retune_at_design_wavelength_is_identity(self):
        design = swg.SWGDesign()
        layout = swg.generate_layout(design)
        retuned = swg.retune_layout(design, layout, design.design_lambda)
        assert retuned.tobytes() == layout.tobytes()
        assert np.array_equal(swg.layout_to_mask(retuned, 256, 80e-9),
                              swg.layout_to_mask(layout, 256, 80e-9))

    def test_retune_unknown_diameter_named(self):
        design = swg.SWGDesign()
        layout = swg.generate_layout(design)
        layout.diameter[7] = 115.0
        with pytest.raises(ValueError, match="115.0"):
            swg.retune_layout(design, layout, 760e-9)


class TestExport:
    def test_round_trip_identical(self, tmp_path):
        layout = swg.generate_layout(swg.SWGDesign())
        path = tmp_path / "layout.csv"
        swg.export_layout(layout, path)
        again = load_layout(path)
        assert np.array_equal(again, layout)

    def test_row_count_and_order(self, tmp_path):
        layout = swg.generate_layout(swg.SWGDesign())
        path = tmp_path / "layout.csv"
        swg.export_layout(layout, path)
        lines = path.read_text().splitlines()
        assert lines[0] == swg.LAYOUT_HEADER
        assert len(lines) == len(layout) + 1
        ys = [float(line.split(",")[1]) for line in lines[1:]]
        assert ys == sorted(ys)

    @settings(max_examples=30, deadline=None)
    @given(
        aperture=st.floats(0.3e-6, 8e-6),
        delta_l=st.integers(0, 4),
        phase_sign=st.sampled_from([-1, 1]),
    )
    def test_round_trip_generated_layouts(self, aperture, delta_l, phase_sign):
        design = swg.SWGDesign(aperture_d=aperture, delta_l=delta_l, phase_sign=phase_sign)
        layout = swg.generate_layout(design)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "layout.csv"
            swg.export_layout(layout, path)
            again = load_layout(path)
        assert again.dtype == swg.LAYOUT_DTYPE
        assert np.array_equal(again, layout)

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(swg.LAYOUT_DTYPE, st.integers(0, 12), elements=st.tuples(
        *[st.floats() | st.sampled_from([-0.0, 0.0, 5e-324, 1.0])] * 5)))
    def test_export_matches_per_row_oracle(self, records):
        layout = records.view(np.recarray)
        with tempfile.TemporaryDirectory() as tmp:
            fast, slow = Path(tmp) / "fast.csv", Path(tmp) / "slow.csv"
            swg.export_layout(layout, fast)
            export_layout_per_row(layout, slow)
            assert fast.read_bytes() == slow.read_bytes()

    def test_shuffled_layout_exports_in_raster_order(self, tmp_path):
        layout = swg.generate_layout(swg.SWGDesign())
        shuffled = layout[np.random.default_rng(3).permutation(len(layout))]
        swg.export_layout(layout, tmp_path / "ordered.csv")
        swg.export_layout(shuffled, tmp_path / "shuffled.csv")
        assert (tmp_path / "shuffled.csv").read_bytes() == \
            (tmp_path / "ordered.csv").read_bytes()
