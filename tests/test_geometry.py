import itertools
import math

import numpy as np
import pytest

from mimoloc.geometry import (SPEED_OF_LIGHT, AntennaLayout, Grid,
                              Position2D, Rect, Scene, TargetTruth,
                              bistatic_delay, grid_delays)
from mimoloc.reference import (COMPLETELY_ISOLATED, EMPTY, ISOLATED, MIXED,
                               PARTIALLY_SEPARABLE, bin_membership,
                               classify_scene, footprint, pair_separable)
from mimoloc.harness import load_scenario

from conftest import config_path

C = SPEED_OF_LIGHT


def pos(x, y):
    return Position2D(float(x), float(y))


class TestBistaticDelay:
    def test_monostatic_345_triangle(self):
        # tx = rx at origin, target on a 3-4-5 triangle: 2 * 5000 m / c
        tau = bistatic_delay(pos(3000, 4000), pos(0, 0), pos(0, 0))
        assert tau == pytest.approx(3.3356409519815205e-05, rel=1e-12)

    def test_degenerate_leg(self):
        # target coincident with the transmitter: only the rx leg remains
        tau = bistatic_delay(pos(0, 0), pos(0, 0), pos(10000, 0))
        assert tau == pytest.approx(10000 / C, rel=1e-12)

    def test_hand_evaluation(self):
        # frozen from an independent two-norm computation
        tau = bistatic_delay(pos(13500, 13500), pos(10000, 10000),
                             pos(20000, 10000))
        oracle = (math.hypot(3500, 3500) + math.hypot(-6500, 3500)) / C
        assert tau == pytest.approx(oracle, rel=1e-14)
        assert tau == pytest.approx(4.113565458148561e-05, rel=1e-12)

    def test_symmetric_in_tx_rx(self, rng):
        for _ in range(50):
            t, a, b = (pos(*rng.uniform(-2e4, 2e4, 2)) for _ in range(3))
            assert bistatic_delay(t, a, b) == bistatic_delay(t, b, a)

    def test_baseline_lower_bound(self, rng):
        tx, rx = pos(-5000, 0), pos(5000, 0)
        base = 10000 / C
        for _ in range(100):
            t = pos(*rng.uniform(-2e4, 2e4, 2))
            assert bistatic_delay(t, tx, rx) >= base - 1e-18
        # equality on the segment between the antennas
        on_seg = bistatic_delay(pos(1234.5, 0), tx, rx)
        assert on_seg == pytest.approx(base, rel=1e-12)
        off_seg = bistatic_delay(pos(1234.5, 50.0), tx, rx)
        assert off_seg > base


class TestPairSeparable:
    def test_identical_delays(self):
        assert pair_separable(1e-5, 1e-5, 1e-6) is False

    def test_two_pulse_widths(self):
        assert pair_separable(1e-5, 1e-5 + 2e-6, 1e-6) is True

    def test_boundary_is_strict(self):
        # gap exactly equal to the pulse width does not separate
        assert pair_separable(0.0, 1e-6, 1e-6) is False

    def test_symmetric_irreflexive(self, rng):
        for _ in range(100):
            a, b = rng.uniform(0, 1e-4, 2)
            tau_c = rng.uniform(1e-7, 1e-5)
            assert pair_separable(a, b, tau_c) == pair_separable(b, a, tau_c)
            assert pair_separable(a, a, tau_c) is False

    def test_requires_positive_pulse(self):
        with pytest.raises(ValueError):
            pair_separable(1e-5, 2e-5, 0.0)


class TestBinMembership:
    # monostatic path from the origin: radius r gives delay 2 r / c, so a
    # target at radius c * tau / 2 lands in the wanted delay bin
    TX = RX = pos(0, 0)
    TAU_C = 1e-6

    def at_delay(self, tau):
        return pos(C * tau / 2, 0)

    def test_identical_location(self):
        theta = self.at_delay(5.5e-6)
        assert bin_membership(theta, theta, self.TX, self.RX, self.TAU_C)

    def test_adjacent_bins(self):
        assert bin_membership(self.at_delay(5.5e-6), self.at_delay(6.2e-6),
                              self.TX, self.RX, self.TAU_C)

    def test_beyond_margin(self):
        assert not bin_membership(self.at_delay(5.5e-6), self.at_delay(8.3e-6),
                                  self.TX, self.RX, self.TAU_C)

    def test_margin_is_symmetric(self):
        a, b = self.at_delay(5.9e-6), self.at_delay(5.1e-6)
        assert bin_membership(a, b, self.TX, self.RX, self.TAU_C)
        assert bin_membership(b, a, self.TX, self.RX, self.TAU_C)


def make_scene(positions, antennas):
    layout = AntennaLayout.transceivers(antennas)
    xs = [p[0] for p in positions] or [0.0]
    ys = [p[1] for p in positions] or [0.0]
    region = Rect(min(xs) - 5000, max(xs) + 5000, min(ys) - 5000,
                  max(ys) + 5000)
    targets = tuple(TargetTruth(pos(*p)) for p in positions)
    return Scene(layout, targets, region)


class TestClassifyScene:
    ANTS = [(0.0, 0.0), (30000.0, 0.0)]

    def test_single_target_is_completely_isolated(self):
        scene = make_scene([(10000, 5000)], self.ANTS)
        rep = classify_scene(scene, 1e-6)
        assert rep.scene_class == COMPLETELY_ISOLATED
        assert rep.target_class == (ISOLATED,)

    def test_empty_scene(self):
        scene = make_scene([], self.ANTS)
        assert classify_scene(scene, 1e-6).scene_class == EMPTY

    def test_coincident_targets_inseparable_everywhere(self):
        scene = make_scene([(10000, 5000), (10000, 5000)], self.ANTS)
        rep = classify_scene(scene, 1e-6)
        assert not rep.per_pair_per_path[0, 1].any()
        assert rep.scene_class == MIXED
        assert rep.target_class == (PARTIALLY_SEPARABLE, PARTIALLY_SEPARABLE)

    def test_report_symmetry(self):
        scene = make_scene([(10000, 5000), (11000, 5800), (9000, 9000)],
                           self.ANTS)
        rep = classify_scene(scene, 1e-6)
        assert np.array_equal(rep.per_pair_per_path[0, 1],
                              rep.per_pair_per_path[1, 0])

    def test_scenario_a_completely_isolated(self):
        cfg = load_scenario(config_path("scenario_a.cfg"))
        scene = make_scene(
            [(p.x, p.y) for p in cfg.target_positions],
            [(a.x, a.y) for a in cfg.layout.tx])
        assert classify_scene(scene, cfg.pulse_width).scene_class \
            == COMPLETELY_ISOLATED

    def test_scenario_b_partial_separability(self):
        # targets 1 and 3 share range bins on at least one path
        cfg = load_scenario(config_path("scenario_b.cfg"))
        scene = make_scene(
            [(p.x, p.y) for p in cfg.target_positions],
            [(a.x, a.y) for a in cfg.layout.tx])
        rep = classify_scene(scene, cfg.pulse_width)
        assert rep.scene_class == MIXED
        assert rep.target_class[0] == PARTIALLY_SEPARABLE
        assert rep.target_class[2] == PARTIALLY_SEPARABLE
        assert rep.target_class[1] == ISOLATED
        assert (~rep.per_pair_per_path[0, 2]).sum() >= 1

    def test_isolated_scene_bins_gap(self):
        # completely isolated implies true-position bins differ on every path
        cfg = load_scenario(config_path("scenario_a.cfg"))
        layout = cfg.layout
        tau_c = cfg.pulse_width
        for g, j in itertools.combinations(range(3), 2):
            for _, l, k in layout.paths():
                bg = math.floor(bistatic_delay(cfg.target_positions[g],
                                               layout.tx[k], layout.rx[l])
                                / tau_c)
                bj = math.floor(bistatic_delay(cfg.target_positions[j],
                                               layout.tx[k], layout.rx[l])
                                / tau_c)
                assert abs(bg - bj) >= 1


class TestFootprint:
    def test_monostatic_annulus_matches_loop_oracle(self):
        layout = AntennaLayout(tx=(pos(0, 0),), rx=(pos(0, 0),))
        grid = Grid(Rect(1000, 9000, 1000, 9000), 400.0)
        tau_c = 3e-6
        theta_hat = grid.cell_center(37)
        per_path, union = footprint(theta_hat, grid, layout, tau_c)
        # independent oracle: per-cell membership test
        for c in range(grid.n_cells):
            expect = bin_membership(grid.cell_center(c), theta_hat,
                                    pos(0, 0), pos(0, 0), tau_c)
            assert per_path[0, c] == expect
        assert np.array_equal(union, per_path[0])
        # an annulus: nonempty, not everything
        assert 0 < union.sum() < grid.n_cells

    def test_self_membership_every_path(self, small, rng):
        for _ in range(10):
            cell = int(rng.integers(small.grid.n_cells))
            theta_hat = small.grid.cell_center(cell)
            per_path, union = footprint(theta_hat, small.grid, small.layout,
                                        small.waveforms.tau_c)
            assert per_path[:, cell].all()
            assert union[cell]

    def test_shared_bin_covers_second_target(self):
        # 2x2 layout where both targets are equidistant from antenna B:
        # the B-B monostatic footprint of target 1 contains target 2's cell
        a, b = pos(0, 0), pos(10000, 0)
        layout = AntennaLayout(tx=(a, b), rx=(a, b))
        grid = Grid(Rect(1000, 11000, 1000, 11000), 250.0)
        t1 = pos(3000, 4000)
        r1 = math.hypot(3000 - 10000, 4000)
        # place t2 on the same circle around B, well away from t1
        t2 = pos(10000 - r1 * math.cos(1.1), r1 * math.sin(1.1))
        tau_c = 1e-6
        path_bb = 1 * 2 + 1  # l = 1 (rx B), k = 1 (tx B)
        assert bin_membership(t2, t1, b, b, tau_c)
        per_path, union = footprint(t1, grid, layout, tau_c)
        assert per_path[path_bb, grid.nearest_cell(t2)]
        # and the AA path separates them
        assert not bin_membership(t2, t1, a, a, tau_c)

    def test_grid_delays_match_scalar(self, small):
        delays = grid_delays(small.grid, small.layout)
        for p, l, k in small.layout.paths():
            for c in (0, 17, 100):
                expect = bistatic_delay(small.grid.cell_center(c),
                                        small.layout.tx[k],
                                        small.layout.rx[l])
                assert delays[p, c] == pytest.approx(expect, rel=1e-14)


class TestTypes:
    def test_grid_must_tile_region(self):
        with pytest.raises(ValueError):
            Grid(Rect(0, 1000, 0, 1000), 300.0)

    def test_grid_row_major_centers(self):
        grid = Grid(Rect(0, 1000, 0, 500), 250.0)
        assert (grid.nx, grid.ny) == (4, 2)
        c = grid.cell_center(5)  # iy = 1, ix = 1
        assert (c.x, c.y) == (375.0, 375.0)

    def test_target_outside_region_rejected(self):
        layout = AntennaLayout.transceivers([(0, 0), (1000, 0)])
        with pytest.raises(ValueError):
            Scene(layout, (TargetTruth(pos(5000, 5000)),),
                  Rect(0, 1000, 0, 1000))

    def test_duplicate_antennas_rejected(self):
        with pytest.raises(ValueError):
            AntennaLayout.transceivers([(0, 0), (0, 0)])

    def test_nonfinite_position_rejected(self):
        with pytest.raises(ValueError):
            Position2D(float("nan"), 0.0)
