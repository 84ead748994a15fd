"""Shared small-scale fixtures.

The compact setup keeps every unit test fast: a 2x2 transceiver layout
around a 6x6 km region, 12x12 grid of 500 m cells, and a pulse whose
range bin is 1.5 cells, which is the same bin/cell ratio as the shipped
scenarios.
"""
import os

import numpy as np
import pytest

from mimoloc.geometry import AntennaLayout, Grid, Position2D, Rect, Scene, TargetTruth
from mimoloc.likelihood import ReplicaCache
from mimoloc.signal import NoiseModel, build_waveform_set

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def config_path(name: str) -> str:
    return os.path.join(CONFIG_DIR, name)


def pack(observations, cache):
    """A new segment matrix (cache.segment_slices) holding whitened
    whole-window PathObservations, one per path in path order: the input
    objective_field and joint_search take.  They overwrite it, so every
    call makes a fresh one."""
    segments = np.zeros((len(cache.segment), cache.nfft), dtype=complex)
    assert [o.path for o in observations] == list(range(len(segments)))
    for o, (row, window), out in zip(observations, cache.segment_slices,
                                     segments):
        assert o.whitened
        out[row] = o.r[window]
    return segments


class SmallSetup:
    def __init__(self):
        self.layout = AntennaLayout.transceivers(
            [(-1000.0, -1000.0), (13000.0, -2000.0),
             (-2000.0, 13000.0), (14000.0, 14000.0)])
        self.region = Rect(0.0, 12000.0, 0.0, 12000.0)
        self.grid = Grid(self.region, 200.0)
        # tau_c = 1 us -> 300 m bistatic bin, 1.5 cells; Ts = tau_c / 64
        self.waveforms = build_waveform_set(4, 1.4e-4, 8961, 1.0e-6)
        self.noise = NoiseModel(sigma_sq=1.0)
        self.cache = ReplicaCache(self.waveforms, self.layout, self.grid)

    def scene(self, positions, proportions=None):
        props = proportions or [1.0] * len(positions)
        targets = tuple(TargetTruth(Position2D(*p), amplitude_sq=pr)
                        for p, pr in zip(positions, props))
        return Scene(self.layout, targets, self.region)

    def isolated_cells(self, n, min_gap=3, min_dist=2500.0, start=0):
        """Deterministic search for n grid cells pairwise at least min_gap
        range bins apart on every path (safely outside one another's
        removal footprints)."""
        bins = self.cache.bins
        chosen = []
        for c in range(start, self.grid.n_cells):
            p = self.grid.cell_center(c)
            ok = True
            for c2 in chosen:
                p2 = self.grid.cell_center(c2)
                if (np.hypot(p.x - p2.x, p.y - p2.y) < min_dist
                        or np.abs(bins[:, c] - bins[:, c2]).min() < min_gap):
                    ok = False
                    break
            if ok:
                chosen.append(c)
                if len(chosen) == n:
                    return chosen
        raise AssertionError(f"no {n} isolated cells in the small setup")

    def separated_cells(self, n, min_gap_samples=4.0, min_dist=2500.0,
                        start=0):
        """Cells whose pairwise delay gaps stay >= min_gap_samples on every
        path (clear of the joint search's coincident-delay exclusion)."""
        d = self.cache.delays / self.waveforms.Ts
        chosen = []
        for c in range(start, self.grid.n_cells):
            p = self.grid.cell_center(c)
            ok = True
            for c2 in chosen:
                p2 = self.grid.cell_center(c2)
                if (np.hypot(p.x - p2.x, p.y - p2.y) < min_dist
                        or np.abs(d[:, c] - d[:, c2]).min()
                        < min_gap_samples):
                    ok = False
                    break
            if ok:
                chosen.append(c)
                if len(chosen) == n:
                    return chosen
        raise AssertionError(f"no {n} separated cells found")


class CoarseSetup(SmallSetup):
    """12x12 grid variant for exhaustive joint-search tests."""

    def __init__(self):
        self.layout = AntennaLayout.transceivers(
            [(-1000.0, -1000.0), (13000.0, -2000.0),
             (-2000.0, 13000.0), (14000.0, 14000.0)])
        self.region = Rect(0.0, 12000.0, 0.0, 12000.0)
        self.grid = Grid(self.region, 1000.0)
        # tau_c = 5 us -> 1.5 km bin, 1.5 cells
        self.waveforms = build_waveform_set(4, 1.4e-4, 1793, 5.0e-6)
        self.noise = NoiseModel(sigma_sq=1.0)
        self.cache = ReplicaCache(self.waveforms, self.layout, self.grid)


class TwoAntennaSetup(SmallSetup):
    """12x12 grid with two transceivers (four paths): sparse enough for
    cleanly isolated on-grid target pairs."""

    def __init__(self):
        self.layout = AntennaLayout.transceivers([(-1000.0, -1000.0),
                                                  (13000.0, 14000.0)])
        self.region = Rect(0.0, 12000.0, 0.0, 12000.0)
        self.grid = Grid(self.region, 1000.0)
        self.waveforms = build_waveform_set(2, 1.4e-4, 1793, 5.0e-6)
        self.noise = NoiseModel(sigma_sq=1.0)
        self.cache = ReplicaCache(self.waveforms, self.layout, self.grid)

    def isolated_pairs(self, min_gap=2):
        """All cell pairs at least min_gap range bins apart on every path."""
        bins = self.cache.bins
        pairs = []
        for c1 in range(self.grid.n_cells):
            gaps = np.abs(bins[:, c1 + 1:] - bins[:, [c1]]).min(axis=0)
            for off in np.flatnonzero(gaps >= min_gap):
                pairs.append((c1, c1 + 1 + int(off)))
        return pairs


class TinySetup(SmallSetup):
    """N = 64 samples, one transceiver (one path), 14x8 grid of 50 m
    cells: small enough for the dense noise covariance oracle.  The far
    cells leave the window, and some in-window replicas are clipped by
    its end."""

    def __init__(self):
        self.layout = AntennaLayout.transceivers([(0.0, 0.0)])
        self.region = Rect(100.0, 800.0, 0.0, 400.0)
        self.grid = Grid(self.region, 50.0)
        # Ts = 0.1 us, pulse 10 samples
        self.waveforms = build_waveform_set(1, 6.3e-6, 64, 1.0e-6)
        self.noise = NoiseModel(sigma_sq=1.0)
        self.cache = ReplicaCache(self.waveforms, self.layout, self.grid)


@pytest.fixture(scope="session")
def small():
    return SmallSetup()


@pytest.fixture(scope="session")
def coarse():
    return CoarseSetup()


@pytest.fixture(scope="session")
def two_antenna():
    return TwoAntennaSetup()


@pytest.fixture(scope="session")
def tiny():
    return TinySetup()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)
