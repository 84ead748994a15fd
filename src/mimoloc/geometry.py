"""Antenna/target geometry: bistatic delays and range bins.

Conventions used throughout the package:

* positions are metres in a 2-D Cartesian plane;
* a transmit-receive path is the pair (l, k) = (receiver index,
  transmitter index); an M x N system has M*N paths enumerated in
  row-major order, flat index p = l * N + k;
* grid cells are axis-aligned squares evaluated at their centres,
  flat cell index c = iy * nx + ix (row-major, x fastest).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 2.99792458e8  # m/s, exact SI value


@dataclass(frozen=True)
class Position2D:
    x: float
    y: float

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.y)):
            raise ValueError("position coordinates must be finite")


@dataclass(frozen=True)
class AntennaLayout:
    """Transmitter and receiver positions (widely separated antennas)."""

    tx: tuple[Position2D, ...]
    rx: tuple[Position2D, ...]

    def __post_init__(self):
        if len(self.tx) < 1 or len(self.rx) < 1:
            raise ValueError("need at least one transmitter and one receiver")
        for group, name in ((self.tx, "tx"), (self.rx, "rx")):
            pts = {(p.x, p.y) for p in group}
            if len(pts) != len(group):
                raise ValueError(f"{name} positions must be pairwise distinct")

    @property
    def n_tx(self) -> int:
        return len(self.tx)

    @property
    def n_rx(self) -> int:
        return len(self.rx)

    @property
    def n_paths(self) -> int:
        return self.n_tx * self.n_rx

    def paths(self):
        """Yield (flat_index, l, k) over all receiver/transmitter pairs."""
        for l in range(self.n_rx):
            for k in range(self.n_tx):
                yield l * self.n_tx + k, l, k

    @classmethod
    def transceivers(cls, positions) -> "AntennaLayout":
        """Layout where every antenna both transmits and receives."""
        pts = tuple(p if isinstance(p, Position2D) else Position2D(*p)
                    for p in positions)
        return cls(tx=pts, rx=pts)


@dataclass(frozen=True)
class TargetTruth:
    """Ground-truth target: position, relative strength and per-path
    complex reflection coefficients (shape (M, N), indexed [l, k])."""

    position: Position2D
    amplitude_sq: float = 1.0
    per_path_alpha: np.ndarray | None = None

    def __post_init__(self):
        if not self.amplitude_sq > 0:
            raise ValueError("amplitude_sq must be positive")
        if self.per_path_alpha is not None and not np.all(
                np.isfinite(self.per_path_alpha)):
            raise ValueError("reflection coefficients must be finite")


@dataclass(frozen=True)
class Rect:
    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ValueError("degenerate region")

    def contains(self, p: Position2D) -> bool:
        return (self.xmin <= p.x <= self.xmax
                and self.ymin <= p.y <= self.ymax)


@dataclass(frozen=True)
class Scene:
    layout: AntennaLayout
    targets: tuple[TargetTruth, ...]
    region: Rect

    def __post_init__(self):
        for t in self.targets:
            if not self.region.contains(t.position):
                raise ValueError(
                    f"target at ({t.position.x}, {t.position.y}) outside region")

    @property
    def n_targets(self) -> int:
        return len(self.targets)


@dataclass(frozen=True)
class Grid:
    """Axis-aligned square cells tiling a rectangular region exactly."""

    region: Rect
    cell: float
    nx: int = field(init=False)
    ny: int = field(init=False)

    def __post_init__(self):
        if not 0 < self.cell < np.inf:
            raise ValueError("cell size must be positive and finite")
        nx = (self.region.xmax - self.region.xmin) / self.cell
        ny = (self.region.ymax - self.region.ymin) / self.cell
        # at least one cell each way, and a count that is a finite integer
        if not (0.5 < nx < np.inf and 0.5 < ny < np.inf) or (
                abs(nx - round(nx)) > 1e-9 or abs(ny - round(ny)) > 1e-9):
            raise ValueError("cell size must tile the region exactly")
        object.__setattr__(self, "nx", int(round(nx)))
        object.__setattr__(self, "ny", int(round(ny)))

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat (n_cells,) arrays of cell-centre x and y, row-major."""
        cx = self.region.xmin + (np.arange(self.nx) + 0.5) * self.cell
        cy = self.region.ymin + (np.arange(self.ny) + 0.5) * self.cell
        X, Y = np.meshgrid(cx, cy)
        return X.ravel(), Y.ravel()

    def cell_center(self, index: int) -> Position2D:
        iy, ix = divmod(int(index), self.nx)
        return Position2D(self.region.xmin + (ix + 0.5) * self.cell,
                          self.region.ymin + (iy + 0.5) * self.cell)

    def nearest_cell(self, p: Position2D) -> int:
        ix = int(np.clip((p.x - self.region.xmin) / self.cell, 0, self.nx - 1))
        iy = int(np.clip((p.y - self.region.ymin) / self.cell, 0, self.ny - 1))
        return iy * self.nx + ix


def bistatic_delay(target_pos: Position2D, tx: Position2D,
                   rx: Position2D) -> float:
    """Two-leg propagation delay target <- tx plus target -> rx, seconds."""
    d_tx = np.hypot(target_pos.x - tx.x, target_pos.y - tx.y)
    d_rx = np.hypot(target_pos.x - rx.x, target_pos.y - rx.y)
    return (d_tx + d_rx) / SPEED_OF_LIGHT


def path_delay(scene_or_layout, theta: Position2D, l: int, k: int) -> float:
    layout = getattr(scene_or_layout, "layout", scene_or_layout)
    return bistatic_delay(theta, layout.tx[k], layout.rx[l])


def grid_delays(grid: Grid, layout: AntennaLayout) -> np.ndarray:
    """Delay of every cell centre on every path, shape (n_paths, n_cells)."""
    X, Y = grid.centers()
    out = np.empty((layout.n_paths, grid.n_cells))
    for p, l, k in layout.paths():
        tx, rx = layout.tx[k], layout.rx[l]
        out[p] = (np.hypot(X - tx.x, Y - tx.y)
                  + np.hypot(X - rx.x, Y - rx.y)) / SPEED_OF_LIGHT
    return out


def delay_bin(tau: float | np.ndarray, tau_c: float):
    return np.floor(tau / tau_c).astype(np.int64)
