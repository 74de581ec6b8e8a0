"""Time meshes and discrete trajectories.

A Mesh is an increasing array of nodes starting at 0.  A Trajectory
pairs a mesh with vector values at every node; the per-node norm is the
max-abs norm, which is the norm used throughout for error bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpecValidationError

__all__ = ["Mesh", "Trajectory", "zero_trajectory"]


@dataclass(frozen=True, eq=False)
class Mesh:
    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise SpecValidationError("mesh needs at least two nodes")
        if nodes[0] != 0.0:
            raise SpecValidationError("mesh must start at t = 0")
        if not np.all(np.diff(nodes) > 0):
            raise SpecValidationError("mesh nodes must be strictly increasing")
        nodes = nodes.copy()
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def n(self) -> int:
        """Number of gaps (nodes minus one)."""
        return self.nodes.size - 1

    @property
    def end(self) -> float:
        return float(self.nodes[-1])

    @property
    def gaps(self) -> np.ndarray:
        return np.diff(self.nodes)

    def __repr__(self) -> str:
        return f"Mesh(n={self.n}, end={self.end!r})"


@dataclass(frozen=True, eq=False)
class Trajectory:
    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] != self.mesh.nodes.size:
            raise SpecValidationError(
                f"values shape {values.shape} does not match"
                f" {self.mesh.nodes.size} mesh nodes"
            )
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def norms(self) -> np.ndarray:
        """Per-node max-abs norm."""
        return np.max(np.abs(self.values), axis=1)

    @property
    def max_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __repr__(self) -> str:
        return (
            f"Trajectory(dim={self.dim}, nodes={self.mesh.nodes.size},"
            f" end={self.mesh.end!r}, max_norm={self.max_norm!r})"
        )


def zero_trajectory(mesh: Mesh, dim: int) -> Trajectory:
    if dim < 1:
        raise SpecValidationError("dimension must be at least 1")
    return Trajectory(mesh, np.zeros((mesh.nodes.size, dim)))
