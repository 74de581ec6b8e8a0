"""Time meshes, their trapezoid weights and discrete trajectories.

A Mesh is an increasing array of nodes starting at 0; it owns one
read-only WeightTable of composite trapezoid weights, built on first
use.  A Trajectory pairs a mesh with vector values at every node; the
per-node norm is the max-abs norm, which is the norm used throughout
for error bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SpecValidationError

__all__ = ["Mesh", "WeightTable", "Trajectory", "zero_trajectory"]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Mesh:
    """Nodes 0 = t_0 < ... < t_n, read-only.  What depends on the nodes
    alone, gaps and weights, is computed once per mesh on first use and
    is read-only too."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise SpecValidationError("mesh needs at least two nodes")
        if nodes[0] != 0.0:
            raise SpecValidationError("mesh must start at t = 0")
        if not np.all(np.diff(nodes) > 0):
            raise SpecValidationError("mesh nodes must be strictly increasing")
        object.__setattr__(self, "nodes", _read_only(nodes.copy()))

    @property
    def n(self) -> int:
        """Number of gaps (nodes minus one)."""
        return self.nodes.size - 1

    @property
    def end(self) -> float:
        return float(self.nodes[-1])

    @cached_property
    def gaps(self) -> np.ndarray:
        return _read_only(np.diff(self.nodes))

    @cached_property
    def weights(self) -> WeightTable:
        """The mesh's trapezoid weights, shared by every integral on it."""
        return WeightTable(self)

    def __repr__(self) -> str:
        return f"Mesh(n={self.n}, end={self.end!r})"


class WeightTable:
    """Composite trapezoid weights on a mesh, read-only.  A fresh table
    equals the mesh's own, mesh.weights, bit for bit; code on a mesh
    uses that one."""

    def __init__(self, mesh: Mesh):
        self.gaps = mesh.gaps
        half = self.gaps / 2.0
        # inside [0, t_j] node k weighs half of each gap beside it, summed
        # as half[k] + half[k - 1]; the end node t_j only the gap before it
        self._inner = _read_only(
            np.concatenate([half[:1], half[1:] + half[:-1], [0.0]])
        )
        self._end = _read_only(np.concatenate([[0.0], half]))

    def rows(self, js) -> np.ndarray:
        """Weights of the integrals from 0 to t_j, one row per j in js,
        zero-padded to max(js) + 1 columns: entry [r, k] weights the
        sample at t_k in the integral up to t_{js[r]}."""
        js = np.asarray(js)
        k = np.arange(js.max() + 1)
        w = np.where(k < js[:, None], self._inner[: k.size], 0.0)
        w[np.arange(js.size), js] = self._end[js]
        return w

    def prefix(self, samples: np.ndarray) -> np.ndarray:
        """Integrals from 0 to every node of a sampled integrand, along
        the last axis, which holds one sample per node: a (S, n+1) stack
        gives each row the integrals its 1-D call gives, bit for bit."""
        samples = np.asarray(samples, dtype=float)
        if samples.shape[-1:] != (self.gaps.size + 1,):
            raise SpecValidationError(
                "prefix needs one sample per mesh node along the last axis"
            )
        panels = self.gaps * (samples[..., :-1] + samples[..., 1:]) / 2.0
        out = np.empty_like(samples)
        out[..., 0] = 0.0
        np.cumsum(panels, axis=-1, out=out[..., 1:])
        return out


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
