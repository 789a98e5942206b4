"""The paper's experiment workloads (§5) and worked examples (§3–4).

Each workload bundles an iteration space, a stencil kernel, a processor
grid and the mapping dimension, and can produce the tiling/tiled space
for any tile height ``V`` — the experiments' sweep variable ("V is
denoted as tile height, since it is the size of tile along axis k").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.dependence import DependenceSet
from repro.ir.loopnest import IterationSpace
from repro.kernels.stencil import StencilKernel, sqrt_kernel_3d, sum_kernel_2d
from repro.schedule.mapping import ProcessorMapping
from repro.tiling.tiledspace import TiledSpace, tile_space
from repro.tiling.transform import TilingTransformation, rectangular_tiling
from repro.util.validation import require_positive_int

__all__ = [
    "StencilWorkload",
    "paper_experiment_i",
    "paper_experiment_ii",
    "paper_experiment_iii",
    "paper_experiments",
    "example1_workload",
]


@dataclass(frozen=True)
class StencilWorkload:
    """A tileable stencil job on a fixed processor grid.

    ``procs_per_dim`` gives the number of processors along each iteration
    dimension; it must be 1 along ``mapped_dim`` (all tiles of that
    dimension stay on one processor).  Tile sides along the non-mapped
    dimensions are ``extent / procs`` — one column of tiles per processor,
    as in the paper's experiments — and the mapped dimension's side is the
    free tile height ``V``.
    """

    name: str
    space: IterationSpace
    kernel: StencilKernel
    procs_per_dim: tuple[int, ...]
    mapped_dim: int

    def __post_init__(self) -> None:
        n = self.space.ndim
        if self.kernel.ndim != n:
            raise ValueError("kernel/space dimension mismatch")
        if len(self.procs_per_dim) != n:
            raise ValueError("procs_per_dim must match the space dimension")
        if not 0 <= self.mapped_dim < n:
            raise ValueError(f"mapped_dim must be in [0, {n})")
        if self.procs_per_dim[self.mapped_dim] != 1:
            raise ValueError("the mapped dimension cannot be split across processors")
        for k, (p, e) in enumerate(zip(self.procs_per_dim, self.space.extents)):
            require_positive_int(p, f"procs_per_dim[{k}]")
            if e % p != 0:
                raise ValueError(
                    f"extent {e} of dim {k} is not divisible by {p} processors"
                )

    @property
    def num_processors(self) -> int:
        total = 1
        for p in self.procs_per_dim:
            total *= p
        return total

    @property
    def deps(self) -> DependenceSet:
        return self.kernel.dependence_set()

    def tile_sides(self, v: int) -> tuple[int, ...]:
        """Tile side per dimension for tile height ``v``.

        ``v`` need not divide the mapped extent (the paper's optimal
        V = 444 does not divide 16384): the trailing tile is then shorter,
        exactly as in the experiments.
        """
        v = require_positive_int(v, "v")
        if v > self.space.extents[self.mapped_dim]:
            raise ValueError(
                f"tile height {v} exceeds the mapped extent "
                f"{self.space.extents[self.mapped_dim]}"
            )
        return tuple(
            v if k == self.mapped_dim else e // p
            for k, (e, p) in enumerate(zip(self.space.extents, self.procs_per_dim))
        )

    def mapped_tile_ranges(self, v: int) -> list[tuple[int, int]]:
        """Inclusive (lo, hi) index ranges of each tile along the mapped
        dimension; the last range is clipped at the space boundary."""
        v = require_positive_int(v, "v")
        extent = self.space.extents[self.mapped_dim]
        return [
            (lo, min(lo + v, extent) - 1) for lo in range(0, extent, v)
        ]

    def grain(self, v: int) -> int:
        """Tile volume ``g`` at height ``v``."""
        g = 1
        for s in self.tile_sides(v):
            g *= s
        return g

    def tiling(self, v: int) -> TilingTransformation:
        return rectangular_tiling(self.tile_sides(v))

    def tiled_space(self, v: int) -> TiledSpace:
        return tile_space(self.space, self.tiling(v))

    def mapping(self, v: int) -> ProcessorMapping:
        return ProcessorMapping(self.tiled_space(v), self.mapped_dim)

    def valid_heights(self, minimum: int = 1) -> list[int]:
        """All tile heights dividing the mapped extent, ascending."""
        extent = self.space.extents[self.mapped_dim]
        return [v for v in range(max(1, minimum), extent + 1) if extent % v == 0]

    def face_elements(self, v: int) -> list[int]:
        """Per-neighbour message size in elements at height ``v``: the tile
        boundary surface crossed by each communicating dimension."""
        sides = self.tile_sides(v)
        c = [sum(d[k] for d in self.deps.vectors) for k in range(self.space.ndim)]
        out = []
        vol = 1
        for s in sides:
            vol *= s
        for k, (ck, sk) in enumerate(zip(c, sides)):
            if k == self.mapped_dim or ck == 0:
                continue
            out.append(ck * vol // sk)
        return out


def paper_experiment_i() -> StencilWorkload:
    """Fig. 9 / Fig. 12 column i: 16 × 16 × 16384, 4×4 processors."""
    return StencilWorkload(
        name="16x16x16384",
        space=IterationSpace.from_extents([16, 16, 16384]),
        kernel=sqrt_kernel_3d(),
        procs_per_dim=(4, 4, 1),
        mapped_dim=2,
    )


def paper_experiment_ii() -> StencilWorkload:
    """Fig. 10 / Fig. 12 column ii: 16 × 16 × 32768, 4×4 processors."""
    return StencilWorkload(
        name="16x16x32768",
        space=IterationSpace.from_extents([16, 16, 32768]),
        kernel=sqrt_kernel_3d(),
        procs_per_dim=(4, 4, 1),
        mapped_dim=2,
    )


def paper_experiment_iii() -> StencilWorkload:
    """Fig. 11 / Fig. 12 column iii: 32 × 32 × 4096, 4×4 processors."""
    return StencilWorkload(
        name="32x32x4096",
        space=IterationSpace.from_extents([32, 32, 4096]),
        kernel=sqrt_kernel_3d(),
        procs_per_dim=(4, 4, 1),
        mapped_dim=2,
    )


def paper_experiments() -> tuple[StencilWorkload, StencilWorkload, StencilWorkload]:
    """All three §5 workloads in Fig. 12 column order."""
    return (paper_experiment_i(), paper_experiment_ii(), paper_experiment_iii())


def scale_workload(grid: int, depth: int = 128) -> StencilWorkload:
    """A ``grid × grid`` processor mesh (``grid²`` ranks) over a
    ``grid × grid × depth`` space with the §5 sqrt kernel — the
    cluster-scale benchmark family (``scripts/bench.py scale`` and the
    ``scale`` CLI command): one owned point per rank per step keeps the
    per-rank work tiny, so throughput is dominated by the event loop."""
    return StencilWorkload(
        name=f"scale{grid}x{grid}x{depth}",
        space=IterationSpace.from_extents([grid, grid, depth]),
        kernel=sqrt_kernel_3d(),
        procs_per_dim=(grid, grid, 1),
        mapped_dim=2,
    )


def example1_workload(processors: int = 10) -> StencilWorkload:
    """Example 1's 10000 × 1000 2-D loop with D = {(1,1),(1,0),(0,1)}.

    The paper maps along ``i1`` (the larger tiled dimension); the
    processor count along ``i2`` is configurable since Example 1 does not
    fix one.
    """
    return StencilWorkload(
        name="example1",
        space=IterationSpace.from_extents([10000, 1000]),
        kernel=sum_kernel_2d(),
        procs_per_dim=(1, processors),
        mapped_dim=0,
    )
