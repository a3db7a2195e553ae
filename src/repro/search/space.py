"""Design-space definition: seeded enumeration/sampling over accelerator knobs.

A :class:`DesignSpace` is a named grid over the :class:`AcceleratorConfig`
knobs the paper's Table III varies by hand — H (``num_pus``), N
(``num_pes``), M (``num_multipliers``) — plus the knobs it holds fixed
(BIM type, clock, buffering).  Every axis is validated *eagerly* with the
knob's name in the error, candidates enumerate in one deterministic nested
order, and spaces too large for a budget are downsampled with a seeded RNG
— same seed, same candidate list, byte for byte.

The candidate unit is a ``(AcceleratorConfig, FpgaDevice)`` pair: resource
feasibility, power, and (on URAM-bearing parts) memory mapping all depend
on the device, so the device is a knob like any other.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..accel.bim import BimType
from ..accel.config import AcceleratorConfig, validate_knob
from ..accel.devices import FpgaDevice, ZCU102, ZCU111

Candidate = Tuple[AcceleratorConfig, FpgaDevice]

# The knob axes, in enumeration order (outermost first).  Devices come
# first so per-device blocks stay contiguous in reports.
_AXES = ("num_pus", "num_pes", "num_multipliers", "bim_type", "frequency_mhz")


@dataclass(frozen=True)
class DesignSpace:
    """A named grid over accelerator knobs and target devices."""

    name: str
    devices: Tuple[FpgaDevice, ...] = (ZCU102,)
    num_pus: Tuple[int, ...] = (12,)
    num_pes: Tuple[int, ...] = (8,)
    num_multipliers: Tuple[int, ...] = (16,)
    bim_type: Tuple[BimType, ...] = (BimType.TYPE_A,)
    frequency_mhz: Tuple[float, ...] = (214.0,)
    base: AcceleratorConfig = field(default_factory=AcceleratorConfig)

    def __post_init__(self):
        if not self.name:
            raise ValueError("a design space needs a name")
        if not self.devices:
            raise ValueError("devices axis must name at least one FPGA part")
        for axis in _AXES:
            values = getattr(self, axis)
            if not values:
                raise ValueError(f"{axis} axis must not be empty")
            if len(set(values)) != len(values):
                raise ValueError(f"{axis} axis has duplicate values: {values}")
            if axis != "bim_type":
                for value in values:
                    validate_knob(axis, value)  # eager, names the knob

    @property
    def size(self) -> int:
        """Number of candidates in the full grid."""
        count = len(self.devices)
        for axis in _AXES:
            count *= len(getattr(self, axis))
        return count

    def candidates(self) -> List[Candidate]:
        """The full grid in deterministic nested-loop order.

        Devices vary slowest, then the knob axes in declaration order —
        the order reports and samples index into.  Returns a fresh list
        of the grid, which is built once per space.
        """
        return list(self._grid)

    @cached_property
    def _grid(self) -> Tuple[Candidate, ...]:
        """The grid, built on first use: a pure function of the frozen space."""
        return tuple(
            (
                self.base.with_(
                    num_pus=h, num_pes=n, num_multipliers=m, bim_type=bim, frequency_mhz=freq
                ),
                device,
            )
            for device in self.devices
            for h in self.num_pus
            for n in self.num_pes
            for m in self.num_multipliers
            for bim in self.bim_type
            for freq in self.frequency_mhz
        )

    def sample(self, budget: Optional[int] = None, seed: int = 0) -> List[Candidate]:
        """At most ``budget`` candidates, seeded and deterministic.

        With no budget (or a budget covering the grid) this is exactly
        :meth:`candidates`.  Otherwise a seeded RNG draws ``budget``
        distinct grid indices without replacement and returns them in
        enumeration order, so a sample is always a subsequence of the full
        grid — equal ``(space, budget, seed)`` gives the identical list.

        Args:
            budget: Maximum candidates to return (``None`` = the full grid).
            seed: Sampling seed (unused when the grid fits the budget).

        Raises:
            ValueError: If ``budget`` is not positive.
        """
        if budget is not None and budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        grid = self.candidates()
        if budget is None or len(grid) <= budget:
            return grid
        rng = np.random.default_rng([seed, zlib.crc32(self.name.encode("utf-8"))])
        picks = rng.choice(len(grid), size=budget, replace=False)
        return [grid[i] for i in sorted(picks.tolist())]


def builtin_spaces() -> Dict[str, DesignSpace]:
    """The named space catalog behind ``repro.cli search --space``.

    - ``table3`` — the paper's knob space: H fixed at 12 (one PU per
      BERT-base head), N and M swept over {4, 8, 16, 32} on both parts.
      Contains the three hand-picked Table III design points.
    - ``small`` — a 4-point ZCU102 grid for doctests and quick smoke runs.
    - ``wide`` — H, N, M, and BIM type all swept on both parts (320
      candidates): the space that makes seeded sampling and the ≥1k
      evals/s throughput contract meaningful.
    """
    return {
        space.name: space
        for space in (
            DesignSpace(
                name="table3",
                devices=(ZCU102, ZCU111),
                num_pes=(4, 8, 16, 32),
                num_multipliers=(4, 8, 16, 32),
            ),
            DesignSpace(
                name="small",
                devices=(ZCU102,),
                num_pes=(4, 8),
                num_multipliers=(8, 16),
            ),
            DesignSpace(
                name="wide",
                devices=(ZCU102, ZCU111),
                num_pus=(4, 8, 12, 16),
                num_pes=(2, 4, 8, 16, 32),
                num_multipliers=(4, 8, 16, 32),
                bim_type=(BimType.TYPE_A, BimType.TYPE_B),
            ),
        )
    }


SPACE_NAMES: Tuple[str, ...] = tuple(sorted(builtin_spaces()))
