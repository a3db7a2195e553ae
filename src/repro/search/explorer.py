"""Design-space explorer: price every candidate, reduce to a Pareto front.

``evaluate_candidate`` prices one ``(AcceleratorConfig, FpgaDevice)`` pair
through the full analytic stack — the cycle-level schedule, the calibrated
resource model, and the board power model — and memoizes the resulting
:class:`~repro.accel.simulator.SimulationReport` per (design point, device,
model, shape).  The evaluation is pure, so a sweep re-pricing known points
costs dictionary lookups; that memoization is what the ``dse`` bench
suite's ≥1k-evaluations-per-second contract rides on.

``pareto_front`` reduces the feasible candidates to the non-dominated set
under named objectives.  Two deliberate choices:

- **Dominance is per-device.**  A ZCU111 copy of a ZCU102 design has
  identical latency and energy but more of everything free, so cross-device
  dominance would just declare the bigger part "better" — a procurement
  question, not a hardware one.  Each device contributes its own front
  (exactly how Table III reports per-part design points).
- **Resource headroom is a vector objective.**  One design only dominates
  another on headroom if it leaves at least as much of *every* resource
  class free (BRAM, DSP, FF, LUT, URAM).  Collapsing headroom to the
  scalar min would let a DSP-lighter design dominate one that is much
  lighter on LUT/FF — the classic (8,16) vs (16,8) trade Table III itself
  preserves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..accel.config import AcceleratorConfig
from ..accel.devices import FpgaDevice
from ..accel.simulator import AcceleratorSimulator, SimulationReport
from ..bert.config import BertConfig
from ..serve.router import clear_service_tables
from .space import Candidate, DesignSpace

DEFAULT_OBJECTIVES: Tuple[str, ...] = ("latency", "energy", "headroom")

# Pairwise compare cells per block of the Pareto filter's dominance
# test, which bounds its boolean temporaries (~4 MB each) on any space.
_PARETO_CELLS = 1 << 22

# (config, device, model, seq_len, batch_size) -> SimulationReport.  Every
# key component is a frozen dataclass, so the cache is exact; the value is
# shared across callers and must be treated as read-only.
_EVAL_CACHE: Dict[Tuple, SimulationReport] = {}


def evaluate_candidate(
    config: AcceleratorConfig,
    device: FpgaDevice,
    model: BertConfig,
    seq_len: int = 128,
    batch_size: int = 1,
) -> SimulationReport:
    """Price one design point (memoized).

    Args:
        config: The accelerator design point.
        device: The FPGA part it targets.
        model: The served model architecture.
        seq_len: Sequence length of the priced inference.
        batch_size: Batch size of the priced inference.

    Returns:
        The full :class:`~repro.accel.simulator.SimulationReport` (shared
        across calls with equal arguments — read-only).
    """
    key = (config, device, model, seq_len, batch_size)
    report = _EVAL_CACHE.get(key)
    if report is None:
        report = AcceleratorSimulator(config, device).simulate(
            model, seq_len=seq_len, batch_size=batch_size
        )
        _EVAL_CACHE[key] = report
    return report


def clear_evaluation_cache() -> None:
    """Drop every memoized evaluation and batch-price table (bench
    cold-start hook)."""
    _EVAL_CACHE.clear()
    clear_service_tables()


def evaluation_cache_size() -> int:
    """Number of memoized design-point evaluations."""
    return len(_EVAL_CACHE)


def _headroom_vector(report: SimulationReport) -> Tuple[float, ...]:
    """Per-resource utilization, in a fixed class order (minimized)."""
    utilization = report.resources.utilization(report.device)
    return tuple(utilization[name] for name in sorted(utilization))


OBJECTIVES: Dict[str, Callable[[SimulationReport], Tuple[float, ...]]] = {
    "latency": lambda r: (r.latency_ms,),
    "energy": lambda r: (r.energy_per_inference_mj,),
    "power": lambda r: (r.power_watts,),
    "headroom": _headroom_vector,
}


def objective_vector(
    report: SimulationReport, objectives: Sequence[str]
) -> Tuple[float, ...]:
    """The minimized objective vector of one report.

    Args:
        report: A candidate evaluation.
        objectives: Objective names (keys of :data:`OBJECTIVES`); the
            ``headroom`` objective expands to one component per resource
            class.

    Raises:
        ValueError: If an objective name is unknown or none are given.
    """
    if not objectives:
        raise ValueError("need at least one objective")
    vector: List[float] = []
    for name in objectives:
        extractor = OBJECTIVES.get(name)
        if extractor is None:
            raise ValueError(
                f"unknown objective {name!r}; choose from {sorted(OBJECTIVES)}"
            )
        vector.extend(extractor(report))
    return tuple(vector)


def dominates(
    a: SimulationReport,
    b: SimulationReport,
    objectives: Sequence[str] = DEFAULT_OBJECTIVES,
) -> bool:
    """Whether ``a`` Pareto-dominates ``b`` (same device only).

    ``a`` dominates ``b`` when it is no worse on every objective component
    and strictly better on at least one.  Candidates on different devices
    never dominate each other (see the module docstring).
    """
    if a.device.name != b.device.name:
        return False
    va = objective_vector(a, objectives)
    vb = objective_vector(b, objectives)
    return all(x <= y for x, y in zip(va, vb)) and va != vb


def _sort_key(report: SimulationReport) -> Tuple:
    config = report.config
    return (
        report.device.name,
        report.latency_ms,
        report.energy_per_inference_mj,
        config.num_pus,
        config.num_pes,
        config.num_multipliers,
        config.bim_type.value,
        config.frequency_mhz,
    )


def pareto_front(
    reports: Sequence[SimulationReport],
    objectives: Sequence[str] = DEFAULT_OBJECTIVES,
) -> List[SimulationReport]:
    """The non-dominated subset of ``reports``, deterministically ordered.

    Exact duplicates (same objective vector on the same device) are kept
    once, preferring the earliest candidate in enumeration order.  The
    front sorts by (device, latency, energy, knobs) so equal inputs always
    render and serialize identically.

    Args:
        reports: Candidate evaluations (typically the feasible set).
        objectives: Objective names; see :func:`objective_vector`.
    """
    # Dominance is tested per device as whole-array compares over the
    # objective matrix, a block of candidate rows at a time so the
    # pairwise temporaries stay within ``_PARETO_CELLS``; NumPy's float64
    # ``<=`` and ``!=`` are the IEEE compares :func:`dominates` makes.
    rows: Dict[str, List[int]] = {}
    vectors = []
    for i, report in enumerate(reports):
        rows.setdefault(report.device.name, []).append(i)
        vectors.append(objective_vector(report, objectives))
    keep = np.zeros(len(reports), dtype=bool)
    for device_rows in rows.values():
        values = np.asarray([vectors[i] for i in device_rows], dtype=np.float64)
        n = len(device_rows)
        step = max(1, _PARETO_CELLS // (n * values.shape[1]))
        dominated = np.zeros(n, dtype=bool)
        for lo in range(0, n, step):
            block = values[None, lo : lo + step]
            dominated[lo : lo + step] = (
                (values[:, None] <= block).all(-1)
                & (values[:, None] != block).any(-1)
            ).any(0)
        keep[device_rows] = ~dominated
    front: List[SimulationReport] = []
    seen: set = set()
    for i in np.flatnonzero(keep).tolist():
        # Exact duplicates survive together; keep the first.
        key = (reports[i].device.name, vectors[i])
        if key not in seen:
            seen.add(key)
            front.append(reports[i])
    return sorted(front, key=_sort_key)


@dataclass
class ExplorationResult:
    """One design-space sweep: what was priced and what survived."""

    space: str
    objectives: Tuple[str, ...]
    seq_len: int
    batch_size: int
    seed: int
    budget: Optional[int]
    evaluated: int
    feasible: int
    front: List[SimulationReport]

    def render(self) -> str:
        """Deterministic human-readable front table."""
        lines = [
            f"space: {self.space}  (objectives {', '.join(self.objectives)}; "
            f"seq_len {self.seq_len}, batch {self.batch_size}, seed {self.seed})",
            f"candidates: {self.evaluated} evaluated, {self.feasible} fit "
            f"their device, {len(self.front)} on the Pareto front",
        ]
        header = (
            f"  {'device':<8} {'(H,N,M)':<12} {'bim':<4} {'lat(ms)':>9} "
            f"{'E/inf(mJ)':>10} {'power(W)':>9} {'headroom':>9} {'DSP':>5}"
        )
        lines.append(header)
        for report in self.front:
            config = report.config
            knobs = f"({config.num_pus},{config.num_pes},{config.num_multipliers})"
            lines.append(
                f"  {report.device.name:<8} {knobs:<12} "
                f"{config.bim_type.value:<4} {report.latency_ms:>9.3f} "
                f"{report.energy_per_inference_mj:>10.2f} "
                f"{report.power_watts:>9.2f} {report.headroom:>9.3f} "
                f"{report.resources.dsp48:>5}"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        """JSON-ready stable document (``repro-search/1``, explore mode)."""
        return {
            "schema": "repro-search/1",
            "mode": "explore",
            "space": self.space,
            "objectives": list(self.objectives),
            "seq_len": self.seq_len,
            "batch_size": self.batch_size,
            "seed": self.seed,
            "budget": self.budget,
            "evaluated": self.evaluated,
            "feasible": self.feasible,
            "front": [report.to_dict() for report in self.front],
        }

    def to_json(self) -> str:
        """Stable JSON (sorted keys) for files and byte-compare tests."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def explore(
    space: DesignSpace,
    model: Optional[BertConfig] = None,
    seq_len: int = 128,
    batch_size: int = 1,
    objectives: Sequence[str] = DEFAULT_OBJECTIVES,
    budget: Optional[int] = None,
    seed: int = 0,
) -> ExplorationResult:
    """Sweep one design space and reduce it to a Pareto front.

    Args:
        space: The knob grid to sweep.
        model: Served model architecture (default: BERT-base, the paper's
            subject).
        seq_len: Sequence length every candidate is priced at.
        batch_size: Batch size every candidate is priced at.
        objectives: Pareto objective names (see :data:`OBJECTIVES`).
        budget: Maximum candidates to evaluate (seeded downsampling when
            the grid is larger; ``None`` = the full grid).
        seed: Sampling seed — equal arguments give byte-identical results.

    Returns:
        The :class:`ExplorationResult` (front ordered deterministically).
    """
    model = model or BertConfig.base()
    # Validates the objective names before any pricing happens.
    objective_names = tuple(objectives)
    for name in objective_names:
        if name not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {name!r}; choose from {sorted(OBJECTIVES)}"
            )
    candidates = space.sample(budget=budget, seed=seed)
    reports = [
        evaluate_candidate(config, device, model, seq_len=seq_len, batch_size=batch_size)
        for config, device in candidates
    ]
    feasible = [report for report in reports if report.fits_device()]
    front = pareto_front(feasible, objective_names)
    return ExplorationResult(
        space=space.name,
        objectives=objective_names,
        seq_len=seq_len,
        batch_size=batch_size,
        seed=seed,
        budget=budget,
        evaluated=len(reports),
        feasible=len(feasible),
        front=front,
    )
