"""Scenario workload generator: seeded request traces for cluster serving.

A :class:`Scenario` describes *traffic shape* (a time-varying arrival rate)
and *traffic content* (a mix of tenants, each with its own SLO, text-length
distribution, and pool of distinct texts).  ``generate(seed)`` turns it
into a concrete, fully deterministic list of :class:`FleetRequest` — same
seed, same trace, byte for byte, on every machine.

Arrival sampling uses Poisson thinning: draw a homogeneous Poisson process
at the scenario's peak rate, then keep each arrival with probability
``rate(t) / peak``.  That one mechanism covers every built-in shape:

- ``steady``       — constant-rate Poisson (the classic M/G/k feed)
- ``diurnal``      — a sinusoidal day/night curve, compressed to ms scale
- ``flash-crowd``  — steady baseline with a step burst window (the
  overload / load-shedding scenario)
- ``ramp``         — linearly growing rate (the autoscaler's bread and
  butter)
- ``multi-tenant`` — steady aggregate over three tenants with different
  SLOs and sequence-length distributions

Timescale note: these are *simulated* milliseconds.  A "diurnal" period of
60 ms is a day compressed a few million-fold — the queueing dynamics are
identical, and the traces stay cheap enough to run in tests and CI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "TenantSpec",
    "FleetRequest",
    "ColumnarTrace",
    "Scenario",
    "builtin_scenarios",
    "SCENARIO_NAMES",
]

# Traces at or above this many candidate arrivals get the allocator tuned
# for multi-GB column churn (see _tune_malloc_for_giant_traces).
_GIANT_TRACE_CANDIDATES = 10_000_000
_malloc_tuned = False


def _tune_malloc_for_giant_traces(expected_candidates: int) -> None:
    """Keep giant numpy columns on the heap instead of bouncing via mmap.

    glibc serves allocations above its mmap threshold straight from
    ``mmap`` and hands them straight back to the kernel on free, so at
    100M-request scale every throwaway column pays the full page-fault-in
    cost — on slow fault paths the kernel time dwarfs the numpy compute.
    Raising the mmap and trim thresholds lets freed column memory be
    reused warm.  The switch is one-way and process-wide, so it is gated
    on giant traces: ordinary runs and the test suite keep the default
    allocator behavior.  Purely an allocator knob — results are
    byte-identical either way — and best-effort: a libc without
    ``mallopt`` (musl, macOS) is left untouched.
    """
    global _malloc_tuned
    if _malloc_tuned or expected_candidates < _GIANT_TRACE_CANDIDATES:
        return
    _malloc_tuned = True
    try:
        import ctypes
        import ctypes.util

        libc = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6")
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        m_trim_threshold, m_mmap_threshold = -1, -3
        int_max = 2**31 - 1
        libc.mallopt(m_mmap_threshold, int_max)
        libc.mallopt(m_trim_threshold, int_max)
    except Exception:
        pass


@dataclass(frozen=True)
class TenantSpec:
    """One traffic class: share of arrivals, SLO, and text shape."""

    name: str
    share: float = 1.0          # relative traffic weight within the scenario
    slo_ms: float = 150.0       # end-to-end latency target for this tenant
    min_words: int = 4          # shortest text, in whitespace words
    max_words: int = 24         # longest text (tokens ~= words + [CLS])
    pool_size: int = 32         # distinct texts (repetition -> cache hits)

    def __post_init__(self):
        if self.share <= 0:
            raise ValueError(f"tenant share must be > 0, got {self.share}")
        if self.slo_ms <= 0:
            raise ValueError(f"slo_ms must be > 0, got {self.slo_ms}")
        if not 1 <= self.min_words <= self.max_words:
            raise ValueError(
                f"need 1 <= min_words <= max_words, got "
                f"({self.min_words}, {self.max_words})"
            )
        if self.pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {self.pool_size}")


@dataclass(frozen=True)
class FleetRequest:
    """One arrival of a cluster trace: a trace request plus tenancy."""

    tenant: str
    slo_ms: float
    text_a: str
    text_b: Optional[str]
    arrival_ms: float


@dataclass
class ColumnarTrace:
    """A scenario trace as parallel numpy columns instead of objects.

    The columnar fleet engine's native input: one row per arrival, with
    the text draw kept as a *pool index* (``draw``) rather than a
    materialized string.  ``materialize()`` recovers the exact
    :class:`FleetRequest` list ``Scenario.generate`` would have produced
    — same objects, same floats, same order — so the two representations
    are interchangeable by construction, not by convention.
    """

    name: str
    seed: int
    duration_ms: float            # scaled duration (the trace's horizon)
    tenants: Tuple[TenantSpec, ...]
    arrival_ms: np.ndarray        # float64 [n], non-decreasing
    tenant_idx: np.ndarray        # int64   [n], index into ``tenants``
    draw: np.ndarray              # int64   [n], index into the tenant's pool
    # Per-request bucket indices, memoized by the columnar engine per
    # (tokenizer, max_seq_len, buckets): every run over this trace with
    # the same serving policy shares one read-only column.
    bucket_memo: Dict[tuple, tuple] = field(
        default_factory=dict, compare=False, repr=False
    )

    @property
    def num_requests(self) -> int:
        return int(self.arrival_ms.shape[0])

    def pools(self) -> List[List[str]]:
        """Each tenant's deterministic text pool (declaration order)."""
        return [_tenant_pool(tenant, self.seed) for tenant in self.tenants]

    def materialize(self) -> List[FleetRequest]:
        """The equivalent arrival-ordered :class:`FleetRequest` list."""
        names = [t.name for t in self.tenants]
        slos = [t.slo_ms for t in self.tenants]
        pools = self.pools()
        return [
            FleetRequest(
                tenant=names[idx],
                slo_ms=slos[idx],
                text_a=pools[idx][draw],
                text_b=None,
                arrival_ms=arrival,
            )
            for idx, draw, arrival in zip(
                self.tenant_idx.tolist(), self.draw.tolist(), self.arrival_ms.tolist()
            )
        ]


@dataclass(frozen=True)
class Scenario:
    """A named traffic shape over a tenant mix.

    ``profile`` selects the rate curve; the ``diurnal_*`` / ``flash_*`` /
    ``ramp_*`` fields parameterize it (unused ones are ignored).  Rates are
    the *aggregate* across tenants; each arrival is assigned a tenant by
    sampling the tenants' ``share`` weights.
    """

    name: str
    description: str
    duration_ms: float
    base_rate_rps: float                    # aggregate requests per second
    tenants: Tuple[TenantSpec, ...] = (TenantSpec(name="default"),)
    profile: str = "steady"                 # steady | diurnal | flash | ramp
    diurnal_amplitude: float = 0.0          # rate swing as a fraction of base
    diurnal_period_ms: float = 0.0
    flash_start_ms: float = 0.0
    flash_end_ms: float = 0.0
    flash_multiplier: float = 1.0
    ramp_end_multiplier: float = 1.0

    def __post_init__(self):
        if self.duration_ms <= 0:
            raise ValueError(f"duration_ms must be > 0, got {self.duration_ms}")
        if self.base_rate_rps <= 0:
            raise ValueError(f"base_rate_rps must be > 0, got {self.base_rate_rps}")
        if not self.tenants:
            raise ValueError("a scenario needs at least one tenant")
        if self.profile not in ("steady", "diurnal", "flash", "ramp"):
            raise ValueError(f"unknown rate profile {self.profile!r}")
        if self.profile == "diurnal" and not (
            0.0 <= self.diurnal_amplitude < 1.0 and self.diurnal_period_ms > 0
        ):
            raise ValueError("diurnal needs 0 <= amplitude < 1 and period > 0")
        if self.profile == "flash" and not (
            0.0 <= self.flash_start_ms < self.flash_end_ms <= self.duration_ms
            and self.flash_multiplier >= 1.0
        ):
            raise ValueError("flash needs start < end within duration, multiplier >= 1")
        if self.profile == "ramp" and self.ramp_end_multiplier < 1.0:
            raise ValueError("ramp_end_multiplier must be >= 1")

    # ------------------------------------------------------------------
    # rate curve
    # ------------------------------------------------------------------
    def rate_rps(self, t_ms: float) -> float:
        """Instantaneous aggregate arrival rate (requests/second) at ``t_ms``."""
        if self.profile == "steady":
            return self.base_rate_rps
        if self.profile == "diurnal":
            phase = 2.0 * math.pi * t_ms / self.diurnal_period_ms
            return self.base_rate_rps * (1.0 + self.diurnal_amplitude * math.sin(phase))
        if self.profile == "flash":
            if self.flash_start_ms <= t_ms < self.flash_end_ms:
                return self.base_rate_rps * self.flash_multiplier
            return self.base_rate_rps
        # ramp
        frac = min(1.0, t_ms / self.duration_ms)
        return self.base_rate_rps * (1.0 + (self.ramp_end_multiplier - 1.0) * frac)

    def rate_rps_array(self, t_ms: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`rate_rps` over an array of timestamps.

        The generator's hot path: thinning a million candidate arrivals
        prices the rate curve once per candidate, so the curve must be a
        single numpy expression rather than a Python call per arrival.
        Agrees elementwise with :meth:`rate_rps`.
        """
        if self.profile == "steady":
            return np.full(t_ms.shape, self.base_rate_rps)
        if self.profile == "diurnal":
            # Same operation order as rate_rps so the two paths agree to
            # the last bit (a reassociated phase differs by ~1 ulp, which
            # is enough to flip a thinning keep-decision).
            phase = 2.0 * math.pi * t_ms / self.diurnal_period_ms
            return self.base_rate_rps * (1.0 + self.diurnal_amplitude * np.sin(phase))
        if self.profile == "flash":
            burst = (t_ms >= self.flash_start_ms) & (t_ms < self.flash_end_ms)
            return np.where(
                burst,
                self.base_rate_rps * self.flash_multiplier,
                self.base_rate_rps,
            )
        # ramp
        frac = np.minimum(1.0, t_ms / self.duration_ms)
        return self.base_rate_rps * (1.0 + (self.ramp_end_multiplier - 1.0) * frac)

    def peak_rate_rps(self) -> float:
        """The curve's maximum (the thinning envelope)."""
        if self.profile == "diurnal":
            return self.base_rate_rps * (1.0 + self.diurnal_amplitude)
        if self.profile == "flash":
            return self.base_rate_rps * self.flash_multiplier
        if self.profile == "ramp":
            return self.base_rate_rps * self.ramp_end_multiplier
        return self.base_rate_rps

    # ------------------------------------------------------------------
    # trace generation
    # ------------------------------------------------------------------
    def generate_columns(
        self, seed: int = 0, rate_scale: float = 1.0, duration_scale: float = 1.0
    ) -> ColumnarTrace:
        """Sample one deterministic trace as a :class:`ColumnarTrace`.

        Draws the *identical* RNG stream as :meth:`generate` always has —
        same chunked exponential gaps, same one-shot thinning uniforms,
        same tenant/choice draws in declaration order — so
        ``generate_columns(...).materialize() == generate(...)`` holds
        exactly, request for request and bit for bit.  The differences are
        purely representational: pool indices instead of strings, and
        memory discipline (in-place cumsum, sliced thinning, prompt
        frees) that keeps a 100M-request trace inside a few GB.

        Args:
            seed: RNG seed; equal arguments give byte-identical traces.
            rate_scale: Multiplier on the whole rate curve (lets tests and
                quick profiles shrink a scenario without reshaping it).
            duration_scale: Multiplier on the scenario duration.

        Returns:
            The trace as arrival-ordered parallel columns.
        """
        if rate_scale <= 0 or duration_scale <= 0:
            raise ValueError("rate_scale and duration_scale must be > 0")
        rng = np.random.default_rng([seed, _stable_hash(self.name)])
        duration = self.duration_ms * duration_scale
        # Stretch the curve's time axis with the duration so a scaled
        # flash-crowd keeps its burst in the same relative window.
        peak_per_ms = self.peak_rate_rps() * rate_scale / 1000.0

        # 1. Candidate arrivals: a homogeneous Poisson process at the peak
        #    rate, drawn as vectorized exponential gaps.  The chunk size is
        #    a deterministic function of the expected count, so the draw
        #    sequence — and therefore the trace — depends only on the
        #    arguments, never on timing or platform.
        mean_gap = 1.0 / peak_per_ms
        chunk = int(duration * peak_per_ms * 1.05) + 64
        _tune_malloc_for_giant_traces(chunk)
        blocks = [rng.exponential(mean_gap, size=chunk)]
        total = float(blocks[0].sum())
        while total < duration:
            block = rng.exponential(mean_gap, size=chunk)
            blocks.append(block)
            total += float(block.sum())
        gaps = np.concatenate(blocks) if len(blocks) > 1 else blocks[0]
        del blocks
        # cumsum of non-negative gaps is non-decreasing, so the historical
        # boolean filter ``times[times < duration]`` selects exactly the
        # prefix searchsorted finds — same elements, no 800MB mask copy.
        times = np.cumsum(gaps, out=gaps)
        n = int(np.searchsorted(times, duration, side="left"))
        times = times[:n]

        # 2. Poisson thinning: keep each candidate with probability
        #    rate(t) / peak.  Historically the uniforms came from a single
        #    ``rng.uniform(size=n)`` call; ``Generator.random`` fills the
        #    identical doubles from the identical stream (uniform is
        #    off + scale * random with off=0, scale=1, both exact), and
        #    filling them chunk by chunk into one reused scratch buffer
        #    draws the very same sequence — the generator has no carry
        #    between calls — without ever materializing the multi-GB
        #    uniform column.  Pinned by a stream-equivalence test in
        #    tests/fleet.  The rate curve is priced in the same slices
        #    because it is elementwise, so slicing cannot change a single
        #    keep decision but caps the working set.
        keep = np.empty(n, dtype=bool)
        step = 1 << 22
        ubuf = np.empty(min(step, n))
        for lo in range(0, n, step):
            sl = slice(lo, min(lo + step, n))
            u = rng.random(out=ubuf[: sl.stop - lo])
            rates_per_ms = self.rate_rps_array(times[sl] / duration_scale)
            np.multiply(rates_per_ms, rate_scale / 1000.0, out=rates_per_ms)
            np.multiply(u, peak_per_ms, out=u)
            np.less_equal(u, rates_per_ms, out=keep[sl])
        arrival = np.ascontiguousarray(times[keep])
        del times, keep, gaps
        count = int(arrival.shape[0])

        # 3. Tenant assignment and per-tenant text draws, batched by tenant
        #    in declaration order (a fixed order keeps the stream stable).
        shares = np.array([t.share for t in self.tenants], dtype=float)
        shares /= shares.sum()
        if len(self.tenants) == 1 and count:
            # ``choice(1, size=n, p=[1.0])`` consumes exactly n doubles
            # from the stream and always returns zeros; burn those doubles
            # through the thinning scratch buffer instead of paying the
            # cdf search (or an 800MB throwaway column).  Pinned by a
            # stream-equivalence test in tests/fleet.
            for lo in range(0, count, step):
                rng.random(out=ubuf[: min(step, count - lo)])
            tenant_idx = np.zeros(count, dtype=np.int64)
        else:
            tenant_idx = rng.choice(len(self.tenants), size=count, p=shares)
        del ubuf
        if len(self.tenants) == 1 and count:
            # Single tenant: every candidate is "mine", so the masked
            # scatter below would be an identity permutation — draw the
            # same stream segment straight into the column.
            draw = rng.integers(self.tenants[0].pool_size, size=count)
        else:
            draw = np.zeros(count, dtype=np.int64)
            for idx, tenant in enumerate(self.tenants):
                mine = tenant_idx == idx
                picks = int(mine.sum())
                if not picks:
                    continue
                # len(pool) == pool_size, so drawing against the size keeps
                # the stream identical without building the pool here.
                draw[mine] = rng.integers(tenant.pool_size, size=picks)

        # Read-only: runs sharing this trace (the planner's candidates)
        # share its columns and the bucket column memoized from them.
        for column in (arrival, tenant_idx, draw):
            column.flags.writeable = False
        return ColumnarTrace(
            name=self.name,
            seed=seed,
            duration_ms=duration,
            tenants=self.tenants,
            arrival_ms=arrival,
            tenant_idx=tenant_idx,
            draw=draw,
        )

    def generate(
        self, seed: int = 0, rate_scale: float = 1.0, duration_scale: float = 1.0
    ) -> List[FleetRequest]:
        """Sample one deterministic trace of this scenario.

        A thin materializing wrapper over :meth:`generate_columns` — the
        columns are the single source of truth for the arrival process, so
        the object and columnar representations cannot drift apart.

        Args:
            seed: RNG seed; equal arguments give byte-identical traces.
            rate_scale: Multiplier on the whole rate curve (lets tests and
                quick profiles shrink a scenario without reshaping it).
            duration_scale: Multiplier on the scenario duration.

        Returns:
            Arrival-ordered :class:`FleetRequest` list (possibly empty for
            tiny scales — degenerate traces are legal fleet inputs).
        """
        return self.generate_columns(seed, rate_scale, duration_scale).materialize()

    def scaled(self, **overrides) -> "Scenario":
        """A copy with fields replaced (tests tweak rates without rebuilding)."""
        return replace(self, **overrides)


def _stable_hash(name: str) -> int:
    """A platform-stable 32-bit hash of the scenario name (seeds the rng)."""
    import zlib

    return zlib.crc32(name.encode("utf-8"))


def _tenant_pool(tenant: TenantSpec, seed: int) -> List[str]:
    """The tenant's deterministic pool of distinct texts.

    Word counts are drawn uniformly from the tenant's range; words come
    from a compact synthetic vocabulary, prefixed with the tenant name so
    no two tenants collide in the fleet-wide tokenization caches.
    """
    rng = np.random.default_rng([seed, _stable_hash(tenant.name), 1])
    pool = []
    for _ in range(tenant.pool_size):
        words = int(rng.integers(tenant.min_words, tenant.max_words + 1))
        pool.append(
            " ".join(f"{tenant.name}w{int(rng.integers(0, 500))}" for _ in range(words))
        )
    return pool


# ----------------------------------------------------------------------
# the built-in scenario catalog
# ----------------------------------------------------------------------
def builtin_scenarios() -> Dict[str, Scenario]:
    """The scenario catalog behind ``repro.cli loadtest --scenario``.

    Rates are sized for a handful of simulated ZCU102-class replicas of a
    small model; ``rate_scale`` shrinks or grows any of them without
    changing shape.
    """
    return {
        s.name: s
        for s in (
            Scenario(
                name="steady",
                description="constant-rate Poisson steady state",
                duration_ms=240.0,
                base_rate_rps=900.0,
            ),
            Scenario(
                name="diurnal",
                description="sinusoidal day/night curve (compressed to ms)",
                duration_ms=240.0,
                base_rate_rps=800.0,
                profile="diurnal",
                diurnal_amplitude=0.7,
                diurnal_period_ms=120.0,
            ),
            Scenario(
                name="flash-crowd",
                description="steady baseline with an 8x burst window",
                duration_ms=300.0,
                base_rate_rps=300.0,
                profile="flash",
                flash_start_ms=80.0,
                flash_end_ms=150.0,
                flash_multiplier=8.0,
            ),
            Scenario(
                name="ramp",
                description="linear ramp to 5x the starting rate",
                duration_ms=240.0,
                base_rate_rps=400.0,
                profile="ramp",
                ramp_end_multiplier=5.0,
            ),
            Scenario(
                name="multi-tenant",
                description="three tenants with distinct SLOs and lengths",
                duration_ms=240.0,
                base_rate_rps=900.0,
                tenants=(
                    TenantSpec(
                        name="interactive",
                        share=0.5,
                        slo_ms=60.0,
                        min_words=3,
                        max_words=10,
                        pool_size=24,
                    ),
                    TenantSpec(
                        name="standard",
                        share=0.3,
                        slo_ms=150.0,
                        min_words=8,
                        max_words=24,
                        pool_size=32,
                    ),
                    TenantSpec(
                        name="batch",
                        share=0.2,
                        slo_ms=600.0,
                        min_words=24,
                        max_words=56,
                        pool_size=16,
                    ),
                ),
            ),
        )
    }


SCENARIO_NAMES: Tuple[str, ...] = tuple(sorted(builtin_scenarios()))
