"""Runtime-compiled C kernel for the columnar fleet engine's arrival sweep.

The columnar engine's hot loop — project, admit/shed, enqueue, flush —
is a *sequential* decision process (each admission depends on the state
the previous one left), so it cannot be vectorized as numpy whole-array
ops without changing semantics.  It can, however, be compiled: this
module carries a small C translation of the columnar engine's admission
rule (``ColumnarFleetEngine._attempt`` with every resilience mechanism
off), builds it once per process with the system C compiler, and loads
it through :mod:`ctypes`.

Bit-exactness contract: the C code performs the *same IEEE-754 double
operations in the same order* as that Python rule (which in turn
mirrors the event-loop engine).  The build deliberately avoids every flag that
would let the compiler reassociate or contract floating point
(``-ffp-contract=off``, no ``-ffast-math``, no ``-march=native``), so
x86-64 SSE2 / aarch64 doubles come out bit-identical to CPython's —
a property the differential tests assert rather than assume.

When no C compiler is available (or ``REPRO_COLUMNAR_NATIVE=0`` is set)
the engine runs the Python rule per arrival; results are identical
either way, only wall-clock changes.  The reason is kept, compiler
stderr included, and :func:`build_error` returns it.

Observed, autoscaled and gray runs take the kernel too: it reads a
per-replica gray slowdown, and it can log every flush (replica slot,
bucket, size, start, service, finish, offset of its completions) plus
each completion's enqueue time.  The engine's post-pass turns those
logs into observer records and autoscaler history.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile
from typing import Optional

_SOURCE = r"""
#include <math.h>
#include <string.h>

/* One sweep's state (L live replicas, B buckets, M max batch):
 *   price_full [L*B]        full-batch service ms per bucket
 *   ref_price  [L]          admission reference-batch price
 *   svc        [L*B*(M+1)]  service ms per (bucket, batch size); col 0 unused
 *   slowdown   [L]          gray-window service multiplier, 1.0 when healthy
 *   depth      [L*B]        queue depths (always < M between events)
 *   qidx/qenq  [L*B*M]      queued request index / enqueue time, FIFO
 *   seen       [L*B]        bucket ever used on this replica
 *   order      [L*B]        bucket slots in first-use order (order_n valid)
 *   next_dl    [L]          earliest pending deadline, INFINITY when none
 *   done_log   [cap]        completed request indices, flush order
 *   done_enq   [cap]        their enqueue times (NULL: not logged)
 *   log_ints   [cap*4]      per flush: slot, bucket, take, done_log offset
 *   log_times  [cap*3]      per flush: start, service, finish (NULL: not logged)
 */
typedef struct {
    long long L, B, M;
    double wait_ms;
    double *busy_until, *busy_ms;
    long long *batches, *served;
    const double *price_full, *ref_price, *svc, *slowdown;
    int *depth;
    long long *qidx;
    double *qenq;
    unsigned char *seen;
    int *order, *order_n;
    double *next_dl;
    const long long *bucket_value;
    unsigned char *shed;
    double *finish;
    long long *done_log;
    double *done_enq;
    int *log_ints;
    double *log_times;
    long long done_n, log_n;
    double *due_dl;
    long long *due_bv, *due_b;
} Sweep;

static void recompute_next_dl(Sweep *s, long long r) {
    long long B = s->B, M = s->M;
    double nd = INFINITY;
    long long on = s->order_n[r];
    for (long long j = 0; j < on; ++j) {
        long long b = s->order[r * B + j];
        if (s->depth[r * B + b] > 0) {
            double cand = s->qenq[(r * B + b) * M] + s->wait_ms;
            if (cand < nd) nd = cand;
        }
    }
    s->next_dl[r] = nd;
}

static void flush_bucket(Sweep *s, long long r, long long b, double flush_ms) {
    long long B = s->B, M = s->M;
    long long n = s->depth[r * B + b];
    double service = s->svc[(r * B + b) * (M + 1) + n];
    /* Gray windows stretch realized service: one IEEE multiply, and none
     * at all while healthy (the Python flush's exact branch). */
    if (s->slowdown[r] != 1.0) service = service * s->slowdown[r];
    double start = flush_ms > s->busy_until[r] ? flush_ms : s->busy_until[r];
    double fin = start + service;
    s->busy_until[r] = fin;
    s->busy_ms[r] += service;
    s->batches[r] += 1;
    s->served[r] += n;
    if (s->log_ints) {
        long long k = s->log_n++;
        s->log_ints[4 * k] = (int)r;
        s->log_ints[4 * k + 1] = (int)b;
        s->log_ints[4 * k + 2] = (int)n;
        s->log_ints[4 * k + 3] = (int)s->done_n;
        s->log_times[3 * k] = start;
        s->log_times[3 * k + 1] = service;
        s->log_times[3 * k + 2] = fin;
    }
    for (long long j = 0; j < n; ++j) {
        long long idx = s->qidx[(r * B + b) * M + j];
        s->shed[idx] = 0;
        s->finish[idx] = fin;
        if (s->done_enq) s->done_enq[s->done_n] = s->qenq[(r * B + b) * M + j];
        s->done_log[s->done_n++] = idx;
    }
    s->depth[r * B + b] = 0;
    recompute_next_dl(s, r);
}

static void fire_dues(Sweep *s, long long r, double now_ms) {
    /* Collect every due (deadline, bucket) pair first, then flush — a
     * flush only empties queues, so the due set is fixed up front
     * (mirrors DynamicBatcher.due_batches). */
    long long B = s->B, M = s->M;
    double *due_dl = s->due_dl;
    long long *due_bv = s->due_bv, *due_b = s->due_b;
    long long count = 0;
    long long on = s->order_n[r];
    for (long long j = 0; j < on; ++j) {
        long long b = s->order[r * B + j];
        if (s->depth[r * B + b] > 0) {
            double dl = s->qenq[(r * B + b) * M] + s->wait_ms;
            if (dl <= now_ms) {
                due_dl[count] = dl;
                due_bv[count] = s->bucket_value[b];
                due_b[count] = b;
                ++count;
            }
        }
    }
    /* Insertion sort by (deadline, bucket value) — Python's due.sort(). */
    for (long long i = 1; i < count; ++i) {
        double dl = due_dl[i];
        long long bv = due_bv[i], b = due_b[i];
        long long j = i - 1;
        while (j >= 0 && (due_dl[j] > dl || (due_dl[j] == dl && due_bv[j] > bv))) {
            due_dl[j + 1] = due_dl[j];
            due_bv[j + 1] = due_bv[j];
            due_b[j + 1] = due_b[j];
            --j;
        }
        due_dl[j + 1] = dl;
        due_bv[j + 1] = bv;
        due_b[j + 1] = b;
    }
    for (long long i = 0; i < count; ++i)
        flush_bucket(s, r, due_b[i], due_dl[i]);
}

static double global_next(const Sweep *s) {
    double g = INFINITY;
    for (long long r = 0; r < s->L; ++r)
        if (s->next_dl[r] < g) g = s->next_dl[r];
    return g;
}

/* The admission projection: minimum over live replicas, strict < keeping
 * the lowest index on ties (Fleet._attempt's loop).  Shared by the
 * per-arrival path and the shed-skip binary search so both evaluate the
 * byte-identical FP expression. */
static double best_projection(const Sweep *s, double t, long long *best_out) {
    long long B = s->B, M = s->M;
    long long best = 0;
    double bestp = 0.0;
    for (long long r = 0; r < s->L; ++r) {
        double backlog = s->busy_until[r] - t;
        if (backlog < 0.0) backlog = 0.0;
        double queued = 0.0;
        long long on = s->order_n[r];
        for (long long j = 0; j < on; ++j) {
            long long b = s->order[r * B + j];
            long long d = s->depth[r * B + b];
            if (d > 0)
                queued += (double)((d + M - 1) / M) * s->price_full[r * B + b];
        }
        double proj = backlog + queued + s->ref_price[r] + s->wait_ms;
        if (r == 0 || proj < bestp) {
            bestp = proj;
            best = r;
        }
    }
    *best_out = best;
    return bestp;
}

/* counts[0] / counts[1] receive the completions and flushes logged. */
void arrival_run(long long i0, long long i1,
                 const double *arrival, const int *bucket, const double *slo,
                 long long L, long long B, long long M,
                 double wait_ms, double admit_factor, double uniform_slo,
                 double *busy_until, double *busy_ms,
                 long long *batches, long long *served,
                 const double *price_full, const double *ref_price,
                 const double *svc, const double *slowdown,
                 int *depth, long long *qidx, double *qenq,
                 unsigned char *seen, int *order, int *order_n,
                 double *next_dl, const long long *bucket_value,
                 unsigned char *shed, double *finish,
                 long long *done_log, double *done_enq,
                 int *log_ints, double *log_times, long long *counts,
                 double *due_dl, long long *due_bv, long long *due_b) {
    Sweep sw = {
        .L = L, .B = B, .M = M, .wait_ms = wait_ms,
        .busy_until = busy_until, .busy_ms = busy_ms,
        .batches = batches, .served = served,
        .price_full = price_full, .ref_price = ref_price, .svc = svc,
        .slowdown = slowdown, .depth = depth, .qidx = qidx, .qenq = qenq,
        .seen = seen, .order = order, .order_n = order_n,
        .next_dl = next_dl, .bucket_value = bucket_value,
        .shed = shed, .finish = finish,
        .done_log = done_log, .done_enq = done_enq,
        .log_ints = log_ints, .log_times = log_times,
        .done_n = 0, .log_n = 0,
        .due_dl = due_dl, .due_bv = due_bv, .due_b = due_b,
    };
    Sweep *s = &sw;
    double g = global_next(s);
    /* With a uniform per-request SLO the shed threshold is one constant
     * (the same product admit_factor * slo[i] the per-arrival check
     * computes); <= 0 disables the shed-skip fast path. */
    double uthresh = uniform_slo > 0.0 ? admit_factor * uniform_slo : -1.0;
    for (long long i = i0; i < i1; ++i) {
        double t = arrival[i];
        if (t >= g) {
            /* Fleet.advance: live replicas in id order. */
            for (long long r = 0; r < L; ++r)
                if (next_dl[r] <= t) fire_dues(s, r, t);
            g = global_next(s);
        }
        long long best;
        double bestp = best_projection(s, t, &best);
        if (bestp > admit_factor * slo[i]) {
            shed[i] = 1;
            if (uthresh > 0.0 && i + 1 < i1) {
                /* Shed-skip: replica state is frozen while requests shed,
                 * and the projection is FP-monotone non-increasing in t
                 * (IEEE subtraction/addition are monotone, min of
                 * monotone is monotone), so within the arrivals that
                 * precede the next deadline g the shed -> admit boundary
                 * is a clean threshold.  Binary-search it with the exact
                 * per-arrival predicate, then bulk-mark the sheds. */
                long long lim = i1;
                if (g < INFINITY) {
                    long long lo = i + 1, hi = i1;
                    while (lo < hi) {
                        long long mid = lo + (hi - lo) / 2;
                        if (arrival[mid] >= g) hi = mid; else lo = mid + 1;
                    }
                    lim = lo;
                }
                long long lo = i + 1, hi = lim, scratch;
                while (lo < hi) {
                    long long mid = lo + (hi - lo) / 2;
                    double p = best_projection(s, arrival[mid], &scratch);
                    if (p > uthresh) lo = mid + 1; else hi = mid;
                }
                if (lo > i + 1) {
                    memset(shed + i + 1, 1, (size_t)(lo - (i + 1)));
                    i = lo - 1;
                }
            }
            continue;
        }
        long long r = best;
        long long b = bucket[i];
        long long d = depth[r * B + b];
        qidx[(r * B + b) * M + d] = i;
        qenq[(r * B + b) * M + d] = t;
        depth[r * B + b] = (int)(d + 1);
        if (d == 0) {
            if (!seen[r * B + b]) {
                seen[r * B + b] = 1;
                order[r * B + order_n[r]] = (int)b;
                order_n[r] += 1;
            }
            double dl = t + wait_ms;
            if (dl < next_dl[r]) next_dl[r] = dl;
            if (dl < g) g = dl;
        }
        if (d + 1 >= M) {
            flush_bucket(s, r, b, t);
            g = global_next(s);
        }
    }
    counts[0] = s->done_n;
    counts[1] = s->log_n;
}
"""

# The kernel's int32 columns (queue depths, bucket orders, batch-log
# rows) bound one call's completions: a call may complete at most its
# arrivals plus the requests already queued, and every batch-log offset
# is below that count.
INDEX_LIMIT = 2**31 - 1

_lib = None
_load_attempted = False
_build_error: Optional[str] = None


def _compiler() -> Optional[str]:
    for cand in ("cc", "gcc", "clang"):
        path = shutil.which(cand)
        if path:
            return path
    return None


def _nullable(dtype):
    """An ``ndpointer`` argtype that also accepts ``None`` (a NULL log)."""
    import numpy.ctypeslib as npc

    base = npc.ndpointer(dtype, flags="C_CONTIGUOUS")

    class _Nullable(base):
        @classmethod
        def from_param(cls, obj):
            if obj is None:
                return None
            return base.from_param(obj)

    return _Nullable


def _build() -> Optional[ctypes.CDLL]:
    """Compile and load the kernel; on failure record why and return None."""
    global _build_error
    compiler = _compiler()
    if compiler is None:
        _build_error = "no C compiler found (tried cc, gcc, clang)"
        return None
    workdir = tempfile.mkdtemp(prefix="repro-columnar-")
    try:
        src = os.path.join(workdir, "arrival_run.c")
        lib = os.path.join(workdir, "arrival_run.so")
        with open(src, "w") as fh:
            fh.write(_SOURCE)
        cmd = [
            compiler,
            "-O3",
            "-fPIC",
            "-shared",
            # Forbid FMA contraction: a fused multiply-add rounds once where
            # Python rounds twice, which would break bit-exactness.
            "-ffp-contract=off",
            "-o",
            lib,
            src,
            "-lm",
        ]
        try:
            proc = subprocess.run(
                cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120
            )
        except (OSError, subprocess.SubprocessError) as exc:
            _build_error = f"{compiler} could not run: {exc}"
            return None
        if proc.returncode != 0:
            stderr = proc.stderr.decode("utf-8", "replace").strip()
            _build_error = f"{compiler} exited {proc.returncode}: {stderr}"
            return None
        try:
            handle = ctypes.CDLL(lib)
        except OSError as exc:
            _build_error = f"could not load the compiled kernel: {exc}"
            return None
    finally:
        # The loaded library stays mapped after its file is unlinked.
        shutil.rmtree(workdir, ignore_errors=True)

    import numpy as np
    import numpy.ctypeslib as npc

    f8 = npc.ndpointer(np.float64, flags="C_CONTIGUOUS")
    i8 = npc.ndpointer(np.int64, flags="C_CONTIGUOUS")
    i4 = npc.ndpointer(np.int32, flags="C_CONTIGUOUS")
    u1 = npc.ndpointer(np.uint8, flags="C_CONTIGUOUS")
    ll = ctypes.c_longlong
    dd = ctypes.c_double
    handle.arrival_run.restype = None
    handle.arrival_run.argtypes = [
        ll, ll,                    # i0, i1
        f8, i4, f8,                # arrival, bucket, slo
        ll, ll, ll,                # L, B, M
        dd, dd, dd,                # wait_ms, admit_factor, uniform_slo
        f8, f8, i8, i8,            # busy_until, busy_ms, batches, served
        f8, f8, f8, f8,            # price_full, ref_price, svc, slowdown
        i4, i8, f8,                # depth, qidx, qenq
        u1, i4, i4,                # seen, order, order_n
        f8, i8,                    # next_dl, bucket_value
        u1, f8,                    # shed, finish
        i8, _nullable(np.float64), # done_log, done_enq (None = not logged)
        _nullable(np.int32),       # log_ints  [cap, 4] (None = not logged)
        _nullable(np.float64),     # log_times [cap, 3] (None = not logged)
        i8,                        # counts: completions, flushes
        f8, i8, i8,                # due_dl, due_bv, due_b scratch
    ]
    return handle


def load() -> Optional[ctypes.CDLL]:
    """The compiled kernel, building it on first call; ``None`` if unavailable."""
    global _lib, _load_attempted, _build_error
    if _load_attempted:
        return _lib
    _load_attempted = True
    if os.environ.get("REPRO_COLUMNAR_NATIVE", "1") == "0":
        _lib = None
        _build_error = "disabled by REPRO_COLUMNAR_NATIVE=0"
    else:
        _lib = _build()
    return _lib


def available() -> bool:
    """Whether the native sweep can run in this process."""
    return load() is not None


def build_error() -> Optional[str]:
    """Why the kernel is unavailable (compiler stderr included), else None."""
    load()
    return _build_error
