"""Runtime-compiled C kernel for the columnar fleet engine's arrival sweep.

The columnar engine's hot loop — project, admit/shed, enqueue, flush —
is a *sequential* decision process (each admission depends on the state
the previous one left), so it cannot be vectorized as numpy whole-array
ops without changing semantics.  It can, however, be compiled: this
module carries a C translation of the admission rule both fleet engines
share — :func:`repro.fleet.chaos.admit` with every resilience mechanism
(timeout, circuit breakers, brownout ladder, hedging) and
:func:`repro.fleet.chaos.retry_delay` with its retry budget and
splitmix64 backoff — builds it once per process with the system C
compiler, and loads it through :mod:`ctypes`.  A policy with every
mechanism off is the rule's special case, with a shed-skip fast path.

Bit-exactness contract: the C code performs the *same IEEE-754 double
operations in the same order* as those Python functions and the
event-loop engine around them.  The build deliberately avoids every
flag that would let the compiler reassociate or contract floating point
(``-ffp-contract=off``, no ``-ffast-math``, no ``-march=native``), so
x86-64 SSE2 / aarch64 doubles come out bit-identical to CPython's —
a property the differential tests assert rather than assume.

The kernel keeps no state of its own: replica queues, breakers, the
brownout ladder, the retry budget and heap and hedged pairs live in
arrays the engine owns, one row per replica ever added, which each call
updates in place, so a run can stop at any control event, hand its
state across a shard boundary and go on.  It can log every
flush (replica id, bucket, size, start, service, finish, offset of
its completions) plus each completion's enqueue time, and every final
shed, breaker transition and brownout step in decision order; the
engine's post-pass turns those logs into observer records and
autoscaler history.

When no C compiler is available (or ``REPRO_COLUMNAR_NATIVE=0`` is set)
columnar runs go to the analytic event loop, whose reports are
byte-identical.  The reason is kept, compiler stderr included, and
:func:`build_error` returns it.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile
from typing import Optional

from .chaos import _MASK64

_SOURCE = r"""
#include <math.h>
#include <string.h>

/* Slots of the scalar arguments; _native.py mirrors them.
 *   fv = fs then fp, iv = is then ip:
 *   fs  doubles carried from call to call
 *   fp  run constants (doubles; brownout levels from P_LEVELS on)
 *   is  integers carried from call to call, then per-call outputs
 *   ip  run constants (integers) */
enum { P_WAIT, P_FACTOR, P_USLO, P_LIMIT, P_BACKOFF, P_JITTER, P_RATIO,
       P_BURST, P_HEDGE, P_TIMEOUT, P_STRAGGLE, P_THRESHOLD, P_OPEN,
       P_DWELL, P_LEVELS };
enum { Q_L, Q_N, Q_B, Q_M, Q_INCLUSIVE, Q_ADVANCE, Q_MIGRANTS, Q_RETRIES,
       Q_HEDGE, Q_BREAKER, Q_BROWNOUT, Q_WINDOW, Q_MIN_SAMPLES, Q_PROBES,
       Q_LEVELS, Q_SEED };
enum { F_TOKENS, F_MIN_SLO, F_CHANGE, F_NOW, F_COUNT };
enum { I_LEVEL, I_SEQ, I_HEAP, I_MIGRATIONS, I_RETRIES, I_EXHAUSTED,
       I_TIMEOUTS, I_HEDGES, I_WINS, I_ESC, I_DEESC, I_DONE, I_FLUSHES,
       I_SHEDS, I_EVENTS, I_EV_CAP, I_HEAP_CAP, I_STOP, I_FINISHED, I_ERROR,
       I_COUNT };
/* Per-replica breaker integers (br), breaker states, logged event kinds
 * and shed codes (chaos.SHED_REASON_OF_CODE). */
enum { BR_STATE, BR_PROBES, BR_N, BR_OPENS, BR_CLOSES, BR_SIZE };
enum { CLOSED, OPEN, HALF_OPEN };
enum { EV_SHED, EV_BREAKER, EV_BROWNOUT };
enum { OVERLOAD = 1, NO_CAPACITY, BREAKER, TIMEOUT };

/* One sweep's state, packed into a few buffers, each the listed arrays
 * back to back.  Every replica ever added owns one row (N rows, by
 * replica id); the L live ones are listed in live[L], ascending.  B is
 * the bucket count, M the max batch:
 *   prices  ref_price [N]          admission reference-batch price
 *           price_full [N*B]       full-batch service ms per bucket
 *           svc [N*B*(M+1)]        service ms per (bucket, size); col 0 unused
 *   rf      busy_until, busy_ms [N]
 *           slowdown [N]           gray-window multiplier, 1.0 when healthy
 *           next_dl [N]            earliest pending deadline, INFINITY if none
 *           br_until [N]           breaker open hold
 *   ri      batches, served [N], br [N*BR_SIZE] breaker integers
 *   li      order_n [N]; depth [N*B] queue depths (< M between events);
 *           order [N*B] bucket slots in first-use order; seen [N*B]
 *   qidx/qenq  [N*B*M]      queued request index / enqueue time, FIFO
 *   qhedge     [N*B*M]      hedged copy: twin row * 2 + is-primary, else -1
 *                           (NULL without hedging)
 *   br_recent  [N*window]   breakers' recent straggle flags (NULL: no breaker)
 *   done_log   [cap]        completed request indices, flush order
 *   done_enq   [cap]        their enqueue times (NULL: not logged)
 *   log_ints   [cap*4]      per flush: replica, bucket, take, done_log offset
 *   log_times  [cap*3]      per flush: start, service, finish (NULL: not logged)
 *   shed_log   [cap]        final sheds' request indices (NULL: read the column)
 *   h_due/h_key             retry min-heap on (due, seq) with room for
 *                           is[I_HEAP_CAP]; key = seq, idx, attempt (NULL
 *                           without retries)
 *   ev_i/ev_t               observer events: kind, two ints, time (NULL: none)
 *   migrants   [n*2]        evicted (request, bucket) pairs to re-place
 */
typedef struct {
    long long L, B, M;
    const long long *live;
    int resilient, breaker, hedge, brownout;
    double wait_ms, g;
    double *busy_until, *busy_ms;
    long long *batches, *served;
    const double *price_full, *ref_price, *svc, *slowdown;
    int *depth;
    long long *qidx;
    double *qenq;
    int *qhedge;
    int *seen;
    int *order, *order_n;
    double *next_dl;
    const long long *bucket_value;
    const int *bucket;
    const double *slo;
    unsigned char *shed;
    double *finish;
    long long *done_log;
    double *done_enq;
    int *log_ints;
    double *log_times;
    long long *shed_log;
    double *due_dl;
    long long *due_bv, *due_b;
    const double *fp;
    const long long *ip;
    double *fs;
    long long *is;
    long long *br;
    double *br_until;
    unsigned char *br_recent;
    double *h_due;
    long long *h_key;
    int *ev_i;
    double *ev_t;
} Sweep;

static unsigned long long splitmix64(unsigned long long x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/* chaos.backoff_delay_ms; the seed arrives masked to 64 bits. */
double backoff_ms(double base_ms, double jitter, unsigned long long seed,
                  long long index, long long attempt) {
    double base = base_ms * ldexp(1.0, (int)(attempt - 1));
    if (jitter == 0.0) return base;
    unsigned long long mixed = splitmix64(
        splitmix64(splitmix64(seed) ^ (unsigned long long)index)
        ^ (unsigned long long)attempt);
    return base * (1.0 + jitter * ((double)mixed / 18446744073709551616.0));
}

static void log_event(Sweep *s, int kind, long long a, long long b, double t) {
    if (!s->ev_i) return;
    long long k = s->is[I_EVENTS]++;
    s->ev_i[3 * k] = kind;
    s->ev_i[3 * k + 1] = (int)a;
    s->ev_i[3 * k + 2] = (int)b;
    s->ev_t[k] = t;
}

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

static double global_next(const Sweep *s) {
    double g = INFINITY;
    for (long long j = 0; j < s->L; ++j)
        if (s->next_dl[s->live[j]] < g) g = s->next_dl[s->live[j]];
    return g;
}

/* ---- CircuitBreaker, one per replica ---- */
static void breaker_open(Sweep *s, long long r, double fin) {
    s->br[BR_SIZE * r + BR_STATE] = OPEN;
    s->br_until[r] = fin + s->fp[P_OPEN];
    s->br[BR_SIZE * r + BR_OPENS] += 1;
    log_event(s, EV_BREAKER, r, OPEN, fin);
}

/* CircuitBreaker.observe: score one dispatched batch. */
static void breaker_observe(Sweep *s, long long r, double fin, int straggled) {
    long long *b = s->br + BR_SIZE * r;
    if (b[BR_STATE] == HALF_OPEN) {
        if (straggled) {
            breaker_open(s, r, fin);
        } else if (--b[BR_PROBES] <= 0) {
            b[BR_STATE] = CLOSED;
            b[BR_N] = 0;
            b[BR_CLOSES] += 1;
            log_event(s, EV_BREAKER, r, CLOSED, fin);
        }
        return;
    }
    if (b[BR_STATE] == OPEN) return;
    long long w = s->ip[Q_WINDOW];
    unsigned char *recent = s->br_recent + r * w;
    if (b[BR_N] == w) {
        memmove(recent, recent + 1, (size_t)(w - 1));
        b[BR_N] = w - 1;
    }
    recent[b[BR_N]++] = (unsigned char)straggled;
    if (b[BR_N] >= s->ip[Q_MIN_SAMPLES]) {
        long long straggles = 0;
        for (long long j = 0; j < b[BR_N]; ++j) straggles += recent[j];
        if ((double)straggles >= s->fp[P_THRESHOLD] * (double)b[BR_N])
            breaker_open(s, r, fin);
    }
}

/* CircuitBreaker.allows: lazily moves open -> half-open past the hold. */
static int breaker_allows(Sweep *s, long long r, double now) {
    long long *b = s->br + BR_SIZE * r;
    if (b[BR_STATE] == OPEN) {
        if (now < s->br_until[r]) return 0;
        b[BR_STATE] = HALF_OPEN;
        b[BR_PROBES] = s->ip[Q_PROBES];
        b[BR_N] = 0;
        log_event(s, EV_BREAKER, r, HALF_OPEN, now);
    }
    return 1;
}

/* The first copy of a hedged pair to run cancels its queued twin
 * (DynamicBatcher.cancel); a win by the secondary copy is counted. */
static void cancel_twin(Sweep *s, int mark, long long b, long long idx) {
    long long B = s->B, M = s->M, tr = mark >> 1;
    long long q = (tr * B + b) * M, d = s->depth[tr * B + b], pos = 0;
    while (pos < d && s->qidx[q + pos] != idx) ++pos;
    if (pos == d) {
        s->is[I_ERROR] = idx + 1;
        return;
    }
    for (long long j = pos + 1; j < d; ++j) {
        s->qidx[q + j - 1] = s->qidx[q + j];
        s->qenq[q + j - 1] = s->qenq[q + j];
        s->qhedge[q + j - 1] = s->qhedge[q + j];
    }
    s->depth[tr * B + b] = (int)(d - 1);
    if (pos == 0) recompute_next_dl(s, tr);
    if (!(mark & 1)) s->is[I_WINS] += 1;
}

static void flush_bucket(Sweep *s, long long r, long long b, double flush_ms) {
    long long B = s->B, M = s->M, q = (r * B + b) * M;
    long long n = s->depth[r * B + b];
    double nominal = s->svc[(r * B + b) * (M + 1) + n];
    double service = nominal;
    /* Gray windows stretch realized service: one IEEE multiply, and none
     * at all while healthy (DeviceRouter.dispatch's exact branch). */
    if (s->slowdown[r] != 1.0) service = service * s->slowdown[r];
    double start = flush_ms > s->busy_until[r] ? flush_ms : s->busy_until[r];
    double fin = start + service;
    s->busy_until[r] = fin;
    s->busy_ms[r] += service;
    s->batches[r] += 1;
    s->served[r] += n;
    long long done_n = s->is[I_DONE];
    if (s->log_ints) {
        long long k = s->is[I_FLUSHES]++;
        s->log_ints[4 * k] = (int)r;
        s->log_ints[4 * k + 1] = (int)b;
        s->log_ints[4 * k + 2] = (int)n;
        s->log_ints[4 * k + 3] = (int)done_n;
        s->log_times[3 * k] = start;
        s->log_times[3 * k + 1] = service;
        s->log_times[3 * k + 2] = fin;
    }
    for (long long j = 0; j < n; ++j) {
        long long idx = s->qidx[q + j];
        s->shed[idx] = 0;
        s->finish[idx] = fin;
        if (s->done_enq) s->done_enq[done_n] = s->qenq[q + j];
        s->done_log[done_n++] = idx;
    }
    s->is[I_DONE] = done_n;
    s->depth[r * B + b] = 0;
    /* Fleet._install_batch_hook's consumer order: breaker, then hedging. */
    if (s->breaker)
        breaker_observe(s, r, fin, service > s->fp[P_STRAGGLE] * nominal);
    if (s->hedge)
        for (long long j = 0; j < n; ++j)
            if (s->qhedge[q + j] >= 0) cancel_twin(s, s->qhedge[q + j], b, s->qidx[q + j]);
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
    /* Insertion sort by (deadline, bucket value), as due_batches sorts. */
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

/* Fleet.advance: fire due deadlines on live replicas, id order. */
static void advance(Sweep *s, double t) {
    if (t >= s->g) {
        for (long long j = 0; j < s->L; ++j)
            if (s->next_dl[s->live[j]] <= t) fire_dues(s, s->live[j], t);
        s->g = global_next(s);
    }
}

/* Fleet.projected_latency_ms: one more request's latency on replica r. */
static inline __attribute__((always_inline)) double project(const Sweep *s, long long r, double t) {
    long long B = s->B, M = s->M;
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
    return backlog + queued + s->ref_price[r] + s->wait_ms;
}

/* The best projection, a strict < keeping the lowest id on ties.  The
 * shed-skip binary search evaluates it too, so both see the same bits. */
static double best_projection(const Sweep *s, double t, long long *best_out) {
    long long best = 0;
    double bestp = 0.0;
    for (long long j = 0; j < s->L; ++j) {
        long long r = s->live[j];
        double p = project(s, r, t);
        if (j == 0 || p < bestp) {
            bestp = p;
            best = r;
        }
    }
    *best_out = best;
    return bestp;
}

/* Enqueue one request; returns 1 when its batch flushed on the spot. */
static int enqueue(Sweep *s, long long r, long long b, long long idx, double t,
                   int mark) {
    long long B = s->B, M = s->M;
    long long d = s->depth[r * B + b];
    s->qidx[(r * B + b) * M + d] = idx;
    s->qenq[(r * B + b) * M + d] = t;
    if (s->hedge) s->qhedge[(r * B + b) * M + d] = mark;
    s->depth[r * B + b] = (int)(d + 1);
    if (d == 0) {
        if (!s->seen[r * B + b]) {
            s->seen[r * B + b] = 1;
            s->order[r * B + s->order_n[r]] = (int)b;
            s->order_n[r] += 1;
        }
        double dl = t + s->wait_ms;
        if (dl < s->next_dl[r]) s->next_dl[r] = dl;
        if (dl < s->g) s->g = dl;
    }
    if (d + 1 >= M) {
        flush_bucket(s, r, b, t);
        s->g = global_next(s);
        return 1;
    }
    return 0;
}

/* BrownoutLadder.step: move the ladder, return the admission bound. */
static double ladder_step(Sweep *s, double projected, double base, double now) {
    const double *levels = s->fp + P_LEVELS;
    long long level = s->is[I_LEVEL], top = s->ip[Q_LEVELS] - 1;
    if (level > 0 && now - s->fs[F_CHANGE] >= s->fp[P_DWELL]
        && projected <= base * levels[level - 1]) {
        level -= 1;
        s->fs[F_CHANGE] = now;
        s->is[I_DEESC] += 1;
        log_event(s, EV_BROWNOUT, level, 0, now);
    }
    double bound = base * levels[level];
    while (projected > bound && level < top) {
        level += 1;
        s->fs[F_CHANGE] = now;
        s->is[I_ESC] += 1;
        log_event(s, EV_BROWNOUT, level, 0, now);
        bound = base * levels[level];
    }
    s->is[I_LEVEL] = level;
    return bound;
}

static int heap_before(const Sweep *s, long long a, long long b) {
    return s->h_due[a] < s->h_due[b]
        || (s->h_due[a] == s->h_due[b] && s->h_key[3 * a] < s->h_key[3 * b]);
}

static void heap_swap(Sweep *s, long long a, long long b) {
    double due = s->h_due[a];
    s->h_due[a] = s->h_due[b];
    s->h_due[b] = due;
    for (int k = 0; k < 3; ++k) {
        long long v = s->h_key[3 * a + k];
        s->h_key[3 * a + k] = s->h_key[3 * b + k];
        s->h_key[3 * b + k] = v;
    }
}

/* heapq.heappush of (due, seq, idx, attempt); seq numbers retries in
 * scheduling order, like the event loop's _RETRY events. */
static void heap_push(Sweep *s, double due, long long idx, long long attempt) {
    long long k = s->is[I_HEAP]++;
    s->h_due[k] = due;
    s->h_key[3 * k] = s->is[I_SEQ]++;
    s->h_key[3 * k + 1] = idx;
    s->h_key[3 * k + 2] = attempt;
    while (k > 0 && heap_before(s, k, (k - 1) / 2)) {
        heap_swap(s, k, (k - 1) / 2);
        k = (k - 1) / 2;
    }
}

/* heapq.heappop, after the caller has read the top. */
static void heap_pop(Sweep *s) {
    long long n = --s->is[I_HEAP], k = 0;
    heap_swap(s, 0, n);
    for (;;) {
        long long c = 2 * k + 1;
        if (c >= n) break;
        if (c + 1 < n && heap_before(s, c + 1, c)) ++c;
        if (!heap_before(s, c, k)) break;
        heap_swap(s, k, c);
        k = c;
    }
}

static void final_shed(Sweep *s, long long idx, int reason, double now) {
    s->shed[idx] = (unsigned char)reason;
    if (s->shed_log) s->shed_log[s->is[I_SHEDS]++] = idx;
    log_event(s, EV_SHED, reason, 0, now);
}

/* Fleet._migrate_pending: re-place an evicted request on the survivor
 * projected soonest (admission does not re-run), or shed it. */
static void migrate(Sweep *s, long long idx, long long b, double now) {
    if (s->L == 0) {
        final_shed(s, idx, NO_CAPACITY, now);
        return;
    }
    long long best = s->live[0];
    double bestp = project(s, best, now);
    for (long long j = 1; j < s->L; ++j) {
        long long r = s->live[j];
        double p = project(s, r, now);
        if (p < bestp) {
            best = r;
            bestp = p;
        }
    }
    /* engine.submit fires the target's due deadlines before enqueueing. */
    fire_dues(s, best, now);
    enqueue(s, best, b, idx, now, -1);
    s->is[I_MIGRATIONS] += 1;
}

/* chaos.retry_delay: 1 with the backoff in *delay, 0 for a final shed. */
static int retry_delay(Sweep *s, long long idx, long long attempt, double *delay) {
    if (s->ip[Q_RETRIES] > 0 && attempt < s->ip[Q_RETRIES]) {
        /* RetryBudget.spend: a ratio of 0 never blocks. */
        if (s->fp[P_RATIO] <= 0.0 || s->fs[F_TOKENS] >= 1.0) {
            if (s->fp[P_RATIO] > 0.0) s->fs[F_TOKENS] = s->fs[F_TOKENS] - 1.0;
            s->is[I_RETRIES] += 1;
            *delay = backoff_ms(s->fp[P_BACKOFF], s->fp[P_JITTER],
                                (unsigned long long)s->ip[Q_SEED], idx, attempt + 1);
            return 1;
        }
        s->is[I_EXHAUSTED] += 1;
    }
    return 0;
}

/* chaos.admit past its no-capacity case, for a resilient policy: the
 * shed code, else 0 with the best replica, its projection and the runner-up
 * (-1 when none). */
static int admit(Sweep *s, double slo, double now, long long *best_out,
                 double *bestp_out, long long *second_out) {
    long long best = -1, second = -1;
    double bestp = 0.0, secondp = INFINITY;
    for (long long j = 0; j < s->L; ++j) {
        long long r = s->live[j];
        if (s->breaker && !breaker_allows(s, r, now)) continue;
        double p = project(s, r, now);
        if (best < 0) {
            best = r;
            bestp = p;
        } else if (p < bestp) {
            second = best;
            secondp = bestp;
            best = r;
            bestp = p;
        } else if (p < secondp) {
            second = r;
            secondp = p;
        }
    }
    if (best < 0) return BREAKER;
    if (bestp > s->fp[P_TIMEOUT]) {
        s->is[I_TIMEOUTS] += 1;
        return TIMEOUT;
    }
    double bound = s->fp[P_FACTOR] * slo;
    if (s->brownout) bound = ladder_step(s, bestp, bound, now);
    if (bestp > bound) return OVERLOAD;
    *best_out = best;
    *bestp_out = bestp;
    *second_out = second;
    return 0;
}

/* One admission attempt, then chaos.retry_delay on a shed.  Returns the
 * final shed code, 0 when admitted or retried. */
static int attempt(Sweep *s, long long idx, long long att, double now) {
    double slo = s->slo[idx];
    long long best = 0, second = -1;
    double bestp = 0.0;
    int reason = 0;
    if (s->L == 0) {
        reason = NO_CAPACITY;
    } else if (!s->resilient) {
        /* Every mechanism off: the plain admit-or-shed. */
        bestp = best_projection(s, now, &best);
        if (bestp > s->fp[P_FACTOR] * slo) reason = OVERLOAD;
    } else {
        reason = admit(s, slo, now, &best, &bestp, &second);
    }
    if (reason) {
        double delay;
        if (retry_delay(s, idx, att, &delay)) {
            heap_push(s, now + delay, idx, att + 1);
            return 0;
        }
        final_shed(s, idx, reason, now);
        return reason;
    }
    if (slo < s->fs[F_MIN_SLO]) s->fs[F_MIN_SLO] = slo;
    long long b = s->bucket[idx];
    int flushed = enqueue(s, best, b, idx, now, -1);
    if (s->hedge && !flushed && second >= 0 && bestp > s->fp[P_HEDGE] * slo) {
        /* The primary is still queued: duplicate onto the runner-up. */
        long long B = s->B, M = s->M;
        s->qhedge[(best * B + b) * M + s->depth[best * B + b] - 1] = (int)(second * 2 + 1);
        s->is[I_HEDGES] += 1;
        enqueue(s, second, b, idx, now, (int)(best * 2));
    }
    return 0;
}

/* One step of the run, all at or before t = fp[P_LIMIT]: re-place the
 * ip[Q_MIGRANTS] evicted (request, bucket) pairs at t; arrivals
 * [i0, i1), each after the retries due before it; the retries due
 * before t (or at it, with ip[Q_INCLUSIVE]); with ip[Q_ADVANCE], the
 * deadlines due by t.  It stops early when its event log could
 * overflow or its retry heap is full, leaving is[I_STOP] as the arrival
 * to resume at (with no migrants); is[I_FINISHED] marks a complete call. */
void arrival_run(long long i0, long long i1, double *fv, long long *iv,
                 const double *prices, double *rf, long long *ri, int *li,
                 const long long *live, long long *qidx, double *qenq,
                 int *qhedge, unsigned char *br_recent, double *h_due,
                 long long *h_key,
                 const double *arrival, const int *bucket, const double *slo,
                 const long long *bucket_value, unsigned char *shed,
                 double *finish, double *due_dl, long long *due_bv,
                 long long *due_b,
                 long long *done_log, double *done_enq,
                 int *log_ints, double *log_times, long long *shed_log,
                 int *ev_i, double *ev_t, const long long *migrants) {
    double *fs = fv;
    const double *fp = fv + F_COUNT;
    long long *is = iv;
    const long long *ip = iv + I_COUNT;
    long long N = ip[Q_N], B = ip[Q_B], M = ip[Q_M];
    Sweep sw = {
        .L = ip[Q_L], .B = B, .M = M, .live = live,
        .breaker = (int)ip[Q_BREAKER], .hedge = (int)ip[Q_HEDGE],
        .brownout = (int)ip[Q_BROWNOUT], .wait_ms = fp[P_WAIT],
        .ref_price = prices, .price_full = prices + N,
        .svc = prices + N + N * B,
        .busy_until = rf, .busy_ms = rf + N, .slowdown = rf + 2 * N,
        .next_dl = rf + 3 * N, .br_until = rf + 4 * N,
        .batches = ri, .served = ri + N, .br = ri + 2 * N,
        .order_n = li, .depth = li + N, .order = li + N + N * B,
        .seen = li + N + 2 * N * B,
        .qidx = qidx, .qenq = qenq, .qhedge = qhedge,
        .bucket_value = bucket_value, .bucket = bucket, .slo = slo,
        .shed = shed, .finish = finish,
        .done_log = done_log, .done_enq = done_enq,
        .log_ints = log_ints, .log_times = log_times, .shed_log = shed_log,
        .due_dl = due_dl, .due_bv = due_bv, .due_b = due_b,
        .fp = fp, .ip = ip, .fs = fs, .is = is, .br_recent = br_recent,
        .h_due = h_due, .h_key = h_key, .ev_i = ev_i, .ev_t = ev_t,
    };
    Sweep *s = &sw;
    s->g = global_next(s);
    int resilient = s->resilient = ip[Q_RETRIES] > 0 || s->hedge || s->breaker
        || s->brownout || fp[P_TIMEOUT] < INFINITY;
    int accrue = ip[Q_RETRIES] > 0 && fp[P_RATIO] > 0.0;
    /* With a uniform per-request SLO and every mechanism off, the shed
     * threshold is one constant (the product the per-arrival check
     * computes); <= 0 disables the shed-skip fast path. */
    double uthresh = !resilient && fp[P_USLO] > 0.0 ? fp[P_FACTOR] * fp[P_USLO] : -1.0;
    /* Events one arrival or retry can log: a half-open move per replica,
     * a breaker transition per flush, the ladder's steps and a shed. */
    long long room = s->L * (s->B + 1) + ip[Q_LEVELS] + 4;
    is[I_DONE] = is[I_FLUSHES] = is[I_SHEDS] = is[I_EVENTS] = 0;
    is[I_FINISHED] = 0;
    for (long long k = 0; k < ip[Q_MIGRANTS]; ++k)
        migrate(s, migrants[2 * k], migrants[2 * k + 1], fp[P_LIMIT]);
    long long i = i0;
    for (;;) {
        double t = i < i1 ? arrival[i] : fp[P_LIMIT];
        /* A retry due before an arrival fires first; one due at the same
         * instant after it — the event loop's _ARRIVAL < _RETRY order. */
        while (is[I_HEAP] > 0
               && (h_due[0] < t || (i == i1 && ip[Q_INCLUSIVE] && h_due[0] == t))) {
            if (ev_i && is[I_EVENTS] + room > is[I_EV_CAP]) goto stop;
            double due = h_due[0];
            long long idx = h_key[1], att = h_key[2];
            heap_pop(s);
            advance(s, due);
            if (due > fs[F_NOW]) fs[F_NOW] = due;
            attempt(s, idx, att, due);
        }
        if (i == i1) break;
        if (ev_i && is[I_EVENTS] + room > is[I_EV_CAP]) goto stop;
        /* An arrival may schedule one retry; a fired retry reschedules
         * at most itself, so only arrivals can fill the heap. */
        if (h_due && is[I_HEAP] == is[I_HEAP_CAP]) goto stop;
        advance(s, t);
        if (t > fs[F_NOW]) fs[F_NOW] = t;
        if (accrue) {
            /* RetryBudget.accrue */
            double tokens = fs[F_TOKENS] + fp[P_RATIO];
            fs[F_TOKENS] = tokens > fp[P_BURST] ? fp[P_BURST] : tokens;
        }
        if (attempt(s, i, 0, t) && uthresh > 0.0 && i + 1 < i1) {
            /* Shed-skip: replica state is frozen while requests shed,
             * and the projection is FP-monotone non-increasing in t
             * (IEEE subtraction/addition are monotone, min of monotone
             * is monotone), so within the arrivals that precede the next
             * deadline g the shed -> admit boundary is a clean threshold.
             * Binary-search it with the exact per-arrival predicate,
             * then bulk-mark the sheds. */
            long long lim = i1;
            if (s->g < INFINITY) {
                long long lo = i + 1, hi = i1;
                while (lo < hi) {
                    long long mid = lo + (hi - lo) / 2;
                    if (arrival[mid] >= s->g) hi = mid; else lo = mid + 1;
                }
                lim = lo;
            }
            long long lo = i + 1, hi = lim;
            while (lo < hi) {
                long long mid = lo + (hi - lo) / 2;
                long long scratch;
                if (best_projection(s, arrival[mid], &scratch) > uthresh) lo = mid + 1;
                else hi = mid;
            }
            if (lo > i + 1) {
                memset(shed + i + 1, OVERLOAD, (size_t)(lo - (i + 1)));
                i = lo - 1;
                fs[F_NOW] = arrival[i];
            }
        }
        ++i;
    }
    if (ip[Q_ADVANCE]) {
        if (ev_i && is[I_EVENTS] + room > is[I_EV_CAP]) goto stop;
        advance(s, fp[P_LIMIT]);
    }
    is[I_FINISHED] = 1;
stop:
    is[I_STOP] = i;
}
"""

# The kernel's int32 columns (queue depths, bucket orders, batch-log
# rows) bound one call's completions: a call may complete at most its
# arrivals, the requests already queued and those with a retry pending
# (each admits once), and every batch-log offset is below that count.
INDEX_LIMIT = 2**31 - 1

# Slots of the kernel's flat argument arrays (the C enums, in order).
(P_WAIT, P_FACTOR, P_USLO, P_LIMIT, P_BACKOFF, P_JITTER, P_RATIO, P_BURST,
 P_HEDGE, P_TIMEOUT, P_STRAGGLE, P_THRESHOLD, P_OPEN, P_DWELL, P_LEVELS) = range(15)
(Q_L, Q_N, Q_B, Q_M, Q_INCLUSIVE, Q_ADVANCE, Q_MIGRANTS, Q_RETRIES,
 Q_HEDGE, Q_BREAKER, Q_BROWNOUT, Q_WINDOW, Q_MIN_SAMPLES, Q_PROBES,
 Q_LEVELS, Q_SEED) = range(16)
F_TOKENS, F_MIN_SLO, F_CHANGE, F_NOW, F_COUNT = range(5)
(I_LEVEL, I_SEQ, I_HEAP, I_MIGRATIONS, I_RETRIES, I_EXHAUSTED, I_TIMEOUTS,
 I_HEDGES, I_WINS, I_ESC, I_DEESC, I_DONE, I_FLUSHES, I_SHEDS, I_EVENTS,
 I_EV_CAP, I_HEAP_CAP, I_STOP, I_FINISHED, I_ERROR, I_COUNT) = range(21)
EV_SHED, EV_BREAKER, EV_BROWNOUT = range(3)

_lib = None
_load_attempted = False
_build_error: Optional[str] = None


def _compiler() -> Optional[str]:
    for cand in ("cc", "gcc", "clang"):
        path = shutil.which(cand)
        if path:
            return path
    return None


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
            # Every run pays the build, so optimize lightly: -Og plus the
            # if-conversion, points-to and loop-invariant passes of -O1
            # builds in about half the time of -O3, and sweeps within
            # about 10% of -O1.
            "-Og",
            "-fif-conversion",
            "-fif-conversion2",
            "-ftree-pta",
            "-fmove-loop-invariants",
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

    ll = ctypes.c_longlong
    dd = ctypes.c_double
    # Every array travels as its address (numpy's per-argument checks
    # would cost more than a small call's sweep); callers pass
    # C-contiguous arrays of the C types, or None for NULL.
    handle.arrival_run.restype = None
    handle.arrival_run.argtypes = [ll, ll] + [ctypes.c_void_p] * 30
    handle.backoff_ms.restype = dd
    handle.backoff_ms.argtypes = [dd, dd, ctypes.c_uint64, ll, ll]
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


def backoff_delay_ms(policy, seed: int, index: int, attempt: int) -> float:
    """The kernel's :func:`repro.fleet.chaos.backoff_delay_ms` (for tests)."""
    return load().backoff_ms(
        policy.backoff_base_ms, policy.backoff_jitter, seed & _MASK64, index, attempt
    )


def build_error() -> Optional[str]:
    """Why the kernel is unavailable (compiler stderr included), else None."""
    load()
    return _build_error
