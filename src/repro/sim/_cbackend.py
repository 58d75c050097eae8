"""Compiled C fast path for the event-heap simulation kernel.

The library has two entries over one C event loop, compiled at first
use with the system C compiler and loaded via :mod:`ctypes` (stdlib
only; no build-time or install-time dependency is added).
``repro_sim`` is one run: :mod:`repro.sim.kernel` sends it every
*static-score* simulation — classic and learned policies,
EASY/conservative/hybrid backfilling, and each row of a fixed-priority
batch — and WFP3/UNICEF with their kernel terms.
``repro_trial_batch`` runs training's permutation trials.  Two entries
sit outside the loop: ``repro_draw_perms`` draws the trials'
permutation matrix, and ``repro_swf_rows`` tokenises blocks of SWF data
rows for :mod:`repro.workloads.swf`.  The C loop makes the Python
kernel's decisions with the same arithmetic: every floating-point
operation it performs (additions, comparisons, the ``1e-9``/``1e-12``
epsilons of the backfill helpers) exists identically in the Python
path, so results are **bit-identical** — the parity suite
(``tests/test_sim_kernel_parity.py``) enforces this against the frozen
pre-kernel oracle for both backends.

Where the Python loop sorts per pass, C maintains the order instead.
The running set stays ordered by ``(expected end, size)``: a start
inserts by binary search, and a completion finds its entry by
``start + proc``, the same bits the start stored.  The EASY pass clamps
ends to ``now``, which ties only the overdue prefix (``end <= now``),
so only that prefix is reordered by size; the replan pass clamps the
same prefix to one instant, which merges, so it reads the order as is.
A WFP3/UNICEF queue is re-sorted from the previous pass's order by
insertion, handing a churned queue to ``qsort`` past a fixed shift
budget.  These orders are total — ``(score, submit, job)`` keys are
unique, and equal ``(end, size)`` pairs are interchangeable — so any
correct sort yields the sequence the Python sorts yield, and the same
bits.  Dynamic policies with kernel
terms (WFP3, UNICEF) run here too: their now-independent parts (the
``proc`` clamp, UNICEF's ``log2`` denominator) are computed once in
numpy and passed in as arrays, so each pass scores with ``- / * max``
alone, which C reproduces bit for bit when built without FMA
contraction (``-ffp-contract=off``).  Conservative and hybrid share one
replan pass with a reservation depth; it stops as soon as no queued job
fits the free cores, because the jobs that start now are its only
output.  Custom dynamic policies without terms and every run under
``REPRO_SIM_KERNEL=python`` stay on the Python loop.

Conservative backfilling with static scores keeps its plan from one
pass to the next instead of rebuilding it (Mu'alem & Feitelson reserve
at submission).  After a pass, queue positions ``[0, plan_n)`` hold
reservations in the profile, job ``j``'s from ``res_t[j]``; later
positions are those the early stop never reached.  The next pass drops
the breakpoints before ``now`` (``now`` takes the level of the last one
at or before it), starts every prefix job with ``res_t == now`` and
resumes the reservation loop at ``plan_n``; ``sim.replans_kept`` counts
these passes.  The kept profile then has the breakpoints and levels of a
fresh build that reserves the prefix in queue order, and each prefix job
the same ``res_t``, while three things hold (else the pass rebuilds,
as the Python reference does at every event):

* *Every running job ends where its reservation does*: ``start + run ==
  start + proc`` and ``proc >= 1e-9`` (the reservation uses
  ``max(proc, 1e-9)``).  A job that ends early, overruns (so is
  overdue, ``end <= now``, and clamped to just after ``now``) or used
  the clamp would free its cores at another instant in the kept
  profile, so it forces full passes from its start through the pass at
  its completion.  Under estimates nearly every job does; with actual
  runtimes none does.
* *No arrival ranks inside the prefix.*  FCFS arrivals rank last.
* *No breakpoint lands near another* (below).

Why it is exact then.  (1) No breakpoint falls strictly between two
events: one after the previous event is a running job's end, which is a
completion event, or the end of a reservation that starts at one; so
trimming drops exactly the past.  (2) Take a prefix job K.  The fresh
profile before K holds the running jobs and K's predecessors; the kept
profile held them too when K was reserved, the started ones as the
reservations they started from (same interval) and the finished ones
freed by ``now``.  The fresh one differs only by lower-ranked jobs that
started since — they take cores — and by new candidate starts: ``now``
itself when an arrival falls strictly between breakpoints, and those
jobs' ends.  ``res_t[K]`` stays feasible, since the kept profile with
every reservation is non-negative and the fresh one before K has K's
cores on top of it.  No earlier start becomes feasible: an old candidate
keeps its blocker, at a level no higher; a new candidate ``c`` lies
strictly inside a segment ``[b, b')`` of K's profile, and K was rejected
at ``b`` either by that segment's level, which ``c`` shares, or by a
blocker ``j >= b'`` with ``j < fl(b + dur) - 1e-12 <= fl(c + dur) -
1e-12``, which blocks ``c`` too.  So the fresh build reserves K at the
same instant, over the same breakpoints, and by induction over the
prefix the two profiles end equal.  (3) If the fresh pass would stop
early at a position ``p < plan_n`` (``smin[p] > free``), no prefix job
at or after ``p`` has ``res_t == now``: the level at ``now`` at that
point is the free cores, and every such job is larger.  The kept pass
starts the same jobs (``start_job``'s effects commute), and its loop
stops at ``plan_n`` at once, since ``smin`` does not decrease.

Near breakpoints.  ``ensure_bp`` merges an end into any breakpoint
within 1e-12, and a reservation decrements the breakpoints below ``end -
1e-12`` only.  The fresh build meets a lower-ranked job's end before it
reserves K, the kept profile after, so two distinct breakpoints that
close could merge differently, or one could sit below K's cut in one
profile and above it in the other.  Rounded, the cut reaches below an
end by less than 2e-12 (by exactly 1e-12 up to half an ulp below 2^13,
by one 1.8e-12 ulp up to 2^14, not at all above).  Every such pair
became adjacent in some ``ensure_bp`` — a fresh build's running ends
sit in both profiles alike — so ``ensure_bp`` forces a rebuild when it
merges two distinct instants, or leaves its breakpoint within 2e-12 of a
neighbour.  Dynamic policies (rescoring reorders the queue) and hybrid
(jobs past the depth hold no reservation) always rebuild.

Training's permutation trials (``repro_trial_batch``) share one prefix.
S outranks Q, so until a probe job heads the queue of a pass that could
start it, no decision depends on the probe order.  ``sim_run`` stops
there (``Sim.stop``) and the batch snapshots the clock, arrival cursor,
completion heap, free cores and start count, plus the probe jobs then
waiting (only probes can be).  Each trial restores the snapshot, queues
the waiting probes under its own ranks and resumes the same loop at
that pass's head-start step — one event loop, entered twice.  Eq. 1/2
is then reduced per trial in numpy's order: ``max((start - submit + r)
/ max(r, tau), 1)`` with numpy's NaN-propagating ``maximum``, summed by
a transcription of numpy's float64 ``pairwise_sum`` (sequential below 8
terms, eight accumulators up to 128, split at half rounded down to a
multiple of 8 above), divided by the probe count — the bits of
``bsld.mean(axis=1)`` on a contiguous row.

Many batches cannot depend on the probe order at all, and trial 0 can
prove it.  At the top of each event ``sim_run`` raises ``Sim.waited``
if a job is still queued from the previous pass; the batch clears it
before resuming trial 0.  If trial 0 ends with it clear, every pass from
the snapshot on started every job it had queued, so the sizes queued at
each pass fit the free cores together.  By induction over the events,
any other probe order then meets the same queued set and the same free
cores at each pass, starts all of it in whatever order, and so starts
every job at the same instant: the same schedule.  Eq. 1/2 sums the
probe bslds in job-index order, not permutation order, so each later
trial's AVEbsld is trial 0's bit for bit, and it is copied rather than
simulated (the count is returned as the shared trials).  Every perms
row is still checked, so a bad row is still code 7 naming its trial.
The test is conservative: a job that waits only while the machine is
full also raises the flag, though no order could matter there.

The permutation matrix itself is drawn here too (``repro_draw_perms``),
from the ``bitgen_t`` numpy exposes as
``Generator.bit_generator.ctypes.bit_generator``, with the draws
``Generator.permuted(axis=1)`` makes: rows in order, each shuffled by
Fisher–Yates from the last index down to 1 with numpy's
``random_interval`` (the smallest all-ones mask >= the bound, then
rejection on 32-bit draws, or 64-bit ones above ``0xffffffff``).  The
caller holds the generator's lock, and the matrix and the generator's
state afterwards equal numpy's.

``repro_swf_rows`` reads a block of SWF lines into the ``(k, 18)``
float64 matrix ``np.loadtxt`` returns, and takes a token only where its
double is ``float``'s bit for bit.  The token must match
``[+-]?(d+(.d*)?|.d+)([eE][+-]?d+)?`` or be a signed ``inf``,
``infinity`` or ``nan`` in any case (``nan`` with ``float``'s bits: the
quiet NaN, signed by a ``-``).  A number whose digits ``w`` (point
dropped) and decimal exponent ``q`` give ``w <= 2^53`` and ``|q| <= 22``
is ``w * 10^q`` with both factors exact doubles, so one multiply or
divide rounds it correctly (Clinger's fast path): every integer of up
to 15 digits, and about half of the 16- and 17-digit times
``write_swf`` writes.  Any other number goes through ``strtod``,
correctly rounded as ``float`` is, and counts only if ``strtod`` read
the whole token, so a locale whose decimal point is not ``.`` refuses
instead of misreading.  Any other token (hex, ``1_0``, any byte of 0x80
and up, so every non-ASCII character, one of 64 bytes or more), or a
line that is neither blank nor 18 tokens, refuses the whole block,
which the caller then reads line by line.

Selection and caching:

* ``REPRO_SIM_KERNEL`` — ``auto`` (default: use C when it builds,
  silently fall back to Python), ``c`` (require the C backend; raise if
  it cannot be built), ``python`` (never use C).
* ``REPRO_CKERNEL_DIR`` — override the build cache directory (default
  ``~/.cache/repro/ckernel``).  The shared object is keyed by a hash of
  the embedded source, built in a temp file and atomically renamed, so
  concurrent processes race benignly.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["CBackendUnavailable", "cache_dir", "load", "selected"]


class CBackendUnavailable(RuntimeError):
    """Raised when ``REPRO_SIM_KERNEL=c`` but no C backend can be built."""


_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

/* waiting-queue entry; the queue is ordered by (score, submit, job) */
typedef struct { double s, sub; i64 i; } Qe;

static int qe_cmp(const void *a, const void *b)
{
    const Qe *x = (const Qe *)a, *y = (const Qe *)b;
    if (x->s != y->s) return (x->s < y->s) ? -1 : 1;
    if (x->sub != y->sub) return (x->sub < y->sub) ? -1 : 1;
    return (x->i < y->i) ? -1 : (x->i > y->i);
}

typedef struct {
    i64 n, nmax;
    int mode; /* 0 none, 1 easy, 2 conservative, 3 hybrid */
    /* queue positions below depth hold a reservation (modes 2 and 3) */
    i64 depth;
    /* 0: static scores; 1 WFP3, 2 UNICEF: rescored per pass from the
     * now-independent terms ta/tb */
    int score_code;
    const double *subs, *runs, *procs, *scores, *ta, *tb;
    const i64 *sizes, *order;
    double *start;
    unsigned char *backfilled;
    /* completion min-heap ordered by (time, job) like heapq tuples */
    double *h_t; i64 *h_i; i64 hn;
    /* waiting queue: sorted on insert (static) or re-sorted per pass
     * from the previous pass's order (dynamic); qh = front */
    Qe *q; i64 qh, qn;
    /* running set, kept ordered by (expected end, size) on start and
     * completion: the order both backfill passes read it in */
    double *r_end; i64 *r_size; i64 rn;
    /* availability-profile breakpoints */
    double *p_t; i64 *p_f; i64 pn;
    /* the kept conservative plan (keep: mode 2, static scores): queue
     * positions [0, plan_n) hold reservations in the profile, job j's
     * starting at res_t[j].  replan forces the next pass to rebuild it;
     * unplanned counts running jobs whose planned end is not their
     * actual end; n_kept counts the passes that reused the plan */
    double *res_t; i64 plan_n, unplanned, n_kept;
    int keep, replan;
    /* per-pass scratch: suffix minima of queued sizes (replan) or the
     * size-sorted overdue running jobs (EASY) */
    i64 *scr;
    i64 free_cores, started, n_events, n_passes, nan_job;
    /* set when an event finds a job still queued from the previous pass;
     * only repro_trial_batch clears and reads it */
    int waited;
    /* arrival cursor into order; a head job index >= stop ends the run
     * (SIM_STOPPED) before the pass tries to start it */
    i64 ai, stop;
    double now;
} Sim;

/* sim_run's return when it reaches S->stop; not an error */
#define SIM_STOPPED (-1)

static void h_push(Sim *S, double t, i64 idx)
{
    i64 i = S->hn++;
    while (i > 0) {
        i64 p = (i - 1) >> 1;
        double pt = S->h_t[p];
        if (pt < t || (pt == t && S->h_i[p] < idx)) break;
        S->h_t[i] = pt; S->h_i[i] = S->h_i[p];
        i = p;
    }
    S->h_t[i] = t; S->h_i[i] = idx;
}

static i64 h_pop(Sim *S)
{
    i64 top = S->h_i[0];
    S->hn--;
    if (S->hn > 0) {
        double t = S->h_t[S->hn]; i64 idx = S->h_i[S->hn];
        i64 i = 0;
        for (;;) {
            i64 c = 2 * i + 1;
            if (c >= S->hn) break;
            if (c + 1 < S->hn &&
                (S->h_t[c + 1] < S->h_t[c] ||
                 (S->h_t[c + 1] == S->h_t[c] && S->h_i[c + 1] < S->h_i[c])))
                c++;
            if (t < S->h_t[c] || (t == S->h_t[c] && idx < S->h_i[c])) break;
            S->h_t[i] = S->h_t[c]; S->h_i[i] = S->h_i[c];
            i = c;
        }
        S->h_t[i] = t; S->h_i[i] = idx;
    }
    return top;
}

/* Arrival.  Static scores: bisect_left on (score, submit, job) keys —
 * keys are unique (job is).  Dynamic scores: append; the next rescore
 * sorts it in.  Returns the job's queue position. */
static i64 q_insert(Sim *S, i64 idx)
{
    Qe e = { 0.0, S->subs[idx], idx };
    i64 lo = S->qh + S->qn, end = lo;
    if (S->score_code == 0) {
        e.s = S->scores[idx];
        i64 hi = lo;
        lo = S->qh;
        while (lo < hi) {
            i64 mid = (lo + hi) >> 1;
            if (qe_cmp(S->q + mid, &e) < 0) lo = mid + 1; else hi = mid;
        }
        memmove(S->q + lo + 1, S->q + lo, (size_t)(end - lo) * sizeof(Qe));
    }
    S->q[lo] = e;
    S->qn++;
    return lo - S->qh;
}

/* Shifts per queued job that rescore's insertion sort may spend before
 * it hands the queue to qsort. */
#define RESORT_SHIFT_BUDGET 8

/* Dynamic scoring, run where the Python loop calls policy.scores:
 * w = max(now - submit, 0) over the precomputed terms, using only
 * - / * max so the bits equal numpy's (built with -ffp-contract=off).
 * The queue still holds the previous pass's order, with arrivals at the
 * tail, so an insertion sort over it moves only the jobs whose scores
 * crossed.  The keys are unique, so any sort gives the lexsort order;
 * past the shift budget (a churned queue) qsort finishes the job. */
static int rescore(Sim *S)
{
    Qe *q = S->q + S->qh;
    for (i64 p = 0; p < S->qn; p++) {
        i64 idx = q[p].i;
        double w = S->now - q[p].sub;
        if (w < 0.0) w = 0.0;
        double sc;
        if (S->score_code == 1) {
            double x = w / S->ta[idx];
            sc = -(x * x * x) * S->tb[idx];
        } else {
            sc = -w / S->ta[idx];
        }
        if (isnan(sc)) { S->nan_job = idx; return 5; }
        q[p].s = sc;
    }
    i64 budget = RESORT_SHIFT_BUDGET * S->qn, shifts = 0;
    for (i64 p = 1; p < S->qn; p++) {
        Qe x = q[p];
        i64 j = p;
        while (j > 0 && qe_cmp(q + j - 1, &x) > 0) {
            q[j] = q[j - 1];
            j--;
        }
        q[j] = x;
        shifts += p - j;
        if (shifts > budget) {
            qsort(q, (size_t)S->qn, sizeof(Qe), qe_cmp);
            break;
        }
    }
    return 0;
}

static void compact_queue(Sim *S)
{
    i64 w = S->qh, end = S->qh + S->qn;
    for (i64 p = S->qh; p < end; p++) {
        if (!isnan(S->start[S->q[p].i])) continue; /* started this pass */
        S->q[w++] = S->q[p];
    }
    S->qn = w - S->qh;
}

/* First running-set position whose (end, size) is not below (e, sz). */
static i64 r_find(const Sim *S, double e, i64 sz)
{
    i64 lo = 0, hi = S->rn;
    while (lo < hi) {
        i64 mid = (lo + hi) >> 1;
        if (S->r_end[mid] < e || (S->r_end[mid] == e && S->r_size[mid] < sz))
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* A job whose profile end (start + max(proc, 1e-9)) is not the instant
 * it completes: it ends early, overruns, or its reservation used the
 * clamp.  A kept plan would free its cores at the wrong time. */
static int off_plan(const Sim *S, i64 idx)
{
    double s = S->start[idx];
    return s + S->runs[idx] != s + S->procs[idx] || S->procs[idx] < 1e-9;
}

static int start_job(Sim *S, i64 idx, int via_bf)
{
    i64 sz = S->sizes[idx];
    if (sz > S->free_cores) return 2;
    S->free_cores -= sz;
    S->start[idx] = S->now;
    S->backfilled[idx] = (unsigned char)via_bf;
    h_push(S, S->now + S->runs[idx], idx);
    if (S->mode != 0) {
        double e = S->now + S->procs[idx];
        i64 p = r_find(S, e, sz), tail = S->rn - p;
        memmove(S->r_end + p + 1, S->r_end + p, (size_t)tail * sizeof(double));
        memmove(S->r_size + p + 1, S->r_size + p, (size_t)tail * sizeof(i64));
        S->r_end[p] = e;
        S->r_size[p] = sz;
        S->rn++;
    }
    if (S->keep && off_plan(S, idx)) S->unplanned++;
    S->started++;
    return 0;
}

/* Passes read only the (end, size) pairs, so a completion removes any
 * entry equal to the job's own. */
static int complete(Sim *S, i64 idx)
{
    i64 sz = S->sizes[idx];
    S->free_cores += sz;
    if (S->mode == 0) return 0;
    /* the plan is rebuilt through the pass at this completion */
    if (S->keep && off_plan(S, idx)) { S->unplanned--; S->replan = 1; }
    /* start = the now start_job added procs to: the same bits */
    double e = S->start[idx] + S->procs[idx];
    i64 p = r_find(S, e, sz), tail = S->rn - p - 1;
    if (p == S->rn || S->r_end[p] != e || S->r_size[p] != sz) return 6;
    memmove(S->r_end + p, S->r_end + p + 1, (size_t)tail * sizeof(double));
    memmove(S->r_size + p, S->r_size + p + 1, (size_t)tail * sizeof(i64));
    S->rn--;
    return 0;
}

/* EASY: shadow reservation for the blocked head, then the greedy
 * candidate scan — same arithmetic as the EASY pass of repro.sim.kernel,
 * which walks the running set's (max(end, now), size) pairs in order.
 * Clamped to now, the overdue prefix (end <= now) orders by size alone;
 * the rest is already in that order.  Only a shadow that falls inside
 * the prefix needs the size order, for extra; the prefix holds the jobs
 * running past their estimate, so an insertion sort serves. */
static int easy_pass(Sim *S)
{
    double now = S->now;
    i64 head = S->q[S->qh].i;
    i64 head_size = S->sizes[head];
    S->n_passes++;
    i64 avail = S->free_cores, extra = 0, po = 0, overdue = 0;
    while (po < S->rn && S->r_end[po] <= now) overdue += S->r_size[po++];
    double shadow = now;
    if (po > 0 && avail + overdue >= head_size) {
        i64 *s = S->scr;
        for (i64 k = 0; k < po; k++) {
            i64 x = S->r_size[k], j = k;
            while (j > 0 && s[j - 1] > x) { s[j] = s[j - 1]; j--; }
            s[j] = x;
        }
        /* ends inside the prefix: s sums past head_size - avail */
        i64 k = 0;
        while ((avail += s[k]) < head_size) k++;
        extra = avail - head_size;
    } else {
        i64 k = po;
        avail += overdue;
        while (k < S->rn && (avail += S->r_size[k]) < head_size) k++;
        if (k == S->rn) return 3;
        shadow = S->r_end[k];
        extra = avail - head_size;
    }
    i64 end_pos = S->qh + S->qn, n_started = 0;
    for (i64 p = S->qh + 1; p < end_pos; p++) {
        i64 idx = S->q[p].i;
        i64 sz = S->sizes[idx];
        if (sz > S->free_cores) continue;
        if (now + S->procs[idx] <= shadow + 1e-9) {
            int rc = start_job(S, idx, 1);
            if (rc) return rc;
            n_started++;
        } else if (sz <= extra) {
            int rc = start_job(S, idx, 1);
            if (rc) return rc;
            extra -= sz;
            n_started++;
        }
        if (S->free_cores == 0) break;
    }
    if (n_started) compact_queue(S);
    return 0;
}

/* Availability-profile breakpoint insertion — mirrors
 * AvailabilityProfile._ensure_breakpoint including its epsilons.  The
 * only caller inserts a reservation end t >= p_t[lo], so the scan starts
 * at lo: a breakpoint before lo within 1e-12 of t would put p_t[lo]
 * within 1e-12 too, and the insertion point is never the front.  When t
 * merges into a distinct breakpoint, or its breakpoint lies within 2e-12
 * of another (the reach of a reservation's end - 1e-12 cut once it is
 * rounded), the kept plan is dropped: see the module docstring.  The
 * merge decides starts (test_sim_conservative.py's TestBreakpointMerge). */
static void ensure_bp(Sim *S, double t, i64 lo)
{
    if (isinf(t)) return;
    i64 pn = S->pn;
    for (i64 i = lo; i < pn; i++) {
        double b = S->p_t[i];
        if (fabs(b - t) <= 1e-12) {
            if (b != t || (i > 0 && b - S->p_t[i - 1] <= 2e-12) ||
                (i + 1 < pn && S->p_t[i + 1] - b <= 2e-12))
                S->replan = 1;
            return;
        }
        if (b > t) {
            if (b - t <= 2e-12 || t - S->p_t[i - 1] <= 2e-12) S->replan = 1;
            memmove(S->p_t + i + 1, S->p_t + i, (size_t)(pn - i) * sizeof(double));
            memmove(S->p_f + i + 1, S->p_f + i, (size_t)(pn - i) * sizeof(i64));
            S->p_t[i] = t; S->p_f[i] = S->p_f[i - 1];
            S->pn++;
            return;
        }
    }
    if (t - S->p_t[pn - 1] <= 2e-12) S->replan = 1;
    S->p_t[pn] = t;
    S->p_f[pn] = S->nmax;
    S->pn++;
}

/* First breakpoint after i, inside [p_t[i], end), with fewer than sz
 * free cores; -1 when the window is clear. */
static i64 blocker(const Sim *S, i64 i, i64 sz, double end)
{
    for (i64 j = i + 1; j < S->pn; j++) {
        if (S->p_t[j] >= end - 1e-12) break;
        if (S->p_f[j] < sz) return j;
    }
    return -1;
}

/* Index of AvailabilityProfile._earliest's answer.  A start before a
 * blocker has a window at least as long, which reaches the blocker too,
 * so the scan resumes past it. */
static i64 earliest(const Sim *S, i64 sz, double dur)
{
    for (i64 i = 0; i < S->pn; i++) {
        if (S->p_f[i] < sz) continue;
        i64 j = blocker(S, i, sz, S->p_t[i] + dur);
        if (j < 0) return i;
        i = j;
    }
    return S->pn - 1;
}

/* The profile of AvailabilityProfile(now, ...) over the running set. */
static int build_profile(Sim *S)
{
    double now = S->now;
    double after = nextafter(now, INFINITY);
    i64 used_now = 0;
    for (i64 k = 0; k < S->rn; k++) used_now += S->r_size[k];
    if (used_now > S->nmax) return 4;
    S->p_t[0] = now;
    S->p_f[0] = S->nmax - used_now;
    S->pn = 1;
    i64 level = S->nmax - used_now;
    /* The running set is in end order, and the clamp below keeps it in
     * order: an overdue job frees its cores just after now, never at now.
     * Bitwise-equal instants (all > now) merge like the dict
     * accumulation. */
    for (i64 k = 0; k < S->rn; k++) {
        double t = (S->r_end[k] <= now) ? after : S->r_end[k];
        level += S->r_size[k];
        if (S->p_t[S->pn - 1] != t) {
            S->p_t[S->pn] = t;
            S->pn++;
        }
        S->p_f[S->pn - 1] = level;
    }
    return 0;
}

/* Conservative (depth >= queue length) and hybrid replan, mirroring
 * repro.sim.conservative.conservative_starts.  The pass's one output is
 * the set of jobs that start now, so the loop stops once no remaining
 * job fits the free cores — exact, because the profile level at now is
 * the actual free cores.
 *
 * Under conservative backfilling with static scores the pass keeps its
 * profile and reserved prefix from the last pass instead of rebuilding
 * them, unless S->replan or S->unplanned says the kept plan may differ
 * from a fresh one (the module docstring has the argument).  It drops
 * the breakpoints before now — now takes the level of the last one at
 * or before it — starts each prefix job reserved at now, and resumes
 * the reservation loop at plan_n. */
static int conservative_pass(Sim *S)
{
    double now = S->now;
    S->n_passes++;
    i64 head = S->q[S->qh].i;
    i64 p = 0, n_started = 0;
    if (S->keep && !S->replan && !S->unplanned) {
        S->n_kept++;
        i64 k = 1;
        while (k < S->pn && S->p_t[k] <= now) k++;
        k--;
        S->pn -= k;
        memmove(S->p_t, S->p_t + k, (size_t)S->pn * sizeof(double));
        memmove(S->p_f, S->p_f + k, (size_t)S->pn * sizeof(i64));
        S->p_t[0] = now;
        for (; p < S->plan_n; p++) {
            i64 idx = S->q[S->qh + p].i;
            if (S->res_t[idx] != now) continue;
            int rc = start_job(S, idx, idx != head);
            if (rc) return rc;
            n_started++;
        }
    } else {
        S->replan = 0;
        int rc = build_profile(S);
        if (rc) return rc;
    }
    i64 *smin = S->scr;
    i64 m = INT64_MAX;
    for (i64 r = S->qn - 1; r >= p; r--) {
        i64 sz = S->sizes[S->q[S->qh + r].i];
        if (sz < m) m = sz;
        smin[r] = m;
    }
    for (; p < S->qn; p++) {
        if (smin[p] > S->free_cores) break;
        i64 idx = S->q[S->qh + p].i;
        i64 sz = S->sizes[idx];
        double dur = S->procs[idx];
        if (dur < 1e-9) dur = 1e-9;
        i64 i0;
        if (p < S->depth) {
            i0 = earliest(S, sz, dur);
        } else {
            /* beyond the depth a job reserves only if it starts now */
            if (S->p_f[0] < sz || blocker(S, 0, sz, now + dur) >= 0) continue;
            i0 = 0;
        }
        double t0r = S->p_t[i0];
        double endr = t0r + dur;
        ensure_bp(S, endr, i0);
        /* decrement from the exact start breakpoint forward (mirrors
         * AvailabilityProfile._reserve_at) */
        for (i64 i = i0; i < S->pn; i++) {
            if (S->p_t[i] >= endr - 1e-12) break;
            S->p_f[i] -= sz;
            if (S->p_f[i] < 0) return 4;
        }
        S->res_t[idx] = t0r;
        /* exact: slots strictly after now sit behind unprocessed
         * release events (mirrors conservative_starts) */
        if (t0r == now) {
            int rc = start_job(S, idx, idx != head);
            if (rc) return rc;
            n_started++;
        }
    }
    /* every job started sits below p */
    S->plan_n = p - n_started;
    if (n_started) compact_queue(S);
    return 0;
}

/* The event loop.  resume = 0 runs from scratch.  A run that meets a
 * job index >= S->stop at the queue head returns SIM_STOPPED with the
 * loop's state (clock, arrival cursor, heap, queue) left in S; with
 * resume = 1 the loop continues that pass at its head-start step, over
 * whatever queue the caller has put in place since. */
static int sim_run(Sim *S, int resume)
{
    i64 n = S->n, ai = S->ai;
    double now = S->now;
    if (resume) goto heads;
    S->hn = 0; S->qh = 0; S->qn = 0; S->rn = 0; S->pn = 0;
    S->free_cores = S->nmax;
    S->started = 0; S->n_events = 0; S->n_passes = 0;
    S->plan_n = 0; S->unplanned = 0; S->n_kept = 0; S->replan = 1;
    for (i64 i = 0; i < n; i++) { S->start[i] = NAN; S->backfilled[i] = 0; }
    ai = 0;
    now = S->subs[S->order[0]];
    while (S->started < n) {
        if (S->qn > 0) S->waited = 1;
        double na = (ai < n) ? S->subs[S->order[ai]] : INFINITY;
        double nc = (S->hn > 0) ? S->h_t[0] : INFINITY;
        double et = (na < nc) ? na : nc;
        /* jobs wait, yet nothing is left to arrive or complete */
        if (et == INFINITY) return 8;
        if (now < et) now = et;
        S->now = now;
        S->n_events++;
        while (S->hn > 0 && S->h_t[0] <= now) {
            int rc = complete(S, h_pop(S));
            if (rc) return rc;
        }
        while (ai < n && S->subs[S->order[ai]] <= now) {
            /* an arrival ranked inside the reserved prefix */
            if (q_insert(S, S->order[ai]) < S->plan_n) S->replan = 1;
            ai++;
        }
        if (S->qn == 0) continue;
        if (S->mode >= 2) {
            int rc = S->score_code ? rescore(S) : 0;
            if (!rc) rc = conservative_pass(S);
            if (rc) return rc;
            continue;
        }
        /* every job needs >= 1 core: a full machine cannot start anything,
         * and skipping the pass changes no counters (n_events already
         * counted; backfill passes require free > 0) */
        if (S->free_cores == 0) continue;
        if (S->score_code) {
            int rc = rescore(S);
            if (rc) return rc;
        }
    heads:
        while (S->qn > 0) {
            i64 idx = S->q[S->qh].i;
            if (idx >= S->stop) { S->ai = ai; return SIM_STOPPED; }
            if (S->sizes[idx] > S->free_cores) break;
            int rc = start_job(S, idx, 0);
            if (rc) return rc;
            S->qh++;
            S->qn--;
        }
        if (S->mode == 1 && S->qn >= 2 && S->free_cores > 0) {
            int rc = easy_pass(S);
            if (rc) return rc;
        }
    }
    return 0;
}

int repro_sim(i64 n, i64 nmax, int mode, i64 depth,
              const double *subs, const double *runs, const double *procs,
              const i64 *sizes, const double *scores,
              int score_code, const double *ta, const double *tb,
              const i64 *order,
              double *start, unsigned char *backfilled, i64 *counters)
{
    counters[0] = 0;
    counters[1] = 0;
    counters[2] = -1;
    counters[3] = 0;
    if (n <= 0) return 0;
    size_t nd = (size_t)n;
    double *dbuf = (double *)malloc((3 * nd + (3 * nd + 4)) * sizeof(double));
    i64 *ibuf = (i64 *)malloc((3 * nd + (3 * nd + 4)) * sizeof(i64));
    Qe *q = (Qe *)malloc(2 * nd * sizeof(Qe));
    if (!dbuf || !ibuf || !q) {
        free(dbuf); free(ibuf); free(q);
        return 1;
    }
    Sim S;
    memset(&S, 0, sizeof(S));
    S.n = n; S.nmax = nmax; S.mode = mode; S.depth = depth;
    S.keep = mode == 2 && score_code == 0;
    S.subs = subs; S.runs = runs; S.procs = procs;
    S.sizes = sizes; S.scores = scores; S.order = order;
    S.score_code = score_code; S.ta = ta; S.tb = tb;
    S.start = start; S.backfilled = backfilled;
    S.stop = n;
    S.h_t = dbuf;
    S.r_end = dbuf + nd;
    S.res_t = dbuf + 2 * nd;
    S.p_t = dbuf + 3 * nd;
    S.h_i = ibuf;
    S.r_size = ibuf + nd;
    S.scr = ibuf + 2 * nd;
    S.p_f = ibuf + 3 * nd;
    S.q = q;
    int rc = sim_run(&S, 0);
    counters[0] = S.n_events;
    counters[1] = S.n_passes;
    counters[2] = S.nan_job;
    counters[3] = S.n_kept;
    free(dbuf); free(ibuf); free(q);
    return rc;
}

/* numpy's maximum: NaN in either argument propagates */
static double np_max(double a, double b)
{
    return (a >= b || isnan(a)) ? a : b;
}

/* numpy's pairwise_sum for float64, the order np.mean(axis=1) adds a
 * contiguous row in: sequential below 8 terms, 8 accumulators up to
 * 128, otherwise split at n/2 rounded down to a multiple of 8. */
static double pairwise_sum(const double *a, i64 n)
{
    if (n < 8) {
        double res = 0.0;
        for (i64 i = 0; i < n; i++) res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        i64 i;
        for (i = 0; i < 8; i++) r[i] = a[i];
        for (i = 8; i < n - (n % 8); i += 8)
            for (i64 j = 0; j < 8; j++) r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) res += a[i];
        return res;
    }
    i64 n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* The paper's permutation trials: jobs 0..m_s-1 are the warm-up set S,
 * ranked in index order ahead of the m_q probe jobs, and trial t ranks
 * probe P[j] = perms[t * m_q + j] at m_s + j.  Until a probe job heads
 * the queue of a pass that could start it, every decision is the same
 * for any probe order, so one run up to that point (stop = m_s) serves
 * all trials: each restores its clock, arrival cursor, heap, free cores
 * and start count, queues the waiting probe jobs under its own ranks and
 * resumes the pass.  Jobs started before the stop keep their start
 * times in the shared start array.  out[t] is the probe jobs' AVEbsld
 * (Eq. 1/2) with numpy's operation order, so the bits equal
 * np.maximum((start - submit + r) / np.maximum(r, tau), 1.0).mean().
 * If trial 0 never finds a job queued across events after the stop, no
 * probe order can change a start (see the module docstring), so every
 * later trial takes out[0] and *shared counts them.  A perms row that is
 * not a permutation of 0..m_q-1 returns 7 with the trial in *bad; every
 * row is checked, shared or not. */
int repro_trial_batch(i64 n_trials, i64 m_s, i64 m_q, i64 nmax,
                      const double *subs, const double *runs, const i64 *sizes,
                      const i64 *perms, const i64 *order, double tau,
                      double *out, i64 *bad, i64 *shared)
{
    *bad = -1;
    *shared = 0;
    if (m_q <= 0 || n_trials <= 0) return 0;
    i64 m = m_s + m_q;
    size_t md = (size_t)m, qd = (size_t)m_q;
    double *dbuf = (double *)malloc((4 * md + qd) * sizeof(double));
    i64 *ibuf = (i64 *)malloc((2 * md + 2 * qd) * sizeof(i64));
    Qe *q = (Qe *)malloc(2 * md * sizeof(Qe));
    unsigned char *bf = (unsigned char *)malloc(md);
    if (!dbuf || !ibuf || !q || !bf) {
        free(dbuf); free(ibuf); free(q); free(bf);
        return 1;
    }
    double *rank = dbuf + md, *snap_t = dbuf + 2 * md, *bsld = dbuf + 4 * md;
    i64 *snap_i = ibuf + md, *waiting = ibuf + 2 * md, *seen = waiting + qd;
    Sim S;
    memset(&S, 0, sizeof(S));
    S.n = m; S.nmax = nmax; S.mode = 0; S.stop = m_s;
    S.subs = subs; S.runs = runs; S.procs = runs;
    S.sizes = sizes; S.scores = rank; S.order = order;
    S.start = dbuf + 3 * md; S.backfilled = bf;
    S.h_t = dbuf;
    S.h_i = ibuf;
    S.q = q;
    for (i64 i = 0; i < m; i++) rank[i] = (double)i;
    for (i64 j = 0; j < m_q; j++) seen[j] = -1;
    /* with m_q >= 1 the run stops: a probe job starts only as head */
    int rc = sim_run(&S, 0);
    if (rc != SIM_STOPPED) goto done;
    double snap_now = S.now;
    i64 snap_ai = S.ai, snap_hn = S.hn, snap_free = S.free_cores;
    i64 snap_started = S.started, n_wait = S.qn;
    memcpy(snap_t, S.h_t, (size_t)snap_hn * sizeof(double));
    memcpy(snap_i, S.h_i, (size_t)snap_hn * sizeof(i64));
    for (i64 k = 0; k < n_wait; k++) waiting[k] = S.q[S.qh + k].i;
    S.stop = m;
    /* set once trial 0 has run without a job queued across events */
    int share = 0;
    for (i64 t = 0; t < n_trials; t++) {
        const i64 *P = perms + t * m_q;
        for (i64 j = 0; j < m_q; j++) {
            i64 p = P[j];
            if (p < 0 || p >= m_q || seen[p] == t) { *bad = t; rc = 7; goto done; }
            seen[p] = t;
            rank[m_s + p] = (double)(m_s + j);
        }
        if (share) {
            out[t] = out[0];
            (*shared)++;
            continue;
        }
        S.now = snap_now; S.ai = snap_ai; S.hn = snap_hn;
        S.free_cores = snap_free; S.started = snap_started;
        memcpy(S.h_t, snap_t, (size_t)snap_hn * sizeof(double));
        memcpy(S.h_i, snap_i, (size_t)snap_hn * sizeof(i64));
        S.qh = 0; S.qn = 0;
        for (i64 k = 0; k < n_wait; k++) q_insert(&S, waiting[k]);
        S.waited = 0;
        rc = sim_run(&S, 1);
        if (rc) goto done;
        for (i64 j = 0; j < m_q; j++) {
            i64 i = m_s + j;
            double r = runs[i];
            bsld[j] = np_max((S.start[i] - subs[i] + r) / np_max(r, tau), 1.0);
        }
        out[t] = pairwise_sum(bsld, m_q) / (double)m_q;
        if (t == 0) share = !S.waited;
    }
done:
    free(dbuf); free(ibuf); free(q); free(bf);
    return rc;
}

/* numpy's bitgen_t (numpy/random/bitgen.h), the struct a Generator's
 * bit_generator.ctypes.bit_generator points at */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* numpy's random_interval for max >= 1: the smallest all-ones mask
 * >= max, then rejection on 32-bit draws (64-bit above 0xffffffff) */
static uint64_t random_interval(bitgen_t *bg, uint64_t max)
{
    uint64_t mask = max, v;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    mask |= mask >> 32;
    if (max <= 0xffffffffUL) {
        while ((v = (bg->next_uint32(bg->state) & mask)) > max)
            ;
    } else {
        while ((v = (bg->next_uint64(bg->state) & mask)) > max)
            ;
    }
    return v;
}

/* Generator.shuffle's Fisher-Yates over a[0..n-1] */
static void shuffle(bitgen_t *bg, i64 *a, i64 n)
{
    for (i64 i = n - 1; i >= 1; i--) {
        i64 j = (i64)random_interval(bg, (uint64_t)i), x = a[j];
        a[j] = a[i];
        a[i] = x;
    }
}

/* core.trials' permutation matrix, drawn as Generator.permuted(axis=1)
 * draws it: rows in order, each shuffled in place.  A balanced row t is
 * head t % m_q, then the other tasks ascending, shuffled from position
 * 1; an unbalanced row is 0..m_q-1 shuffled whole. */
void repro_draw_perms(bitgen_t *bg, i64 n_rows, i64 m_q, int balanced, i64 *out)
{
    for (i64 t = 0; t < n_rows; t++) {
        i64 *row = out + t * m_q;
        if (balanced) {
            i64 h = t % m_q;
            row[0] = h;
            for (i64 k = 1; k < m_q; k++) row[k] = k - 1 + (k - 1 >= h);
            shuffle(bg, row + 1, m_q - 1);
        } else {
            for (i64 k = 0; k < m_q; k++) row[k] = k;
            shuffle(bg, row, m_q);
        }
    }
}

#define SWF_FIELDS 18
/* longest token handed to strtod, terminator included */
#define SWF_TOKEN_MAX 64

static int swf_space(char c)
{
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

/* s[0..n) equals the lower-case word w in any case */
static int swf_word(const char *s, i64 n, const char *w)
{
    i64 k = 0;
    for (; k < n && w[k]; k++)
        if ((s[k] | 0x20) != w[k]) return 0;
    return k == n && !w[k];
}

/* 10^0 .. 10^22, every one an exact double */
static const double swf_p10[23] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};

/* float(token) for a token of [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)? or a
 * signed inf/infinity/nan; returns 1 for any other token.  A token
 * whose digits w (point dropped) and decimal exponent q give w <= 2^53
 * and |q| <= 22 is w * 10^q of two exact doubles: one correctly
 * rounded multiply or divide (Clinger's fast path), so the correctly
 * rounded value, as float() reads it.  The rest go through strtod,
 * correctly rounded too, accepted only if it reads the whole token, so
 * a non-"C" LC_NUMERIC rejects instead of misreading. */
static int swf_token(const char *s, i64 n, double *v)
{
    i64 i = 0, nd = 0, nf = 0, ne = 0, e = 0;
    int neg = 0, eneg = 0;
    uint64_t w = 0;
    if (s[0] == '+' || s[0] == '-') { neg = s[0] == '-'; i = 1; }
    if (i < n && s[i] > '9') {
        if (swf_word(s + i, n - i, "inf") || swf_word(s + i, n - i, "infinity")) {
            *v = neg ? -HUGE_VAL : HUGE_VAL;
            return 0;
        }
        if (swf_word(s + i, n - i, "nan")) {
            /* float()'s NaN: the quiet bit, and the sign of a '-' */
            uint64_t bits = 0x7ff8000000000000ULL | ((uint64_t)neg << 63);
            memcpy(v, &bits, sizeof bits);
            return 0;
        }
        return 1;
    }
    for (; i < n && s[i] >= '0' && s[i] <= '9'; i++, nd++)
        w = w * 10 + (uint64_t)(s[i] - '0');
    if (i < n && s[i] == '.')
        for (i++; i < n && s[i] >= '0' && s[i] <= '9'; i++, nf++)
            w = w * 10 + (uint64_t)(s[i] - '0');
    if (nd + nf == 0) return 1;
    if (i < n && (s[i] == 'e' || s[i] == 'E')) {
        i++;
        if (i < n && (s[i] == '+' || s[i] == '-')) eneg = s[i++] == '-';
        for (; i < n && s[i] >= '0' && s[i] <= '9'; i++, ne++)
            if (ne < 6) e = e * 10 + (s[i] - '0');
        if (!ne) return 1;
    }
    if (i != n) return 1;
    /* w is exact up to 19 digits, e up to 6 */
    i64 q = (eneg ? -e : e) - nf;
    if (nd + nf <= 19 && ne <= 6 && w <= (1ULL << 53) && q >= -22 && q <= 22) {
        double d = (double)w;
        d = q < 0 ? d / swf_p10[-q] : d * swf_p10[q];
        *v = neg ? -d : d;
        return 0;
    }
    if (n >= SWF_TOKEN_MAX) return 1;
    char buf[SWF_TOKEN_MAX], *end;
    memcpy(buf, s, (size_t)n);
    buf[n] = '\0';
    *v = strtod(buf, &end);
    return end != buf + n;
}

/* The rows of a block of n_lines SWF data lines, the (k, 18) matrix
 * np.loadtxt reads from them.  Lines are separated by '\0', so a block
 * whose '\0' count is not n_lines - 1 held a NUL inside a line; spaces,
 * tabs, CRs and LFs separate fields.  The block is accepted (0, *used =
 * k) only if it holds n_lines lines, each blank or 18 tokens swf_token
 * accepts; else 1. */
int repro_swf_rows(const char *buf, i64 len, i64 n_lines, double *out, i64 *used)
{
    i64 rows = 0, lines = 0, pos = 0;
    *used = 0;
    for (;;) {
        i64 nf = 0;
        if (++lines > n_lines) return 1;
        for (;;) {
            while (pos < len && swf_space(buf[pos])) pos++;
            if (pos == len || buf[pos] == '\0') break;
            i64 t0 = pos;
            while (pos < len && buf[pos] != '\0' && !swf_space(buf[pos])) pos++;
            if (nf == SWF_FIELDS) return 1;
            if (swf_token(buf + t0, pos - t0, out + rows * SWF_FIELDS + nf)) return 1;
            nf++;
        }
        if (nf) {
            if (nf != SWF_FIELDS) return 1;
            rows++;
        }
        if (pos == len) break;
        pos++; /* the '\0' after a line */
    }
    if (lines != n_lines) return 1;
    *used = rows;
    return 0;
}
"""

#: Non-zero return codes from the C loop.  All but 7 (a malformed
#: permutation, reported as a ValueError naming the trial) indicate
#: internal invariant violations, impossible after the Python-side
#: validation.
_ERRORS = {
    1: "out of memory allocating simulation scratch",
    2: "oversubscription: a job was started without enough free cores",
    3: "EASY shadow computation found no feasible reservation",
    4: "availability profile oversubscribed",
    6: "a completing job is missing from the running set",
    7: "a perms row is not a permutation of the probe jobs",
    8: "jobs wait but no arrival or completion is left to start them",
}

#: Compiler flags.  ``-ffp-contract=off`` forbids fused multiply-adds,
#: so every floating-point operation rounds exactly like numpy's.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def _mode() -> str:
    # Imported at call time: repro.runtime imports this package.
    from repro.runtime.config import resolve_sim_kernel

    return resolve_sim_kernel()


def cache_dir() -> Path:
    """Directory holding compiled kernels (override: ``REPRO_CKERNEL_DIR``)."""
    override = os.environ.get("REPRO_CKERNEL_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "ckernel"


def _find_compiler() -> str | None:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _build(so_path: Path) -> None:
    """Compile the embedded source to *so_path* (atomic via rename)."""
    cc = _find_compiler()
    if cc is None:
        raise CBackendUnavailable("no C compiler found (set $CC or install gcc)")
    so_path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_c = tempfile.mkstemp(suffix=".c", dir=so_path.parent)
    tmp_so = tmp_c[:-2] + ".so"
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(_C_SOURCE)
        cmd = [cc, *_CFLAGS, "-o", tmp_so, tmp_c, "-lm"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise CBackendUnavailable(
                f"C kernel build failed ({' '.join(cmd)}):\n{proc.stderr.strip()}"
            )
        os.replace(tmp_so, so_path)
    finally:
        for leftover in (tmp_c, tmp_so):
            try:
                os.unlink(leftover)
            except OSError:
                pass


class CKernel:
    """ctypes bindings over the compiled event-loop library."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._sim = lib.repro_sim
        self._sim.restype = ctypes.c_int
        self._sim.argtypes = (
            [ctypes.c_longlong, ctypes.c_longlong, ctypes.c_int, ctypes.c_longlong]
            + [ctypes.c_void_p] * 5
            + [ctypes.c_int]
            + [ctypes.c_void_p] * 6
        )
        self._trials = lib.repro_trial_batch
        self._trials.restype = ctypes.c_int
        self._trials.argtypes = (
            [ctypes.c_longlong] * 4
            + [ctypes.c_void_p] * 5
            + [ctypes.c_double]
            + [ctypes.c_void_p] * 3
        )
        self._draw = lib.repro_draw_perms
        self._draw.restype = None
        self._draw.argtypes = [
            ctypes.c_void_p, ctypes.c_longlong, ctypes.c_longlong,
            ctypes.c_int, ctypes.c_void_p,
        ]
        self._swf = lib.repro_swf_rows
        self._swf.restype = ctypes.c_int
        self._swf.argtypes = [
            ctypes.c_char_p, ctypes.c_longlong, ctypes.c_longlong,
            ctypes.c_void_p, ctypes.c_void_p,
        ]

    def sim(
        self,
        subs: np.ndarray,
        runs: np.ndarray,
        procs: np.ndarray,
        sizes: np.ndarray,
        scores: np.ndarray | None,
        order: np.ndarray,
        nmax: int,
        mode: int,
        depth: int,
        terms=None,
    ) -> tuple[np.ndarray, np.ndarray, int, int, int]:
        """One run; *terms* (code, a, b) selects dynamic scoring instead
        of the static *scores*, and *depth* is the replan modes'
        reservation depth.  Returns the starts, the backfilled flags and
        the event, pass and kept-plan pass counts."""
        n = subs.shape[0]
        start = np.empty(n, dtype=np.float64)
        backfilled = np.zeros(n, dtype=np.uint8)
        counters = np.zeros(4, dtype=np.int64)
        code, ta, tb = (0, None, None) if terms is None else terms
        rc = self._sim(
            n,
            nmax,
            mode,
            depth,
            subs.ctypes.data,
            runs.ctypes.data,
            procs.ctypes.data,
            sizes.ctypes.data,
            None if scores is None else scores.ctypes.data,
            code,
            None if ta is None else ta.ctypes.data,
            None if tb is None else tb.ctypes.data,
            order.ctypes.data,
            start.ctypes.data,
            backfilled.ctypes.data,
            counters.ctypes.data,
        )
        if rc == 5:
            raise ValueError(
                f"score for job {int(counters[2])} is NaN; NaN never sorts,"
                " so the waiting-queue order would be silently corrupted"
            )
        if rc:
            raise RuntimeError(
                f"C simulation kernel failed: {_ERRORS.get(rc, f'code {rc}')}"
            )
        return (
            start, backfilled.view(bool),
            int(counters[0]), int(counters[1]), int(counters[3]),
        )

    def trial_batch(
        self,
        subs: np.ndarray,
        runs: np.ndarray,
        sizes: np.ndarray,
        perms: np.ndarray,
        order: np.ndarray,
        n_warm: int,
        nmax: int,
        tau: float,
        out: np.ndarray,
    ) -> tuple[int, int]:
        """Fill *out* with one AVEbsld per row of *perms*; returns the
        first trial whose row is not a permutation (or -1) and the number
        of trials answered from trial 0 without simulation."""
        n_trials, m_q = perms.shape
        info = np.full(2, -1, dtype=np.int64)  # bad trial, shared trials
        rc = self._trials(
            n_trials,
            n_warm,
            m_q,
            nmax,
            subs.ctypes.data,
            runs.ctypes.data,
            sizes.ctypes.data,
            perms.ctypes.data,
            order.ctypes.data,
            tau,
            out.ctypes.data,
            info.ctypes.data,
            info[1:].ctypes.data,
        )
        if rc and rc != 7:
            raise RuntimeError(
                f"C trial kernel failed: {_ERRORS.get(rc, f'code {rc}')}"
            )
        return int(info[0]), int(info[1])

    def draw_permutations(
        self, rng: np.random.Generator, n_rows: int, m_q: int, *, balanced: bool
    ) -> np.ndarray:
        """The ``(n_rows, m_q)`` permutation matrix of
        ``core.trials._draw_permutations``, drawn from *rng*'s own bit
        generator (under its lock) with the draws ``Generator.permuted``
        makes."""
        out = np.empty((n_rows, m_q), dtype=np.int64)
        bitgen = rng.bit_generator
        with bitgen.lock:
            self._draw(
                bitgen.ctypes.bit_generator, n_rows, m_q, int(balanced),
                out.ctypes.data,
            )
        return out

    def swf_rows(self, buf: bytes, n_lines: int) -> np.ndarray | None:
        """The ``(k, 18)`` rows of *n_lines* ``\\0``-separated SWF data
        lines, or ``None`` when *buf* holds another number of lines or a
        line is neither blank nor 18 accepted tokens."""
        out = np.empty((n_lines, 18), dtype=np.float64)
        used = ctypes.c_longlong(0)
        if self._swf(buf, len(buf), n_lines, out.ctypes.data, ctypes.byref(used)):
            return None
        return out[: used.value]


_UNSET = object()
_cached: object = _UNSET  # CKernel | None once resolved


def load() -> CKernel | None:
    """The process-wide C kernel, building it on first use.

    Returns ``None`` when unavailable (no compiler, build failure, load
    failure) unless ``REPRO_SIM_KERNEL=c`` demands it, in which case
    :class:`CBackendUnavailable` propagates.
    """
    global _cached
    if _cached is not _UNSET:
        if _cached is None and _mode() == "c":
            raise CBackendUnavailable("C kernel unavailable (earlier build failed)")
        return _cached  # type: ignore[return-value]
    try:
        key = _C_SOURCE + " ".join(_CFLAGS)
        digest = hashlib.sha256(key.encode()).hexdigest()[:16]
        so_path = cache_dir() / f"simkernel-{digest}.so"
        if not so_path.is_file():
            _build(so_path)
        _cached = CKernel(ctypes.CDLL(str(so_path)))
    except Exception as exc:
        _cached = None
        if _mode() == "c":
            if isinstance(exc, CBackendUnavailable):
                raise
            raise CBackendUnavailable(f"C kernel unavailable: {exc}") from exc
    return _cached  # type: ignore[return-value]


def selected() -> CKernel | None:
    """The C kernel, or ``None`` under ``REPRO_SIM_KERNEL=python`` (and
    under ``auto`` when it is unavailable)."""
    return None if _mode() == "python" else load()
