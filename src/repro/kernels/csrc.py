"""C source for the generated-extension kernel backend (``cext``).

One translation unit holding every compiled kernel.  The Python side
(:mod:`repro.kernels.cext`) writes this string to a temp file, compiles
it with the system C compiler (``cc -O2 -ffp-contract=off -shared
-fPIC``) and caches the shared object under the kernels cache directory
keyed by the SHA-256 of the source + compile command — editing a kernel
automatically invalidates every previously built ``.so``.

Every function mirrors a NumPy expression elsewhere in the tree and must
stay **bit-identical** to it (pinned by ``tests/kernels/test_parity.py``):

* ``repro_enumerate_triples`` — the meshgrid + ``nonzero`` candidate
  enumeration of ``repro.dataflow.mapper._candidate_cache`` (C-order
  nested loops == lexicographic order over sorted inputs).
* ``repro_pair_cycles`` — the step counts ``prod(ceil(dim / t))`` of
  each input and output candidate and their outer-product cycle matrix.
  No src path calls it; it stays for the benchmark's kernel counters.
* ``repro_coupling_dp`` — the inter-layer coupling DP, a direct port of
  the reference loops in ``tests/dse_oracle.py`` (strict-``<``
  first-wins updates, buckets in first-appearance order, final pick by
  ``(cost, ceil(M/Tm), lexicographic)``).
* ``repro_map_network`` — the fused per-network search behind
  ``map_network_dp``: candidate enumeration, best free inputs, then
  ``repro_coupling_dp``, in one call.
* ``repro_flexflow_store_sums`` — the kernel-store fits/thrashes
  dichotomy of ``repro.sim.batch.batch_flexflow_traces`` (integer sums,
  order-independent, hence exact).
* ``repro_surviving_structures`` — the structure-survival counting of
  ``repro.faults.impact`` (reshape + any + sum).
* ``repro_store_replay`` — the demand-fill replay of circular local
  stores behind ``repro.kernels.replay.store_replay``: a plain loop over
  the access stream in order, equal to the NumPy per-tile fixed point.
* ``repro_flexflow_group`` — one output-map tile group of
  ``repro.sim.tile_engine.TileEngine`` without transient faults: the
  same store replay, bus counts, adder trees and accumulators as the
  NumPy chunk loop, in one call.  Its float sums add the same products
  in the same order, and the build turns off multiply-add contraction
  (``-ffp-contract=off``), so outputs are bit-identical too.
* ``repro_systolic_layer`` — the whole pipeline of
  ``repro.sim.systolic_sim.SystolicFunctionalSim`` over one layer: the
  ``K x K`` register grid, the inter-row FIFOs as ring buffers, the
  drain rows, every machine check, and each drained output's taps summed
  per ``(m, n)`` pair in pipeline order, then over ``n`` ascending.
* ``repro_mapping2d_layer`` — every block of
  ``repro.sim.mapping2d_sim.Mapping2DFunctionalSim``: the explicit
  neuron window (load, shift-left, kernel-row reload) with its traffic
  counts and per-cycle alignment check, and the ``psum`` updates in
  ``(n, i, j)`` order.
* ``repro_tiling_layer`` — the ``(m0, n0, i, j)`` loop of
  ``repro.sim.tiling_sim.TilingFunctionalSim`` over all output
  positions, each position's ``Tn`` products summed by NumPy's pairwise
  reduction (``pairwise_sum`` below).

All integer math is ``int64``; inputs are non-negative and small enough
that no intermediate product overflows (the Python callers guarantee
layer extents and factor values fit comfortably).
"""

from __future__ import annotations

#: Bumped when the ABI (function names/signatures) changes incompatibly;
#: folded into the build hash alongside the source text.
KERNELS_C_ABI = 5

KERNELS_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

typedef int64_t i64;

/* ceil(a / b) over positive ints. */
static i64 cdiv(i64 a, i64 b) { return (a + b - 1) / b; }

/* ceil(max(extent, 0) / step): the padded class-table term. */
static i64 ceil_pos(i64 extent, i64 step) {
    if (extent <= 0) return 0;
    return (extent + step - 1) / step;
}

/* Lexicographic triple enumeration under a product limit.  `a`, `b`,
 * `c` are sorted ascending and pre-filtered by the per-factor caps;
 * `out` must hold na*nb*nc*3 entries.  Returns the count kept. */
i64 repro_enumerate_triples(const i64 *a, i64 na, const i64 *b, i64 nb,
                            const i64 *c, i64 nc, i64 limit, i64 *out) {
    i64 n = 0;
    for (i64 ia = 0; ia < na; ia++) {
        for (i64 ib = 0; ib < nb; ib++) {
            i64 ab = a[ia] * b[ib];
            if (ab > limit) continue; /* every c >= 1 */
            for (i64 ic = 0; ic < nc; ic++) {
                if (ab * c[ic] <= limit) {
                    out[n * 3] = a[ia];
                    out[n * 3 + 1] = b[ib];
                    out[n * 3 + 2] = c[ic];
                    n++;
                }
            }
        }
    }
    return n;
}

/* Step counts per side plus the (n x m) outer-product cycle matrix. */
void repro_pair_cycles(const i64 *dims_in, const i64 *ins, i64 n,
                       const i64 *dims_out, const i64 *outs, i64 m,
                       i64 *fin, i64 *fout, i64 *cycles) {
    for (i64 i = 0; i < n; i++) {
        fin[i] = cdiv(dims_in[0], ins[i * 3])
               * cdiv(dims_in[1], ins[i * 3 + 1])
               * cdiv(dims_in[2], ins[i * 3 + 2]);
    }
    for (i64 j = 0; j < m; j++) {
        fout[j] = cdiv(dims_out[0], outs[j * 3])
                * cdiv(dims_out[1], outs[j * 3 + 1])
                * cdiv(dims_out[2], outs[j * 3 + 2]);
    }
    for (i64 i = 0; i < n; i++) {
        for (i64 j = 0; j < m; j++) {
            cycles[i * m + j] = fin[i] * fout[j];
        }
    }
}

/* The whole-network inter-layer coupling DP over the full (unpruned)
 * per-layer output-candidate arrays.  Semantics are exactly the
 * reference scalar DP:
 *
 *   - predecessor states sit in candidate (lexicographic) order;
 *   - transition buckets (the coupled input triple a predecessor offers
 *     the next layer) are visited in first-appearance order and updated
 *     on strict <;
 *   - the free-choice option B wins only on strict <;
 *   - the final pick minimizes (cost, ceil(M/Tm)) with lexicographic
 *     first-wins tie-break.
 *
 * Inputs: `cand` holds every layer's candidates back to back
 * ((offsets[n_layers]) x 3, layer i spanning offsets[i]..offsets[i+1]);
 * `ldims` is n_layers x 4 = (out_maps, out_size, in_maps, kernel);
 * `free_in` n_layers x 3 the best unconstrained input triple per layer;
 * `fin_free` its step count; `penalty` the re-layout cycles.
 *
 * Outputs: per-layer chosen input/output triples and relayout cycles,
 * plus the total cost.  Returns the total candidate count on success or
 * a negative error code. */
i64 repro_coupling_dp(const i64 *cand, const i64 *offsets, i64 n_layers,
                      const i64 *ldims, const i64 *free_in,
                      const i64 *fin_free, const i64 *penalty,
                      i64 col_limit, i64 *in_out, i64 *out_out,
                      i64 *relayout_out, i64 *cost_out) {
    if (n_layers <= 0) return -1;
    i64 max_n = 0;
    for (i64 i = 0; i < n_layers; i++) {
        i64 n = offsets[i + 1] - offsets[i];
        if (n <= 0) return -2;
        if (n > max_n) max_n = n;
    }
    /* Open-addressed bucket lookup table: power of two >= 2 * max_n. */
    i64 hsize = 16;
    while (hsize < 2 * max_n) hsize <<= 1;
    i64 *cost = malloc(sizeof(i64) * (size_t)max_n);
    i64 *next_cost = malloc(sizeof(i64) * (size_t)max_n);
    unsigned char *use_b = malloc((size_t)(n_layers * max_n));
    i64 *prev_idx = malloc(sizeof(i64) * (size_t)(n_layers * max_n));
    i64 *bkey = malloc(sizeof(i64) * (size_t)max_n);
    i64 *bcost = malloc(sizeof(i64) * (size_t)max_n);
    i64 *bprev = malloc(sizeof(i64) * (size_t)max_n);
    i64 *bfin = malloc(sizeof(i64) * (size_t)max_n);
    i64 *htab = malloc(sizeof(i64) * (size_t)hsize);
    i64 *fcost = malloc(sizeof(i64) * (size_t)max_n);
    i64 *ffin = malloc(sizeof(i64) * (size_t)max_n);
    i64 *fprev = malloc(sizeof(i64) * (size_t)max_n);
    unsigned char *bdead = malloc((size_t)max_n);
    if (!cost || !next_cost || !use_b || !prev_idx || !bkey || !bcost ||
        !bprev || !bfin || !htab || !fcost || !ffin || !fprev || !bdead) {
        free(cost); free(next_cost); free(use_b); free(prev_idx);
        free(bkey); free(bcost); free(bprev); free(bfin);
        free(htab); free(fcost); free(ffin); free(fprev); free(bdead);
        return -3;
    }

    /* Layer 0: cost = fout * fin(best free input). */
    {
        const i64 *c0 = cand + offsets[0] * 3;
        i64 n0 = offsets[1] - offsets[0];
        i64 m0 = ldims[0], s0 = ldims[1];
        for (i64 j = 0; j < n0; j++) {
            i64 fo = cdiv(m0, c0[j * 3]) * cdiv(s0, c0[j * 3 + 1])
                   * cdiv(s0, c0[j * 3 + 2]);
            cost[j] = fo * fin_free[0];
        }
    }

    for (i64 li = 1; li < n_layers; li++) {
        const i64 *pc = cand + offsets[li - 1] * 3;
        i64 np_ = offsets[li] - offsets[li - 1];
        const i64 *cc = cand + offsets[li] * 3;
        i64 nc_ = offsets[li + 1] - offsets[li];
        i64 lm = ldims[li * 4], ls = ldims[li * 4 + 1];
        i64 ln = ldims[li * 4 + 2], lk = ldims[li * 4 + 3];

        /* Bucket predecessors by their coupled input triple.  The hash
         * table only accelerates the key lookup; buckets are still
         * created in first-appearance order and updated on strict <,
         * exactly like the reference dict. */
        for (i64 h = 0; h < hsize; h++) htab[h] = -1;
        i64 nb = 0;
        i64 best_prev = 0;
        i64 best_prev_cost = cost[0];
        for (i64 p = 0; p < np_; p++) {
            if (cost[p] < best_prev_cost) {
                best_prev_cost = cost[p];
                best_prev = p;
            }
            i64 tn = pc[p * 3];     if (tn > ln) tn = ln;
            i64 ti = pc[p * 3 + 1]; if (ti > lk) ti = lk;
            i64 tj = pc[p * 3 + 2]; if (tj > lk) tj = lk;
            if (tn * ti * tj > col_limit) continue; /* infeasible bucket */
            i64 key = (tn * (lk + 1) + ti) * (lk + 1) + tj;
            i64 h = (i64)(((uint64_t)key * 0x9E3779B97F4A7C15ULL)
                          >> 32) & (hsize - 1);
            i64 b = -1;
            for (;;) {
                i64 slot = htab[h];
                if (slot < 0) break;
                if (bkey[slot] == key) { b = slot; break; }
                h = (h + 1) & (hsize - 1);
            }
            if (b < 0) {
                b = nb++;
                htab[h] = b;
                bkey[b] = key;
                bcost[b] = cost[p];
                bprev[b] = p;
                bfin[b] = cdiv(ln, tn) * cdiv(lk, ti) * cdiv(lk, tj);
            } else if (cost[p] < bcost[b]) {
                bcost[b] = cost[p];
                bprev[b] = p;
            }
        }

        /* Drop dominated buckets before the per-candidate scan.  Option
         * A's cost is bcost + fo * bfin with fo >= 1, so a bucket whose
         * (bcost, bfin) is pointwise >= another's (strictly somewhere,
         * or an exact duplicate appearing later) can never be strictly
         * smaller than — nor, on the strict-< first-wins scan, beat —
         * its dominator.  Survivors keep first-appearance order, so
         * exact cost ties between incomparable buckets still resolve
         * exactly like the reference full scan. */
        i64 nf = 0;
        for (i64 b = 0; b < nb; b++) {
            bdead[b] = 0;
            for (i64 b2 = 0; b2 < nb; b2++) {
                if (b2 == b) continue;
                if (bcost[b2] > bcost[b] || bfin[b2] > bfin[b]) continue;
                if (bcost[b2] < bcost[b] || bfin[b2] < bfin[b] || b2 < b) {
                    bdead[b] = 1;
                    break;
                }
            }
            if (!bdead[b]) {
                fcost[nf] = bcost[b];
                ffin[nf] = bfin[b];
                fprev[nf] = bprev[b];
                nf++;
            }
        }

        for (i64 j = 0; j < nc_; j++) {
            i64 fo = cdiv(lm, cc[j * 3]) * cdiv(ls, cc[j * 3 + 1])
                   * cdiv(ls, cc[j * 3 + 2]);
            i64 best_a = 0;
            i64 pick_a = -1;
            for (i64 b = 0; b < nf; b++) {
                i64 ca = fcost[b] + fo * ffin[b];
                if (pick_a < 0 || ca < best_a) {
                    best_a = ca;
                    pick_a = b;
                }
            }
            i64 cb = best_prev_cost + fo * fin_free[li] + penalty[li];
            i64 rec = li * max_n + j;
            if (pick_a < 0 || cb < best_a) {
                next_cost[j] = cb;
                use_b[rec] = 1;
                prev_idx[rec] = best_prev;
            } else {
                next_cost[j] = best_a;
                use_b[rec] = 0;
                prev_idx[rec] = fprev[pick_a];
            }
        }
        i64 *tmp = cost;
        cost = next_cost;
        next_cost = tmp;
    }

    /* Final pick over the last layer's states. */
    {
        const i64 *cl = cand + offsets[n_layers - 1] * 3;
        i64 nl = offsets[n_layers] - offsets[n_layers - 1];
        i64 ml = ldims[(n_layers - 1) * 4];
        i64 bj = 0;
        i64 bc = cost[0];
        i64 bm = cdiv(ml, cl[0]);
        for (i64 j = 1; j < nl; j++) {
            i64 cm = cdiv(ml, cl[j * 3]);
            if (cost[j] < bc || (cost[j] == bc && cm < bm)) {
                bj = j;
                bc = cost[j];
                bm = cm;
            }
        }
        cost_out[0] = bc;

        /* Backtrace the winning trace through the per-layer records. */
        i64 j = bj;
        for (i64 li = n_layers - 1; li >= 1; li--) {
            const i64 *cc = cand + offsets[li] * 3;
            out_out[li * 3] = cc[j * 3];
            out_out[li * 3 + 1] = cc[j * 3 + 1];
            out_out[li * 3 + 2] = cc[j * 3 + 2];
            i64 rec = li * max_n + j;
            if (use_b[rec]) {
                in_out[li * 3] = free_in[li * 3];
                in_out[li * 3 + 1] = free_in[li * 3 + 1];
                in_out[li * 3 + 2] = free_in[li * 3 + 2];
                relayout_out[li] = penalty[li];
            } else {
                const i64 *pc = cand + offsets[li - 1] * 3;
                i64 p = prev_idx[rec];
                i64 ln = ldims[li * 4 + 2], lk = ldims[li * 4 + 3];
                i64 tn = pc[p * 3];     if (tn > ln) tn = ln;
                i64 ti = pc[p * 3 + 1]; if (ti > lk) ti = lk;
                i64 tj = pc[p * 3 + 2]; if (tj > lk) tj = lk;
                in_out[li * 3] = tn;
                in_out[li * 3 + 1] = ti;
                in_out[li * 3 + 2] = tj;
                relayout_out[li] = 0;
            }
            j = prev_idx[rec];
        }
        const i64 *c0 = cand + offsets[0] * 3;
        out_out[0] = c0[j * 3];
        out_out[1] = c0[j * 3 + 1];
        out_out[2] = c0[j * 3 + 2];
        in_out[0] = free_in[0];
        in_out[1] = free_in[1];
        in_out[2] = free_in[2];
        relayout_out[0] = 0;
    }

    i64 total = offsets[n_layers];
    free(cost); free(next_cost); free(use_b); free(prev_idx);
    free(bkey); free(bcost); free(bprev); free(bfin);
    free(htab); free(fcost); free(ffin); free(fprev); free(bdead);
    return total;
}

/* The fully fused per-network search: enumerate every layer's output
 * candidates and best free input from the per-dimension useful-value
 * pool, then run the coupling DP — one C call per network.
 *
 * `uvals` is a concatenated pool of useful-value arrays (each sorted
 * ascending); `spec` holds 14 ints per layer:
 *
 *   [0] out_maps  [1] out_size  [2] in_maps  [3] kernel
 *   [4] out tr/tc cap (min(out_size, tr_tc_bound))  [5] relayout penalty
 *   [6..7]   offset/length of useful(out_maps) in uvals
 *   [8..9]   offset/length of useful(out_size)
 *   [10..11] offset/length of useful(in_maps)
 *   [12..13] offset/length of useful(kernel)
 *
 * Output-candidate enumeration matches `_candidate_cache` (caps =
 * (out_maps, cap, cap), product <= row_limit, lexicographic); the best
 * free input matches `_best_input_cached` (lexicographic-first minimum
 * of fin over the (in_maps, kernel, kernel) space under col_limit).
 * Returns the coupling DP's result (total candidates, or negative). */
i64 repro_map_network(const i64 *uvals, const i64 *spec, i64 n_layers,
                      i64 row_limit, i64 col_limit, i64 *in_out,
                      i64 *out_out, i64 *relayout_out, i64 *cost_out) {
    if (n_layers <= 0) return -1;
    i64 capacity = 0;
    for (i64 i = 0; i < n_layers; i++) {
        const i64 *s = spec + i * 14;
        capacity += s[7] * s[9] * s[9];
    }
    i64 *cand = malloc(sizeof(i64) * (size_t)capacity * 3);
    i64 *offsets = malloc(sizeof(i64) * (size_t)(n_layers + 1));
    i64 *ldims = malloc(sizeof(i64) * (size_t)n_layers * 4);
    i64 *free_in = malloc(sizeof(i64) * (size_t)n_layers * 3);
    i64 *fin_free = malloc(sizeof(i64) * (size_t)n_layers);
    i64 *penalty = malloc(sizeof(i64) * (size_t)n_layers);
    if (!cand || !offsets || !ldims || !free_in || !fin_free || !penalty) {
        free(cand); free(offsets); free(ldims);
        free(free_in); free(fin_free); free(penalty);
        return -3;
    }
    offsets[0] = 0;
    i64 n = 0;
    for (i64 i = 0; i < n_layers; i++) {
        const i64 *s = spec + i * 14;
        i64 m = s[0], sz = s[1], nn = s[2], kk = s[3], bound = s[4];
        ldims[i * 4] = m; ldims[i * 4 + 1] = sz;
        ldims[i * 4 + 2] = nn; ldims[i * 4 + 3] = kk;
        penalty[i] = s[5];

        /* Output candidates: caps (m, bound, bound), product <= row_limit. */
        const i64 *ua = uvals + s[6];
        const i64 *ub = uvals + s[8];
        for (i64 ia = 0; ia < s[7]; ia++) {
            i64 a = ua[ia];
            if (a > row_limit) break; /* sorted ascending */
            for (i64 ib = 0; ib < s[9]; ib++) {
                i64 b = ub[ib];
                if (b > bound) break;
                i64 ab = a * b;
                if (ab > row_limit) break;
                for (i64 ic = 0; ic < s[9]; ic++) {
                    i64 c = ub[ic];
                    if (c > bound || ab * c > row_limit) break;
                    cand[n * 3] = a;
                    cand[n * 3 + 1] = b;
                    cand[n * 3 + 2] = c;
                    n++;
                }
            }
        }
        offsets[i + 1] = n;

        /* Best free input: lexicographic-first minimum of fin over the
         * (nn, kk, kk) space with caps (nn, kk, kk), product <= col_limit. */
        const i64 *un = uvals + s[10];
        const i64 *uk = uvals + s[12];
        i64 best_fin = -1;
        for (i64 ia = 0; ia < s[11]; ia++) {
            i64 a = un[ia];
            if (a > col_limit) break;
            for (i64 ib = 0; ib < s[13]; ib++) {
                i64 ab = a * uk[ib];
                if (ab > col_limit) break;
                for (i64 ic = 0; ic < s[13]; ic++) {
                    i64 c = uk[ic];
                    if (ab * c > col_limit) break;
                    i64 fin = cdiv(nn, a) * cdiv(kk, uk[ib]) * cdiv(kk, c);
                    if (best_fin < 0 || fin < best_fin) {
                        best_fin = fin;
                        free_in[i * 3] = a;
                        free_in[i * 3 + 1] = uk[ib];
                        free_in[i * 3 + 2] = c;
                    }
                }
            }
        }
        if (best_fin < 0) {
            free(cand); free(offsets); free(ldims);
            free(free_in); free(fin_free); free(penalty);
            return -2;
        }
        fin_free[i] = best_fin;
    }

    i64 total = repro_coupling_dp(cand, offsets, n_layers, ldims, free_in,
                                  fin_free, penalty, col_limit, in_out,
                                  out_out, relayout_out, cost_out);
    free(cand); free(offsets); free(ldims);
    free(free_in); free(fin_free); free(penalty);
    return total;
}

/* Kernel-store fits/thrashes sums per configuration (the regrouped
 * sum_col l * (thrash ? {n_spatial, sum_nat} : {1, cnt_nat}) form). */
void repro_flexflow_store_sums(i64 batch, const i64 *n_total,
                               const i64 *k_total, const i64 *s_total,
                               const i64 *m_total, const i64 *tn,
                               const i64 *ti, const i64 *tj, const i64 *tr,
                               const i64 *tc, const i64 *cap,
                               i64 *kernel_bus, i64 *kernel_misses) {
    for (i64 i = 0; i < batch; i++) {
        i64 rc = tr[i] * tc[i];
        i64 sum_nat = 0, cnt_nat = 0;
        for (i64 r = 0; r < rc; r++) {
            i64 dr = r / tc[i];
            i64 dc = r % tc[i];
            i64 nat = ceil_pos(s_total[i] - dr, tr[i])
                    * ceil_pos(s_total[i] - dc, tc[i]);
            sum_nat += nat;
            cnt_nat += nat < 1 ? nat : 1;
        }
        i64 n_spatial = cdiv(s_total[i], tr[i]) * cdiv(s_total[i], tc[i]);
        i64 occ = tn[i] * ti[i] * tj[i];
        i64 titj = ti[i] * tj[i];
        i64 bus = 0, miss = 0;
        for (i64 col = 0; col < occ; col++) {
            i64 dn = col / titj;
            i64 rest = col % titj;
            i64 di = rest / tj[i];
            i64 dj = rest % tj[i];
            i64 l = ceil_pos(n_total[i] - dn, tn[i])
                  * ceil_pos(k_total[i] - di, ti[i])
                  * ceil_pos(k_total[i] - dj, tj[i]);
            if (l > cap[i]) {
                bus += l * n_spatial;
                miss += l * sum_nat;
            } else {
                bus += l;
                miss += l * cnt_nat;
            }
        }
        kernel_bus[i] = m_total[i] * bus;
        kernel_misses[i] = m_total[i] * miss;
    }
}

/* Count structures (row-major groups of `size` PEs) with no dead member.
 * Flags past `n_flags` model nonexistent, hence fault-free, PEs. */
i64 repro_surviving_structures(const unsigned char *flags, i64 n_flags,
                               i64 n_struct, i64 size) {
    i64 alive = 0;
    for (i64 s = 0; s < n_struct; s++) {
        i64 base = s * size;
        i64 dead = 0;
        for (i64 t = 0; t < size; t++) {
            i64 idx = base + t;
            if (idx < n_flags && flags[idx]) {
                dead = 1;
                break;
            }
        }
        alive += !dead;
    }
    return alive;
}

/* Demand-fill replay of circular local stores over `steps` x `stores`
 * accesses in row-major (access) order.  Store `s` holds `capacity[s]`
 * words and has pushed `counts[s]` times; `table[coords[k]]` is the
 * 1-based push that last wrote the word access `k` touches.  A word is
 * resident iff fewer than `capacity` pushes happened since its own last
 * push; a miss pushes it.  `seq[k]` is the push the read sees (its own on
 * a miss); inactive accesses touch nothing and read 0. */
void repro_store_replay(i64 *table, i64 *counts, const i64 *capacity,
                        const i64 *coords, const unsigned char *active,
                        i64 steps, i64 stores, unsigned char *miss,
                        i64 *seq) {
    for (i64 t = 0; t < steps; t++) {
        for (i64 s = 0; s < stores; s++) {
            i64 k = t * stores + s;
            miss[k] = 0;
            seq[k] = 0;
            if (!active[k]) continue;
            i64 *word = table + coords[k];
            if (counts[s] - *word >= capacity[s]) {
                *word = ++counts[s];
                miss[k] = 1;
            }
            seq[k] = *word;
        }
    }
}

/* One output-map tile group of a FlexFlow layer, end to end: the
 * TileEngine chunk loop of a run without transient faults, fused.
 * Spatial tiles run in reference order, each tile's inner cycles in
 * order.  Every cycle demand-fills both local stores of every active PE
 * against the shared last-push table, counts one bus word per RA/RS
 * sharing set that missed, sums each row's adder tree column by column
 * and adds the tree to the row's accumulator; a tile's finished rows
 * then land in `outputs`.  Table entries hold 1-based pushes and 0
 * means "never pushed", so the table may start as zeroed pages.
 *
 * `geom` holds 13 ints: [0] m0  [1] out_maps  [2] out_size  [3] stride
 * [4] padded_size  [5] rows  [6] cols  [7] steps (inner cycles per tile)
 * [8] tiles  [9] rows per output map (Tr*Tc)  [10] neuron_space
 * [11] kernel_space  [12] N*K*K (kernel words per output map).
 * `row_off` is rows x 3 (dm, dr, dc); `origin` tiles x 2 (r0, c0);
 * `col_ok`, `neuron_base` and `kernel_base` are steps x cols: each
 * cycle's column validity and the tile-independent parts of the flat
 * data coordinates.  Store `pe` (row * cols + col) owns table slice
 * `pe * neuron_space` (neuron) and `rows * cols * neuron_space + pe *
 * kernel_space` (kernel); `counts` holds the neuron stores' push
 * counters, then the kernel stores'; `capacity` is (neuron words,
 * kernel words).  `counters` receives the group's deltas: cycles,
 * neuron_buffer_reads, kernel_buffer_reads, bus_transfers,
 * local_store_writes, mac_ops, local_store_reads, register_accesses,
 * neuron_buffer_writes.  Returns 0, or -3 when out of memory. */
i64 repro_flexflow_group(const double *padded, const double *kernels,
                         const i64 *geom, const i64 *row_off,
                         const i64 *origin, const unsigned char *col_ok,
                         const i64 *neuron_base, const i64 *kernel_base,
                         i64 *table, i64 *counts, const i64 *capacity,
                         double *outputs, i64 *counters) {
    i64 m0 = geom[0], m_total = geom[1], s_total = geom[2];
    i64 stride = geom[3], psize = geom[4], rows = geom[5], cols = geom[6];
    i64 steps = geom[7], tiles = geom[8], per_map = geom[9];
    i64 nspace = geom[10], kspace = geom[11], kernel_m = geom[12];
    i64 n_pes = rows * cols;
    i64 *kernel_table = table + n_pes * nspace;
    i64 *kernel_counts = counts + n_pes;
    i64 *row_ok = malloc(sizeof(i64) * (size_t)rows);
    i64 *ntile = malloc(sizeof(i64) * (size_t)rows);
    i64 *kmap = malloc(sizeof(i64) * (size_t)rows);
    i64 *out_at = malloc(sizeof(i64) * (size_t)rows);
    double *acc = malloc(sizeof(double) * (size_t)rows);
    /* Bus-sharing stamps: the last cycle each sharing set drove a word.
     * A neuron word is shared by the rows that differ only in dm, a
     * kernel word by the Tr*Tc rows of one output map. */
    i64 *nstamp = malloc(sizeof(i64) * (size_t)(per_map * cols));
    i64 *kstamp = malloc(sizeof(i64) * (size_t)(rows / per_map * cols));
    if (!row_ok || !ntile || !kmap || !out_at || !acc || !nstamp ||
        !kstamp) {
        free(row_ok); free(ntile); free(kmap); free(out_at); free(acc);
        free(nstamp); free(kstamp);
        return -3;
    }
    for (i64 k = 0; k < per_map * cols; k++) nstamp[k] = -1;
    for (i64 k = 0; k < rows / per_map * cols; k++) kstamp[k] = -1;
    i64 macs_per_row = 0;
    for (i64 k = 0; k < steps * cols; k++) macs_per_row += col_ok[k] != 0;

    i64 cycle = 0, neuron_bus = 0, kernel_bus = 0, writes = 0;
    i64 rows_done = 0;
    for (i64 tile = 0; tile < tiles; tile++) {
        i64 r0 = origin[tile * 2], c0 = origin[tile * 2 + 1];
        for (i64 row = 0; row < rows; row++) {
            i64 m = m0 + row_off[row * 3];
            i64 r = r0 + row_off[row * 3 + 1];
            i64 c = c0 + row_off[row * 3 + 2];
            row_ok[row] = m < m_total && r < s_total && c < s_total;
            if (!row_ok[row]) continue;
            ntile[row] = r * stride * psize + c * stride;
            kmap[row] = m * kernel_m;
            out_at[row] = (m * s_total + r) * s_total + c;
            acc[row] = 0.0;
            rows_done++;
        }
        for (i64 t = 0; t < steps; t++, cycle++) {
            for (i64 row = 0; row < rows; row++) {
                if (!row_ok[row]) continue;
                i64 *nshare = nstamp + row % per_map * cols;
                i64 *kshare = kstamp + row / per_map * cols;
                double tree = 0.0;
                for (i64 col = 0; col < cols; col++) {
                    i64 k = t * cols + col;
                    if (!col_ok[k]) continue;
                    i64 pe = row * cols + col;
                    i64 nd = neuron_base[k] + ntile[row];
                    i64 *word = table + pe * nspace + nd;
                    if (*word == 0 || counts[pe] - *word >= capacity[0]) {
                        *word = ++counts[pe];
                        writes++;
                        if (nshare[col] != cycle) {
                            nshare[col] = cycle;
                            neuron_bus++;
                        }
                    }
                    i64 kd = kernel_base[k] + kmap[row];
                    word = kernel_table + pe * kspace + kd;
                    if (*word == 0
                        || kernel_counts[pe] - *word >= capacity[1]) {
                        *word = ++kernel_counts[pe];
                        writes++;
                        if (kshare[col] != cycle) {
                            kshare[col] = cycle;
                            kernel_bus++;
                        }
                    }
                    tree += padded[nd] * kernels[kd];
                }
                acc[row] += tree;
            }
        }
        for (i64 row = 0; row < rows; row++) {
            if (row_ok[row]) outputs[out_at[row]] = acc[row];
        }
    }

    i64 macs = rows_done * macs_per_row;
    counters[0] = tiles * steps;
    counters[1] = neuron_bus;
    counters[2] = kernel_bus;
    counters[3] = neuron_bus + kernel_bus;
    counters[4] = writes;
    counters[5] = macs;
    counters[6] = 2 * macs;
    counters[7] = 2 * steps * rows_done;
    counters[8] = rows_done;
    free(row_ok); free(ntile); free(kmap); free(out_at); free(acc);
    free(nstamp); free(kstamp);
    return 0;
}

/* NumPy's sum of `n` contiguous doubles (`pairwise_sum_DOUBLE`), without
 * the reduction's leading 0.0: below 8 values left to right from 0.0; up
 * to 128 values eight partial sums combined as
 * ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the remainder in order;
 * above that, the halves split at n/2 rounded down to a multiple of 8. */
static double pairwise_sum(const double *a, i64 n) {
    if (n < 8) {
        double res = 0.0;
        for (i64 i = 0; i < n; i++) res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int j = 0; j < 8; j++) r[j] = a[j];
        i64 i;
        for (i = 8; i < n - (n % 8); i += 8) {
            for (int j = 0; j < 8; j++) r[j] += a[i + j];
        }
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                   + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) res += a[i];
        return res;
    }
    i64 n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* The systolic pipeline of one layer, cycle by cycle, as
 * SystolicFunctionalSim._run_pipeline runs it: one broadcast per cycle
 * over the (height + K) x width raster (the last K rows drain), the
 * shift phase (row i's rightmost flight enters row FIFO i, or exits the
 * array from row K-1; the rows shift right; row 0 takes the fresh
 * output, row i the head of FIFO i-1 when it is due), then the
 * accumulate phase.  A flight is its linear raster index r * width + c;
 * the K-1 FIFOs are rings of `capacity` flights, and each live flight
 * keeps its taps (PE i*K + j per product, in order) in a ring slot.
 *
 * A drained output's data path runs at its exit: per (m, n) pair its
 * taps' products summed in tap order from 0.0, then the pairs summed
 * into O[m] in ascending n from 0.0.
 *
 * `geom` holds 7 ints: [0] M  [1] N  [2] K  [3] height  [4] width
 * [5] out_size  [6] FIFO capacity.  `outputs` (M x S x S) receives the
 * drained outputs; `counters` the per-pair event counts: cycles,
 * neuron_buffer_reads, bus_transfers, fifo_accesses,
 * neuron_buffer_writes, mac_ops, register_accesses.  Returns 0, or the
 * failed machine check with its details in `info`: 1 timing broken
 * (i, j, r, c, rr, cc), 2 push into a full FIFO (fifo), 3 FIFO not
 * drained (fifo), 4 an output drained without K*K taps (r, c, taps);
 * -3 when out of memory. */
i64 repro_systolic_layer(const double *images, const double *kernels,
                         const i64 *geom, double *outputs, i64 *counters,
                         i64 *info) {
    i64 maps_out = geom[0], maps_in = geom[1], k = geom[2];
    i64 height = geom[3], width = geom[4], out_size = geom[5];
    i64 cap = geom[6];
    i64 kk = k * k, plane = height * width;
    /* A flight lives (K-1)*width + K + 1 cycles, so no two live flights
     * share a slot of a ring this long. */
    i64 ring = k * width + k + 1;
    i64 *regs = malloc(sizeof(i64) * (size_t)kk);
    i64 *fifo = malloc(sizeof(i64) * (size_t)(k * cap));
    i64 *head = malloc(sizeof(i64) * (size_t)k);
    i64 *len = malloc(sizeof(i64) * (size_t)k);
    i64 *ntaps = malloc(sizeof(i64) * (size_t)ring);
    i64 *taps = malloc(sizeof(i64) * (size_t)(ring * kk));
    i64 *img_at = malloc(sizeof(i64) * (size_t)kk);
    if (!regs || !fifo || !head || !len || !ntaps || !taps || !img_at) {
        free(regs); free(fifo); free(head); free(len); free(ntaps);
        free(taps); free(img_at);
        return -3;
    }
    for (i64 p = 0; p < kk; p++) regs[p] = -1;
    for (i64 f = 0; f < k; f++) head[f] = len[f] = 0;

    i64 status = 0;
    i64 cycles = 0, reads = 0, fifo_ops = 0, writes = 0, macs = 0;
    for (i64 rr = 0; rr < height + k; rr++) {
        int real = rr < height;
        for (i64 cc = 0; cc < width; cc++) {
            cycles++;
            if (real) reads++;
            /* Shift phase: the rightmost column exits first. */
            for (i64 i = 0; i < k; i++) {
                i64 *row = regs + i * k;
                i64 exiting = row[k - 1];
                if (exiting >= 0 && i < k - 1) {
                    if (len[i] >= cap) {
                        info[0] = i;
                        status = 2;
                        goto done;
                    }
                    fifo[i * cap + (head[i] + len[i]) % cap] = exiting;
                    len[i]++;
                    fifo_ops++;
                } else if (exiting >= 0 && exiting / width < out_size
                           && exiting % width < out_size) {
                    /* Drained complete at PE (K-1, K-1); edge flights
                     * (invalid windows) are discarded. */
                    i64 r = exiting / width, c = exiting % width;
                    i64 slot = exiting % ring;
                    if (ntaps[slot] != kk) {
                        info[0] = r;
                        info[1] = c;
                        info[2] = ntaps[slot];
                        status = 4;
                        goto done;
                    }
                    const i64 *tap = taps + slot * kk;
                    for (i64 t = 0; t < kk; t++) {
                        img_at[t] = (r + tap[t] / k) * width + c + tap[t] % k;
                    }
                    for (i64 m = 0; m < maps_out; m++) {
                        double out = 0.0;
                        for (i64 n = 0; n < maps_in; n++) {
                            const double *img = images + n * plane;
                            const double *ker = kernels + (m * maps_in + n) * kk;
                            double acc = 0.0;
                            for (i64 t = 0; t < kk; t++) {
                                acc += img[img_at[t]] * ker[tap[t]];
                            }
                            out += acc;
                        }
                        outputs[(m * out_size + r) * out_size + c] = out;
                    }
                    writes++;
                }
                for (i64 j = k - 1; j > 0; j--) row[j] = row[j - 1];
                if (i == 0) {
                    /* A fresh output O(rr, cc) enters the first stage
                     * (none during the drain rows). */
                    row[0] = real ? rr * width + cc : -1;
                    if (real) ntaps[row[0] % ring] = 0;
                } else {
                    i64 f = i - 1, entering = -1;
                    if (len[f] > 0) {
                        i64 front = fifo[f * cap + head[f]];
                        if (front / width == rr - i && front % width == cc) {
                            entering = front;
                            head[f] = (head[f] + 1) % cap;
                            len[f]--;
                            fifo_ops++;
                        }
                    }
                    row[0] = entering;
                }
            }
            /* Accumulate phase: every PE's resident flight must be the
             * one injected i*width + j cycles ago (the linear-index
             * timing invariant); it takes a product when its window
             * covers the broadcast neuron. */
            for (i64 i = 0; i < k; i++) {
                for (i64 j = 0; j < k; j++) {
                    i64 flight = regs[i * k + j];
                    if (flight < 0) continue;
                    i64 r = flight / width, c = flight % width;
                    if (flight != rr * width + cc - i * width - j) {
                        info[0] = i;
                        info[1] = j;
                        info[2] = r;
                        info[3] = c;
                        info[4] = rr;
                        info[5] = cc;
                        status = 1;
                        goto done;
                    }
                    if (real && r < out_size && c < out_size
                        && r + i == rr && c + j == cc) {
                        i64 slot = flight % ring;
                        if (ntaps[slot] < kk) {
                            taps[slot * kk + ntaps[slot]] = i * k + j;
                        }
                        ntaps[slot]++;
                        macs++;
                    }
                }
            }
        }
    }
    for (i64 f = 0; f < k - 1; f++) {
        if (len[f] > 0) {
            info[0] = f;
            status = 3;
            goto done;
        }
    }
    counters[0] = cycles;
    counters[1] = reads;
    counters[2] = reads;
    counters[3] = fifo_ops;
    counters[4] = writes;
    counters[5] = macs;
    counters[6] = 2 * macs;
done:
    free(regs); free(fifo); free(head); free(len); free(ntaps);
    free(taps); free(img_at);
    return status;
}

/* Every block of a stride-1 layer on the 2D-Mapping array, as
 * Mapping2DFunctionalSim.run_layer and _run_block run them: blocks in
 * (r0, c0) order, input maps in order, and per map the K*K cycles of the
 * window schedule.  The window is explicit: the whole rows x cols window
 * loads on the first cycle, shifts one column left with one fresh column
 * inside a kernel row, and reloads at each kernel-row boundary; every
 * cycle checks window[0, 0] against the image, then adds window * K[m,
 * n, i, j] into every output map's partial sum.
 *
 * `geom` holds 6 ints: [0] M  [1] N  [2] K  [3] padded size  [4] out_size
 * [5] block.  `outputs` (M x S x S) receives each block's sums;
 * `counters` the layer's totals: cycles, kernel_buffer_reads,
 * bus_transfers, neuron_buffer_reads, fifo_accesses, mac_ops,
 * register_accesses, neuron_buffer_writes.  Returns 0; 1 when a window
 * is misaligned, with (i, j) in `info` and the held and expected
 * neurons in `held`; -3 when out of memory. */
i64 repro_mapping2d_layer(const double *images, const double *kernels,
                          const i64 *geom, double *outputs, i64 *counters,
                          i64 *info, double *held) {
    i64 maps = geom[0], maps_in = geom[1], k = geom[2], size = geom[3];
    i64 out_size = geom[4], block = geom[5];
    i64 kk = k * k, plane = size * size;
    i64 side = block < out_size ? block : out_size;
    double *window = malloc(sizeof(double) * (size_t)(side * side));
    double *psum = malloc(sizeof(double) * (size_t)(maps * side * side));
    if (!window || !psum) {
        free(window); free(psum);
        return -3;
    }
    i64 status = 0;
    i64 cycles = 0, neuron_reads = 0, fifo_ops = 0, macs = 0, writes = 0;
    for (i64 r0 = 0; r0 < out_size; r0 += block) {
        for (i64 c0 = 0; c0 < out_size; c0 += block) {
            i64 rows = out_size - r0 < block ? out_size - r0 : block;
            i64 cols = out_size - c0 < block ? out_size - c0 : block;
            i64 area = rows * cols;
            for (i64 e = 0; e < maps * area; e++) psum[e] = 0.0;
            for (i64 n = 0; n < maps_in; n++) {
                const double *img = images + n * plane;
                for (i64 i = 0; i < k; i++) {
                    for (i64 j = 0; j < k; j++) {
                        cycles += maps;
                        if (i == 0 && j == 0) {
                            /* Initial load: the whole window. */
                            for (i64 p = 0; p < rows; p++) {
                                for (i64 q = 0; q < cols; q++) {
                                    window[p * cols + q] =
                                        img[(r0 + p) * size + c0 + q];
                                }
                            }
                            neuron_reads += maps * area;
                        } else if (j > 0) {
                            /* PEs take their right neighbour's neuron;
                             * the rightmost column loads fresh. */
                            for (i64 p = 0; p < rows; p++) {
                                double *w = window + p * cols;
                                for (i64 q = 0; q + 1 < cols; q++) {
                                    w[q] = w[q + 1];
                                }
                                w[cols - 1] =
                                    img[(r0 + i + p) * size + c0 + j + cols - 1];
                            }
                            fifo_ops += maps * 2 * rows * (cols - 1);
                            neuron_reads += maps * rows;
                        } else {
                            /* Kernel-row boundary: the overlap with the
                             * previous window shifts through the per-PE
                             * FIFOs, the rest reloads from the buffer. */
                            i64 overlap_cols = cols - (k - 1);
                            if (overlap_cols < 0) overlap_cols = 0;
                            i64 reused = (rows - 1) * overlap_cols;
                            fifo_ops += maps * 2 * reused;
                            neuron_reads += maps * (area - reused);
                            for (i64 p = 0; p < rows; p++) {
                                for (i64 q = 0; q < cols; q++) {
                                    window[p * cols + q] =
                                        img[(r0 + i + p) * size + c0 + q];
                                }
                            }
                        }
                        double sample = window[0];
                        double expected = img[(r0 + i) * size + c0 + j];
                        if (sample != expected) {
                            info[0] = i;
                            info[1] = j;
                            held[0] = sample;
                            held[1] = expected;
                            status = 1;
                            goto done;
                        }
                        for (i64 m = 0; m < maps; m++) {
                            double kv = kernels[(m * maps_in + n) * kk
                                                + i * k + j];
                            double *ps = psum + m * area;
                            for (i64 e = 0; e < area; e++) {
                                ps[e] += window[e] * kv;
                            }
                        }
                        macs += maps * area;
                    }
                }
            }
            for (i64 m = 0; m < maps; m++) {
                for (i64 p = 0; p < rows; p++) {
                    for (i64 q = 0; q < cols; q++) {
                        outputs[(m * out_size + r0 + p) * out_size + c0 + q] =
                            psum[(m * rows + p) * cols + q];
                    }
                }
            }
            writes += maps * area;
        }
    }
    counters[0] = cycles;
    counters[1] = cycles;
    counters[2] = cycles;
    counters[3] = neuron_reads;
    counters[4] = fifo_ops;
    counters[5] = macs;
    counters[6] = 2 * macs;
    counters[7] = writes;
done:
    free(window); free(psum);
    return status;
}

/* The tiling engine over one layer, as TilingFunctionalSim.run_layer
 * runs it: per (m0, n0) tile pair a fresh accumulator for every output
 * map of the tile and every output position, then per (i, j) cycle each
 * position's Tn products (synapse times neuron, in map order) summed as
 * 0.0 plus their pairwise sum and added to its accumulator; the tile's
 * accumulators are then added into `outputs`, which must start zeroed.
 *
 * `geom` holds 8 ints: [0] M  [1] N  [2] K  [3] padded size  [4] out_size
 * [5] stride  [6] Tm  [7] Tn.  `counters` receives the layer's totals:
 * cycles, neuron_buffer_reads, bus_transfers, kernel_buffer_reads,
 * mac_ops, register_accesses, neuron_buffer_writes,
 * neuron_buffer_partial_reads.  Returns 0, or -3 when out of memory. */
i64 repro_tiling_layer(const double *images, const double *kernels,
                       const i64 *geom, double *outputs, i64 *counters) {
    i64 maps_out = geom[0], maps_in = geom[1], k = geom[2], size = geom[3];
    i64 out_size = geom[4], stride = geom[5], tm = geom[6], tn = geom[7];
    i64 kk = k * k, plane = size * size, positions = out_size * out_size;
    i64 tm_max = tm < maps_out ? tm : maps_out;
    i64 tn_max = tn < maps_in ? tn : maps_in;
    double *products = malloc(sizeof(double) * (size_t)tn_max);
    double *acc = malloc(sizeof(double) * (size_t)(tm_max * positions));
    if (!products || !acc) {
        free(products); free(acc);
        return -3;
    }
    i64 cycles = 0, neuron_reads = 0, kernel_reads = 0, registers = 0;
    i64 writes = 0, partial_reads = 0;
    for (i64 m0 = 0; m0 < maps_out; m0 += tm) {
        i64 m_hi = m0 + tm < maps_out ? m0 + tm : maps_out;
        i64 tile_m = m_hi - m0;
        for (i64 n0 = 0; n0 < maps_in; n0 += tn) {
            i64 n_hi = n0 + tn < maps_in ? n0 + tn : maps_in;
            i64 tile_n = n_hi - n0;
            /* Partial-sum read-back when accumulating a later input-map
             * tile onto stored partials. */
            if (n0 > 0) partial_reads += positions * tile_m;
            for (i64 e = 0; e < tile_m * positions; e++) acc[e] = 0.0;
            for (i64 i = 0; i < k; i++) {
                for (i64 j = 0; j < k; j++) {
                    cycles += positions;
                    neuron_reads += positions * tile_n;
                    kernel_reads += positions * tile_m * tile_n;
                    registers += positions * 2 * tile_m;
                    for (i64 m = 0; m < tile_m; m++) {
                        const double *syn =
                            kernels + ((m0 + m) * maps_in + n0) * kk + i * k + j;
                        double *sums = acc + m * positions;
                        for (i64 r = 0; r < out_size; r++) {
                            for (i64 c = 0; c < out_size; c++) {
                                const double *neu = images + n0 * plane
                                    + (r * stride + i) * size + c * stride + j;
                                for (i64 t = 0; t < tile_n; t++) {
                                    products[t] = syn[t * kk] * neu[t * plane];
                                }
                                double tree = 0.0;
                                tree += pairwise_sum(products, tile_n);
                                sums[r * out_size + c] += tree;
                            }
                        }
                    }
                }
            }
            for (i64 e = 0; e < tile_m * positions; e++) {
                outputs[m0 * positions + e] += acc[e];
            }
            writes += positions * tile_m;
        }
    }
    counters[0] = cycles;
    counters[1] = neuron_reads;
    counters[2] = neuron_reads;
    counters[3] = kernel_reads;
    counters[4] = kernel_reads;
    counters[5] = registers;
    counters[6] = writes;
    counters[7] = partial_reads;
    free(products); free(acc);
    return 0;
}
"""
