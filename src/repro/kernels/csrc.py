"""C source for the generated-extension kernel backend (``cext``).

One translation unit holding every compiled kernel.  The Python side
(:mod:`repro.kernels.cext`) writes this string to a temp file, compiles
it with the system C compiler (``cc -O2 -shared -fPIC``) and caches the
shared object under the kernels cache directory keyed by the SHA-256 of
the source + compile command — editing a kernel automatically invalidates
every previously built ``.so``.

Every function mirrors a NumPy expression elsewhere in the tree and must
stay **bit-identical** to it (pinned by ``tests/kernels/test_parity.py``):

* ``repro_enumerate_triples`` — the meshgrid + ``nonzero`` candidate
  enumeration of ``repro.dataflow.mapper._candidate_cache`` (C-order
  nested loops == lexicographic order over sorted inputs).
* ``repro_pair_cycles`` — ``score_candidates_batch``'s step counts and
  outer-product cycle matrix.
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

All integer math is ``int64``; inputs are non-negative and small enough
that no intermediate product overflows (the Python callers guarantee
layer extents and factor values fit comfortably).
"""

from __future__ import annotations

#: Bumped when the ABI (function names/signatures) changes incompatibly;
#: folded into the build hash alongside the source text.
KERNELS_C_ABI = 3

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
"""
