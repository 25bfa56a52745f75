/* Native kernel for the struct-of-arrays simulator core.
 *
 * Compiled on demand by repro.network.native with a plain
 * ``cc -O1 -shared -fPIC`` (no Python headers), loaded via ctypes.
 * Every cold process pays that compile, so it runs at -O1 (the kernel
 * is within 2% of an -O3 build) and writes only new files: no temp
 * file is reopened with truncation (the module doc there has numbers).
 * All state lives in caller-owned int64 buffers, so a core instance
 * can run() repeatedly (drain leftovers persist) and Python can
 * inspect buffers for conservation checks.
 *
 * The cycle model replicates repro.network.refcore.ReferenceCore
 * exactly — phases, per-output round-robin over candidate inputs in
 * input-insertion order, multi-pass grants for capacity > 1, wormhole
 * VC ownership, credit flow — so that, given the same pre-resolved
 * packet table, results are bit-identical to the reference core.  The
 * Python wrapper pre-resolves every packet's destination and route
 * (the only consumers of the stdlib RNG stream) before the run, so
 * this kernel needs no callbacks in either of its two modes:
 *
 * - open loop: the packets inject at their scheduled cycles
 *   (ev_cycle sorted, absolute);
 * - plan mode (S.plan set): the packets are the template events of a
 *   repro.workload.driver.PhasePlan, phase-major, and *when* they
 *   inject is decided here.  A phase is released one cycle after the
 *   last phase it waits on drained (indeg counts those down; rem
 *   counts a phase's undelivered packets down at the tail-flit
 *   ejection), its events inject compute + ev_off cycles later, and
 *   the run ends when every phase has drained.
 *   PhasePlan.begin/packet_done/flush is the specification.
 *
 * Flit words use the Python core's packing, minus the event tag that
 * would overflow 64 bits: f = (pid << 22) | (flit_idx << 11) | hop.
 * Wheel events are parallel (flit, lv) arrays.
 *
 * The pre-resolution itself has two entry points at the end of this
 * file: draw_pass (destinations and Valiant intermediates, from the
 * stdlib stream) and plane_resolve (routes, from label tables).
 */

#include <stddef.h>
#include <stdint.h>

typedef int64_t i64;

#define HOP_BITS 11
#define FIDX_SHIFT 11
#define PID_SHIFT 22
#define HOP_MASK ((1 << HOP_BITS) - 1)
#define FIDX_MASK ((1 << (PID_SHIFT - FIDX_SHIFT)) - 1)

/* Every struct the Python side fills is declared once, here, as an
 * X-macro list of X(type, name) fields.  FIELD makes the typedef from
 * it, and sim_layout() at the end of this file exports the same list
 * as a table (offsetof, sizeof and the type as written) from which
 * repro.network.native builds each ctypes class.  A field is added,
 * renamed or moved here and nowhere else. */
#define FIELD(type, name) type name;

/* A closed-loop plan: the flat arrays of a PhasePlan, which this
 * kernel counts down and stamps in place, plus the scratch release
 * needs.  Every buffer is sized by the plan (n_ph phases, n_ev events)
 * and exists only for a plan's run. */
#define PLAN_FIELDS(X) \
    X(i64, n_ph) \
    X(i64, pid0)        /* first packet id of the run: event e is pid0 + e */ \
    /* scratch counters, zero on entry: act_n released phases with \
     * events left, the queue's head and tail, done_n drained phases */ \
    X(i64, act_n) X(i64, q_head) X(i64, q_tail) X(i64, done_n) \
    /* the templates (read-only) */ \
    X(i64 *, ev_off)    /* [n_ev] injection cycle, relative to phase start */ \
    X(i64 *, ev_phase)  /* [n_ev] phase of each event */ \
    X(i64 *, ev0)       /* [n_ph + 1] phase i owns events ev0[i]..ev0[i+1] */ \
    X(i64 *, compute)   /* [n_ph] cycles from release to first injection */ \
    X(i64 *, dep_ptr)   /* [n_ph + 1] CSR of the phases waiting on phase i */ \
    X(i64 *, dep_idx) \
    X(i64 *, indeg)     /* [n_ph] undrained upstream phases, counts down */ \
    X(i64 *, rem)       /* [n_ph] undelivered packets, counts down */ \
    /* cycle stamps, -1 until reached: release, first injection, drain */ \
    X(i64 *, release) X(i64 *, comm_start) X(i64 *, done) \
    /* scratch; every phase passes through queue once, so it never wraps */ \
    X(i64 *, cur)       /* [n_ph] next event of a released phase */ \
    X(i64 *, act)       /* [n_ph] the act_n active phases, release order */ \
    X(i64 *, queue)     /* [n_ph] phases released this cycle, FIFO */

typedef struct { PLAN_FIELDS(FIELD) } Plan;

/* Everything the kernel touches: int64 scalars first, then pointers,
 * so the struct has no padding (sim_layout's reader checks that the
 * fields tile it). */
#define S_FIELDS(X) \
    /* sizes and parameters */ \
    X(i64, num_nodes) X(i64, num_links) X(i64, num_lv) X(i64, wheel_size) \
    X(i64, slot_cap)    /* per-wheel-slot event capacity */ \
    X(i64, buf_cap)     /* flits per (link, vc) ring == vc_buffer_size */ \
    X(i64, max_in)      /* max inbound (link, vc) inputs of any router */ \
    X(i64, pkt_len) X(i64, inj_w) X(i64, ej_w) \
    X(i64, warm) X(i64, meas_end) X(i64, t_end) \
    X(i64, t0)          /* first cycle of this run (continues prior runs) */ \
    X(i64, n_ev)        /* injection events: schedule or template order */ \
    /* outputs / running counters (read-modify-write) */ \
    X(i64, n_lat) X(i64, tfi) X(i64, tfe) X(i64, pm) X(i64, few) \
    X(i64, hot_n) \
    X(i64, error)       /* 0 ok; 1 wheel overflow; 2 ne overflow */ \
    /* per-link / per-lv constants, shared read-only by every lane */ \
    X(const i64 *, cap)     /* [num_links] flits per cycle */ \
    X(const i64 *, lv_dst)  /* [num_lv] destination router */ \
    X(const i64 *, cap_lv)  /* [num_lv] upstream link capacity */ \
    X(const i64 *, cdel_lv) /* [num_lv] credit return delay */ \
    /* mutable per-lv state */ \
    X(i64 *, credits)   /* [num_lv] */ \
    X(i64 *, owner)     /* [num_lv] owning pid, -1 free */ \
    X(i64 *, buf)       /* [num_lv * buf_cap] flit rings */ \
    X(i64 *, b_head)    /* [num_lv] ring head index */ \
    X(i64 *, b_len)     /* [num_lv] ring occupancy */ \
    /* per-router input bookkeeping (insertion-ordered, like the \
     * reference core's nonempty dicts) */ \
    X(i64 *, ne_arr)    /* [num_nodes * max_in] */ \
    X(i64 *, ne_len)    /* [num_nodes] */ \
    /* source queues: one arena, per-node slices */ \
    X(i64 *, sq_arena)  /* [sum of per-node capacities] pids */ \
    X(i64 *, sq_off)    /* [num_nodes] arena offset */ \
    X(i64 *, sq_head)   /* [num_nodes] index into slice */ \
    X(i64 *, sq_len)    /* [num_nodes] */ \
    X(i64 *, s_fidx)    /* [num_nodes] next flit idx of queue head */ \
    /* event wheels: parallel (flit, lv) arrays per slot */ \
    X(i64 *, aw_f)      /* [wheel_size * slot_cap] arrival flits */ \
    X(i64 *, aw_lv)     /* [wheel_size * slot_cap] arrival lvs */ \
    X(i64 *, aw_n)      /* [wheel_size] */ \
    X(i64 *, cw_lv)     /* [wheel_size * slot_cap] credit lvs */ \
    X(i64 *, cw_n)      /* [wheel_size] */ \
    /* round-robin pointers */ \
    X(i64 *, rr_link)   /* [num_links] */ \
    X(i64 *, rr_eject)  /* [num_nodes] */ \
    /* hot-router machinery */ \
    X(i64 *, hot_a)     /* [num_nodes] current list */ \
    X(i64 *, hot_b)     /* [num_nodes] next list */ \
    X(unsigned char *, hot_flag) /* [num_nodes] */ \
    /* packet table and flattened routes (read-only here, except that \
     * plan mode stamps p_t0 and p_meas at injection) */ \
    X(i64 *, p_off)     /* [num_packets] route offset */ \
    X(i64 *, p_hops)    /* [num_packets] route length */ \
    X(i64 *, p_t0)      /* [num_packets] creation cycle */ \
    X(i64 *, p_meas)    /* [num_packets] created in window */ \
    X(i64 *, route_lv)  /* per-hop (link*V + vc) */ \
    X(const i64 *, lv_link)  /* per-lv link id (lv / num_vcs), shared */ \
    X(const i64 *, lv_delay) /* per-lv in-flight delay of its link, shared */ \
    /* injection events: [n_ev] cycles (sorted, open loop only), \
     * sources and packet ids */ \
    X(i64 *, ev_cycle) X(i64 *, ev_src) X(i64 *, ev_pid) \
    /* measurement output, [>= packets] each: latency and hops per \
     * delivered measured packet, and its pid (NULL when unprobed) */ \
    X(i64 *, lat_out) X(i64 *, hops_out) X(i64 *, pid_out) \
    /* scratch (max_in + 1 each) */ \
    X(i64 *, sc_desc) X(i64 *, sc_key) X(i64 *, sc_cand) X(i64 *, sc_used) \
    /* closed-loop plan; NULL for an open-loop run */ \
    X(Plan *, plan)

typedef struct { S_FIELDS(FIELD) } S;

/* drop input lv from router r's insertion-ordered list */
static void ne_remove(S *s, i64 r, i64 lv)
{
    i64 *a = s->ne_arr + r * s->max_in;
    i64 n = s->ne_len[r];
    for (i64 i = 0; i < n; i++) {
        if (a[i] == lv) {
            for (i64 j = i + 1; j < n; j++)
                a[j - 1] = a[j];
            s->ne_len[r] = n - 1;
            return;
        }
    }
}

/* ------------------------------------------------------------------
 * Plan mode: phase release as dependency counters.
 * ------------------------------------------------------------------ */

/* phase i drained at t_done (or had nothing to send): the phases it
 * was the last to hold back are released the cycle after */
static void plan_drained(Plan *p, i64 i, i64 t_done)
{
    p->done[i] = t_done;
    p->done_n++;
    for (i64 k = p->dep_ptr[i]; k < p->dep_ptr[i + 1]; k++) {
        i64 j = p->dep_idx[k];
        if (--p->indeg[j] == 0) {
            p->release[j] = t_done + 1;
            p->queue[p->q_tail++] = j;
        }
    }
}

/* tail flit of packet pid left the network at cycle t (leftovers of an
 * earlier open-loop run, pid < pid0, are not the plan's) */
static inline void plan_packet_done(Plan *p, i64 pid, i64 t)
{
    i64 e = pid - p->pid0;
    if (e >= 0) {
        i64 i = p->ev_phase[e];
        if (--p->rem[i] == 0)
            plan_drained(p, i, t);
    }
}

/* end of cycle: start every phase released during it.  A phase with
 * nothing to send drains after its compute delay, on the spot, which
 * may queue further phases behind it. */
static void plan_flush(Plan *p)
{
    while (p->q_head < p->q_tail) {
        i64 i = p->queue[p->q_head++];
        i64 start = p->release[i] + p->compute[i];
        i64 e = p->ev0[i];
        if (e < p->ev0[i + 1]) {
            p->comm_start[i] = start + p->ev_off[e];
            p->cur[i] = e;
            p->act[p->act_n++] = i;
        } else {
            plan_drained(p, i, start);
        }
    }
}

/* the DAG's roots are released at t0 */
static void plan_begin(Plan *p, i64 t0)
{
    for (i64 i = 0; i < p->n_ph; i++)
        if (p->indeg[i] == 0) {
            p->release[i] = t0;
            p->queue[p->q_tail++] = i;
        }
    plan_flush(p);
}

static inline i64 plan_cycle(const Plan *p, i64 i, i64 e)
{
    return p->release[i] + p->compute[i] + p->ev_off[e];
}

/* The next event due by cycle t, or -1.  Scanning the released phases
 * in release order yields a cycle's events by (release sequence,
 * template index): the order PhasePlan.flush's stable sort gives them.
 * A phase leaves the active list with its last event. */
static i64 plan_due(Plan *p, i64 t)
{
    for (i64 a = 0; a < p->act_n; a++) {
        i64 i = p->act[a];
        i64 e = p->cur[i];
        if (plan_cycle(p, i, e) > t)
            continue;
        if (++p->cur[i] == p->ev0[i + 1]) {
            p->act_n--;
            for (i64 b = a; b < p->act_n; b++)
                p->act[b] = p->act[b + 1];
        }
        return e;
    }
    return -1;
}

/* cycle of the earliest released event not yet injected, or -1 */
static i64 plan_next_cycle(const Plan *p)
{
    i64 best = -1;
    for (i64 a = 0; a < p->act_n; a++) {
        i64 i = p->act[a];
        i64 c = plan_cycle(p, i, p->cur[i]);
        if (best < 0 || c < best)
            best = c;
    }
    return best;
}

i64 sim_run(S *s)
{
    const i64 W = s->wheel_size, SC = s->slot_cap, BC = s->buf_cap;
    const i64 pkt_len = s->pkt_len, szm1 = pkt_len - 1;
    const i64 inj_w = s->inj_w, ej_w = s->ej_w;
    const i64 warm = s->warm, meas_end = s->meas_end, t_end = s->t_end;
    const i64 n_ev = s->n_ev;
    Plan *const plan = s->plan;

    i64 *hot = s->hot_a, *nxt = s->hot_b;
    i64 hot_n = s->hot_n, nxt_n;
    i64 tfi = s->tfi, tfe = s->tfe, pm = s->pm, few = s->few;
    i64 n_lat = s->n_lat;
    i64 ipk = 0;

    i64 pending = 0;
    for (i64 i = 0; i < W; i++)
        pending += s->aw_n[i] + s->cw_n[i];

    if (plan)
        plan_begin(plan, s->t0);

    for (i64 t = s->t0; t < t_end; ) {
        i64 slot = t % W;
        int in_window = (warm <= t) && (t < meas_end);

        /* --- 1. credit returns ----------------------------------- */
        {
            i64 n = s->cw_n[slot];
            if (n) {
                i64 *lvs = s->cw_lv + slot * SC;
                for (i64 i = 0; i < n; i++)
                    s->credits[lvs[i]] += 1;
                pending -= n;
                s->cw_n[slot] = 0;
            }
        }

        /* --- 2. flit arrivals ------------------------------------ */
        {
            i64 n = s->aw_n[slot];
            if (n) {
                i64 *fs = s->aw_f + slot * SC;
                i64 *lvs = s->aw_lv + slot * SC;
                for (i64 i = 0; i < n; i++) {
                    i64 lv = lvs[i];
                    i64 bl = s->b_len[lv];
                    if (bl == 0) {
                        i64 r = s->lv_dst[lv];
                        if (s->ne_len[r] >= s->max_in) {
                            s->error = 2;
                            goto out;
                        }
                        s->ne_arr[r * s->max_in + s->ne_len[r]++] = lv;
                        if (!s->hot_flag[r]) {
                            s->hot_flag[r] = 1;
                            hot[hot_n++] = r;
                        }
                    }
                    s->buf[lv * BC + (s->b_head[lv] + bl) % BC] = fs[i];
                    s->b_len[lv] = bl + 1;
                }
                pending -= n;
                s->aw_n[slot] = 0;
            }
        }

        /* --- 3. packet generation (pre-resolved packets) --------- */
        for (;;) {
            i64 e;
            if (plan) {
                e = plan_due(plan, t);
                if (e < 0)
                    break;
            } else {
                if (ipk >= n_ev || s->ev_cycle[ipk] > t)
                    break;
                e = ipk++;
            }
            i64 pid = s->ev_pid[e];
            i64 src = s->ev_src[e];
            if (plan) {
                /* a plan's packet is created when it is released */
                s->p_t0[pid] = t;
                s->p_meas[pid] = in_window;
            }
            if (s->p_meas[pid])
                pm++;
            if (s->p_hops[pid] == 0) {
                /* src and dst share a router: deliver instantly */
                tfi += pkt_len;
                tfe += pkt_len;
                if (s->p_meas[pid]) {
                    few += pkt_len;
                    s->lat_out[n_lat] = 0;
                    s->hops_out[n_lat] = 0;
                    if (s->pid_out)
                        s->pid_out[n_lat] = pid;
                    n_lat++;
                }
                if (plan)
                    plan_packet_done(plan, pid, t);
                continue;
            }
            if (s->sq_len[src] == 0)
                s->s_fidx[src] = 0;
            s->sq_arena[s->sq_off[src] + s->sq_head[src] + s->sq_len[src]]
                = pid;
            s->sq_len[src] += 1;
            if (!s->hot_flag[src]) {
                s->hot_flag[src] = 1;
                hot[hot_n++] = src;
            }
        }

        /* --- 4. arbitration -------------------------------------- */
        nxt_n = 0;
        for (i64 hi = 0; hi < hot_n; hi++) {
            i64 r = hot[hi];
            i64 nin = s->ne_len[r];
            i64 sqn = s->sq_len[r];
            if (nin == 0 && sqn == 0) {
                s->hot_flag[r] = 0;
                continue;
            }

            /* collect requests: descriptor (lv, or -2 for the source
             * queue) + requested output key, in the reference core's
             * order: nonempty inputs first (insertion order), source
             * last.  Key -1 is the ejection port. */
            i64 *desc = s->sc_desc, *dkey = s->sc_key;
            i64 nd = 0;
            i64 *nearr = s->ne_arr + r * s->max_in;
            for (i64 i = 0; i < nin; i++) {
                i64 lv = nearr[i];
                i64 f = s->buf[lv * BC + s->b_head[lv]];
                i64 pid = f >> PID_SHIFT;
                i64 nh = (f & HOP_MASK) + 1;
                desc[nd] = lv;
                dkey[nd] = (nh == s->p_hops[pid])
                    ? -1
                    : s->lv_link[s->route_lv[s->p_off[pid] + nh]];
                nd++;
            }
            if (sqn) {
                i64 pid = s->sq_arena[s->sq_off[r] + s->sq_head[r]];
                desc[nd] = -2;
                dkey[nd] = s->lv_link[s->route_lv[s->p_off[pid]]];
                nd++;
            }

            /* process each output key once, in first-seen order */
            for (i64 i = 0; i < nd; i++) {
                i64 key = dkey[i];
                int seen = 0;
                for (i64 j = 0; j < i; j++)
                    if (dkey[j] == key) {
                        seen = 1;
                        break;
                    }
                if (seen)
                    continue;
                i64 *cand = s->sc_cand;
                i64 cn = 0;
                for (i64 j = i; j < nd; j++)
                    if (dkey[j] == key)
                        cand[cn++] = desc[j];

                i64 budget = (key < 0) ? ej_w : s->cap[key];
                if (cn > 1) {
                    i64 off;
                    if (key < 0) {
                        off = s->rr_eject[r];
                        s->rr_eject[r] = off + 1;
                    } else {
                        off = s->rr_link[key];
                        s->rr_link[key] = off + 1;
                    }
                    off %= cn;
                    if (off) {
                        /* rotate candidates for round-robin fairness */
                        i64 *tmp = s->sc_used;
                        for (i64 j = 0; j < cn; j++)
                            tmp[j] = cand[(off + j) % cn];
                        for (i64 j = 0; j < cn; j++)
                            cand[j] = tmp[j];
                    }
                }

                i64 *used = s->sc_used;
                for (i64 j = 0; j < cn; j++)
                    used[j] = 0;
                i64 granted = 0;
                for (i64 pass = 0; pass < budget; pass++) {
                    int progressed = 0;
                    for (i64 ci = 0; ci < cn; ci++) {
                        if (granted >= budget)
                            break;
                        i64 d = cand[ci];
                        if (d < 0) {
                            /* source queue head */
                            if (s->sq_len[r] == 0)
                                continue;
                            i64 pid = s->sq_arena[
                                s->sq_off[r] + s->sq_head[r]];
                            i64 base = s->p_off[pid];
                            i64 nlv = s->route_lv[base];
                            if (s->lv_link[nlv] != key)
                                continue;
                            if (budget > 1 && used[ci] >= inj_w)
                                continue;
                            i64 fidx = s->s_fidx[r];
                            if (s->credits[nlv] <= 0)
                                continue;
                            i64 own = s->owner[nlv];
                            if (fidx == 0 ? own != -1 : own != pid)
                                continue;
                            tfi++;
                            s->credits[nlv] -= 1;
                            s->owner[nlv] = (fidx == szm1) ? -1 : pid;
                            {
                                i64 dslot =
                                    (t + s->lv_delay[nlv]) % W;
                                i64 n2 = s->aw_n[dslot];
                                if (n2 >= SC) {
                                    s->error = 1;
                                    goto out;
                                }
                                s->aw_f[dslot * SC + n2] =
                                    (pid << PID_SHIFT)
                                    | (fidx << FIDX_SHIFT);
                                s->aw_lv[dslot * SC + n2] = nlv;
                                s->aw_n[dslot] = n2 + 1;
                            }
                            pending++;
                            if (fidx + 1 == pkt_len) {
                                s->sq_head[r] += 1;
                                s->sq_len[r] -= 1;
                                s->s_fidx[r] = 0;
                            } else {
                                s->s_fidx[r] = fidx + 1;
                            }
                        } else {
                            i64 bl = s->b_len[d];
                            if (bl == 0)
                                continue;
                            i64 f = s->buf[d * BC + s->b_head[d]];
                            i64 pid = f >> PID_SHIFT;
                            i64 fidx = (f >> FIDX_SHIFT) & FIDX_MASK;
                            i64 nh = (f & HOP_MASK) + 1;
                            if (nh == s->p_hops[pid]) {
                                /* eject (key must match) */
                                if (key >= 0)
                                    continue;
                                if (budget > 1
                                    && used[ci] >= s->cap_lv[d])
                                    continue;
                                s->b_head[d] =
                                    (s->b_head[d] + 1) % BC;
                                s->b_len[d] = bl - 1;
                                if (bl == 1)
                                    ne_remove(s, r, d);
                                {
                                    i64 dslot =
                                        (t + s->cdel_lv[d]) % W;
                                    i64 n2 = s->cw_n[dslot];
                                    if (n2 >= SC) {
                                        s->error = 1;
                                        goto out;
                                    }
                                    s->cw_lv[dslot * SC + n2] = d;
                                    s->cw_n[dslot] = n2 + 1;
                                }
                                pending++;
                                tfe++;
                                if (in_window)
                                    few++;
                                if (fidx == szm1) {
                                    if (s->p_meas[pid]) {
                                        s->lat_out[n_lat] =
                                            t - s->p_t0[pid];
                                        s->hops_out[n_lat] =
                                            s->p_hops[pid];
                                        if (s->pid_out)
                                            s->pid_out[n_lat] = pid;
                                        n_lat++;
                                    }
                                    if (plan)
                                        plan_packet_done(plan, pid, t);
                                }
                            } else {
                                i64 base = s->p_off[pid] + nh;
                                i64 nlv = s->route_lv[base];
                                if (s->lv_link[nlv] != key)
                                    continue;
                                if (budget > 1
                                    && used[ci] >= s->cap_lv[d])
                                    continue;
                                if (s->credits[nlv] <= 0)
                                    continue;
                                i64 own = s->owner[nlv];
                                if (fidx == 0 ? own != -1 : own != pid)
                                    continue;
                                s->b_head[d] =
                                    (s->b_head[d] + 1) % BC;
                                s->b_len[d] = bl - 1;
                                if (bl == 1)
                                    ne_remove(s, r, d);
                                {
                                    i64 dslot =
                                        (t + s->cdel_lv[d]) % W;
                                    i64 n2 = s->cw_n[dslot];
                                    if (n2 >= SC) {
                                        s->error = 1;
                                        goto out;
                                    }
                                    s->cw_lv[dslot * SC + n2] = d;
                                    s->cw_n[dslot] = n2 + 1;
                                }
                                s->credits[nlv] -= 1;
                                s->owner[nlv] =
                                    (fidx == szm1) ? -1 : pid;
                                {
                                    i64 dslot =
                                        (t + s->lv_delay[nlv]) % W;
                                    i64 n2 = s->aw_n[dslot];
                                    if (n2 >= SC) {
                                        s->error = 1;
                                        goto out;
                                    }
                                    s->aw_f[dslot * SC + n2] = f + 1;
                                    s->aw_lv[dslot * SC + n2] = nlv;
                                    s->aw_n[dslot] = n2 + 1;
                                }
                                pending += 2;
                            }
                        }
                        if (budget > 1)
                            used[ci] += 1;
                        granted++;
                        progressed = 1;
                    }
                    if (!progressed || granted >= budget)
                        break;
                }
            }

            if (s->ne_len[r] || s->sq_len[r]) {
                nxt[nxt_n++] = r;
            } else {
                s->hot_flag[r] = 0;
            }
        }

        /* swap hot lists */
        {
            i64 *tl = hot;
            hot = nxt;
            nxt = tl;
            hot_n = nxt_n;
        }

        t++;
        /* --- 5. phase releases (plan mode) ----------------------- */
        if (plan) {
            /* phases that drained this cycle release their dependents
             * at t: started here, before the next generation pass */
            plan_flush(plan);
            if (plan->done_n == plan->n_ph)
                break;
        }
        /* --- idle fast-forward ----------------------------------- */
        if (hot_n == 0 && pending == 0) {
            i64 next = plan ? plan_next_cycle(plan)
                     : ipk < n_ev ? s->ev_cycle[ipk] : -1;
            if (next < 0)
                break;
            t = next;
        }
    }

out:
    /* persist the hot list in hot_a for the next run() */
    if (hot != s->hot_a) {
        for (i64 i = 0; i < hot_n; i++)
            s->hot_a[i] = hot[i];
    }
    s->hot_n = hot_n;
    s->tfi = tfi;
    s->tfe = tfe;
    s->pm = pm;
    s->few = few;
    s->n_lat = n_lat;
    return s->error;
}

/* ------------------------------------------------------------------ *
 * Batched entry: run N independent lanes (one struct S each, fully
 * isolated state) with optional pthread workers.  Lanes are pulled
 * from a shared atomic index, so any thread count yields the same
 * per-lane results as a serial loop — bit-identical by construction.
 *
 * Compiled with -DREPRO_HAVE_PTHREADS (and -pthread) when the
 * toolchain supports it; otherwise the entry still exists and runs
 * the lanes serially, so the Python side needs no capability probe.
 * ------------------------------------------------------------------ */

#ifdef REPRO_HAVE_PTHREADS
#include <pthread.h>

typedef struct {
    S *states;
    i64 n;
    i64 next; /* atomic lane cursor */
} BatchCtl;

static void *batch_worker(void *arg)
{
    BatchCtl *ctl = (BatchCtl *)arg;
    for (;;) {
        i64 i = __atomic_fetch_add(&ctl->next, 1, __ATOMIC_RELAXED);
        if (i >= ctl->n)
            break;
        sim_run(&ctl->states[i]);
    }
    return 0;
}
#endif

#define BATCH_MAX_THREADS 64

/* Returns the first lane's nonzero error code (0 = all lanes ok);
 * per-lane codes stay readable in states[i].error either way. */
i64 sim_run_batch(S *states, i64 n, i64 threads)
{
    if (n <= 0)
        return 0;
    if (threads > n)
        threads = n;
#ifdef REPRO_HAVE_PTHREADS
    if (threads > 1) {
        pthread_t tid[BATCH_MAX_THREADS];
        BatchCtl ctl;
        i64 started = 0;
        if (threads > BATCH_MAX_THREADS)
            threads = BATCH_MAX_THREADS;
        ctl.states = states;
        ctl.n = n;
        ctl.next = 0;
        for (i64 i = 0; i < threads - 1; i++) {
            if (pthread_create(&tid[started], 0, batch_worker, &ctl))
                break; /* thread-spawn failure: caller thread picks up */
            started++;
        }
        batch_worker(&ctl);
        for (i64 i = 0; i < started; i++)
            pthread_join(tid[i], 0);
    } else
#endif
    {
        for (i64 i = 0; i < n; i++)
            sim_run(&states[i]);
    }
    for (i64 i = 0; i < n; i++)
        if (states[i].error)
            return states[i].error;
    return 0;
}

/* ------------------------------------------------------------------
 * Route plane: routes of (src, dst[, via]) triples from label tables.
 *
 * Walks the label tables of repro.routing.plane.RoutePlane, which
 * fills this struct by field name (see that class for what each table
 * holds).  The scalar route() of the routing classes is the
 * specification.
 * ------------------------------------------------------------------ */

#define PLANE_FIELDS(X) \
    X(i64, num_vcs) \
    X(i64, C)           /* C-groups per W-group */ \
    X(i64, L)           /* nodes per C-group */ \
    X(i64, W)           /* W-groups */ \
    X(i64, seg_w)       /* padded segment row width */ \
    X(i64, cg_w)        /* template links per C-group */ \
    X(i64, reduced)     /* 0: ordinal VC rule, 1: Sec. IV-B reduced policy */ \
    X(i64, merged_vcs)  /* reduced: intermediate and destination on VC-2 */ \
    /* the ordinal rule */ \
    X(i64, vc_spread) X(i64, vc_local) X(i64, vc_global) X(i64, vc_landed) \
    X(const i64 *, node_w) X(const i64 *, node_c) X(const i64 *, node_l) \
    X(const i64 *, cg_links) X(const i64 *, seg) \
    X(const i64 *, loc_link) X(const i64 *, loc_src) X(const i64 *, loc_dst) \
    X(const i64 *, gateway) X(const i64 *, glob_link) \
    X(const i64 *, glob_src) X(const i64 *, glob_dst) \
    X(const i64 *, glob_dst_c)

typedef struct { PLANE_FIELDS(FIELD) } Plane;

enum { SEG_XY = 0, SEG_WALK = 1, SEG_DELIVERY = 2 };

/* One route being written: position (w, c, l) and the arena cursor. */
typedef struct {
    const Plane *p;
    i64 *restrict lv;
    i64 h;
    i64 w, c, l;
} Walk;

static inline void walk_hop(Walk *restrict k, i64 link, i64 vc)
{
    k->lv[k->h++] = link * k->p->num_vcs + vc;
}

/* intra-C-group segment from the current node to local index b */
static void walk_segment(Walk *restrict k, i64 kind, i64 b, i64 vc)
{
    const Plane *p = k->p;
    const i64 *row = p->seg + ((kind * p->L + k->l) * p->L + b) * p->seg_w;
    const i64 *links = p->cg_links + (k->w * p->C + k->c) * p->cg_w;
    i64 w = p->seg_w;
    for (i64 j = 0; j < w && row[j] >= 0; j++)
        walk_hop(k, links[row[j]], vc);
    k->l = b;
}

/* segment to the local port toward C-group `to`, then the channel */
static void walk_cross(Walk *k, i64 kind, i64 to, i64 vc_mesh, i64 vc_link)
{
    const Plane *p = k->p;
    i64 ch = (k->w * p->C + k->c) * p->C + to;
    walk_segment(k, kind, p->loc_src[ch], vc_mesh);
    walk_hop(k, p->loc_link[ch], vc_link);
    k->c = to;
    k->l = p->loc_dst[ch];
}

/* segment to the global port toward W-group `nxt`, then the channel */
static void walk_leap(Walk *k, i64 kind, i64 nxt, i64 vc_mesh, i64 vc_link)
{
    const Plane *p = k->p;
    i64 ch = k->w * p->W + nxt;
    walk_segment(k, kind, p->glob_src[ch], vc_mesh);
    walk_hop(k, p->glob_link[ch], vc_link);
    k->w = nxt;
    k->c = p->glob_dst_c[ch];
    k->l = p->glob_dst[ch];
}

/* XY segments everywhere; VC by the ordinal rule (see RoutePlane) */
static void walk_ordinal(Walk *k, i64 vc, i64 via, i64 wd, i64 cd, i64 ld)
{
    const Plane *p = k->p;
    i64 seq[2] = {via >= 0 ? via : wd, wd};
    i64 steps = k->w == wd ? 0 : via >= 0 ? 2 : 1;
    for (i64 i = 0; i < steps; i++) {
        i64 gw = p->gateway[k->w * p->W + seq[i]];
        if (gw != k->c) {
            walk_cross(k, SEG_XY, gw, vc, vc + p->vc_local);
            vc += p->vc_local;
        }
        walk_leap(k, SEG_XY, seq[i], vc, vc + p->vc_global);
        vc += p->vc_global + p->vc_landed;
    }
    if (k->c != cd) {
        walk_cross(k, SEG_XY, cd, vc, vc + p->vc_local);
        vc += p->vc_local;
    }
    walk_segment(k, SEG_XY, ld, vc);
}

/* Sec. IV-B: VC-0 mesh exit, VC-1 source transit, VC-2 (VC-3 behind
 * an "any"-scope misroute) on the destination side */
static void walk_reduced(Walk *k, i64 via, i64 wd, i64 cd, i64 ld)
{
    const Plane *p = k->p;
    i64 dest_vc = via >= 0 && !p->merged_vcs ? 3 : 2;
    if (k->w == wd) {
        if (k->c == cd) {
            walk_segment(k, SEG_XY, ld, 0);
            return;
        }
        walk_cross(k, SEG_XY, cd, 0, dest_vc);
    } else {
        i64 first = via >= 0 ? via : wd;
        i64 gw = p->gateway[k->w * p->W + first];
        i64 exit_vc = 0;
        if (gw != k->c) {
            walk_cross(k, SEG_XY, gw, 0, 1);
            exit_vc = 1;
        }
        walk_leap(k, SEG_XY, first, exit_vc, 2);
        if (via >= 0) {
            gw = p->gateway[k->w * p->W + wd];
            if (gw != k->c)
                walk_cross(k, SEG_WALK, gw, 2, 2);
            walk_leap(k, SEG_WALK, wd, 2, dest_vc);
        }
        if (k->c != cd)
            walk_cross(k, SEG_WALK, cd, dest_vc, dest_vc);
    }
    walk_segment(k, SEG_DELIVERY, ld, dest_vc);
}

/* Fills off[i] / hops[i] for every pair and the lv arena behind them;
 * returns the total hop count.  The caller sizes lv for the longest
 * route n times over (RoutePlane.max_hops).  via may be NULL (all
 * minimal); an entry naming either endpoint's group, or given for a
 * pair inside one group, is ignored like -1. */
i64 plane_resolve(const Plane *p, i64 n, const i64 *src, const i64 *dst,
                  const i64 *via, i64 *off, i64 *hops, i64 *lv)
{
    Walk k = {p, lv, 0, 0, 0, 0};
    for (i64 i = 0; i < n; i++) {
        i64 s = src[i], d = dst[i];
        i64 wd = p->node_w[d], cd = p->node_c[d], ld = p->node_l[d];
        i64 v = via ? via[i] : -1;
        k.w = p->node_w[s];
        k.c = p->node_c[s];
        k.l = p->node_l[s];
        if (v == k.w || v == wd || k.w == wd)
            v = -1;
        off[i] = k.h;
        if (p->reduced)
            walk_reduced(&k, v, wd, cd, ld);
        else
            walk_ordinal(&k, p->vc_spread > 1 ? d % p->vc_spread : 0, v, wd,
                         cd, ld);
        hops[i] = k.h - off[i];
    }
    return k.h;
}

/* ------------------------------------------------------------------
 * Draw pass: destinations and Valiant intermediates of scheduled
 * events, from CPython's own MT19937 stream.
 *
 * mt is a random.Random's getstate() words: the 624-word key, then the
 * position.  The pass advances it exactly as the scalar pre-pass
 * (TrafficPattern.dest, then routing.draw_via for a kept packet)
 * advances the Python object, so setstate() on the result continues
 * the stream.  Every draw is one idiom: a uniform pick from a CSR row
 * keyed by labels, with up to two excluded positions skipped in
 * increasing order.  The tables are repro.network.vecrandom.DestRows
 * and ViaRows.
 * ------------------------------------------------------------------ */

#define MT_N 624
#define MT_M 397

/* CPython's genrand_uint32 (Modules/_randommodule.c) */
static uint32_t mt_word(uint32_t *mt)
{
    uint32_t y, i = mt[MT_N];
    if (i >= MT_N) {
        for (int k = 0; k < MT_N; k++) {
            y = (mt[k] & 0x80000000U) | (mt[(k + 1) % MT_N] & 0x7fffffffU);
            mt[k] = mt[(k + MT_M) % MT_N] ^ (y >> 1)
                ^ ((y & 1U) ? 0x9908b0dfU : 0U);
        }
        i = 0;
    }
    y = mt[i];
    mt[MT_N] = i + 1;
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    return y ^ (y >> 18);
}

/* CPython's _randbelow_with_getrandbits(n), 0 < n < 2**32: k-bit
 * values, one word each, redrawn while >= n (so n = 1 still draws) */
static i64 mt_below(uint32_t *mt, i64 n)
{
    int shift = __builtin_clzll((unsigned long long)n) - 32;
    i64 r;
    do
        r = mt_word(mt) >> shift;
    while (r >= n);
    return r;
}

/* uniform pick from row r of (ptr, val), positions a <= b skipped (-1:
 * none); val NULL means a row's values are its positions.  -1, with no
 * word drawn, when the row has nothing left. */
static i64 pick(uint32_t *mt, const i64 *ptr, const i64 *val, i64 r, i64 a,
                i64 b)
{
    i64 lo = ptr[r];
    i64 m = ptr[r + 1] - lo - (a >= 0) - (b >= 0);
    if (m <= 0)
        return -1;
    i64 j = mt_below(mt, m);
    if (a >= 0 && j >= a)
        j++;
    if (b >= 0 && j >= b)
        j++;
    return val ? val[lo + j] : j;
}

#define DEST_ROWS_FIELDS(X) \
    X(i64, chain)         /* a picked value keys a second, skip-free pick */ \
    X(const i64 *, ptr) X(const i64 *, val) \
    X(const i64 *, key)   /* [nodes] row a source draws from, -1: none */ \
    X(const i64 *, skip)  /* [nodes] position excluded from it, -1: none */ \
    X(const i64 *, fixed) /* [nodes] destination without a draw, -1: drop */

typedef struct { DEST_ROWS_FIELDS(FIELD) } DestRows;

#define VIA_ROWS_FIELDS(X) \
    X(i64, groups)      /* pairs inside one group, or <= 2 groups: minimal */ \
    X(i64, subs)        /* rows keyed (gs * groups + gd) * subs + sub[d] */ \
    X(i64, count_fallback) /* an empty keyed row counts as a fallback */ \
    X(const i64 *, ptr) X(const i64 *, val) \
    X(const i64 *, group) /* [nodes] */ \
    X(const i64 *, sub) /* [nodes]; NULL: row 0 with gs and gd skipped */

typedef struct { VIA_ROWS_FIELDS(FIELD) } ViaRows;

/* Fills dst[i] (-1: dropped) and, with v, via[i] (-1: minimal) for the
 * n events of sources src; returns the fallbacks counted. */
i64 draw_pass(uint32_t *mt, const DestRows *d, const ViaRows *v, i64 n,
              const i64 *src, i64 *dst, i64 *via)
{
    i64 fallbacks = 0;
    for (i64 i = 0; i < n; i++) {
        i64 s = src[i], t = d->fixed[s];
        if (d->key[s] >= 0) {
            t = pick(mt, d->ptr, d->val, d->key[s], d->skip[s], -1);
            if (d->chain && t >= 0)
                t = pick(mt, d->ptr, d->val, t, -1, -1);
        }
        dst[i] = t;
        if (!v)
            continue;
        via[i] = -1;
        if (t < 0 || t == s)
            continue; /* no packet, no route */
        i64 gs = v->group[s], gd = v->group[t];
        if (gs == gd || v->groups <= 2)
            continue;
        if (v->sub) {
            via[i] = pick(mt, v->ptr, v->val,
                          (gs * v->groups + gd) * v->subs + v->sub[t], -1, -1);
            if (via[i] < 0)
                fallbacks += v->count_fallback;
        } else {
            via[i] = pick(mt, v->ptr, v->val, 0, gs < gd ? gs : gd,
                          gs < gd ? gd : gs);
        }
    }
    return fallbacks;
}

/* ------------------------------------------------------------------
 * Layout: the field lists above as data.  One row per struct (name
 * NULL: its sizeof), then one per field in declaration order with its
 * type as written; a row of NULLs ends the table, and a struct comes
 * after the structs it points to.
 * ------------------------------------------------------------------ */

typedef struct {
    const char *owner, *name, *type;
    i64 offset, size;
} LayoutRow;

#define STRUCT_ROW(T) {#T, 0, 0, 0, sizeof(T)},
#define FIELD_ROW(T, type, name) \
    {#T, #name, #type, offsetof(T, name), sizeof(((T *)0)->name)},
#define PLAN_ROW(type, name) FIELD_ROW(Plan, type, name)
#define S_ROW(type, name) FIELD_ROW(S, type, name)
#define PLANE_ROW(type, name) FIELD_ROW(Plane, type, name)
#define DEST_ROWS_ROW(type, name) FIELD_ROW(DestRows, type, name)
#define VIA_ROWS_ROW(type, name) FIELD_ROW(ViaRows, type, name)

static const LayoutRow layout[] = {
    STRUCT_ROW(Plan) PLAN_FIELDS(PLAN_ROW)
    STRUCT_ROW(S) S_FIELDS(S_ROW)
    STRUCT_ROW(Plane) PLANE_FIELDS(PLANE_ROW)
    STRUCT_ROW(DestRows) DEST_ROWS_FIELDS(DEST_ROWS_ROW)
    STRUCT_ROW(ViaRows) VIA_ROWS_FIELDS(VIA_ROWS_ROW)
    {0, 0, 0, 0, 0},
};

const LayoutRow *sim_layout(void)
{
    return layout;
}
