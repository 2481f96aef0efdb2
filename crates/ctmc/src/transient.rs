//! Transient analysis by uniformization — adaptive, support-windowed,
//! sharded and steady-state-aware.
//!
//! The distribution at time `t` is
//! `π(t) = Σ_k Poisson(Λt)[k] · π(0) Pᵏ` where `P = I + Q/Λ` is the
//! uniformized DTMC and `Λ ≥ max exit rate`. Poisson weights come from
//! [`crate::poisson::poisson_weights`], memoized per `Λ·Δt` through a
//! [`PoissonCache`] (uniform grids step by the same `Δt` every segment).
//!
//! Two engines implement the DTMC stepping, selected by
//! [`TransientOptions::adaptive`]:
//!
//! # The adaptive windowed engine (default)
//!
//! The default engine attacks the two costs the classical scheme pays on
//! dependability chains: a step count proportional to the **global**
//! maximum exit rate even when all probability mass sits on low-rate
//! states (stiff chains: repair rates dwarf failure rates), and a full
//! `n`-row traversal per step even when the mass occupies a handful of
//! states (early horizons).
//!
//! * **Locality reordering.** Once per solve the states are renumbered
//!   breadth-first from the initial support ([`Ctmc::bfs_order`]), and
//!   the transposed operator is stored with **raw** rates in that order
//!   (a `WindowedOp`). BFS levels make the set of rows reachable from
//!   any level prefix a contiguous, cache-resident row range. The
//!   permutation is applied at operator build and undone on output.
//! * **Support windowing.** The distribution's ε-support is tracked as a
//!   level frontier; each step gathers only the window `0..hi` of rows
//!   reachable from it. The frontier expands one level when the mass
//!   that could escape it in one step exceeds the per-step budget, and
//!   is otherwise frozen with the (bounded) escape mass accounted as
//!   truncation. Trailing levels whose total mass is below budget are
//!   zeroed between segments so the window can shrink again.
//! * **Per-segment Λ (adaptive uniformization).** Because rates are
//!   stored raw and `1/Λ` is folded into the gather as a scalar, `Λ` is
//!   switchable per grid segment with zero rebuild cost: each segment
//!   uniformizes at `Λ_seg = headroom · max exit over the ε-mass
//!   support` (the window states actually carrying more than a
//!   per-state share of the budget), which on stiff chains is orders of
//!   magnitude below the global rate — and the DTMC step count is
//!   proportional to `Λ_seg`. Window states hotter than `Λ_seg` (the
//!   uniformized step is undefined for them) are **exit-capped**: they
//!   carry only truncation-grade dust, and are zeroed after every step
//!   with the gross inflow charged against the budget. If real mass
//!   heads their way the budget trips and the segment restarts from its
//!   entry distribution with `Λ` doubled (capped at the global rate), so
//!   restarts are logarithmically bounded.
//!
//! ## Error budget
//!
//! The engine's deviation from the exact expansion is the sum of
//!
//! * the Poisson truncation of [`crate::poisson::poisson_weights`]
//!   (relative tail cutoff `1e-18`, total mass error well below `1e-15`),
//!   paid by both engines, and
//! * the support truncation: per grid segment, the mass dropped across
//!   the four truncation channels — trailing-level shrinking between
//!   segments, up-front zeroing of dust sitting on states hotter than
//!   `Λ_seg`, frozen-frontier escape, and the per-step inflow into
//!   exit-capped states — is bounded by
//!   [`TransientOptions::support_tol`], a quarter of the budget per
//!   channel. A grid visited in `k` segments therefore answers within
//!   `k · support_tol + O(1e-15)` (sup-norm) of the exact engine; the
//!   default `support_tol = 1e-14` keeps a 50-point grid at `≤ 5e-13` —
//!   comfortably inside the `1e-10` cross-engine gates. With
//!   `support_tol = 0` the windowing is lossless (the window expands
//!   whenever any mass could escape it, and `Λ_seg` covers every state
//!   carrying mass).
//!
//! Within the adaptive engine, results are **bitwise identical for every
//! thread count**: the sharded and serial paths are literally the same
//! code (a worker gang of size 1 collapses to the serial loop), every
//! window row is computed by the same per-row kernel, and all control
//! decisions (frontier expansion, Λ restarts, steady-state detection) are
//! taken by one worker from the assembled vector.
//!
//! # The exact global-Λ engine (`adaptive: false`)
//!
//! The reference engine: the hot kernel is the DTMC matrix-vector product
//! `π ← π P`, computed as a **gather** over the transposed CSR adjacency:
//! state `i`'s next mass is `π[i]·stay[i] + Σ_{j→i} π[j]·q_{ji}/Λ`, one
//! contiguous slice per state with the transition probabilities prescaled
//! once per solve, over **all** rows at the **global** uniformization
//! rate. Because every row is computed independently from the previous
//! vector, the rows can be partitioned into contiguous shards (balanced
//! by transition count) and fanned out over [`ioimc::par`] scoped worker
//! threads with double-buffered per-shard writes — and the result is
//! **bitwise identical** for every thread count and shard size: each row
//! runs exactly the per-row code of the serial path, and the shard-wise
//! maximum used for steady-state detection reduces to the same global
//! maximum. Configure via [`TransientOptions`] (reachable from
//! [`crate::SolverOptions::transient`]).
//!
//! # Steady-state detection
//!
//! When the projected total remaining drift of the uniformized chain —
//! the sup-norm step delta `‖πP − π‖∞` divided by the spectral headroom
//! `1 − ρ̂` estimated from the recent delta history (see
//! `SteadyDetector`) — falls below [`TransientOptions::steady_tol`], the
//! chain has converged: the remaining Poisson tail mass is assigned to
//! the converged vector and the sweep stops early. The batched entry
//! points additionally answer **all later grid points** from that
//! vector, so long-horizon grids cost only as many DTMC steps as the
//! chain's mixing time. Detection is disabled with `steady_tol = 0.0`.
//!
//! # Batching
//!
//! Curve-shaped workloads should use [`transient_many`]: it evaluates a
//! whole time grid in **one** incremental uniformization sweep (the chain
//! is stepped from each grid point to the next by the Markov property)
//! instead of one independent sweep per point, turning the
//! `O(Λ·Σtᵢ)` cost of the scalar loop into `O(Λ·max tᵢ)` — and less than
//! that once steady-state detection kicks in.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, RwLock};

use crate::chain::Ctmc;
use crate::context::{MeasureContext, SolveCounters};
use crate::poisson::{PoissonCache, PoissonWeights};
use crate::solver::{TransientOptions, UNIF_HEADROOM};

/// Computes the state distribution at time `t` starting from the chain's
/// initial state.
///
/// # Panics
///
/// Panics if `t` is negative or not finite.
pub fn transient(ctmc: &Ctmc, t: f64) -> Vec<f64> {
    transient_from(ctmc, &ctmc.initial_distribution(), t)
}

/// [`transient`] with explicit engine configuration.
///
/// # Panics
///
/// Panics if `t` is negative or not finite.
pub fn transient_with(ctmc: &Ctmc, t: f64, opts: &TransientOptions) -> Vec<f64> {
    transient_from_with(ctmc, &ctmc.initial_distribution(), t, opts)
}

/// Computes the state distribution at time `t` from an arbitrary initial
/// distribution `pi0`.
///
/// # Panics
///
/// Panics if `t` is negative or not finite, or if `pi0` has the wrong
/// length.
pub fn transient_from(ctmc: &Ctmc, pi0: &[f64], t: f64) -> Vec<f64> {
    transient_from_with(ctmc, pi0, t, &TransientOptions::default())
}

/// [`transient_from`] with explicit engine configuration.
///
/// # Panics
///
/// Panics if `t` is negative or not finite, or if `pi0` has the wrong
/// length.
pub fn transient_from_with(ctmc: &Ctmc, pi0: &[f64], t: f64, opts: &TransientOptions) -> Vec<f64> {
    grid_solve(ctmc, pi0, &[t], opts, None)
        .pop()
        .expect("one grid point")
}

/// Computes the state distributions at every time in `ts` (any order,
/// duplicates allowed) starting from the chain's initial state, sharing
/// one incremental uniformization sweep across the whole grid.
///
/// Returns one distribution per entry of `ts`, in the order given.
///
/// # Panics
///
/// Panics if any time is negative or not finite.
pub fn transient_many(ctmc: &Ctmc, ts: &[f64]) -> Vec<Vec<f64>> {
    transient_many_from(ctmc, &ctmc.initial_distribution(), ts)
}

/// [`transient_many`] with explicit engine configuration.
///
/// # Panics
///
/// Panics if any time is negative or not finite.
pub fn transient_many_with(ctmc: &Ctmc, ts: &[f64], opts: &TransientOptions) -> Vec<Vec<f64>> {
    transient_many_from_with(ctmc, &ctmc.initial_distribution(), ts, opts)
}

/// Computes the state distributions at every time in `ts` from an
/// arbitrary initial distribution `pi0` in one incremental sweep: the grid
/// is visited in ascending order and the chain is advanced from each grid
/// point to the next (exact by the Markov property), so the total work is
/// proportional to `Λ·max(ts)` plus a per-point truncation overhead,
/// instead of the scalar loop's `Λ·Σts` — or less, once steady-state
/// detection answers the tail of the grid from the converged vector.
///
/// # Panics
///
/// Panics if any time is negative or not finite, or if `pi0` has the
/// wrong length.
pub fn transient_many_from(ctmc: &Ctmc, pi0: &[f64], ts: &[f64]) -> Vec<Vec<f64>> {
    transient_many_from_with(ctmc, pi0, ts, &TransientOptions::default())
}

/// [`transient_many_from`] with explicit engine configuration.
///
/// # Panics
///
/// Panics if any time is negative or not finite, or if `pi0` has the
/// wrong length.
pub fn transient_many_from_with(
    ctmc: &Ctmc,
    pi0: &[f64],
    ts: &[f64],
    opts: &TransientOptions,
) -> Vec<Vec<f64>> {
    grid_solve(ctmc, pi0, ts, opts, None)
}

/// [`transient_many_from_with`] with a caller-provided [`PoissonCache`],
/// so repeated solves over the same grid (several measures of one batched
/// query, Simpson integration, repeated sessions) expand each distinct
/// `Λ·Δt` weight vector once.
///
/// # Panics
///
/// Panics if any time is negative or not finite, or if `pi0` has the
/// wrong length.
pub fn transient_many_from_cached(
    ctmc: &Ctmc,
    pi0: &[f64],
    ts: &[f64],
    opts: &TransientOptions,
    cache: &PoissonCache,
) -> Vec<Vec<f64>> {
    grid_solve(ctmc, pi0, ts, opts, Some(cache))
}

/// [`transient_many_from_cached`] driven through a full
/// [`MeasureContext`]: the context's Poisson memo answers the weight
/// lookups and the context's [`SolveCounters`] record the sweeps and
/// DTMC steps this solve performs. This is the only entry point whose
/// solver work is counted: the counters are scoped to the context, so
/// several analysis sessions in one process never see each other's work.
///
/// # Panics
///
/// Panics if any time is negative or not finite, or if `pi0` has the
/// wrong length.
pub fn transient_many_from_ctx(
    ctmc: &Ctmc,
    pi0: &[f64],
    ts: &[f64],
    opts: &TransientOptions,
    ctx: &MeasureContext,
) -> Vec<Vec<f64>> {
    GridSolver::new(ctmc, opts, &ctx.poisson, &ctx.counters).solve_from(pi0, ts)
}

/// The grid solve behind the context-free entry points: one
/// [`GridSolver`] per call, its work counted nowhere.
fn grid_solve(
    ctmc: &Ctmc,
    pi0: &[f64],
    ts: &[f64],
    opts: &TransientOptions,
    cache: Option<&PoissonCache>,
) -> Vec<Vec<f64>> {
    let local_cache;
    let cache = match cache {
        Some(c) => c,
        None => {
            local_cache = PoissonCache::new();
            &local_cache
        }
    };
    GridSolver::new(ctmc, opts, cache, &SolveCounters::new()).solve_from(pi0, ts)
}

/// A reusable grid driver over one chain: validates inputs, visits each
/// grid in ascending order, and advances the chain segment by segment
/// through a lazily built (and then reused) [`Stepper`]. Crate-internal
/// so long chunked integrations (`csl::interval_down_fraction_with`) can
/// amortize the stepping engine across chunks instead of rebuilding the
/// prescaled transposed CSR per call.
///
/// Successive [`GridSolver::solve_from`] calls are treated as **one
/// trajectory** continued piecewise (each call's `pi0` is the previous
/// call's last result): once a segment reports steady-state convergence,
/// all later grid points — in this call *and* in later calls — are
/// answered from the converged vector.
pub(crate) struct GridSolver<'a> {
    ctmc: &'a Ctmc,
    opts: &'a TransientOptions,
    cache: &'a PoissonCache,
    /// Where the sweeps and DTMC steps of this solver are counted.
    counters: &'a SolveCounters,
    stepper: Option<Stepper>,
    adaptive: Option<AdaptiveEngine>,
    max_exit: f64,
    unif: f64,
    converged: bool,
}

impl<'a> GridSolver<'a> {
    pub(crate) fn new(
        ctmc: &'a Ctmc,
        opts: &'a TransientOptions,
        cache: &'a PoissonCache,
        counters: &'a SolveCounters,
    ) -> Self {
        let max_exit = ctmc.max_exit_rate();
        Self {
            ctmc,
            opts,
            cache,
            counters,
            stepper: None,
            adaptive: None,
            max_exit,
            unif: max_exit * UNIF_HEADROOM,
            converged: false,
        }
    }

    pub(crate) fn solve_from(&mut self, pi0: &[f64], ts: &[f64]) -> Vec<Vec<f64>> {
        assert_eq!(
            pi0.len(),
            self.ctmc.num_states(),
            "distribution length mismatch"
        );
        for &t in ts {
            assert!(
                t.is_finite() && t >= 0.0,
                "time must be non-negative, got {t}"
            );
        }
        if self.opts.adaptive && self.max_exit > 0.0 {
            return self.solve_from_adaptive(pi0, ts);
        }
        let mut order: Vec<usize> = (0..ts.len()).collect();
        order.sort_by(|&a, &b| ts[a].total_cmp(&ts[b]));

        let mut results: Vec<Vec<f64>> = vec![Vec::new(); ts.len()];
        let mut cur = pi0.to_vec();
        let mut cur_t = 0.0f64;
        for &i in &order {
            let dt = ts[i] - cur_t;
            if dt > 0.0 && self.max_exit > 0.0 && !self.converged {
                // Segment boundary: poll the ambient budget on the
                // control thread (no sweep workers are in flight here).
                ioimc::budget::checkpoint();
                let (ctmc, unif, opts) = (self.ctmc, self.unif, self.opts);
                let st = self
                    .stepper
                    .get_or_insert_with(|| Stepper::new(ctmc, unif, opts));
                let pw = self.cache.get(self.unif * dt);
                self.counters.count_sweep();
                let (res, conv) = st.sweep(&cur, &pw, self.opts.steady_tol, self.counters);
                cur = res;
                cur_t = ts[i];
                self.converged = conv;
            }
            results[i] = cur.clone();
        }
        results
    }

    /// The adaptive-engine grid loop: the working distribution lives in
    /// the engine's permuted space across segments (and across
    /// [`GridSolver::solve_from`] calls); each grid point un-permutes a
    /// snapshot into original state order.
    fn solve_from_adaptive(&mut self, pi0: &[f64], ts: &[f64]) -> Vec<Vec<f64>> {
        let mut order: Vec<usize> = (0..ts.len()).collect();
        order.sort_by(|&a, &b| ts[a].total_cmp(&ts[b]));
        let rebuild = match &mut self.adaptive {
            // `load` adopts `pi0` unless it carries mass the stored
            // ordering considers unreachable (possible only when a caller
            // continues one solver with an unrelated distribution).
            Some(e) => !e.load(pi0),
            None => true,
        };
        if rebuild {
            self.adaptive = Some(AdaptiveEngine::new(self.ctmc, pi0, self.opts));
        }
        let engine = self.adaptive.as_mut().expect("just ensured");
        let mut results: Vec<Vec<f64>> = vec![Vec::new(); ts.len()];
        let mut cur_t = 0.0f64;
        for &i in &order {
            let dt = ts[i] - cur_t;
            if dt > 0.0 && !self.converged {
                ioimc::budget::checkpoint();
                self.converged = engine.advance(dt, self.cache, self.opts, self.counters);
                cur_t = ts[i];
            }
            results[i] = engine.output();
        }
        results
    }
}

/// The steady-state detector fed one sup-norm step delta per DTMC step.
///
/// A small step delta alone does **not** mean the iterates are near the
/// invariant vector: a slow mode with per-step contraction `ρ` close to 1
/// still has `‖π_k − π_∞‖ ≈ δ_k / (1 − ρ)` left to travel, which can be
/// orders of magnitude above `δ_k` on nearly-decoupled chains (rare
/// failure rates next to fast repair rates — exactly the dependability
/// regime). The detector therefore estimates the contraction from the
/// recent delta history (`ρ̂` = the largest of the last 8 step-to-step
/// ratios) and fires only when the **projected total remaining drift**
/// `δ / (1 − ρ̂)` is within tolerance. When one mode dominates, the
/// projection is tight; a fast-decaying transient cannot fake it because
/// the ratio window has to see eight consecutive small ratios first.
///
/// The decision consumes only the global (order-independent) sup-norm
/// delta, so the serial and sharded sweeps reach bitwise-identical
/// verdicts.
struct SteadyDetector {
    tol: f64,
    /// Last step-to-step delta ratios, clamped to `[0, 1]`; seeded with
    /// the conservative 1.0 so no verdict fires before a full window.
    ratios: [f64; 8],
    idx: usize,
    prev_delta: f64,
}

impl SteadyDetector {
    fn new(tol: f64) -> Self {
        Self {
            tol,
            ratios: [1.0; 8],
            idx: 0,
            prev_delta: f64::INFINITY,
        }
    }

    /// Feeds the sup-norm delta of one step; returns whether the chain
    /// is steady to within the tolerance.
    fn feed(&mut self, delta: f64) -> bool {
        if self.tol <= 0.0 {
            return false;
        }
        if delta == 0.0 {
            return true; // the iterate is exactly invariant
        }
        let ratio = if self.prev_delta.is_finite() && self.prev_delta > 0.0 {
            (delta / self.prev_delta).min(1.0)
        } else {
            1.0
        };
        self.ratios[self.idx] = ratio;
        self.idx = (self.idx + 1) % self.ratios.len();
        self.prev_delta = delta;
        let rho = self.ratios.iter().fold(0.0f64, |a, &b| a.max(b));
        rho < 1.0 && delta <= self.tol * (1.0 - rho)
    }
}

/// The uniformization stepping engine for one chain and one `Λ`: the
/// prescaled transposed adjacency (`p = rate/Λ` per incoming transition),
/// the per-state self-loop probabilities, and the shard partition.
struct Stepper {
    n: usize,
    /// Self-loop probability `1 - exit/Λ` per state.
    stay: Vec<f64>,
    /// Transposed CSR offsets (`n + 1` entries).
    inc_off: Vec<u32>,
    /// Prescaled incoming transition probabilities, row-major.
    inc_p: Vec<f64>,
    /// Incoming transition sources, parallel to `inc_p`.
    inc_src: Vec<u32>,
    /// Contiguous row ranges, one per worker, balanced by transition
    /// count. `len() == 1` selects the serial path.
    shards: Vec<std::ops::Range<usize>>,
}

impl Stepper {
    fn new(ctmc: &Ctmc, unif: f64, opts: &TransientOptions) -> Self {
        let n = ctmc.num_states();
        // The solver-shard boundary: the last serial point before the
        // stepping gang exists. Chaos faults injected here (the
        // `session.shard` failpoint, via the ambient hook) unwind or
        // stall on the calling thread — never inside the barrier-synced
        // gang, where a panicking worker would deadlock its peers.
        ioimc::failpoint::hit("session.shard");
        let (stay, inc_off, inc_p, inc_src) = prescaled_transpose(ctmc, unif);
        let workers = ioimc::par::effective_threads(opts.threads);
        let max_shards = (n / opts.shard_min.max(1)).max(1);
        let shards = balanced_ranges(&inc_off, workers.min(max_shards));
        Self {
            n,
            stay,
            inc_off,
            inc_p,
            inc_src,
            shards,
        }
    }

    /// One state's next mass: `π[i]·stay[i] + Σ p·π[src]` over the
    /// state's contiguous incoming slice. This is the **only** place a
    /// row is computed — the serial and sharded paths both call it, which
    /// is what makes their results bitwise identical.
    #[inline]
    fn row_value(&self, cur: &[f64], i: usize) -> f64 {
        let lo = self.inc_off[i] as usize;
        let hi = self.inc_off[i + 1] as usize;
        let mut acc = cur[i] * self.stay[i];
        for (&p, &j) in self.inc_p[lo..hi].iter().zip(&self.inc_src[lo..hi]) {
            acc += p * cur[j as usize];
        }
        acc
    }

    /// One uniformization sweep: `π(Δt)` from `pi0` with the given
    /// Poisson weights; returns the result and whether the **result** is
    /// steady: detection fired (`tol > 0` and the step delta dropped
    /// below it) *and* the Poisson mixture it produced is itself within
    /// `tol` of the invariant iterate. The second condition is what lets
    /// the grid driver answer later points from the result — the DTMC
    /// iterates converging mid-sweep is not enough, because early
    /// (pre-convergence) iterates still carry Poisson weight in the
    /// mixture.
    fn sweep(
        &self,
        pi0: &[f64],
        pw: &PoissonWeights,
        tol: f64,
        counters: &SolveCounters,
    ) -> (Vec<f64>, bool) {
        if self.shards.len() <= 1 {
            self.sweep_serial(pi0, pw, tol, counters)
        } else {
            self.sweep_sharded(pi0, pw, tol, counters)
        }
    }

    fn sweep_serial(
        &self,
        pi0: &[f64],
        pw: &PoissonWeights,
        tol: f64,
        counters: &SolveCounters,
    ) -> (Vec<f64>, bool) {
        let n = self.n;
        let total = pw.total_steps();
        // Double-buffered stepping: `cur` and `nxt` swap roles each step,
        // so the whole sweep costs two distribution buffers total.
        let mut cur = pi0.to_vec();
        let mut nxt = vec![0.0f64; n];
        let mut result = vec![0.0f64; n];
        let mut cum = 0.0f64;
        let mut detector = SteadyDetector::new(tol);
        // Steps 0..left-1 only advance the power; steps left.. accumulate.
        for step in 0..total {
            if step >= pw.left {
                let w = pw.weights[step - pw.left];
                for i in 0..n {
                    result[i] += w * cur[i];
                }
                cum += w;
            }
            if step + 1 == total {
                break;
            }
            // Serial loop, no workers: a deadline unwind is safe at any
            // step. Gate the poll so long sweeps pay ~nothing.
            if step & 0x3FF == 0 {
                ioimc::budget::checkpoint();
            }
            counters.count_step();
            let mut delta = 0.0f64;
            for i in 0..n {
                let v = self.row_value(&cur, i);
                delta = delta.max((v - cur[i]).abs());
                nxt[i] = v;
            }
            std::mem::swap(&mut cur, &mut nxt);
            if detector.feed(delta) {
                // Converged: the remaining Poisson tail all sits on the
                // (now invariant) current vector.
                let tail = 1.0 - cum;
                let mut res_diff = 0.0f64;
                for i in 0..n {
                    result[i] += tail * cur[i];
                    res_diff = res_diff.max((result[i] - cur[i]).abs());
                }
                return (result, res_diff <= tol);
            }
        }
        (result, false)
    }

    /// The sharded sweep: one scoped worker per shard, lockstep-stepped
    /// with a [`Barrier`]. Each step has two phases — every worker gathers
    /// its shard's rows from the shared previous vector into its private
    /// out-buffer (and accumulates its shard of the weighted result), then
    /// worker 0 alone copies the shard buffers back into the shared
    /// vector, bumps the step counter and reduces the shard deltas for
    /// steady-state detection. All workers take identical branches, so
    /// the barrier stays aligned and the result is bitwise identical to
    /// [`Stepper::sweep_serial`].
    fn sweep_sharded(
        &self,
        pi0: &[f64],
        pw: &PoissonWeights,
        tol: f64,
        counters: &SolveCounters,
    ) -> (Vec<f64>, bool) {
        let nshards = self.shards.len();
        let total = pw.total_steps();
        let cur = RwLock::new(pi0.to_vec());
        let outs: Vec<Mutex<Vec<f64>>> = self
            .shards
            .iter()
            .map(|r| Mutex::new(vec![0.0; r.len()]))
            .collect();
        let results: Vec<Mutex<Vec<f64>>> = self
            .shards
            .iter()
            .map(|r| Mutex::new(vec![0.0; r.len()]))
            .collect();
        let deltas: Vec<Mutex<f64>> = (0..nshards).map(|_| Mutex::new(0.0)).collect();
        // Sup-distance between each shard's final result and the
        // converged iterate, filled in the early-stop branch only.
        let res_diffs: Vec<Mutex<f64>> = (0..nshards).map(|_| Mutex::new(f64::INFINITY)).collect();
        let barrier = Barrier::new(nshards);
        let stop = AtomicBool::new(false);
        // Fed only by worker 0 in the assembly phase, from the same
        // global delta sequence the serial path sees.
        let detector = Mutex::new(SteadyDetector::new(tol));
        ioimc::par::run_workers(nshards, |w| {
            let range = self.shards[w].clone();
            let mut cum = 0.0f64;
            for step in 0..total {
                let last = step + 1 == total;
                {
                    let cur_g = cur.read().expect("no poisoned buffer");
                    if step >= pw.left {
                        let wt = pw.weights[step - pw.left];
                        let mut res = results[w].lock().expect("no poisoned shard");
                        for (k, i) in range.clone().enumerate() {
                            res[k] += wt * cur_g[i];
                        }
                        cum += wt;
                    }
                    if !last {
                        let mut out = outs[w].lock().expect("no poisoned shard");
                        let mut dmax = 0.0f64;
                        for (k, i) in range.clone().enumerate() {
                            let v = self.row_value(&cur_g, i);
                            dmax = dmax.max((v - cur_g[i]).abs());
                            out[k] = v;
                        }
                        *deltas[w].lock().expect("no poisoned shard") = dmax;
                    }
                }
                barrier.wait();
                if !last && w == 0 {
                    // Assembly phase: the other workers are parked on the
                    // second barrier, so the write lock is uncontended.
                    let mut cur_g = cur.write().expect("no poisoned buffer");
                    for (s, r) in self.shards.iter().enumerate() {
                        cur_g[r.clone()]
                            .copy_from_slice(&outs[s].lock().expect("no poisoned shard"));
                    }
                    counters.count_step();
                    let delta = deltas
                        .iter()
                        .fold(0.0f64, |a, d| a.max(*d.lock().expect("no poisoned shard")));
                    if detector.lock().expect("no poisoned detector").feed(delta) {
                        stop.store(true, Ordering::SeqCst);
                    }
                }
                barrier.wait();
                if last {
                    break;
                }
                if stop.load(Ordering::SeqCst) {
                    let cur_g = cur.read().expect("no poisoned buffer");
                    let tail = 1.0 - cum;
                    let mut res = results[w].lock().expect("no poisoned shard");
                    let mut dmax = 0.0f64;
                    for (k, i) in range.clone().enumerate() {
                        res[k] += tail * cur_g[i];
                        dmax = dmax.max((res[k] - cur_g[i]).abs());
                    }
                    *res_diffs[w].lock().expect("no poisoned shard") = dmax;
                    break;
                }
            }
        });
        let mut result = vec![0.0f64; self.n];
        for (s, r) in self.shards.iter().enumerate() {
            result[r.clone()].copy_from_slice(&results[s].lock().expect("no poisoned shard"));
        }
        let steady = stop.load(Ordering::SeqCst)
            && res_diffs
                .iter()
                .fold(0.0f64, |a, d| a.max(*d.lock().expect("no poisoned shard")))
                <= tol;
        (result, steady)
    }
}

/// Geometric Λ escalation factor applied when a segment restart is
/// forced by mass reaching an exit-capped state faster than the budget
/// allows: doubling bounds the restarts per segment to
/// `log₂(Λ_global / Λ_initial)`.
const LAMBDA_ESCALATION: f64 = 2.0;

/// The chain's generator in the adaptive engine's working form: the
/// transposed CSR adjacency with **raw** rates (so `1/Λ` folds into the
/// gather as a per-segment scalar), permuted into the BFS locality order
/// of [`Ctmc::bfs_order`] so the ε-support's reachable row window is a
/// contiguous prefix. Built once per solve.
struct WindowedOp {
    n: usize,
    /// Row → original state id (BFS order, unreachable states last).
    perm: Vec<u32>,
    /// Original state id → row.
    inv: Vec<u32>,
    /// Exit rates in row order.
    exit: Vec<f64>,
    /// Transposed CSR offsets (`n + 1` entries).
    inc_off: Vec<u32>,
    /// Raw incoming transition rates, row-major.
    inc_rate: Vec<f64>,
    /// Incoming transition source rows, parallel to `inc_rate` and
    /// ascending within each row (so a window gather can stop at the
    /// first out-of-window source).
    inc_src: Vec<u32>,
    /// BFS level boundaries in rows (`levels + 1` entries).
    level_off: Vec<u32>,
    /// BFS level per row (reachable rows only; unreachable rows hold
    /// `levels`).
    level_of: Vec<u32>,
    /// Rows `reachable..` can never carry mass flowing out of the roots.
    reachable: usize,
    /// Per row: total outgoing rate into the **next** BFS level — the
    /// only edges that can carry mass out of a level-prefix window, so
    /// `Σ π[j]·fwd_rate[j]/Λ` over the frontier level bounds the
    /// one-step escape mass.
    fwd_rate: Vec<f64>,
    /// `headroom · global max exit` — the Λ escalation cap; at this rate
    /// every window state has a nonnegative self-loop probability and no
    /// restart can ever be needed.
    global_unif: f64,
}

impl WindowedOp {
    fn new(ctmc: &Ctmc, roots: impl IntoIterator<Item = u32>) -> Self {
        let n = ctmc.num_states();
        let order = ctmc.bfs_order(roots);
        let inv = order.inverse();
        let levels = order.num_levels();
        let exit: Vec<f64> = order.perm.iter().map(|&s| ctmc.exit_rate(s)).collect();
        let mut level_of = vec![levels as u32; n];
        for l in 0..levels {
            for row in &mut level_of[order.level_off[l] as usize..order.level_off[l + 1] as usize] {
                *row = l as u32;
            }
        }
        // Forward (next-level) rate per row, from the outgoing adjacency.
        let mut fwd_rate = vec![0.0f64; n];
        for (row, &s) in order.perm.iter().enumerate().take(order.reachable) {
            let boundary = order.level_off[level_of[row] as usize + 1];
            fwd_rate[row] = ctmc
                .row(s)
                .iter()
                .filter(|&&(_, t)| inv[t as usize] >= boundary)
                .map(|&(r, _)| r)
                .sum();
        }
        // Transposed CSR in row space. Scattering sources in ascending
        // row order leaves every row's source list sorted.
        let m = ctmc.num_transitions();
        let mut counts = vec![0u32; n + 1];
        for s in 0..n as u32 {
            for &(_, t) in ctmc.row(s) {
                counts[inv[t as usize] as usize + 1] += 1;
            }
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let inc_off = counts.clone();
        let mut cursor = counts;
        let mut inc_rate = vec![0.0f64; m];
        let mut inc_src = vec![0u32; m];
        for (row, &s) in order.perm.iter().enumerate() {
            for &(r, t) in ctmc.row(s) {
                let dst = inv[t as usize] as usize;
                let slot = cursor[dst] as usize;
                inc_rate[slot] = r;
                inc_src[slot] = row as u32;
                cursor[dst] += 1;
            }
        }
        Self {
            n,
            perm: order.perm,
            inv,
            exit,
            inc_off,
            inc_rate,
            inc_src,
            level_off: order.level_off,
            level_of,
            reachable: order.reachable,
            fwd_rate,
            global_unif: ctmc.max_exit_rate() * UNIF_HEADROOM,
        }
    }

    /// One window row's next mass under uniformization rate `1/inv_l`:
    /// `π[i] + (Σ q_{ji}·π[j] − exit_i·π[i]) / Λ`, gathering only sources
    /// inside the window (rows `>= hi` hold exactly zero). The **only**
    /// place a window row is computed, for every worker count.
    #[inline]
    fn row_value(&self, cur: &[f64], i: usize, inv_l: f64, hi: usize) -> f64 {
        let lo = self.inc_off[i] as usize;
        let up = self.inc_off[i + 1] as usize;
        let mut acc = 0.0f64;
        for (&r, &j) in self.inc_rate[lo..up].iter().zip(&self.inc_src[lo..up]) {
            if j as usize >= hi {
                break;
            }
            acc += r * cur[j as usize];
        }
        cur[i] + inv_l * (acc - self.exit[i] * cur[i])
    }

    /// Transition-balanced contiguous chunk of the window `0..hi` for
    /// worker `w` of `workers` (a row weighs `1 +` its in-degree). Chunk
    /// boundaries depend on the worker count, but every row is computed
    /// by the same kernel regardless, so results do not.
    fn chunk(&self, hi: usize, w: usize, workers: usize) -> std::ops::Range<usize> {
        let weight = |i: usize| i as u64 + u64::from(self.inc_off[i]);
        let total = weight(hi);
        let bound = |k: usize| -> usize {
            let target = total * k as u64 / workers as u64;
            // Smallest row index whose cumulative weight reaches target.
            let (mut lo, mut up) = (0usize, hi);
            while lo < up {
                let mid = (lo + up) / 2;
                if weight(mid) < target {
                    lo = mid + 1;
                } else {
                    up = mid;
                }
            }
            lo
        };
        bound(w)..bound(w + 1)
    }
}

/// Per-segment control state of a windowed sweep. In the gang path it is
/// touched only by worker 0 between barriers; the serial path owns it
/// directly. Both paths drive it through the same helpers in the same
/// order, which is what keeps their results bitwise identical.
struct SegmentCtrl {
    /// Current frontier level (window = rows `0..level_off[lvl + 1]`).
    lvl: usize,
    /// Exit-capped rows: inside the gather window but with
    /// `exit > Λ_seg`, so the uniformized step is not defined for them —
    /// they are zeroed after every step with the (gross) inflow charged
    /// against the truncation budget. They carry only ε-support dust by
    /// construction of `Λ_seg`; if real mass heads their way the budget
    /// trips and the segment restarts with an escalated Λ.
    capped: Vec<u32>,
    /// Poisson weight mass accumulated into the result so far.
    cum: f64,
    /// Truncated mass (frozen-frontier escape bound + capped inflow).
    leaked: f64,
    detector: SteadyDetector,
    /// Whether the converged result itself is within tolerance of the
    /// invariant iterate (set by the early-stop branch).
    res_steady: bool,
}

impl SegmentCtrl {
    /// Pre-step frontier decision: expand the window one level when the
    /// mass that could escape it this step exceeds the budget (newly
    /// admitted rows with `exit > Λ` join the capped set), otherwise
    /// freeze and account the escape bound. Returns the window end.
    fn expand(&mut self, op: &WindowedOp, cur: &[f64], lambda: f64, budget: f64) -> usize {
        let inv_l = 1.0 / lambda;
        let mut hi = op.level_off[self.lvl + 1] as usize;
        if hi < op.reachable {
            let frontier = op.level_off[self.lvl] as usize..hi;
            let escape: f64 = cur[frontier.clone()]
                .iter()
                .zip(&op.fwd_rate[frontier])
                .map(|(&p, &f)| p * f)
                .sum::<f64>()
                * inv_l;
            if escape > budget {
                self.lvl += 1;
                let new_hi = op.level_off[self.lvl + 1] as usize;
                for row in hi..new_hi {
                    if op.exit[row] > lambda {
                        self.capped.push(row as u32);
                    }
                }
                hi = new_hi;
            } else {
                self.leaked += escape;
            }
        }
        hi
    }

    /// Post-step settlement of the capped rows: zero them and charge the
    /// gross inflow against the budget. Returns `true` when the inflow
    /// breaches it — the segment must restart with a larger Λ.
    fn settle_capped(&mut self, nxt: &mut [f64], budget: f64) -> bool {
        if self.capped.is_empty() {
            return false;
        }
        let mut inflow = 0.0f64;
        for &c in &self.capped {
            inflow += nxt[c as usize];
            nxt[c as usize] = 0.0;
        }
        self.leaked += inflow;
        inflow > budget
    }
}

/// The adaptive windowed uniformization engine: the locality-reordered
/// operator plus the working distribution in permuted row space,
/// persistent across grid segments (and across `GridSolver::solve_from`
/// calls) so the operator is built once per solve.
struct AdaptiveEngine {
    op: WindowedOp,
    /// Lockstep workers for the sharded window gather (clamped to the
    /// machine and to `n / shard_min`).
    workers: usize,
    /// Working distribution in row space; rows `>= window end` hold
    /// exactly zero.
    cur: Vec<f64>,
    /// Frontier level: all mass sits in levels `0..=lvl`.
    lvl: usize,
    /// Cumulative support-truncation mass (diagnostics).
    leaked: f64,
}

impl AdaptiveEngine {
    fn new(ctmc: &Ctmc, pi0: &[f64], opts: &TransientOptions) -> Self {
        // The adaptive twin of the `Stepper::new` shard boundary: serial,
        // on the control thread, before any stepping gang exists — the
        // `session.shard` failpoint fires here on the (default) adaptive
        // engine so chaos faults unwind without deadlocking workers.
        ioimc::failpoint::hit("session.shard");
        let roots = (0..pi0.len() as u32).filter(|&s| pi0[s as usize] != 0.0);
        let op = WindowedOp::new(ctmc, roots);
        let max_shards = (op.n / opts.shard_min.max(1)).max(1);
        let workers = ioimc::par::effective_threads(opts.threads).min(max_shards);
        let mut engine = Self {
            op,
            workers,
            cur: Vec::new(),
            lvl: 0,
            leaked: 0.0,
        };
        let adopted = engine.load(pi0);
        assert!(adopted, "roots cover the support by construction");
        engine
    }

    /// Adopts `pi0` as the working distribution. Returns `false` (engine
    /// must be rebuilt) if `pi0` carries mass on states unreachable from
    /// the ordering's roots.
    fn load(&mut self, pi0: &[f64]) -> bool {
        let op = &self.op;
        self.cur.clear();
        self.cur.resize(op.n, 0.0);
        let mut last = 0usize;
        for (s, &p) in pi0.iter().enumerate() {
            if p != 0.0 {
                let row = op.inv[s] as usize;
                if row >= op.reachable {
                    return false;
                }
                self.cur[row] = p;
                last = last.max(row);
            }
        }
        self.lvl = op.level_of[last] as usize;
        true
    }

    /// The working distribution in original state order.
    fn output(&self) -> Vec<f64> {
        let mut out = vec![0.0f64; self.op.n];
        for (row, &s) in self.op.perm.iter().enumerate() {
            out[s as usize] = self.cur[row];
        }
        out
    }

    /// Advances the working distribution by `dt`: shrinks the trailing
    /// support within budget, picks `Λ_seg` from the ε-mass support's
    /// maximum exit rate (exit-capping the window's dust states above
    /// it), and runs windowed sweeps — restarting with an escalated Λ
    /// when capped inflow breaches the budget. Returns whether the
    /// distribution is steady (all later grid points can answer from it).
    fn advance(
        &mut self,
        dt: f64,
        cache: &PoissonCache,
        opts: &TransientOptions,
        counters: &SolveCounters,
    ) -> bool {
        let op = &self.op;
        // Trailing-support shrink: zero whole top levels while their
        // total mass fits in a quarter of the per-segment budget, so
        // long-frozen dust cannot pin the window (and Λ) forever.
        if opts.support_tol > 0.0 {
            let budget = opts.support_tol * 0.25;
            let mut zeroed = 0.0f64;
            while self.lvl > 0 {
                let rows = op.level_off[self.lvl] as usize..op.level_off[self.lvl + 1] as usize;
                let mass: f64 = self.cur[rows.clone()].iter().sum();
                if zeroed + mass > budget {
                    break;
                }
                self.cur[rows].fill(0.0);
                zeroed += mass;
                self.lvl -= 1;
            }
            self.leaked += zeroed;
        }
        let hi = op.level_off[self.lvl + 1] as usize;
        // Zero-rate segment: all mass on absorbing states — the
        // distribution is exactly invariant, now and forever.
        let active: f64 = self.cur[..hi]
            .iter()
            .zip(&op.exit[..hi])
            .map(|(&p, &e)| p * e)
            .sum();
        if active == 0.0 {
            return true;
        }
        // Λ_seg from the ε-mass support: the maximum exit rate over
        // window states carrying more than a per-state share of the
        // budget. Dust on hotter states is zeroed up front (within the
        // same quarter-budget) and the states join the capped set.
        let theta = opts.support_tol * 0.25 / op.n as f64;
        let support_max = self.cur[..hi]
            .iter()
            .zip(&op.exit[..hi])
            .filter(|&(&p, _)| p > theta)
            .map(|(_, &e)| e)
            .fold(0.0f64, f64::max);
        let mut lambda = if support_max > 0.0 {
            (support_max * UNIF_HEADROOM).min(op.global_unif)
        } else {
            op.global_unif
        };
        if opts.support_tol > 0.0 {
            let mut zeroed = 0.0f64;
            for (row, p) in self.cur[..hi].iter_mut().enumerate() {
                if *p != 0.0 && op.exit[row] > lambda {
                    zeroed += *p;
                    *p = 0.0;
                }
            }
            self.leaked += zeroed;
        }
        let global_unif = op.global_unif;
        let snapshot = self.cur.clone();
        // One sweep per segment; Λ restarts are internal retries of the
        // same sweep, not additional solver work units.
        counters.count_sweep();
        loop {
            // Before each sweep (including Λ-escalation retries) the gang
            // is parked, so a budget unwind here cannot strand a worker
            // on the step barrier.
            ioimc::budget::checkpoint();
            let pw = cache.get(lambda * dt);
            match self.sweep(lambda, &pw, opts, counters) {
                Ok(steady) => return steady,
                Err(()) => {
                    lambda = (lambda * LAMBDA_ESCALATION).min(global_unif);
                    self.cur.copy_from_slice(&snapshot);
                }
            }
        }
    }

    /// Initial control state for a sweep at `lambda`: current frontier
    /// level plus the capped set (window rows hotter than Λ).
    fn segment_ctrl(&self, lambda: f64, opts: &TransientOptions) -> SegmentCtrl {
        let hi = self.op.level_off[self.lvl + 1] as usize;
        let capped: Vec<u32> = (0..hi as u32)
            .filter(|&row| self.op.exit[row as usize] > lambda)
            .collect();
        SegmentCtrl {
            lvl: self.lvl,
            capped,
            cum: 0.0,
            leaked: 0.0,
            detector: SteadyDetector::new(opts.steady_tol),
            res_steady: false,
        }
    }

    /// One windowed uniformization sweep at rate `lambda`: on success the
    /// working distribution becomes the Poisson mixture and the frontier
    /// level is updated; `Err(())` means capped inflow breached the
    /// budget (caller restores the entry distribution and restarts with
    /// a larger Λ). Dispatches to the lock-free serial loop or the
    /// lockstep worker gang — both execute the identical per-row kernel
    /// and the identical control-helper arithmetic in the same order, so
    /// results are bitwise identical across thread counts (asserted by
    /// the unit tests driving the gang directly).
    fn sweep(
        &mut self,
        lambda: f64,
        pw: &PoissonWeights,
        opts: &TransientOptions,
        counters: &SolveCounters,
    ) -> SweepOutcome {
        // Quarter of the budget for each in-sweep truncation channel
        // (frozen-frontier escape, capped inflow), spread over the steps.
        let total = pw.total_steps();
        let step_budget = if opts.support_tol > 0.0 {
            opts.support_tol * 0.25 / total as f64
        } else {
            0.0
        };
        let mut st = self.segment_ctrl(lambda, opts);
        let outcome = if self.workers <= 1 {
            self.sweep_serial(lambda, pw, opts, &mut st, step_budget, counters)
        } else {
            self.sweep_gang(lambda, pw, opts, &mut st, step_budget, counters)
        };
        if outcome.is_ok() {
            self.lvl = st.lvl;
            self.leaked += st.leaked;
        }
        outcome
    }

    /// The serial sweep: double-buffered, no locks. Reference semantics
    /// for the gang path.
    fn sweep_serial(
        &mut self,
        lambda: f64,
        pw: &PoissonWeights,
        opts: &TransientOptions,
        st: &mut SegmentCtrl,
        step_budget: f64,
        counters: &SolveCounters,
    ) -> SweepOutcome {
        let op = &self.op;
        let n = op.n;
        let inv_l = 1.0 / lambda;
        let total = pw.total_steps();
        let mut cur = std::mem::take(&mut self.cur);
        let mut nxt = vec![0.0f64; n];
        let mut result = vec![0.0f64; n];
        let mut hi = op.level_off[st.lvl + 1] as usize;
        for step in 0..total {
            if step >= pw.left {
                let wt = pw.weights[step - pw.left];
                for (r, &c) in result[..hi].iter_mut().zip(&cur[..hi]) {
                    *r += wt * c;
                }
                st.cum += wt;
            }
            if step + 1 == total {
                break;
            }
            if step & 0x3FF == 0 {
                ioimc::budget::checkpoint();
            }
            hi = st.expand(op, &cur, lambda, step_budget);
            counters.count_step();
            let mut delta = 0.0f64;
            for i in 0..hi {
                let v = op.row_value(&cur, i, inv_l, hi);
                delta = delta.max((v - cur[i]).abs());
                nxt[i] = v;
            }
            if st.settle_capped(&mut nxt, step_budget) {
                self.cur = cur;
                return Err(());
            }
            std::mem::swap(&mut cur, &mut nxt);
            if st.detector.feed(delta) {
                // Converged: the remaining Poisson tail all sits on the
                // (now invariant) current vector.
                let tail = 1.0 - st.cum;
                let mut res_diff = 0.0f64;
                for (r, &c) in result[..hi].iter_mut().zip(&cur[..hi]) {
                    *r += tail * c;
                    res_diff = res_diff.max((*r - c).abs());
                }
                st.res_steady = res_diff <= opts.steady_tol;
                self.cur = result;
                return Ok(st.res_steady);
            }
        }
        self.cur = result;
        Ok(false)
    }

    /// The sharded sweep: a lockstep worker gang over transition-balanced
    /// chunks of the window, barrier-synced per step, with worker 0
    /// running exactly the control/assembly arithmetic of the serial path
    /// on the assembled vector.
    fn sweep_gang(
        &mut self,
        lambda: f64,
        pw: &PoissonWeights,
        opts: &TransientOptions,
        st_outer: &mut SegmentCtrl,
        step_budget: f64,
        counters: &SolveCounters,
    ) -> SweepOutcome {
        let op = &self.op;
        let n = op.n;
        let inv_l = 1.0 / lambda;
        let total = pw.total_steps();
        let workers = self.workers;
        let cur = RwLock::new(std::mem::take(&mut self.cur));
        let result = Mutex::new(vec![0.0f64; n]);
        let outs: Vec<Mutex<Vec<f64>>> = (0..workers).map(|_| Mutex::new(vec![0.0; n])).collect();
        let deltas: Vec<Mutex<f64>> = (0..workers).map(|_| Mutex::new(0.0)).collect();
        let barrier = Barrier::new(workers);
        let ctrl = std::sync::atomic::AtomicU8::new(CTRL_RUN);
        let hi_shared =
            std::sync::atomic::AtomicUsize::new(op.level_off[st_outer.lvl + 1] as usize);
        let placeholder = SegmentCtrl {
            lvl: 0,
            capped: Vec::new(),
            cum: 0.0,
            leaked: 0.0,
            detector: SteadyDetector::new(0.0),
            res_steady: false,
        };
        let state = Mutex::new(std::mem::replace(st_outer, placeholder));
        ioimc::par::run_workers(workers, |w| {
            for step in 0..total {
                if w == 0 {
                    // Control phase — same order as the serial loop:
                    // accumulate, then expansion decision, then the step
                    // counter.
                    let mut st = state.lock().expect("no poisoned control");
                    let cur_g = cur.read().expect("no poisoned buffer");
                    let hi = hi_shared.load(Ordering::Relaxed);
                    if step >= pw.left {
                        let wt = pw.weights[step - pw.left];
                        let mut res = result.lock().expect("no poisoned result");
                        for (r, &c) in res[..hi].iter_mut().zip(&cur_g[..hi]) {
                            *r += wt * c;
                        }
                        st.cum += wt;
                    }
                    if step + 1 == total {
                        ctrl.store(CTRL_DONE, Ordering::SeqCst);
                    } else {
                        let hi = st.expand(op, &cur_g, lambda, step_budget);
                        hi_shared.store(hi, Ordering::Relaxed);
                        counters.count_step();
                    }
                }
                barrier.wait();
                if ctrl.load(Ordering::SeqCst) != CTRL_RUN {
                    break;
                }
                let hi = hi_shared.load(Ordering::SeqCst);
                {
                    // Compute phase: every worker gathers its chunk.
                    let cur_g = cur.read().expect("no poisoned buffer");
                    let mut out = outs[w].lock().expect("no poisoned shard");
                    let mut dmax = 0.0f64;
                    for i in op.chunk(hi, w, workers) {
                        let v = op.row_value(&cur_g, i, inv_l, hi);
                        dmax = dmax.max((v - cur_g[i]).abs());
                        out[i] = v;
                    }
                    *deltas[w].lock().expect("no poisoned shard") = dmax;
                }
                barrier.wait();
                if w == 0 {
                    // Assembly phase: fold the chunks back, settle the
                    // capped rows, then feed the detector — the serial
                    // order.
                    let mut st = state.lock().expect("no poisoned control");
                    let mut cur_g = cur.write().expect("no poisoned buffer");
                    for (v, out) in outs.iter().enumerate() {
                        let r = op.chunk(hi, v, workers);
                        cur_g[r.clone()]
                            .copy_from_slice(&out.lock().expect("no poisoned shard")[r]);
                    }
                    if st.settle_capped(&mut cur_g, step_budget) {
                        ctrl.store(CTRL_RESTART, Ordering::SeqCst);
                    } else {
                        let delta = deltas
                            .iter()
                            .fold(0.0f64, |a, d| a.max(*d.lock().expect("no poisoned shard")));
                        if st.detector.feed(delta) {
                            let tail = 1.0 - st.cum;
                            let mut res = result.lock().expect("no poisoned result");
                            let mut res_diff = 0.0f64;
                            for (r, &c) in res[..hi].iter_mut().zip(&cur_g[..hi]) {
                                *r += tail * c;
                                res_diff = res_diff.max((*r - c).abs());
                            }
                            st.res_steady = res_diff <= opts.steady_tol;
                            ctrl.store(CTRL_CONVERGED, Ordering::SeqCst);
                        }
                    }
                }
                barrier.wait();
                let c = ctrl.load(Ordering::SeqCst);
                if c == CTRL_CONVERGED || c == CTRL_RESTART {
                    break;
                }
            }
        });
        *st_outer = state.into_inner().expect("no poisoned control");
        let verdict = ctrl.load(Ordering::SeqCst);
        if verdict == CTRL_RESTART {
            self.cur = cur.into_inner().expect("no poisoned buffer");
            return Err(());
        }
        self.cur = result.into_inner().expect("no poisoned result");
        Ok(verdict == CTRL_CONVERGED && st_outer.res_steady)
    }
}

/// Sweep verdicts communicated through the gang's control atomic.
const CTRL_RUN: u8 = 0;
const CTRL_DONE: u8 = 1;
const CTRL_CONVERGED: u8 = 2;
const CTRL_RESTART: u8 = 3;

/// `Ok(steady)` on a completed sweep, `Err(())` when Λ must be escalated
/// and the segment restarted.
type SweepOutcome = Result<bool, ()>;

/// The uniformized DTMC `P = I + Q/Λ` in gather-friendly form: per-state
/// self-loop probabilities (`stay = 1 − exit/Λ`) plus the transposed CSR
/// adjacency with transition probabilities prescaled to `p = rate/Λ`
/// (offsets / probabilities / sources as flat SoA arrays). Shared by the
/// transient [`Stepper`] and the steady-state Krylov matvec so the two
/// kernels cannot drift apart.
pub(crate) fn prescaled_transpose(
    ctmc: &Ctmc,
    unif: f64,
) -> (Vec<f64>, Vec<u32>, Vec<f64>, Vec<u32>) {
    let n = ctmc.num_states();
    let stay: Vec<f64> = ctmc.exit_rates().iter().map(|&e| 1.0 - e / unif).collect();
    let incoming = ctmc.incoming();
    let m = ctmc.num_transitions();
    let mut inc_off = Vec::with_capacity(n + 1);
    let mut inc_p = Vec::with_capacity(m);
    let mut inc_src = Vec::with_capacity(m);
    inc_off.push(0u32);
    for i in 0..n as u32 {
        for &(r, j) in incoming.row(i) {
            inc_p.push(r / unif);
            inc_src.push(j);
        }
        inc_off.push(inc_p.len() as u32);
    }
    (stay, inc_off, inc_p, inc_src)
}

/// Splits the rows `0..n` into at most `shards` contiguous non-empty
/// ranges with balanced work, where a row's work is `1 +` its incoming
/// transition count.
fn balanced_ranges(inc_off: &[u32], shards: usize) -> Vec<std::ops::Range<usize>> {
    let n = inc_off.len() - 1;
    if shards <= 1 || n <= 1 {
        return std::iter::once(0..n).collect();
    }
    let shards = shards.min(n);
    let total = n as u64 + u64::from(inc_off[n]);
    let mut out = Vec::with_capacity(shards);
    let mut start = 0usize;
    let mut acc = 0u64;
    for i in 0..n {
        acc += 1 + u64::from(inc_off[i + 1] - inc_off[i]);
        let closed = out.len();
        let remaining = shards - closed - 1;
        if remaining > 0
            && acc * shards as u64 >= total * (closed as u64 + 1)
            && n - (i + 1) >= remaining
        {
            out.push(start..i + 1);
            start = i + 1;
        }
    }
    out.push(start..n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-state machine point availability:
    /// A(t) = µ/(λ+µ) + λ/(λ+µ)·e^{-(λ+µ)t}.
    #[test]
    fn two_state_transient_matches_closed_form() {
        let (l, m) = (0.2, 1.5);
        let c = Ctmc::new(vec![vec![(l, 1)], vec![(m, 0)]], vec![0, 1], 0).unwrap();
        for &t in &[0.0, 0.1, 1.0, 5.0, 50.0] {
            let pi = transient(&c, t);
            let a = m / (l + m) + l / (l + m) * (-(l + m) * t).exp();
            assert!((pi[0] - a).abs() < 1e-10, "t={t}: {} vs {a}", pi[0]);
        }
    }

    /// Pure death process: P(absorbed by t) = 1 - e^{-λt}.
    #[test]
    fn exponential_absorption() {
        let l = 0.37;
        let c = Ctmc::new(vec![vec![(l, 1)], vec![]], vec![0, 1], 0).unwrap();
        let pi = transient(&c, 2.0);
        assert!((pi[1] - (1.0 - (-l * 2.0f64).exp())).abs() < 1e-12);
    }

    /// Erlang-3 absorption time: P(done by t) follows the Erlang CDF.
    #[test]
    fn erlang_chain() {
        let r = 2.0;
        let c = Ctmc::new(
            vec![vec![(r, 1)], vec![(r, 2)], vec![(r, 3)], vec![]],
            vec![0, 0, 0, 1],
            0,
        )
        .unwrap();
        let t = 1.3;
        let pi = transient(&c, t);
        // Erlang-3 CDF = 1 - e^{-rt}(1 + rt + (rt)^2/2)
        let x = r * t;
        let expected = 1.0 - (-x).exp() * (1.0 + x + x * x / 2.0);
        assert!((pi[3] - expected).abs() < 1e-10);
    }

    #[test]
    fn long_horizon_converges_to_steady_state() {
        let (l, m) = (0.2, 1.5);
        let c = Ctmc::new(vec![vec![(l, 1)], vec![(m, 0)]], vec![0, 1], 0).unwrap();
        let pi = transient(&c, 1e4);
        let steady = crate::steady::steady_state(&c);
        assert!((pi[0] - steady[0]).abs() < 1e-9);
    }

    #[test]
    fn distribution_stays_normalized() {
        let c = Ctmc::new(
            vec![vec![(1.0, 1), (2.0, 2)], vec![(0.5, 2)], vec![(3.0, 0)]],
            vec![0, 0, 0],
            0,
        )
        .unwrap();
        for &t in &[0.3, 3.0, 30.0] {
            let pi = transient(&c, t);
            let sum: f64 = pi.iter().sum();
            assert!((sum - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_time_panics() {
        let c = Ctmc::new(vec![vec![]], vec![0], 0).unwrap();
        let _ = transient(&c, -1.0);
    }

    #[test]
    fn batched_grid_matches_closed_form_in_input_order() {
        let (l, m) = (0.2, 1.5);
        let c = Ctmc::new(vec![vec![(l, 1)], vec![(m, 0)]], vec![0, 1], 0).unwrap();
        // deliberately unsorted, with a duplicate and a zero
        let ts = [5.0, 0.1, 0.0, 1.0, 1.0, 50.0];
        let pis = transient_many(&c, &ts);
        assert_eq!(pis.len(), ts.len());
        for (&t, pi) in ts.iter().zip(&pis) {
            let a = m / (l + m) + l / (l + m) * (-(l + m) * t).exp();
            assert!((pi[0] - a).abs() < 1e-10, "t={t}: {} vs {a}", pi[0]);
        }
    }

    #[test]
    fn rateless_chain_grid_is_constant() {
        let c = Ctmc::new(vec![vec![]], vec![0], 0).unwrap();
        let pis = transient_many(&c, &[0.0, 1.0, 10.0]);
        for pi in pis {
            assert_eq!(pi, vec![1.0]);
        }
    }

    /// A multi-state chain with no transitions at all (`max_exit == 0.0`)
    /// must return the starting distribution verbatim at every grid point,
    /// including from a non-initial `pi0`.
    #[test]
    fn zero_exit_rate_chain_keeps_pi0_on_grid() {
        let c = Ctmc::new(vec![vec![], vec![], vec![]], vec![0, 0, 1], 0).unwrap();
        assert_eq!(c.max_exit_rate(), 0.0);
        let pi0 = [0.25, 0.5, 0.25];
        let pis = transient_many_from(&c, &pi0, &[0.0, 2.5, 100.0]);
        for pi in pis {
            assert_eq!(pi, pi0.to_vec());
        }
    }

    /// `t = 0` grid points must return `pi0` exactly, even when mixed with
    /// positive times (the incremental sweep must not step before them).
    #[test]
    fn zero_time_points_return_pi0_exactly() {
        let (l, m) = (0.2, 1.5);
        let c = Ctmc::new(vec![vec![(l, 1)], vec![(m, 0)]], vec![0, 1], 0).unwrap();
        let pi0 = [0.0, 1.0];
        let pis = transient_many_from(&c, &pi0, &[3.0, 0.0, 7.0, 0.0]);
        assert_eq!(pis[1], pi0.to_vec());
        assert_eq!(pis[3], pi0.to_vec());
        // and the positive points still match the closed form from pi0
        for &(i, t) in &[(0usize, 3.0f64), (2, 7.0)] {
            let a = m / (l + m) - m / (l + m) * (-(l + m) * t).exp();
            assert!((pis[i][0] - a).abs() < 1e-10, "t={t}");
        }
    }

    /// Duplicate and unsorted grid entries answer from one shared sweep
    /// and must agree with independent scalar solves bitwise-closely.
    #[test]
    fn from_distribution_handles_duplicate_unsorted_grid() {
        let c = Ctmc::new(
            vec![vec![(1.0, 1), (2.0, 2)], vec![(0.5, 2)], vec![(3.0, 0)]],
            vec![0, 0, 0],
            0,
        )
        .unwrap();
        let pi0 = [0.2, 0.3, 0.5];
        let ts = [4.0, 1.0, 4.0, 0.5, 1.0];
        let pis = transient_many_from(&c, &pi0, &ts);
        assert_eq!(pis[0], pis[2], "duplicate grid points must agree");
        assert_eq!(pis[1], pis[4]);
        for (&t, pi) in ts.iter().zip(&pis) {
            let scalar = transient_from(&c, &pi0, t);
            for (a, b) in pi.iter().zip(&scalar) {
                assert!((a - b).abs() < 1e-10, "t={t}: {a} vs {b}");
            }
            let sum: f64 = pi.iter().sum();
            assert!((sum - 1.0).abs() < 1e-10);
        }
    }

    /// The sharded sweep is bitwise identical to the serial sweep for
    /// every worker count and shard granularity (each row runs the same
    /// per-row code either way).
    #[test]
    fn sharded_sweep_is_bitwise_identical_to_serial() {
        // A chain with irregular in-degrees so shard boundaries differ by
        // granularity: a star plus a ring.
        let n = 97usize;
        let rows: Vec<Vec<(f64, u32)>> = (0..n)
            .map(|i| {
                let mut row = vec![(0.3 + (i as f64) * 0.01, ((i + 1) % n) as u32)];
                if i != 0 {
                    row.push((0.7, 0)); // everyone feeds the hub
                }
                if i == 0 {
                    for j in 1..n {
                        row.push((0.05, j as u32));
                    }
                }
                row
            })
            .collect();
        let c = Ctmc::new(rows, vec![0; n], 0).unwrap();
        let ts = [0.4, 1.7, 6.0, 6.0, 0.0];
        let serial = transient_many_with(&c, &ts, &TransientOptions::default());
        for threads in [2usize, 3, 4, 8] {
            for shard_min in [1usize, 7, 24] {
                let opts = TransientOptions::default()
                    .with_threads(threads)
                    .with_shard_min(shard_min);
                let sharded = transient_many_with(&c, &ts, &opts);
                assert_eq!(
                    sharded, serial,
                    "threads={threads} shard_min={shard_min}: not bitwise identical"
                );
            }
        }
    }

    /// Shard ranges cover `0..n` contiguously, are non-empty, and respect
    /// the requested count.
    #[test]
    fn balanced_ranges_partition_rows() {
        // in-degrees 0,3,0,1,5,1 → offsets
        let off = [0u32, 0, 3, 3, 4, 9, 10];
        for shards in 1..=6 {
            let ranges = balanced_ranges(&off, shards);
            assert!(!ranges.is_empty() && ranges.len() <= shards);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, 6);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
                assert!(!w[1].is_empty());
            }
            assert!(!ranges[0].is_empty());
        }
    }

    /// Steady-state detection answers long-horizon grids from the
    /// converged vector: the detected run needs far fewer steps, agrees
    /// with the undetected run to well below 1e-10, and still matches the
    /// closed form.
    #[test]
    fn steady_detection_matches_undetected_sweep() {
        let (l, m) = (0.2, 1.5);
        let c = Ctmc::new(vec![vec![(l, 1)], vec![(m, 0)]], vec![0, 1], 0).unwrap();
        let grid: Vec<f64> = (1..=20).map(|k| f64::from(k) * 50.0).collect();
        let detected = transient_many_with(&c, &grid, &TransientOptions::default());
        let exact =
            transient_many_with(&c, &grid, &TransientOptions::default().with_steady_tol(0.0));
        for (i, &t) in grid.iter().enumerate() {
            let a = m / (l + m) + l / (l + m) * (-(l + m) * t).exp();
            assert!((detected[i][0] - exact[i][0]).abs() < 1e-11, "t={t}");
            assert!((detected[i][0] - a).abs() < 1e-10, "t={t}");
        }
    }

    /// A nearly-decoupled chain — two fast clusters bridged by one rare
    /// transition — must not trigger premature detection: the raw step
    /// delta is tiny long before the slow mode has equilibrated (the
    /// remaining distance is `δ / spectral gap`), so a plain
    /// `δ ≤ steady_tol` check would freeze the grid on a vector still
    /// far from steady. The projected-drift criterion has to see
    /// through it and keep the long-horizon point at the true steady
    /// state.
    #[test]
    fn detection_resists_nearly_decoupled_chains() {
        let c = Ctmc::new(
            vec![
                vec![(1.0, 1), (1e-4, 2)], // fast cluster A, rare escape
                vec![(1.0, 0)],
                vec![(1.0, 3)], // fast cluster B
                vec![(1.0, 2)],
            ],
            vec![0, 0, 1, 1],
            0,
        )
        .unwrap();
        // t1 sits where the raw step delta has already dropped below the
        // default steady_tol while ~1e-9 of slow-mode mass is still in
        // flight; t2 is far past mixing.
        let grid = [4.2e5, 1e8];
        let pis = transient_many_with(&c, &grid, &TransientOptions::default());
        let steady = crate::steady::steady_state(&c);
        for (a, b) in pis[1].iter().zip(&steady) {
            assert!(
                (a - b).abs() < 1e-10,
                "long-horizon point frozen before steady state: {a} vs {b}"
            );
        }
    }

    /// The adaptive engine's worker gang is bitwise identical to its
    /// serial loop for every worker count — driven through the engine
    /// directly so the gang path is exercised even on single-core
    /// machines (the public option plumbing clamps thread requests to
    /// the core count).
    #[test]
    fn adaptive_gang_is_bitwise_identical_to_serial() {
        // Irregular in-degrees and multi-scale rates, so windows expand,
        // states get exit-capped and Λ restarts all fire.
        let n = 61usize;
        let rows: Vec<Vec<(f64, u32)>> = (0..n)
            .map(|i| {
                let mut row = vec![(1e-4 + (i as f64) * 1e-5, ((i + 1) % n) as u32)];
                if i != 0 {
                    row.push((10.0 + i as f64, 0)); // fast "repairs" to the hub
                }
                if i % 9 == 0 {
                    row.push((5e-3, ((i + 7) % n) as u32));
                }
                row
            })
            .collect();
        let c = Ctmc::new(rows, vec![0; n], 0).unwrap();
        let ts: [f64; 5] = [0.6, 0.6, 3.0, 20.0, 0.0];
        let drive = |workers: usize| -> Vec<Vec<f64>> {
            let opts = TransientOptions::default();
            let cache = PoissonCache::new();
            let mut engine = AdaptiveEngine::new(&c, &c.initial_distribution(), &opts);
            engine.workers = workers;
            let mut order: Vec<usize> = (0..ts.len()).collect();
            order.sort_by(|&a, &b| ts[a].total_cmp(&ts[b]));
            let mut out = vec![Vec::new(); ts.len()];
            let (mut cur_t, mut converged) = (0.0f64, false);
            for &i in &order {
                let dt = ts[i] - cur_t;
                if dt > 0.0 && !converged {
                    converged = engine.advance(dt, &cache, &opts, &SolveCounters::new());
                    cur_t = ts[i];
                }
                out[i] = engine.output();
            }
            out
        };
        let serial = drive(1);
        for workers in [2usize, 3, 5, 8] {
            assert_eq!(
                drive(workers),
                serial,
                "gang with {workers} workers diverged from the serial path"
            );
        }
    }

    /// The `_ctx` entry point is bitwise identical to the plain cached
    /// path and records the solve's work on the context's counters
    /// (without disturbing other contexts).
    #[test]
    fn ctx_counters_record_session_scoped_work() {
        let (l, m) = (0.2, 1.5);
        let c = Ctmc::new(vec![vec![(l, 1)], vec![(m, 0)]], vec![0, 1], 0).unwrap();
        let ts = [1.0, 2.0, 5.0];
        let opts = TransientOptions::default();
        let ctx = MeasureContext::new();
        let pis = transient_many_from_ctx(&c, &c.initial_distribution(), &ts, &opts, &ctx);
        assert_eq!(pis, transient_many_with(&c, &ts, &opts));
        assert!(ctx.counters.sweeps() >= 1);
        assert!(ctx.counters.dtmc_steps() >= 1);
        let other = MeasureContext::new();
        assert_eq!(other.counters.sweeps(), 0);
        assert_eq!(other.counters.dtmc_steps(), 0);
    }

    /// An absorbing chain converges once all mass is absorbed; detection
    /// must stop the sweep and keep the absorbed mass exact.
    #[test]
    fn steady_detection_on_absorbing_chain() {
        let l = 2.5;
        let c = Ctmc::new(vec![vec![(l, 1)], vec![]], vec![0, 1], 0).unwrap();
        let grid = [5.0, 50.0, 500.0];
        let pis = transient_many_with(&c, &grid, &TransientOptions::default());
        for (&t, pi) in grid.iter().zip(&pis) {
            let expected = 1.0 - (-l * t).exp();
            assert!((pi[1] - expected).abs() < 1e-10, "t={t}: {}", pi[1]);
            let sum: f64 = pi.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }
}
