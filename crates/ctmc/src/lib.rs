//! Continuous-time Markov chain representation and solvers.
//!
//! The last stage of the Arcade pipeline converts the fully composed and
//! reduced I/O-IMC into a labelled CTMC ([`Ctmc::from_ioimc`]) and computes
//! dependability measures on it. Each solver kernel has exactly one entry,
//! taking its options (and, when it steps a transient, a
//! [`MeasureContext`]):
//!
//! * [`steady::steady_state_with`] — long-run distribution, giving the
//!   steady-state availability of Table 1,
//! * [`transient::transient_many_from_ctx`] — uniformization with
//!   Fox–Glynn-style Poisson truncation over a whole time grid, giving
//!   point availability and, on [`Ctmc::make_absorbing`]'s chain,
//!   first-passage unreliability,
//! * [`absorbing::mean_time_to_absorption_with`] — mean time to failure,
//! * [`csl::until_bounded_ctx`] and [`csl::interval_down_fraction_ctx`] —
//!   the CSL time-bounded until and expected interval availability.
//!
//! [`measures::state_mass`] reads a measure off a solved distribution.
//! `arcade::query::Session` is the evaluator that composes these entries
//! and memoizes what they produce.
//!
//! # Storage and solvers
//!
//! A [`Ctmc`] is flat CSR: one `num_states + 1` offset array plus one
//! contiguous `(rate, target)` transition array (rows sorted by target,
//! parallel edges merged, self-loops dropped), with per-state exit rates
//! cached at construction. Every kernel — the uniformization sweep, the
//! steady-state solvers, the hitting-time solvers — iterates these
//! contiguous slices; solvers that sweep column-wise build the transposed
//! adjacency once via [`Ctmc::incoming`]. Chains can be built from
//! per-state rows ([`Ctmc::new`]), directly from CSR arrays
//! ([`Ctmc::from_csr`]) or zero-conversion from a reduced I/O-IMC's own
//! CSR storage ([`Ctmc::from_ioimc`]).
//!
//! The direct-vs-iterative split and the iteration controls are
//! configured by [`SolverOptions`]. By default chains up to 3 000 states
//! are solved directly — the steady state by GTH state elimination, the
//! MTTF by Gaussian elimination — and larger ones by Gauss–Seidel with a
//! 1e-14 relative tolerance, with a Krylov fallback for chains where
//! Gauss–Seidel stalls.
//!
//! # Parallel transient analysis and steady-state detection
//!
//! The uniformization engine ([`transient`]) computes the DTMC step as a
//! gather over the transposed CSR and can fan it out over row shards on
//! scoped worker threads — configured by [`TransientOptions`] (inside
//! [`SolverOptions::transient`], default serial). Results are **bitwise
//! identical** for every thread count and shard size. Steady-state
//! detection (on by default, `steady_tol = 1e-13`) stops stepping once
//! the uniformized chain has converged and answers all later grid points
//! from the converged vector; Poisson weight vectors are memoized per
//! `Λ·Δt` in the context's [`PoissonCache`], and its [`SolveCounters`]
//! count the sweeps and DTMC steps. See the [`transient`] module docs for
//! the full semantics.
//!
//! # Example
//!
//! The classic two-state machine (failure rate λ, repair rate µ) has
//! steady-state availability µ/(λ+µ) and point availability
//! µ/(λ+µ) + λ/(λ+µ)·e^{−(λ+µ)t}:
//!
//! ```
//! use ctmc::measures::state_mass;
//! use ctmc::steady::steady_state_with;
//! use ctmc::transient::transient_many_from_ctx;
//! use ctmc::{Ctmc, MeasureContext, SolverOptions, TransientOptions};
//!
//! let (lambda, mu) = (0.001, 0.5);
//! let ctmc = Ctmc::new(
//!     vec![vec![(lambda, 1)], vec![(mu, 0)]],
//!     vec![0, 1], // bit 0 marks "down"
//!     0,
//! ).unwrap();
//! let down: Vec<u32> = ctmc.states_with_label(1).collect();
//!
//! let pi = steady_state_with(&ctmc, &SolverOptions::default());
//! let a = 1.0 - state_mass(&down, &pi);
//! assert!((a - mu / (lambda + mu)).abs() < 1e-12);
//!
//! let ctx = MeasureContext::new();
//! let ts = [1.0, 10.0];
//! let pis = transient_many_from_ctx(
//!     &ctmc,
//!     &ctmc.initial_distribution(),
//!     &ts,
//!     &TransientOptions::default(),
//!     &ctx,
//! );
//! for (t, pi) in ts.iter().zip(&pis) {
//!     let s = lambda + mu;
//!     let exact = mu / s + lambda / s * (-s * t).exp();
//!     assert!((1.0 - state_mass(&down, pi) - exact).abs() < 1e-10);
//! }
//! assert!(ctx.counters.dtmc_steps() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absorbing;
pub mod chain;
pub mod context;
pub mod csl;
pub mod measures;
pub mod poisson;
pub mod solver;
pub mod steady;
pub mod transient;

pub use chain::{Ctmc, CtmcError, Incoming};
pub use context::{MeasureContext, SolveCounters};
pub use ioimc::budget;
pub use poisson::PoissonCache;
pub use solver::{IterativeMethod, SolverOptions, TransientOptions};
