//! **Arcade** — architectural dependability evaluation.
//!
//! A from-scratch reproduction of *"Architectural dependability evaluation
//! with Arcade"* (Boudali, Crouzen, Haverkort, Kuntz, Stoelinga — DSN 2008).
//!
//! Arcade models a system as interacting building blocks:
//!
//! * **Basic components** ([`ast::BcDef`]) with operational-mode groups
//!   (active/inactive, on/off, accessible/inaccessible, normal/degraded),
//!   phase-type failure distributions, multiple failure modes and
//!   destructive functional dependencies,
//! * **Repair units** ([`ast::RuDef`]) with dedicated, FCFS, and
//!   priority-based (preemptive/non-preemptive) strategies,
//! * **Spare management units** ([`ast::SmuDef`]) with optional exponential
//!   failover times,
//! * a **system failure criterion** ([`expr::Expr`]) — a fault-tree style
//!   AND/OR/K-of-N expression over component failure modes.
//!
//! Every block has a formal semantics as an Input/Output Interactive Markov
//! Chain (crate [`ioimc`]); the [`engine`] composes the blocks pairwise,
//! hides signals that no remaining block listens to, and minimizes modulo
//! branching bisimulation (crate [`bisim`]) after every step — the
//! *compositional aggregation* that keeps the state space small. The final
//! closed model becomes a labelled CTMC (crate [`ctmc`]) from which
//! availability, reliability and MTTF are computed.
//!
//! # Quick start
//!
//! Two redundant processors sharing an FCFS repair unit, queried through
//! the lazy [`query::Session`]: nothing is aggregated until the first
//! measure needs it, and a whole batch of measures — including every
//! point of a reliability curve — is answered in one pass:
//!
//! ```
//! use arcade::prelude::*;
//!
//! let mut sys = SystemDef::new("redundant-pair");
//! for name in ["p1", "p2"] {
//!     sys.add_component(BcDef::new(name, Dist::exp(0.001), Dist::exp(0.5)));
//! }
//! sys.add_repair_unit(RuDef::new("rep", ["p1", "p2"], RepairStrategy::Fcfs));
//! sys.set_system_down(Expr::and([Expr::down("p1"), Expr::down("p2")]));
//!
//! let session = Session::new(&sys)?; // validates; builds nothing yet
//! let values = session.evaluate(&[
//!     Measure::SteadyStateAvailability, // availability configuration
//!     Measure::Reliability(1000.0),     // no-repair configuration
//!     Measure::Reliability(5000.0),     // same sweep as the line above
//!     Measure::Mttf,
//! ])?;
//! assert!(values[0] > 0.99999 && values[0] < 1.0);
//! assert!(values[2] < values[1]);
//! # Ok::<(), arcade::ArcadeError>(())
//! ```
//!
//! [`Session`] is the only evaluator: [`Session::evaluate`] answers a
//! batch from the memoized aggregations, and [`Session::evaluate_at`] and
//! [`Session::sweep`] answer it on chains re-rated to parameter points,
//! all through one batch planner. The same model can be written in the
//! paper's textual syntax and parsed with [`parser::parse_system`].
//!
//! # Serving
//!
//! For repeated queries, pay the aggregation once and keep the session
//! **resident**: the [`serve`] module implements `arcaded`, a
//! dependency-free TCP daemon speaking newline-delimited JSON that owns a
//! registry of named models and a concurrent cache of warm sessions.
//! Identical cold requests are deduplicated in flight (N clients → one
//! aggregation), and a `stats` command surfaces cache/dedup counters plus
//! per-phase latency quantiles. Run it with
//! `cargo run --release -p arcade --bin arcaded`, or embed the server
//! in-process via [`serve::serve`]. See [`serve`] for the wire protocol
//! and [`serve::protocol`] for the measure-spec reference.
//!
//! # Sweeping
//!
//! Design-space exploration evaluates the *same* measures at thousands of
//! rate configurations. Declare named rate parameters on the definition
//! ([`ast::SystemDef::add_param`] binds a name to a base rate by exact
//! f64 bit equality) and hand [`query::Session::sweep`] a
//! [`query::ParamGrid`] (cartesian axes or an explicit point list):
//!
//! * **Quotient-reuse contract.** Changing a *declared Markovian rate*
//!   never changes the interactive structure, so the expensive
//!   aggregation/bisimulation quotient is computed **once per
//!   configuration** at the base rates and each grid point only clones
//!   the reduced CTMC and rewrites its rate entries in place (same CSR
//!   layout — no re-aggregation, no re-refinement). Anything that *does*
//!   change structure — components, repair strategies, the failure
//!   criterion, or a rate the model was not parameterized over — needs a
//!   new [`query::Session`].
//! * **Determinism.** Per-point solves fan out over the worker pool and
//!   every value is bitwise identical to what a fresh session's
//!   [`query::Session::evaluate_at`] returns at that point, at any
//!   thread count.
//! * **Sensitivities.** On cartesian grids, [`query::SweepResult`]
//!   carries finite-difference sensitivities ∂measure/∂parameter
//!   (central differences interior, one-sided at the edges).
//!
//! The same engine is exposed as the `arcade sweep --json` CLI
//! subcommand and as the `sweep` wire command of `arcaded`.
//!
//! # Fuzzing
//!
//! The repository tests itself differentially: the [`fuzz`] module holds
//! a seeded random [`ast::SystemDef`] generator ([`fuzz::gen_system`],
//! one model space shared by the property-test suites and the fuzzer),
//! four oracle pairs that must agree on every model
//! ([`fuzz::OraclePair`]: monolithic vs modular decomposition, adaptive
//! vs exact transient, dense vs iterative steady solvers, exact vs
//! seeded Monte-Carlo), a delta-debugging shrinker
//! ([`fuzz::shrink_system`]) that reduces any disagreement to a minimal
//! model, and schema-versioned [`fuzz::Evidence`] artifacts committed
//! under `artifacts/fuzz/` so every failure replays offline from its
//! seed. The `fuzz_diff` bench binary drives the loop in CI
//! (`fuzz_diff --smoke`); its chaos twin `serve_chaos --smoke --seed N`
//! walks randomized [`chaos`] failpoint/fault-class combinations against
//! a live server and asserts the containment contract every iteration.
//! Everything is deterministic for a fixed seed, so committed seeds
//! cannot flake.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod ast;
pub mod build;
pub mod cases;
pub mod chaos;
pub mod dist;
pub mod engine;
pub mod error;
pub mod expr;
pub mod fuzz;
pub mod model;
pub mod modular;
pub mod order;
pub mod parser;
pub mod printer;
pub mod query;
pub mod serve;
pub mod sim;
pub mod sync;

pub use error::ArcadeError;
pub use query::{Measure, ParamGrid, Session, SweepResult};

/// Commonly used items in one import.
pub mod prelude {
    pub use crate::ast::{BcDef, OmGroup, RateParam, RepairStrategy, RuDef, SmuDef, SystemDef};
    pub use crate::dist::Dist;
    pub use crate::error::ArcadeError;
    pub use crate::expr::Expr;
    pub use crate::query::{Measure, ParamGrid, Session, SweepResult};
}
