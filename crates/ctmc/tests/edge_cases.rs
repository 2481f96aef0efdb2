//! Edge-case behavior locks for the absorbing, first-passage and CSL
//! analyses: initial states that are already absorbing or already
//! targets, unreachable target sets, and zero-exit-rate transient states.
//! Every MTTF case is pinned on **both** solver paths (dense and sparse
//! via `dense_limit = 0`), and every first-passage case on **both**
//! transient engines (adaptive and exact), so any future solver change
//! keeps identical semantics.

use ctmc::absorbing::mean_time_to_absorption_with;
use ctmc::csl::{until_bounded_ctx, StateFormula};
use ctmc::measures::state_mass;
use ctmc::steady::steady_state_with;
use ctmc::transient::transient_many_from_ctx;
use ctmc::{Ctmc, MeasureContext, SolverOptions, TransientOptions};

fn sparse() -> SolverOptions {
    SolverOptions::default().with_dense_limit(0)
}

/// First-passage probabilities into `targets` over the grid `ts`: the
/// targets made absorbing, one transient solve, the target mass read back.
fn first_passage(c: &Ctmc, targets: &[u32], ts: &[f64], adaptive: bool) -> Vec<f64> {
    let a = c.make_absorbing(targets.iter().copied());
    let opts = TransientOptions::default().with_adaptive(adaptive);
    let pis = transient_many_from_ctx(
        &a,
        &a.initial_distribution(),
        ts,
        &opts,
        &MeasureContext::new(),
    );
    pis.iter().map(|pi| state_mass(targets, pi)).collect()
}

/// `P[Φ U≤t Ψ]` with the default engine and a fresh context.
fn until(c: &Ctmc, phi: &StateFormula, psi: &StateFormula, t: f64) -> f64 {
    let opts = TransientOptions::default();
    until_bounded_ctx(c, phi, psi, t, &opts, &MeasureContext::new())
}

/// `P[◇≤t Φ]` = `P[true U≤t Φ]`.
fn eventually(c: &Ctmc, phi: &StateFormula, t: f64) -> f64 {
    until(c, &StateFormula::True, phi, t)
}

/// Both solver paths must agree on the hitting time (including the
/// infinite cases), for every chain in these tests.
fn mttf_both_paths(ctmc: &Ctmc, targets: &[u32]) -> f64 {
    let dense = mean_time_to_absorption_with(ctmc, targets, &SolverOptions::default());
    let iter = mean_time_to_absorption_with(ctmc, targets, &sparse());
    if dense.is_finite() {
        assert!(
            (dense - iter).abs() <= 1e-10 * dense.abs().max(1.0),
            "solver paths disagree: dense {dense} vs sparse {iter}"
        );
    } else {
        assert_eq!(dense, iter, "solver paths disagree on divergence");
    }
    dense
}

#[test]
#[should_panic(expected = "initial state is already a target")]
fn mttf_panics_when_initial_is_target() {
    let c = Ctmc::new(vec![vec![(1.0, 1)], vec![]], vec![1, 0], 0).unwrap();
    let _ = mean_time_to_absorption_with(&c, &[0], &SolverOptions::default());
}

#[test]
fn first_passage_is_one_when_initial_is_target() {
    // The initial state is itself a target: the first passage happened at
    // t = 0, and making it absorbing keeps all mass there.
    let c = Ctmc::new(vec![vec![(2.0, 1)], vec![(1.0, 0)]], vec![1, 0], 0).unwrap();
    // t = 0 is exact; positive horizons only accumulate the rounding of
    // the truncated Poisson weight sum (≈1 ulp).
    for adaptive in [true, false] {
        assert_eq!(first_passage(&c, &[0], &[0.0], adaptive), vec![1.0]);
        for t in [0.5, 10.0] {
            let p = first_passage(&c, &[0], &[t], adaptive)[0];
            assert!((p - 1.0).abs() < 1e-12, "t={t} adaptive={adaptive}: {p}");
        }
        let grid = first_passage(&c, &[0], &[3.0, 0.0, 1.0], adaptive);
        for (i, p) in grid.into_iter().enumerate() {
            assert!(
                (p - 1.0).abs() < 1e-12,
                "grid point {i} adaptive={adaptive}: {p}"
            );
        }
    }
}

#[test]
fn initial_already_absorbing_never_reaches_targets() {
    // Zero-exit initial state, target elsewhere: the walk never moves.
    let c = Ctmc::new(vec![vec![], vec![(1.0, 2)], vec![]], vec![0, 0, 1], 0).unwrap();
    assert_eq!(mttf_both_paths(&c, &[2]), f64::INFINITY);
    for adaptive in [true, false] {
        let p = first_passage(&c, &[2], &[0.0, 5.0], adaptive);
        assert_eq!(p, vec![0.0, 0.0], "adaptive={adaptive}");
    }
}

#[test]
fn unreachable_target_set() {
    // 0 ↔ 1 recurrent, target 2 unreachable.
    let c = Ctmc::new(
        vec![vec![(1.0, 1)], vec![(2.0, 0)], vec![(1.0, 0)]],
        vec![0, 0, 1],
        0,
    )
    .unwrap();
    assert_eq!(mttf_both_paths(&c, &[2]), f64::INFINITY);
    for adaptive in [true, false] {
        assert_eq!(first_passage(&c, &[2], &[100.0], adaptive), vec![0.0]);
        assert_eq!(
            first_passage(&c, &[2], &[1.0, 10.0], adaptive),
            vec![0.0, 0.0]
        );
    }
}

#[test]
fn empty_target_set_is_never_reached() {
    let c = Ctmc::new(vec![vec![(1.0, 1)], vec![(1.0, 0)]], vec![0, 0], 0).unwrap();
    assert_eq!(mttf_both_paths(&c, &[]), f64::INFINITY);
    for adaptive in [true, false] {
        assert_eq!(first_passage(&c, &[], &[10.0], adaptive), vec![0.0]);
    }
}

#[test]
fn zero_exit_transient_state_diverges_hitting_time() {
    // 0 → {1 (dead end), 2 (target)}: with probability 1/2 the walk parks
    // in 1 forever, so E[T] = ∞ even though the target is reachable.
    let c = Ctmc::new(
        vec![vec![(1.0, 1), (1.0, 2)], vec![], vec![]],
        vec![0, 0, 1],
        0,
    )
    .unwrap();
    assert_eq!(mttf_both_paths(&c, &[2]), f64::INFINITY);
    // ... but the first-passage *probability* is still well-defined and
    // converges to the absorption probability 1/2.
    for adaptive in [true, false] {
        let p = first_passage(&c, &[2], &[1e3], adaptive)[0];
        assert!((p - 0.5).abs() < 1e-9, "absorption probability {p}");
    }
}

#[test]
fn dead_end_behind_the_target_does_not_diverge() {
    // 0 → 1 (target) → 2 (dead end): the walk is *stopped* at the target,
    // so the dead end behind it must not trigger the divergence check.
    let c = Ctmc::new(
        vec![vec![(0.5, 1)], vec![(1.0, 2)], vec![]],
        vec![0, 1, 0],
        0,
    )
    .unwrap();
    let mttf = mttf_both_paths(&c, &[1]);
    assert!((mttf - 2.0).abs() < 1e-10, "mttf {mttf}");
}

// ---- CSL layer ----------------------------------------------------------

#[test]
fn until_is_immediate_when_initial_satisfies_psi() {
    let c = Ctmc::new(vec![vec![(1.0, 1)], vec![(1.0, 0)]], vec![1, 0], 0).unwrap();
    for t in [0.0, 1.0, 50.0] {
        let p = until(&c, &StateFormula::True, &StateFormula::down(), t);
        assert_eq!(p, 1.0, "t={t}");
    }
}

#[test]
fn until_is_zero_when_initial_violates_phi_and_psi() {
    // Initial state violates Φ (it is "degraded", bit 1) and is not Ψ:
    // the path constraint is broken at time 0.
    let c = Ctmc::new(vec![vec![(1.0, 1)], vec![]], vec![0b10, 0b1], 0).unwrap();
    let phi = StateFormula::Label(0b10).not();
    let p = until(&c, &phi, &StateFormula::down(), 10.0);
    assert!(p < 1e-12, "blocked at t=0, got {p}");
}

#[test]
fn eventually_unreachable_targets_is_zero() {
    let c = Ctmc::new(
        vec![vec![(1.0, 1)], vec![(2.0, 0)], vec![(1.0, 0)]],
        vec![0, 0, 1],
        0,
    )
    .unwrap();
    for t in [0.0, 7.0] {
        assert_eq!(eventually(&c, &StateFormula::down(), t), 0.0);
    }
}

#[test]
fn zero_exit_chain_always_holds_forever() {
    // No transitions at all: the initial state's labeling decides both
    // operators for every horizon.
    let c = Ctmc::new(vec![vec![], vec![]], vec![0, 1], 0).unwrap();
    assert_eq!(c.max_exit_rate(), 0.0);
    for t in [0.0, 1.0, 1e4] {
        let always_up = 1.0 - eventually(&c, &StateFormula::up().not(), t);
        assert_eq!(always_up, 1.0, "t={t}");
        assert_eq!(eventually(&c, &StateFormula::down(), t), 0.0);
    }
}

#[test]
fn steady_state_probability_of_unmatched_formula_is_zero() {
    let c = Ctmc::new(vec![vec![(1.0, 1)], vec![(1.0, 0)]], vec![0, 0], 0).unwrap();
    let pi = steady_state_with(&c, &SolverOptions::default());
    assert_eq!(state_mass(&StateFormula::down().states(&c), &pi), 0.0);
    assert_eq!(state_mass(&StateFormula::True.states(&c), &pi), 1.0);
}
