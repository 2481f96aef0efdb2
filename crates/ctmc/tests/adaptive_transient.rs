//! Property tests of the adaptive windowed uniformization engine against
//! the exact global-Λ full-sweep engine, over deterministically seeded
//! random chains (the workspace is dependency-free, so a small internal
//! generator plays the role of proptest), plus the structural edge cases
//! the windowing machinery has to survive: support collapse onto
//! absorbing states, zero-rate segments, `t = 0` and duplicate grid
//! points.

use smallrand::SmallRng;

use ctmc::transient::transient_many_from_ctx;
use ctmc::{Ctmc, MeasureContext, TransientOptions};

fn solve_from(c: &Ctmc, pi0: &[f64], ts: &[f64], opts: &TransientOptions) -> Vec<Vec<f64>> {
    transient_many_from_ctx(c, pi0, ts, opts, &MeasureContext::new())
}

fn solve(c: &Ctmc, ts: &[f64], opts: &TransientOptions) -> Vec<Vec<f64>> {
    solve_from(c, &c.initial_distribution(), ts, opts)
}

/// Random sparse chain with rates spanning several orders of magnitude —
/// the regime where the per-segment Λ and the ε-support window actually
/// differ from the global scheme. Some states are made absorbing so the
/// support-collapse machinery runs too.
fn arb_chain(rng: &mut SmallRng) -> Ctmc {
    let n = rng.range_usize(2, 40);
    let rows: Vec<Vec<(f64, u32)>> = (0..n)
        .map(|i| {
            if rng.range_u32(0, 10) == 0 {
                return Vec::new(); // absorbing state
            }
            let degree = rng.range_usize(1, 4.min(n));
            (0..degree)
                .map(|_| {
                    // Rates from 1e-6 to ~1e2: stiff by construction
                    // (the horizon is bounded so the exact engine's step
                    // count stays where 1e-12 agreement is meaningful —
                    // roundoff grows with Λ·t).
                    let mag = rng.range_u32(0, 8) as i32 - 6;
                    let rate = f64::from(rng.range_u32(1, 10)) * 10f64.powi(mag);
                    let target = rng.range_usize(0, n) as u32;
                    (rate, target)
                })
                .filter(|&(_, t)| t != i as u32)
                .collect()
        })
        .collect();
    let labels = vec![0u64; n];
    Ctmc::new(rows, labels, 0).expect("valid chain")
}

fn sup_diff(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
    a.iter()
        .zip(b)
        .flat_map(|(x, y)| x.iter().zip(y))
        .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()))
}

const CASES: u64 = 48;

/// The adaptive windowed engine agrees with the exact global-Λ engine to
/// ≤ 1e-12 sup-norm on random stiff chains and random grids (detection
/// disabled on both sides so the comparison isolates the windowing and
/// Λ-adaptation machinery).
#[test]
fn adaptive_matches_exact_engine_on_random_chains() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let chain = arb_chain(&mut rng);
        let points = rng.range_usize(1, 7);
        let ts: Vec<f64> = (0..points)
            .map(|_| f64::from(rng.range_u32(0, 160)) * 0.25)
            .collect();
        let adaptive = solve(
            &chain,
            &ts,
            &TransientOptions::default().with_steady_tol(0.0),
        );
        let exact = solve(
            &chain,
            &ts,
            &TransientOptions::default()
                .with_steady_tol(0.0)
                .with_adaptive(false),
        );
        let diff = sup_diff(&adaptive, &exact);
        assert!(
            diff < 1e-12,
            "seed {seed}: engines disagree by {diff:e} on ts {ts:?}"
        );
        // Truncation keeps the distributions sub-stochastic at worst by
        // the documented budget; they must still be essentially
        // normalized.
        for pi in &adaptive {
            let mass: f64 = pi.iter().sum();
            assert!((mass - 1.0).abs() < 1e-9, "seed {seed}: mass {mass}");
        }
    }
}

/// Lossless windowing (`support_tol = 0`) also matches, and steady-state
/// detection on both engines stays within its own tolerance.
#[test]
fn lossless_windowing_and_detection_match() {
    for seed in 0..CASES / 2 {
        let mut rng = SmallRng::seed_from_u64(1000 + seed);
        let chain = arb_chain(&mut rng);
        let ts = [0.5, 2.5, 12.0];
        let lossless = solve(
            &chain,
            &ts,
            &TransientOptions::default()
                .with_steady_tol(0.0)
                .with_support_tol(0.0),
        );
        let exact = solve(
            &chain,
            &ts,
            &TransientOptions::default()
                .with_steady_tol(0.0)
                .with_adaptive(false),
        );
        let diff = sup_diff(&lossless, &exact);
        assert!(diff < 1e-12, "seed {seed}: lossless diff {diff:e}");
        let detected = solve(&chain, &ts, &TransientOptions::default());
        let diff = sup_diff(&detected, &exact);
        assert!(diff < 1e-10, "seed {seed}: detected diff {diff:e}");
    }
}

/// Support collapse onto absorbing states: once all mass sits on
/// absorbing states, segments become zero-rate no-ops — the distribution
/// is exactly invariant and later grid points answer without stepping.
#[test]
fn support_collapse_onto_absorbing_states() {
    // 0 -> 1 -> 2(absorbing), fast rates: by t = 200 everything is
    // absorbed up to double precision.
    let c = Ctmc::new(
        vec![vec![(2.0, 1)], vec![(3.0, 2)], vec![]],
        vec![0, 0, 1],
        0,
    )
    .unwrap();
    let grid = [200.0, 500.0, 1000.0, 1e6];
    let pis = solve(&c, &grid, &TransientOptions::default());
    for (i, pi) in pis.iter().enumerate() {
        assert!(
            (pi[2] - 1.0).abs() < 1e-12,
            "t={}: absorbed mass {}",
            grid[i],
            pi[2]
        );
        let mass: f64 = pi.iter().sum();
        assert!((mass - 1.0).abs() < 1e-12);
    }
    // The same grid with the exact engine agrees bit-for-bit-closely.
    let exact = solve(&c, &grid, &TransientOptions::default().with_adaptive(false));
    assert!(sup_diff(&pis, &exact) < 1e-12);
}

/// A zero-rate segment from the start: `pi0` entirely on an absorbing
/// state must pass through every grid point untouched, bitwise.
#[test]
fn zero_rate_segments_keep_pi0() {
    let c = Ctmc::new(
        vec![vec![(1.0, 1)], vec![], vec![(0.5, 1)]],
        vec![0, 1, 0],
        0,
    )
    .unwrap();
    let pi0 = [0.0, 1.0, 0.0];
    let pis = solve_from(&c, &pi0, &[0.0, 3.0, 100.0], &TransientOptions::default());
    for pi in &pis {
        assert_eq!(pi, &pi0.to_vec(), "absorbing pi0 must be invariant");
    }
}

/// `t = 0` and duplicate grid points through the adaptive engine: zeros
/// reproduce `pi0` exactly (the permutation round-trip is a pure copy)
/// and duplicates answer identically from the shared sweep.
#[test]
fn zero_and_duplicate_grid_points() {
    let c = Ctmc::new(
        vec![vec![(0.4, 1), (2e-4, 2)], vec![(3.0, 0)], vec![(1.0, 0)]],
        vec![0, 1, 1],
        0,
    )
    .unwrap();
    let pi0 = [0.25, 0.25, 0.5];
    let ts = [7.0, 0.0, 7.0, 2.0, 0.0, 2.0];
    let pis = solve_from(&c, &pi0, &ts, &TransientOptions::default());
    assert_eq!(pis[1], pi0.to_vec(), "t = 0 must reproduce pi0 exactly");
    assert_eq!(pis[4], pi0.to_vec());
    assert_eq!(pis[0], pis[2], "duplicate grid points must agree");
    assert_eq!(pis[3], pis[5]);
    for (&t, pi) in ts.iter().zip(&pis) {
        let exact = solve_from(
            &c,
            &pi0,
            &[t],
            &TransientOptions::default().with_adaptive(false),
        );
        for (a, b) in pi.iter().zip(&exact[0]) {
            assert!((a - b).abs() < 1e-12, "t={t}: {a} vs {b}");
        }
    }
}

/// An initial distribution spread over multiple states (multi-root BFS)
/// with unreachable states present: the window machinery must keep the
/// unreachable rows at exactly zero and the reachable dynamics exact.
#[test]
fn multi_root_support_with_unreachable_states() {
    // 4 is unreachable from {0, 1, 2}; 3 is a sink.
    let c = Ctmc::new(
        vec![
            vec![(1.0, 2)],
            vec![(0.5, 2)],
            vec![(2.0, 3)],
            vec![],
            vec![(1.0, 0)],
        ],
        vec![0, 0, 0, 1, 0],
        0,
    )
    .unwrap();
    let pi0 = [0.4, 0.6, 0.0, 0.0, 0.0];
    let ts = [1.0, 10.0, 100.0];
    let adaptive = solve_from(&c, &pi0, &ts, &TransientOptions::default());
    let exact = solve_from(
        &c,
        &pi0,
        &ts,
        &TransientOptions::default().with_adaptive(false),
    );
    assert!(sup_diff(&adaptive, &exact) < 1e-12);
    for pi in &adaptive {
        assert_eq!(pi[4], 0.0, "unreachable state must hold exactly zero");
    }
}
