//! Property-based tests of the CTMC solvers against closed forms and
//! internal consistency conditions, over deterministically seeded random
//! chains (the workspace is dependency-free, so a small internal generator
//! plays the role of proptest).

use smallrand::SmallRng;

use ctmc::absorbing::mean_time_to_absorption_with;
use ctmc::measures::state_mass;
use ctmc::steady::steady_state_with;
use ctmc::transient::transient_many_from_ctx;
use ctmc::{Ctmc, MeasureContext, SolverOptions, TransientOptions};

fn steady_state(c: &Ctmc) -> Vec<f64> {
    steady_state_with(c, &SolverOptions::default())
}

/// Distributions over the grid `ts` from `pi0`, with default options and
/// a fresh context.
fn solve_from(c: &Ctmc, pi0: &[f64], ts: &[f64]) -> Vec<Vec<f64>> {
    let opts = TransientOptions::default();
    transient_many_from_ctx(c, pi0, ts, &opts, &MeasureContext::new())
}

fn solve_at(c: &Ctmc, t: f64) -> Vec<f64> {
    solve_from(c, &c.initial_distribution(), &[t]).remove(0)
}

/// First-passage probabilities into `targets` over the grid `ts`.
fn first_passage(c: &Ctmc, targets: &[u32], ts: &[f64]) -> Vec<f64> {
    let a = c.make_absorbing(targets.iter().copied());
    let pis = solve_from(&a, &a.initial_distribution(), ts);
    pis.iter().map(|pi| state_mass(targets, pi)).collect()
}

/// Random birth-death chain with positive rates.
fn arb_birth_death(rng: &mut SmallRng) -> (Ctmc, Vec<f64>, Vec<f64>) {
    let n = rng.range_usize(2, 8);
    let births: Vec<f64> = (0..n - 1)
        .map(|_| f64::from(rng.range_u32(1, 50)) * 0.1)
        .collect();
    let deaths: Vec<f64> = (0..n - 1)
        .map(|_| f64::from(rng.range_u32(1, 50)) * 0.1)
        .collect();
    let rows: Vec<Vec<(f64, u32)>> = (0..n)
        .map(|i| {
            let mut row = Vec::new();
            if i + 1 < n {
                row.push((births[i], (i + 1) as u32));
            }
            if i > 0 {
                row.push((deaths[i - 1], (i - 1) as u32));
            }
            row
        })
        .collect();
    let labels = (0..n).map(|i| u64::from(i == n - 1)).collect();
    (
        Ctmc::new(rows, labels, 0).expect("valid chain"),
        births,
        deaths,
    )
}

const CASES: u64 = 64;

/// Steady state of a birth-death chain matches the product formula
/// π_i ∝ Π b_j/d_j (detailed balance).
#[test]
fn birth_death_steady_state() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (chain, births, deaths) = arb_birth_death(&mut rng);
        let pi = steady_state(&chain);
        let n = chain.num_states();
        let mut expected = vec![1.0f64; n];
        for i in 1..n {
            expected[i] = expected[i - 1] * births[i - 1] / deaths[i - 1];
        }
        let total: f64 = expected.iter().sum();
        for e in &mut expected {
            *e /= total;
        }
        for (i, (&got, &want)) in pi.iter().zip(&expected).enumerate() {
            assert!(
                (got - want).abs() < 1e-9,
                "seed {seed} state {i}: {got} vs {want}"
            );
        }
    }
}

/// Transient distributions stay normalized and converge to the steady
/// state.
#[test]
fn transient_consistency() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(1000 + seed);
        let (chain, _, _) = arb_birth_death(&mut rng);
        let t = rng.range_f64(0.1, 20.0);
        let pi_t = solve_at(&chain, t);
        let sum: f64 = pi_t.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "mass {sum} at t={t}");
        assert!(pi_t.iter().all(|&p| (-1e-12..=1.0 + 1e-12).contains(&p)));
        let pi_inf = solve_at(&chain, 1e5);
        let steady = steady_state(&chain);
        for (a, b) in pi_inf.iter().zip(&steady) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}

/// The Chapman-Kolmogorov property: stepping to `t1` and then `t2-t1`
/// equals stepping to `t2` directly.
#[test]
fn chapman_kolmogorov() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(2000 + seed);
        let (chain, _, _) = arb_birth_death(&mut rng);
        let t1 = rng.range_f64(0.1, 5.0);
        let dt = rng.range_f64(0.1, 5.0);
        let via = {
            let mid = solve_at(&chain, t1);
            solve_from(&chain, &mid, &[dt]).remove(0)
        };
        let direct = solve_at(&chain, t1 + dt);
        for (a, b) in via.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-9, "seed {seed}: {a} vs {b}");
        }
    }
}

/// First-passage probability is monotone in t and bounded by 1, and
/// the mean time to absorption is consistent with it (median-ish
/// sanity: P(T <= mttf) is sizeable).
#[test]
fn first_passage_monotone() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(3000 + seed);
        let (chain, _, _) = arb_birth_death(&mut rng);
        let t = rng.range_f64(0.5, 10.0);
        let target = [(chain.num_states() - 1) as u32];
        let p1 = first_passage(&chain, &target, &[t])[0];
        let p2 = first_passage(&chain, &target, &[2.0 * t])[0];
        assert!((0.0..=1.0).contains(&p1));
        assert!(p2 + 1e-12 >= p1);
        let mttf = mean_time_to_absorption_with(&chain, &target, &SolverOptions::default());
        assert!(mttf > 0.0);
        let p_at_mttf = first_passage(&chain, &target, &[mttf])[0];
        assert!(p_at_mttf > 0.2, "P(T <= E[T]) = {p_at_mttf}");
    }
}

/// Unavailability measures agree between the steady-state and
/// long-horizon transient paths.
#[test]
fn measures_consistent() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(4000 + seed);
        let (chain, _, _) = arb_birth_death(&mut rng);
        let down: Vec<u32> = chain.states_with_label(1).collect();
        let u1 = state_mass(&down, &steady_state(&chain));
        let u2 = state_mass(&down, &solve_at(&chain, 1e5));
        assert!((u1 - u2).abs() < 1e-6, "{u1} vs {u2}");
    }
}

/// A batched grid solve agrees with one-point solves to 1e-12 on random
/// chains and random (unsorted, duplicate-carrying) time grids.
#[test]
fn transient_many_matches_scalar() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(5000 + seed);
        let (chain, _, _) = arb_birth_death(&mut rng);
        let m = rng.range_usize(1, 9);
        let mut ts: Vec<f64> = (0..m).map(|_| rng.range_f64(0.0, 25.0)).collect();
        if m >= 2 {
            ts[1] = ts[0]; // exercise duplicate grid points
        }
        let batched = solve_from(&chain, &chain.initial_distribution(), &ts);
        for (t, pi) in ts.iter().zip(&batched) {
            let scalar = solve_at(&chain, *t);
            for (a, b) in pi.iter().zip(&scalar) {
                assert!(
                    (a - b).abs() < 1e-12,
                    "seed {seed} t={t}: batched {a} vs scalar {b}"
                );
            }
        }
    }
}

/// A batched first-passage grid agrees with one-point first-passage
/// solves to 1e-12.
#[test]
fn first_passage_many_matches_scalar() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(6000 + seed);
        let (chain, _, _) = arb_birth_death(&mut rng);
        let target = [(chain.num_states() - 1) as u32];
        let m = rng.range_usize(1, 9);
        let ts: Vec<f64> = (0..m).map(|_| rng.range_f64(0.0, 25.0)).collect();
        let batched = first_passage(&chain, &target, &ts);
        for (t, p) in ts.iter().zip(&batched) {
            let scalar = first_passage(&chain, &target, &[*t])[0];
            assert!(
                (p - scalar).abs() < 1e-12,
                "seed {seed} t={t}: batched {p} vs scalar {scalar}"
            );
        }
    }
}
