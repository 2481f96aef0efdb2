//! Tests that read the DTMC step/sweep counters of a [`MeasureContext`].
//!
//! The counters live in the context a solve is given, so every test owns
//! its counters outright and the tests run in parallel without locks.

use ctmc::transient::transient_many_from_ctx;
use ctmc::{Ctmc, MeasureContext, TransientOptions};

fn two_state() -> Ctmc {
    let (l, m) = (0.2, 1.5);
    Ctmc::new(vec![vec![(l, 1)], vec![(m, 0)]], vec![0, 1], 0).unwrap()
}

/// One batched solve of `grid` from the initial state, counted on `ctx`.
fn solve(c: &Ctmc, grid: &[f64], opts: &TransientOptions, ctx: &MeasureContext) -> Vec<Vec<f64>> {
    transient_many_from_ctx(c, &c.initial_distribution(), grid, opts, ctx)
}

/// The batched grid sweep performs far fewer DTMC steps than one scalar
/// solve per point.
#[test]
fn batched_sweep_does_less_work_than_scalar_loop() {
    let c = two_state();
    let grid: Vec<f64> = (1..=50).map(|k| f64::from(k) * 4.0).collect();
    // Disable steady-state detection so the comparison measures batching
    // alone (detection would short-circuit both sides).
    let opts = TransientOptions::default().with_steady_tol(0.0);
    let scalar = MeasureContext::new();
    for &t in &grid {
        let _ = solve(&c, &[t], &opts, &scalar);
    }
    assert_eq!(scalar.counters.sweeps(), 50);
    let batched = MeasureContext::new();
    let _ = solve(&c, &grid, &opts, &batched);
    let (scalar_steps, batched_steps) =
        (scalar.counters.dtmc_steps(), batched.counters.dtmc_steps());
    assert!(
        batched_steps * 5 <= scalar_steps,
        "batched {batched_steps} vs scalar {scalar_steps} DTMC steps"
    );
}

/// Steady-state detection cuts the DTMC steps of a long-horizon grid by
/// at least 2x while every grid value stays within 1e-10.
#[test]
fn steady_detection_cuts_long_horizon_steps() {
    let c = two_state();
    // A grid that keeps stepping far past the chain's mixing time.
    let grid: Vec<f64> = (1..=40).map(|k| f64::from(k) * 25.0).collect();
    let undetected = MeasureContext::new();
    let exact = solve(
        &c,
        &grid,
        &TransientOptions::default().with_steady_tol(0.0),
        &undetected,
    );
    let detecting = MeasureContext::new();
    let detected = solve(&c, &grid, &TransientOptions::default(), &detecting);
    let (undetected_steps, detected_steps) = (
        undetected.counters.dtmc_steps(),
        detecting.counters.dtmc_steps(),
    );
    assert!(
        detected_steps * 2 <= undetected_steps,
        "detection saved too little: {detected_steps} vs {undetected_steps} DTMC steps"
    );
    for (i, &t) in grid.iter().enumerate() {
        for (a, b) in detected[i].iter().zip(&exact[i]) {
            assert!((a - b).abs() < 1e-10, "t={t}: {a} vs {b}");
        }
    }
}

/// A grid living entirely past the mixing time costs one segment of
/// stepping: every later point answers from the converged vector.
#[test]
fn grid_entirely_past_convergence_steps_once() {
    let c = two_state();
    let ctx = MeasureContext::new();
    let pis = solve(
        &c,
        &[500.0, 1000.0, 2000.0, 4000.0],
        &TransientOptions::default(),
        &ctx,
    );
    assert_eq!(
        ctx.counters.sweeps(),
        1,
        "later points must reuse the vector"
    );
    let steady = ctmc::steady::steady_state_with(&c, &Default::default());
    for pi in &pis {
        assert!((pi[0] - steady[0]).abs() < 1e-10);
    }
    assert_eq!(pis[1], pis[2]);
    assert_eq!(pis[2], pis[3]);
}

/// Counter-thread-safety regression: sweeps performed on worker threads
/// (here: explicitly spawned threads sharing one context, as the parallel
/// `Session` prefetch and sweep fan-outs do) must be visible to the
/// reader — none may be lost.
#[test]
fn counters_count_worker_thread_sweeps() {
    let c = two_state();
    let ctx = MeasureContext::new();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let _ = solve(&c, &[25.0], &TransientOptions::default(), &ctx);
            });
        }
    });
    assert_eq!(ctx.counters.sweeps(), 2, "worker-thread sweeps were lost");
    assert!(ctx.counters.dtmc_steps() > 0);
}

/// A sharded step is one matrix-vector product: running the same grid
/// with more worker threads must not change the step count.
#[test]
fn sharded_steps_count_once() {
    let c = two_state();
    let grid = [2.0, 6.0, 11.0];
    let serial_opts = TransientOptions::default().with_steady_tol(0.0);
    let serial_ctx = MeasureContext::new();
    let serial = solve(&c, &grid, &serial_opts, &serial_ctx);
    let sharded_ctx = MeasureContext::new();
    let sharded = solve(
        &c,
        &grid,
        &serial_opts.clone().with_threads(4).with_shard_min(1),
        &sharded_ctx,
    );
    assert_eq!(
        serial_ctx.counters.dtmc_steps(),
        sharded_ctx.counters.dtmc_steps()
    );
    assert_eq!(serial, sharded);
}
