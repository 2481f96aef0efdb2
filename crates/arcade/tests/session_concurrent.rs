//! Concurrent use of one shared [`Session`]: N threads hammering the
//! same `Arc<Session>` must get answers bitwise identical to a serial
//! evaluation, build every expensive artifact exactly once between them,
//! and report consistent [`SessionStats`] afterwards.
//!
//! [`SessionStats`]: arcade::query::SessionStats

use std::sync::Arc;

use arcade::cases;
use arcade::query::{Measure, Session};

const MEASURES: &[Measure] = &[
    Measure::SteadyStateAvailability,
    Measure::SteadyStateUnavailability,
    Measure::Mttf,
    Measure::PointUnavailability(10.0),
    Measure::PointUnavailability(100.0),
    Measure::Reliability(100.0),
    Measure::Reliability(1000.0),
    Measure::UnreliabilityWithRepair(100.0),
];

#[test]
fn hammered_session_matches_serial_and_builds_once() {
    // Serial reference on its own session.
    let def = cases::dds_scaled(2);
    let serial_session = Session::new(&def).expect("serial session");
    let serial = serial_session.evaluate(MEASURES).expect("serial evaluate");

    // One shared session, 8 threads x 2 rounds each, every thread asking
    // for the full batch (both model configurations) at once.
    let shared = Arc::new(Session::new(&def).expect("shared session"));
    let results: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let shared = Arc::clone(&shared);
                s.spawn(move || {
                    let mut last = Vec::new();
                    for _ in 0..2 {
                        last = shared.evaluate(MEASURES).expect("concurrent evaluate");
                    }
                    last
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("thread"))
            .collect()
    });

    for (i, values) in results.iter().enumerate() {
        assert_eq!(values.len(), serial.len());
        for (j, (a, b)) in serial.iter().zip(values).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "thread {i}, measure {j}: concurrent {b:e} != serial {a:e}"
            );
        }
    }

    // The batch needs both configurations (availability + no-repair), and
    // 16 racing evaluations must have built each exactly once.
    let stats = shared.stats();
    assert_eq!(stats.aggregations_built, 2, "{stats:?}");
    assert_eq!(stats.steady_solves, 1, "{stats:?}");
    // 16 racing evaluations built exactly what one serial evaluation did.
    let serial_stats = serial_session.stats();
    assert_eq!(stats.aggregations_built, serial_stats.aggregations_built);
    assert_eq!(stats.absorbing_built, serial_stats.absorbing_built);
    assert_eq!(stats.steady_solves, serial_stats.steady_solves);
}

#[test]
fn concurrent_sessions_do_not_cross_contaminate_stats() {
    // Session A runs transient-heavy work (uniformization sweeps, DTMC
    // steps, Poisson lookups); session B concurrently computes only
    // direct linear-algebra measures. With per-session counters B must
    // see *none* of A's solver work — the regression this guards was
    // since-construction deltas of process-wide atomics, which under
    // `arcaded` attributed one model's work to every other session.
    let def_a = cases::dds_scaled(2);
    let def_b = cases::dds();
    let a = Session::new(&def_a).expect("session a");
    let b = Session::new(&def_b).expect("session b");
    std::thread::scope(|s| {
        s.spawn(|| {
            let grid: Vec<Measure> = (1..=20)
                .map(|k| Measure::PointUnavailability(k as f64 * 25.0))
                .collect();
            for _ in 0..3 {
                a.evaluate(&grid).expect("transient batch on a");
            }
        });
        s.spawn(|| {
            for _ in 0..3 {
                b.evaluate(&[Measure::SteadyStateUnavailability, Measure::Mttf])
                    .expect("direct measures on b");
            }
        });
    });

    let (sa, sb) = (a.stats(), b.stats());
    assert!(sa.dtmc_steps > 0, "a ran uniformization: {sa:?}");
    assert!(sa.sweeps > 0, "{sa:?}");
    assert!(sa.poisson_hits + sa.poisson_misses > 0, "{sa:?}");
    // B never uniformized, so every transient-side counter must be
    // exactly zero — none of A's concurrent work leaks in.
    assert_eq!(sb.dtmc_steps, 0, "b charged with a's steps: {sb:?}");
    assert_eq!(sb.sweeps, 0, "b charged with a's sweeps: {sb:?}");
    assert_eq!(
        (sb.poisson_hits, sb.poisson_misses, sb.poisson_evictions),
        (0, 0, 0),
        "b charged with a's Poisson traffic: {sb:?}"
    );
}

#[test]
fn traced_evaluation_attributes_builder_and_waiters() {
    let def = cases::dds();
    let session = Arc::new(Session::new(&def).expect("session"));
    let measures = [Measure::SteadyStateUnavailability];

    // Cold, 4 threads racing the same configuration: exactly one build
    // across all traces; the rest either waited on it or (if they started
    // after it finished) saw a warm cache.
    let traces: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let session = Arc::clone(&session);
                let measures = &measures;
                s.spawn(move || {
                    let trace = session.prefetch_measures(measures).expect("prefetch");
                    session.evaluate(measures).expect("evaluate");
                    trace
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("thread"))
            .collect()
    });
    let built: u32 = traces.iter().map(|t| t.built).sum();
    assert_eq!(
        built, 1,
        "exactly one thread runs the aggregation: {traces:?}"
    );
    assert_eq!(session.stats().aggregations_built, 1);

    // Warm: no builds, no waits.
    let trace = session.prefetch_measures(&measures).expect("warm");
    session.evaluate(&measures).expect("warm evaluate");
    assert_eq!(
        (trace.built, trace.waited),
        (0, 0),
        "warm query must not build"
    );
}
