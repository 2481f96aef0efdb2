//! Panic containment against a real in-process server, driven by the
//! [`arcade::chaos`] failpoints: an injected panic anywhere in request
//! handling must answer a typed `internal_panic`, clear the poisoned
//! dedup cell for rebuild, and leave the worker pool at full strength.
//!
//! These tests arm **process-global** failpoints, so they live in their
//! own integration-test binary (a separate process from the chaos-free
//! `serve_protocol` tests) and serialize on [`chaos::test_lock`].

use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

use arcade::chaos::{self, Action};
use arcade::engine::EngineOptions;
use arcade::prelude::*;
use arcade::serve::{serve, Client, Json, ServerConfig};
use ioimc::budget::{self, Budget};

fn test_server(workers: usize) -> (arcade::serve::ServerHandle, String) {
    let config = ServerConfig {
        workers,
        idle_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let handle = serve(config).expect("start test server");
    let addr = handle.local_addr().to_string();
    (handle, addr)
}

fn steady_query(model: &str) -> Json {
    Json::obj([
        ("model", Json::str(model)),
        (
            "measures",
            Json::Arr(vec![Json::str("steady_state_unavailability")]),
        ),
    ])
}

/// Satellite (a), over the wire: a panicking session build must not
/// wedge the model's dedup cell. The panicking request answers a typed
/// `internal_panic`; the *next* request on the same connection rebuilds
/// and succeeds.
#[test]
fn panicked_build_cell_heals_for_the_next_request() {
    let _guard = chaos::test_lock();
    chaos::disarm_all();
    let (handle, addr) = test_server(2);

    chaos::arm("serve.build", Action::Panic, Some(1));
    let mut client = Client::connect(&addr).expect("connect");
    let e = client
        .expect_ok(&steady_query("dds"))
        .expect_err("injected build panic must answer an error");
    assert_eq!(e.code, "internal_panic", "{e}");

    // The cell was cleared, not poisoned: the very next request rebuilds.
    let ok = client
        .expect_ok(&steady_query("dds"))
        .expect("second request rebuilds the session");
    assert_eq!(Client::values(&ok).expect("values").len(), 1);

    chaos::disarm_all();
    handle.shutdown();
    handle.join();
}

/// Satellite (b): N injected panics must not shrink the worker pool.
/// After two solver panics on a 2-worker server, the pool still serves
/// `pool_size` *concurrent* requests plus a ping.
#[test]
fn worker_pool_survives_injected_panics_at_full_strength() {
    let _guard = chaos::test_lock();
    chaos::disarm_all();
    const POOL: usize = 2;
    let (handle, addr) = test_server(POOL);

    chaos::arm("session.solve", Action::Panic, Some(2));
    for i in 0..2 {
        // One client at a time so each holds a worker only briefly.
        let mut client = Client::connect(&addr).expect("connect");
        let e = client
            .expect_ok(&steady_query("dds"))
            .expect_err("injected solve panic must answer an error");
        assert_eq!(e.code, "internal_panic", "panic {i}: {e}");
    }
    chaos::disarm_all();

    // Both workers must still be alive: POOL concurrent clients each get
    // a full answer (a shrunken pool would starve one of them).
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..POOL)
            .map(|_| {
                s.spawn(|| {
                    let mut client = Client::connect(&addr).expect("connect");
                    let ok = client
                        .expect_ok(&steady_query("dds"))
                        .expect("pool serves at full strength after panics");
                    assert_eq!(Client::values(&ok).expect("values").len(), 1);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("concurrent client");
        }
    });
    let mut client = Client::connect(&addr).expect("connect");
    client.ping().expect("daemon alive after the panic storm");

    // Every injected panic was counted.
    let stats = client.stats().expect("stats");
    let caught = stats
        .get("server")
        .and_then(|v| v.get("panics_caught"))
        .and_then(Json::as_f64)
        .expect("panics_caught counter");
    assert!(caught >= 2.0, "expected >= 2 caught panics, saw {caught}");

    handle.shutdown();
    handle.join();
}

/// A delay injected at the sweep's per-point fan-out polls the caller's
/// deadline on the worker threads too, so the sweep aborts promptly
/// instead of sleeping the delay out and answering late.
#[test]
fn sweep_point_delay_honours_the_deadline_on_worker_threads() {
    let _guard = chaos::test_lock();
    chaos::disarm_all();
    let mut def = SystemDef::new("pair");
    def.add_component(BcDef::new("a", Dist::exp(0.01), Dist::exp(1.0)));
    def.add_component(BcDef::new("b", Dist::exp(0.02), Dist::exp(2.0)));
    def.add_repair_unit(RuDef::new("r", ["a", "b"], RepairStrategy::Fcfs));
    def.set_system_down(Expr::and([Expr::down("a"), Expr::down("b")]));
    def.add_param("lambda_a", 0.01);
    let session = Session::new(&def)
        .expect("session")
        .with_options(EngineOptions::new().with_threads(2));
    let measures = [Measure::SteadyStateUnavailability];
    let grid = ParamGrid::cartesian([("lambda_a", vec![0.01, 0.02])]);
    session.prefetch_measures(&measures).expect("warm build");

    chaos::arm("session.sweep_point", Action::Delay(10_000), Some(1));
    let deadline = Arc::new(Budget::unlimited().with_deadline(Duration::from_millis(100)));
    let started = Instant::now();
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        budget::scope(Some(deadline.clone()), || session.sweep(&measures, &grid))
    }));
    let elapsed = started.elapsed();
    chaos::disarm_all();
    assert!(
        result.is_err(),
        "the deadline must abort the sweep, got {result:?}"
    );
    assert!(deadline.tripped().is_some(), "the deadline never tripped");
    assert!(
        elapsed < Duration::from_secs(2),
        "the sweep aborted only after {elapsed:?}"
    );
}
