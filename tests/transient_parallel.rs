//! Parallel-vs-serial transient equality on the paper case studies.
//!
//! The sharded uniformization step computes every row with the serial
//! path's per-row code, so for any thread count and shard granularity the
//! grids must be **bitwise identical** — on the aggregated DDS and RCS
//! CTMCs, on their absorbing-down transforms, and with steady-state
//! detection both on and off.

use arcade::build::observer::DOWN_BIT;
use arcade::cases::dds;
use arcade::prelude::*;
use ctmc::transient::transient_many_from_ctx;
use ctmc::{Ctmc, MeasureContext, TransientOptions};

fn solve(ctmc: &Ctmc, grid: &[f64], opts: &TransientOptions) -> Vec<Vec<f64>> {
    let ctx = MeasureContext::new();
    transient_many_from_ctx(ctmc, &ctmc.initial_distribution(), grid, opts, &ctx)
}

/// The aggregated DDS availability CTMC, built once for the whole binary
/// (aggregation dominates the debug-profile runtime).
fn dds_ctmc() -> &'static Ctmc {
    static DDS: std::sync::OnceLock<Ctmc> = std::sync::OnceLock::new();
    DDS.get_or_init(|| {
        Session::new(&dds())
            .expect("case study is valid")
            .availability_model()
            .expect("aggregation succeeds")
            .ctmc
            .clone()
    })
}

fn assert_sharded_matches_serial(name: &str, ctmc: &Ctmc, grid: &[f64]) {
    for steady_tol in [1e-13, 0.0] {
        let serial = solve(
            ctmc,
            grid,
            &TransientOptions::default().with_steady_tol(steady_tol),
        );
        for threads in [2usize, 4] {
            for shard_min in [1usize, 64, 1024] {
                let opts = TransientOptions::default()
                    .with_steady_tol(steady_tol)
                    .with_threads(threads)
                    .with_shard_min(shard_min);
                let sharded = solve(ctmc, grid, &opts);
                assert_eq!(
                    sharded, serial,
                    "{name}: threads={threads} shard_min={shard_min} \
                     steady_tol={steady_tol}: grid not bitwise identical"
                );
            }
        }
    }
}

/// The 2,100-state DDS chain: unavailability grid and first-passage grid
/// (absorbing-down transform) across thread counts and shard sizes.
#[test]
fn dds_sharded_grids_match_serial() {
    let ctmc = dds_ctmc();
    assert!(ctmc.num_states() > 2000, "unexpected DDS size");
    let grid: Vec<f64> = (1..=8).map(|k| f64::from(k) * 150.0).collect();
    assert_sharded_matches_serial("dds", ctmc, &grid);

    let down: Vec<u32> = ctmc.states_with_label(DOWN_BIT).collect();
    let absorbing = ctmc.make_absorbing(down);
    assert_sharded_matches_serial("dds-absorbing", &absorbing, &grid);
}

/// A grid with a `t = 0` point and duplicates stays bitwise identical
/// under sharding too (the sweep must not step before the zero point).
///
/// The RCS side of this property lives in `exp_scaling`: the CI smoke run
/// (`--smoke --threads 2`) asserts the 83,808-state `rcs_scaled(2)` grid
/// is bitwise identical at every transient thread count — aggregating
/// that family is too slow for the test suite's debug profile.
#[test]
fn dds_grid_with_zero_and_duplicates_matches_serial() {
    let ctmc = dds_ctmc();
    let grid = [500.0, 0.0, 100.0, 100.0, 2000.0];
    assert_sharded_matches_serial("dds-zero-dup", ctmc, &grid);
}
