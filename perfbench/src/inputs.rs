//! Seeded workload inputs.
//!
//! Everything the program under test receives — time grids, sweep points,
//! the request schedule, generated models — is drawn here from the
//! `--seed` argument, one independent stream per purpose, so the same seed
//! gives the same inputs. Limits and sizes are in [`crate::config`].

use arcade::ast::SystemDef;
use arcade::cases::dds::dds_scaled;
use arcade::cases::rcs::{rcs_scaled, rcs_stiff};
use smallrand::SmallRng;

use crate::config::{ANALYZE_GRID_POINTS, ANALYZE_T_MAX, REFERENCE_TIMES};

/// The three reference models the analyze and serve workloads share, by
/// the name the `arcaded` registry resolves.
pub const MODELS: [&str; 3] = ["dds_scaled(3)", "rcs_stiff(3)", "rcs_scaled(2)"];

pub fn model(name: &str) -> SystemDef {
    match name {
        "dds_scaled(3)" => dds_scaled(3),
        "rcs_stiff(3)" => rcs_stiff(3),
        "rcs_scaled(2)" => rcs_scaled(2),
        other => panic!("unknown benchmark model `{other}`"),
    }
}

/// An independent random stream for one purpose of one seed.
pub fn stream(seed: u64, purpose: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ purpose)
}

/// A random time in `[lo, hi)` on a log scale, rounded to 4 significant
/// digits so it prints and parses back exactly on the wire.
pub fn log_time(rng: &mut SmallRng, lo: f64, hi: f64) -> f64 {
    log_time_digits(rng, lo, hi, 4)
}

/// [`log_time`] rounded to `digits` significant digits.
pub fn log_time_digits(rng: &mut SmallRng, lo: f64, hi: f64, digits: i32) -> f64 {
    let t = (lo.ln() + rng.next_f64() * (hi / lo).ln()).exp();
    let scale = 10f64.powi(digits - 1 - t.log10().floor() as i32);
    (t * scale).round() / scale
}

/// The analyze_cold time grid: the reference times plus one seeded time in
/// each of the equal log-scale bins of `[1, t_max)`, sorted. The grid's
/// shape, and so the solver work per grid, hardly changes with the seed;
/// where the points fall does.
pub fn analyze_grid(seed: u64) -> Vec<f64> {
    let (points, t_max) = (ANALYZE_GRID_POINTS, ANALYZE_T_MAX);
    let mut grid = REFERENCE_TIMES.to_vec();
    if !grid.contains(&t_max) {
        grid.push(t_max);
    }
    let mut rng = stream(seed, 1);
    let bins = points - grid.len();
    for k in 0..bins {
        let edge = |i: usize| t_max.powf(i as f64 / bins as f64);
        loop {
            let t = log_time(&mut rng, edge(k), edge(k + 1));
            if !grid.contains(&t) {
                grid.push(t);
                break;
            }
        }
    }
    grid.sort_by(f64::total_cmp);
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_repeat_per_seed_and_differ_across_seeds() {
        let a = analyze_grid(1);
        assert_eq!(a, analyze_grid(1));
        assert_ne!(a, analyze_grid(2));
        assert_eq!(a.len(), ANALYZE_GRID_POINTS);
        assert_eq!(*a.last().unwrap(), ANALYZE_T_MAX);
        for t in REFERENCE_TIMES {
            assert!(a.contains(&t));
        }
    }

    #[test]
    fn log_times_survive_a_text_round_trip() {
        let mut rng = stream(3, 9);
        for _ in 0..100 {
            let t = log_time(&mut rng, 1.0, 1000.0);
            assert!((1.0..=1000.0).contains(&t));
            assert_eq!(t.to_string().parse::<f64>().unwrap(), t);
        }
    }
}
