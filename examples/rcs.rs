//! The reactor cooling system case study (paper §5.2).
//!
//! Run with `cargo run --release --example rcs`.
//!
//! Reproduces the §5.2.2 analysis: the system splits into two independent
//! modules — the pump subsystem (two load-sharing pump lines) and the
//! heat-exchanger subsystem (exchanger + bypass) — whose CTMCs are solved
//! separately and combined ("modularization"). Reported: module state
//! space sizes, and system unavailability and unreliability at 50 hours.

use arcade::cases::rcs::rcs;
use arcade::engine::EngineOptions;
use arcade::modular::modular_analysis;
use arcade::ArcadeError;

fn main() -> Result<(), ArcadeError> {
    let def = rcs();
    let t = 50.0;

    println!("=== RCS (paper §5.2) ===");
    let modular = modular_analysis(&def, &EngineOptions::new())?;
    for m in &modular.modules {
        println!(
            "{} ({} components: {}):",
            m.name,
            m.components.len(),
            m.components.join(", ")
        );
        println!("  CTMC: {}", m.availability().ctmc_stats);
        println!(
            "  largest intermediate I/O-IMC: {}",
            m.availability().largest_intermediate
        );
    }
    println!();
    let unavail = modular.point_unavailability(t);
    let unrel = modular.unreliability_with_repair(t);
    println!("system unavailability at {t} h:  {unavail:.5e}");
    println!("system unreliability  at {t} h:  {unrel:.5e}");
    println!();
    println!("paper §5.2.2: unavailability 6.52100e-10, unreliability 5.29242e-9");
    println!("(component inventory partially reconstructed — see DESIGN.md; the");
    println!(" paper's pump subsystem CTMC had 10,404 states, HX subsystem 240)");
    Ok(())
}
