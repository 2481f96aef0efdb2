//! Using the paper's textual syntax (§3.5) end to end.
//!
//! Run with `cargo run --release --example textual_model`.
//!
//! Parses an Arcade description written exactly in the style of the
//! paper's listings — including `exp(1/2000)` fraction rates, operational
//! mode groups, multiple failure modes, a destructive FDEP and the `2of4`
//! shorthand — then analyzes it.

use arcade::parser::parse_system;
use arcade::prelude::*;

const MODEL: &str = r"
# A small storage array in the paper's textual syntax.

COMPONENT: psu
TIME-TO-FAILURE: exp(1/8000)
TIME-TO-REPAIR: exp(0.5)

COMPONENT: ctrl
TIME-TO-FAILURE: exp(1/4000)
TIME-TO-REPAIR: exp(0.5)
DESTRUCTIVE FDEP: psu.down
TIME-TO-REPAIRS: exp(0.5), exp(0.5)

COMPONENT: d_1
TIME-TO-FAILURE: exp(1/6000)
TIME-TO-REPAIR: exp(1)

COMPONENT: d_2
TIME-TO-FAILURE: exp(1/6000)
TIME-TO-REPAIR: exp(1)

COMPONENT: d_3
TIME-TO-FAILURE: exp(1/6000)
TIME-TO-REPAIR: exp(1)

COMPONENT: d_4
TIME-TO-FAILURE: exp(1/6000)
TIME-TO-REPAIR: exp(1)

REPAIR UNIT: psu.rep
COMPONENTS: psu
REPAIR STRATEGY: DEDICATED

REPAIR UNIT: ctrl.rep
COMPONENTS: ctrl
REPAIR STRATEGY: DEDICATED

REPAIR UNIT: disks.rep
COMPONENTS: d_1, d_2, d_3, d_4
REPAIR STRATEGY: FCFS

SYSTEM DOWN: ctrl.down OR 2of4(d_1.down, d_2.down, d_3.down, d_4.down)
";

fn main() -> Result<(), ArcadeError> {
    let def = parse_system(MODEL)?;
    println!("parsed `{}`:", def.name);
    println!("  components: {}", def.components.len());
    println!("  repair units: {}", def.repair_units.len());
    println!(
        "  SYSTEM DOWN: {}",
        def.system_down.as_ref().expect("criterion parsed")
    );
    println!();

    let session = Session::new(&def)?;
    println!("final CTMC: {}", session.availability_model()?.ctmc_stats);
    println!(
        "steady-state unavailability: {:.6e}",
        session.value(&Measure::SteadyStateUnavailability)?
    );
    println!(
        "R(1000 h) without repair:    {:.6}",
        session.value(&Measure::Reliability(1000.0))?
    );
    println!(
        "MTTF:                        {:.0} h",
        session.value(&Measure::Mttf)?
    );

    // The controller dies with the PSU (destructive FDEP), so the system
    // MTTF must be noticeably below the controller-only MTTF of 4000 h.
    assert!(session.value(&Measure::Mttf)? < 4000.0);
    Ok(())
}
