//! All four operational-mode groups of §3.1.1 in one model.
//!
//! Run with `cargo run --release --example operational_modes`.
//!
//! A small server room: a power supply, a bus, and a database server.
//!
//! * the **power supply** failing switches the server **off** (on/off
//!   group) — while off, the server cannot fail (rate 0, §3.1.1 item 2),
//! * the **bus** failing makes the server **inaccessible** (non-destructive
//!   functional dependency, §3.1.1 item 3) with `INACCESSIBLE MEANS DOWN:
//!   YES` — the environment counts it as an outage, but no repair is
//!   initiated on the server itself,
//! * the server room's **fan** is a *destructive* dependency of the power
//!   supply (§3.1.2): if the fan dies, the PSU overheats and fails for
//!   real, needing repair.
//!
//! The example prints the outage decomposition and cross-checks the engine
//! against the Monte-Carlo simulator.

use arcade::prelude::*;
use arcade::sim;

fn build() -> SystemDef {
    let mut sys = SystemDef::new("server-room");
    sys.add_component(BcDef::new("fan", Dist::exp(0.002), Dist::exp(0.5)));
    sys.add_component(
        BcDef::new("psu", Dist::exp(0.001), Dist::exp(0.5))
            .with_df(Expr::down("fan"), Dist::exp(0.5)),
    );
    sys.add_component(BcDef::new("bus", Dist::exp(0.003), Dist::exp(1.0)));
    sys.add_component(
        BcDef::new("db", Dist::exp(0.004), Dist::exp(0.25))
            .with_om_group(OmGroup::OnOff(Expr::down("psu")))
            .with_om_group(OmGroup::AccessibleInaccessible(Expr::down("bus")))
            // op states: (on,acc), (on,inacc), (off,acc), (off,inacc) —
            // the db cannot fail while powered off
            .with_ttf([Dist::exp(0.004), Dist::exp(0.004), Dist::Never, Dist::Never])
            .with_inaccessible_means_down(true),
    );
    for c in ["fan", "psu", "bus", "db"] {
        sys.add_repair_unit(RuDef::new(
            format!("{c}.rep"),
            [c],
            RepairStrategy::Dedicated,
        ));
    }
    // The service is down when the db is down — inherently, by
    // inaccessibility, or because its PSU is out (modeled explicitly so
    // the power outage counts as service outage too).
    sys.set_system_down(Expr::or([Expr::down("db"), Expr::down("psu")]));
    sys
}

fn main() -> Result<(), ArcadeError> {
    let sys = build();
    let session = Session::new(&sys)?;

    println!("=== operational-mode groups (§3.1.1) ===");
    println!("final CTMC: {}", session.availability_model()?.ctmc_stats);
    println!();
    let u = session.value(&Measure::SteadyStateUnavailability)?;
    println!("service unavailability: {u:.6e}");
    println!(
        "MTTF:                   {:.1} h",
        session.value(&Measure::Mttf)?
    );
    println!(
        "R(100 h):               {:.6}",
        session.value(&Measure::Reliability(100.0))?
    );

    // Decompose the outage sources by re-analyzing restricted criteria.
    let mut only_db = sys.clone();
    only_db.set_system_down(Expr::down("db"));
    let u_db = Session::new(&only_db)?.value(&Measure::SteadyStateUnavailability)?;
    let mut only_psu = sys.clone();
    only_psu.set_system_down(Expr::down("psu"));
    let u_psu = Session::new(&only_psu)?.value(&Measure::SteadyStateUnavailability)?;
    println!();
    println!("outage decomposition (overlapping):");
    println!("  db down (inherent, inaccessible): {u_db:.6e}");
    println!("  psu down (inherent or fan-DF):    {u_psu:.6e}");

    // Cross-check the full criterion against the simulator.
    let mc = sim::simulate_unavailability(&sys, 50_000.0, 48, 7)?;
    println!();
    println!(
        "Monte-Carlo cross-check: {:.4e} ± {:.1e} (engine {u:.4e})",
        mc.mean, mc.half_width
    );
    assert!(mc.contains(u), "engine outside MC interval");
    println!("engine value inside the MC 95% interval.");
    Ok(())
}
