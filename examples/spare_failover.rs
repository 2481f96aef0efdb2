//! Failover-time extension (paper §3.6, Fig. 9).
//!
//! Run with `cargo run --release --example spare_failover`.
//!
//! The paper demonstrates Arcade's extensibility with an SMU whose
//! activation takes an exponentially distributed detection/failover time
//! instead of being instantaneous. This example sweeps the failover rate
//! and shows how the system unreliability degrades as failover slows — an
//! analysis the instantaneous SMU of Fig. 8 cannot express.

use arcade::prelude::*;

fn build(failover: Option<Dist>) -> SystemDef {
    let mut sys = SystemDef::new("failover-sweep");
    sys.add_component(BcDef::new("pp", Dist::exp(0.01), Dist::exp(1.0)));
    // cold spare: cannot fail while inactive
    sys.add_component(
        BcDef::new("ps", Dist::exp(0.01), Dist::exp(1.0))
            .with_om_group(OmGroup::ActiveInactive)
            .with_ttf([Dist::Never, Dist::exp(0.01)]),
    );
    sys.add_repair_unit(RuDef::new("rep", ["pp", "ps"], RepairStrategy::Fcfs));
    let mut smu = SmuDef::new("smu", "pp", ["ps"]);
    if let Some(f) = failover {
        smu = smu.with_failover(f);
    }
    sys.add_smu(smu);
    // The service is down while neither the primary nor an activated,
    // working spare runs; with a cold spare the interesting criterion is
    // "both processors down".
    sys.set_system_down(Expr::and([Expr::down("pp"), Expr::down("ps")]));
    sys
}

fn main() -> Result<(), ArcadeError> {
    let t = 1000.0;
    println!("=== SMU failover-time extension (Fig. 9) ===");
    println!("cold-spare pair, λ = 0.01/h, µ = 1/h, mission {t} h");
    println!();
    println!(
        "{:<22} {:>14} {:>14}",
        "failover", "unreliability", "MTTF (h)"
    );

    let instant = Session::new(&build(None))?;
    println!(
        "{:<22} {:>14.6e} {:>14.1}",
        "instantaneous (Fig. 8)",
        instant.value(&Measure::UnreliabilityWithRepair(t))?,
        instant.value(&Measure::Mttf)?
    );
    for &delta in &[100.0, 10.0, 1.0, 0.1] {
        let session = Session::new(&build(Some(Dist::exp(delta))))?;
        println!(
            "{:<22} {:>14.6e} {:>14.1}",
            format!("exp({delta}) (Fig. 9)"),
            session.value(&Measure::UnreliabilityWithRepair(t))?,
            session.value(&Measure::Mttf)?
        );
    }
    println!();
    println!("as delta grows the failover becomes instantaneous and the measures");
    println!("converge to the Fig. 8 SMU. Note the cold-spare subtlety: under the");
    println!("\"both processors down\" criterion a *slow* failover shelters the");
    println!("cold spare (it cannot fail while inactive), so unreliability falls —");
    println!("the price is a service gap during the failover window, which this");
    println!("fault-tree criterion deliberately does not count as system failure.");

    // Convergence check: a very fast failover must match the instantaneous
    // SMU closely.
    let fast = Session::new(&build(Some(Dist::exp(1e5))))?;
    let gap = (fast.value(&Measure::UnreliabilityWithRepair(t))?
        - instant.value(&Measure::UnreliabilityWithRepair(t))?)
    .abs();
    assert!(
        gap < 1e-5,
        "fast failover should converge to instantaneous, gap {gap}"
    );
    println!();
    println!("convergence check passed (exp(1e5) ≈ instantaneous).");
    Ok(())
}
