//! Experiments A1 + A2 — ablations of the design choices the paper's
//! approach rests on:
//!
//! * **A1 (reduction strategy)**: branching vs. strong bisimulation on a
//!   2-cluster DDS, plus the no-reduction baseline on a small model (with
//!   no lumping at all, anything larger is intractable — which is itself
//!   the finding).
//! * **A2 (composition order)**: the affinity heuristic vs. declaration
//!   order vs. deliberately reversed order on a two-module model.
//!
//! All configurations must produce the same availability — the ablation
//! varies cost, not correctness.
//!
//! Run: `cargo run --release -p arcade-bench --bin exp_ablation`

use arcade::ast::{BcDef, RepairStrategy, RuDef, SystemDef};
use arcade::build::observer::DOWN_BIT;
use arcade::cases::dds::dds_scaled;
use arcade::dist::Dist;
use arcade::engine::EngineOptions;
use arcade::expr::Expr;
use arcade::order::OrderPolicy;
use arcade_bench::{run_engine, Table};
use bisim::Strategy;
use ctmc::measures::state_mass;
use ctmc::{Ctmc, SolverOptions};

/// Steady-state unavailability: the long-run mass on the down states.
fn unavailability(c: &Ctmc) -> f64 {
    let down: Vec<u32> = c.states_with_label(DOWN_BIT).collect();
    state_mass(
        &down,
        &ctmc::steady::steady_state_with(c, &SolverOptions::default()),
    )
}

/// Two independent 2-component modules with shared FCFS repair — small
/// enough for the no-reduction and reversed-order configurations.
fn two_modules() -> SystemDef {
    let mut def = SystemDef::new("two-modules");
    for n in ["a", "b", "c", "d"] {
        def.add_component(BcDef::new(n, Dist::exp(0.01), Dist::exp(1.0)));
    }
    def.add_repair_unit(RuDef::new("rab", ["a", "b"], RepairStrategy::Fcfs));
    def.add_repair_unit(RuDef::new("rcd", ["c", "d"], RepairStrategy::Fcfs));
    def.set_system_down(Expr::or([
        Expr::and([Expr::down("a"), Expr::down("b")]),
        Expr::and([Expr::down("c"), Expr::down("d")]),
    ]));
    def
}

fn main() {
    println!("A1 — reduction strategy:");
    let dds2 = dds_scaled(2);
    let mut t1 = Table::new(&[
        "model",
        "strategy",
        "largest intermediate",
        "final CTMC",
        "unavailability",
    ]);
    let mut dds_ref = None;
    for strategy in [Strategy::Branching, Strategy::Strong] {
        let agg = run_engine(
            &dds2,
            &EngineOptions {
                strategy,
                ..EngineOptions::new()
            },
        )
        .expect("aggregation");
        let u = unavailability(&agg.ctmc);
        let r = *dds_ref.get_or_insert(u);
        assert!((u - r).abs() < 1e-10, "{strategy:?} changed the measure");
        t1.row(&[
            "DDS-2cl".into(),
            format!("{strategy:?}"),
            format!(
                "{} st / {} tr",
                agg.largest_intermediate.states,
                agg.largest_intermediate.transitions()
            ),
            format!("{} st", agg.ctmc_stats.states),
            format!("{u:.6e}"),
        ]);
    }
    let small = two_modules();
    let mut small_ref = None;
    for strategy in [Strategy::Branching, Strategy::Strong, Strategy::None] {
        let agg = run_engine(
            &small,
            &EngineOptions {
                strategy,
                ..EngineOptions::new()
            },
        )
        .expect("aggregation");
        let u = unavailability(&agg.ctmc);
        let r = *small_ref.get_or_insert(u);
        assert!((u - r).abs() < 1e-10, "{strategy:?} changed the measure");
        t1.row(&[
            "two-modules".into(),
            format!("{strategy:?}"),
            format!(
                "{} st / {} tr",
                agg.largest_intermediate.states,
                agg.largest_intermediate.transitions()
            ),
            format!("{} st", agg.ctmc_stats.states),
            format!("{u:.6e}"),
        ]);
    }
    println!("{}", t1.render());
    println!("(Strategy::None on the 2-cluster DDS is intractable — without lumping");
    println!(" the intermediate product runs away; the paper's motivation for §4.)");
    println!();

    println!("A2 — composition order (branching reduction, two-module model):");
    let mut t2 = Table::new(&[
        "order",
        "largest intermediate",
        "final CTMC",
        "unavailability",
    ]);
    for (name, order) in [
        ("affinity", OrderPolicy::Affinity),
        ("declaration", OrderPolicy::Declaration),
        ("reverse", OrderPolicy::Reverse),
    ] {
        let agg = run_engine(
            &small,
            &EngineOptions {
                order,
                ..EngineOptions::new()
            },
        )
        .expect("aggregation");
        let u = unavailability(&agg.ctmc);
        let r = small_ref.expect("set above");
        assert!((u - r).abs() < 1e-10, "order {name} changed the measure");
        t2.row(&[
            name.into(),
            format!(
                "{} st / {} tr",
                agg.largest_intermediate.states,
                agg.largest_intermediate.transitions()
            ),
            format!("{} st", agg.ctmc_stats.states),
            format!("{u:.6e}"),
        ]);
    }
    println!("{}", t2.render());
    println!("all configurations agree on the measure; they differ only in peak cost,");
    println!("which is the paper's argument for compositional aggregation (§4).");
}
