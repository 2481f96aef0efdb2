//! `sweep_rerate`: `Session::sweep` on `rcs_scaled_parametric(2)` over
//! seeded grids covering all four declared rates, engine threads = nproc.
//!
//! The parametric aggregation is set-up; the timed part re-rates the
//! cached quotient at every point and solves, so re-rating, transposing,
//! BFS ordering and stepping do all of the timed work and aggregation none.

use std::time::Instant;

use arcade::build::observer::DOWN_BIT;
use arcade::cases::rcs::rcs_scaled_parametric;
use arcade::engine::EngineOptions;
use arcade::model::SystemModel;
use arcade::{ArcadeError, Measure, ParamGrid, Session};
use ctmc::measures::state_mass as mass;
use ctmc::transient::transient_many_from_ctx;
use ctmc::MeasureContext;

use crate::config::{self, close, MTTF_LIMIT_S, REFERENCE_TIMES, SETUP_REPS, SWEEP_T_MAX};
use crate::inputs::{log_time, stream};
use crate::report::{median, peak_rss_mb, quantile, Outcome};
use crate::trace::Tracer;
use crate::Args;

const MODEL: &str = "rcs_scaled(2)";

/// One seeded grid: three values per declared rate, one in each of the
/// bands `[0.7, 0.8)`, `[0.95, 1.05)` and `[1.2, 1.3)` times its base, so 81
/// points (narrow bands keep the work per point nearly independent of the
/// seed, and a grid long enough that a short stall of the machine moves its
/// latency little), and point unavailability at one seeded time in each
/// decade below `t_max` plus `t_max` itself.
fn grid(seed: u64, index: u64, session: &Session) -> (ParamGrid, Vec<Measure>) {
    let mut rng = stream(seed, 100 + index);
    let axes: Vec<(String, Vec<f64>)> = session
        .def()
        .params
        .iter()
        .map(|p| {
            let values = [(0.7, 0.8), (0.95, 1.05), (1.2, 1.3)]
                .iter()
                .map(|&(lo, hi)| log_time(&mut rng, lo, hi) * p.base)
                .collect();
            (p.name.clone(), values)
        })
        .collect();
    let t_max = SWEEP_T_MAX;
    let times = vec![
        log_time(&mut rng, t_max / 100.0, t_max / 10.0),
        log_time(&mut rng, t_max / 10.0, t_max),
        t_max,
    ];
    let measures = times
        .into_iter()
        .map(Measure::PointUnavailability)
        .collect();
    (ParamGrid::cartesian(axes), measures)
}

fn engine_options() -> EngineOptions {
    EngineOptions::new().with_threads(crate::nproc())
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let reference = config::reference(MODEL);
    let base_batch: Vec<Measure> = REFERENCE_TIMES
        .iter()
        .map(|&t| Measure::PointUnavailability(t))
        .collect();

    // Set-up, several times: a fresh session and its cold base-point
    // answer (the parametric aggregation). The last session serves the
    // timed sweeps; the first answers the bitwise cross-checks.
    let reps = SETUP_REPS;
    let mut tracer = Tracer::new();
    let (mut setup_secs, mut cold_secs, mut sessions) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..reps {
        let t0 = Instant::now();
        let session = match Session::new(&rcs_scaled_parametric(2)) {
            Ok(s) => s.with_options(engine_options()),
            Err(e) => {
                out.check(false, || format!("parametric model: {e}"));
                return out;
            }
        };
        let t1 = Instant::now();
        let values = tracer.span("setup", rep as u64, |t| {
            t.span("session.evaluate", rep as u64, |_| {
                session.evaluate(&base_batch)
            })
        });
        cold_secs.push(t1.elapsed().as_secs_f64());
        setup_secs.push(t0.elapsed().as_secs_f64());
        out.attempted += 1;
        match values {
            Ok(v) => {
                let ref_pu = reference.point_unavailability;
                for ((t, got), want) in REFERENCE_TIMES.iter().zip(&v).zip(&ref_pu) {
                    out.check(close(*got, *want), || {
                        format!(
                            "base point: unavailability({t}) = {got} but the reference is {want}"
                        )
                    });
                }
            }
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("base point: {e}"));
                return out;
            }
        }
        sessions.push(session);
    }
    let session = sessions.pop().expect("at least one set-up");
    let checker = sessions.first().unwrap_or(&session);
    let before = session.stats();

    // Timed: one sweep per seeded grid until the time is up. In the traced
    // run the first half stays untraced and the second half replays one
    // sampled point per grid through the layer functions.
    let mut lat = Vec::new();
    let mut rates = Vec::new();
    let mut untraced_pt = Vec::new();
    let (mut points_tried, mut points_done) = (0usize, 0usize);
    let mut replay = Replay::default();
    let mut pick = stream(args.seed, 200);
    let started = Instant::now();
    let mut index = 0u64;
    loop {
        let (g, measures) = grid(args.seed, index, &session);
        points_tried += g.len();
        let traced = args.trace && started.elapsed().as_secs_f64() >= args.seconds / 2.0;
        let t0 = Instant::now();
        let result = if traced {
            tracer.span("sweep", 1000 + index, |_| session.sweep(&measures, &g))
        } else {
            session.sweep(&measures, &g)
        };
        let dt = t0.elapsed().as_secs_f64();
        out.attempted += 1;
        match result {
            Ok(r) => {
                let n = r.points.len();
                points_done += n;
                lat.push(dt);
                rates.push(n as f64 / dt);
                if !traced {
                    untraced_pt.push(dt / n as f64 * 1e6);
                }
                let k = pick.below(n as u64) as usize;
                let fresh = checker.evaluate_at(&measures, &r.points[k]);
                let same = fresh.as_ref().is_ok_and(|f| bitwise(f, &r.values[k]));
                out.check(same, || {
                    format!("grid {index} point {k}: sweep row differs from a fresh evaluate_at")
                });
                if traced {
                    let row =
                        replay.point(&mut tracer, 2000 + index, &session, &r.points[k], &measures);
                    out.check(row.as_ref().is_ok_and(|v| bitwise(v, &r.values[k])), || {
                        format!(
                            "grid {index} point {k}: the traced replay differs from the sweep row"
                        )
                    });
                }
            }
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("grid {index}: {e}"));
            }
        }
        index += 1;
        if started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let after = session.stats();
    out.check(after.aggregations_built == 1, || {
        format!(
            "{} aggregations for the whole run; every grid must reuse one",
            after.aggregations_built
        )
    });

    // The MTTF of the sweep's own session, in a forked copy that is
    // killed at the per-operation limit.
    let limit = MTTF_LIMIT_S;
    out.attempted += 1;
    let mttf = crate::fork_limited(limit, || {
        session
            .value(&Measure::Mttf)
            .map_err(|e: ArcadeError| e.to_string())
    });
    let mut rss = peak_rss_mb(None).max(mttf.rss_mb);
    let mttf_ok = match &mttf.result {
        Some(Ok(v)) => {
            let want = reference.mttf;
            out.check(close(*v, want), || format!("MTTF = {v}, reference {want}"));
            true
        }
        Some(Err(e)) => {
            out.failed += 1;
            out.check(false, || format!("MTTF: {e}"));
            false
        }
        None => false,
    };
    if args.trace {
        let (s, e) = (
            tracer.us_at(mttf.started),
            tracer.us_at(mttf.started) + mttf.secs * 1e6,
        );
        let root = tracer.record("mttf", 3000, None, s, e);
        tracer.record("absorbing.mttf", 3000, Some(root), s, e);
    }

    out.set("setup_s", median(&setup_secs));
    out.set("analyze_s", median(&cold_secs));
    out.set("mttf_s", mttf.secs);
    out.set("sweep_points_per_s", median(&rates));
    out.set("serve_p50_ms", quantile(&lat, 0.5) * 1e3);
    out.set("serve_p99_ms", quantile(&lat, 0.99) * 1e3);
    out.set("serve_max_rps", lat.len() as f64 / lat.iter().sum::<f64>());
    // The sweep's operations are the grid points it answers, plus the MTTF.
    out.set(
        "ok_ratio",
        (points_done as f64 + f64::from(u8::from(mttf_ok))) / (points_tried as f64 + 1.0),
    );
    rss = rss.max(peak_rss_mb(None));
    out.set("peak_rss_mb", rss);

    if args.trace {
        let agg = session
            .availability_model()
            .expect("the aggregation is cached");
        let s = &after;
        for (k, v) in [
            ("engine.aggregate_us", s.aggregation_us as f64),
            (
                "engine.unattributed_us",
                s.aggregation_us as f64 - (s.signature_us + s.split_us + s.quotient_us) as f64,
            ),
            ("engine.peak_states", agg.largest_intermediate.states as f64),
            (
                "engine.peak_transitions",
                agg.largest_intermediate.transitions() as f64,
            ),
            ("engine.ctmc_states", agg.ctmc_stats.states as f64),
            (
                "engine.ctmc_transitions",
                agg.ctmc_stats.transitions() as f64,
            ),
            ("engine.steps", agg.steps.len() as f64),
            ("bisim.signature_us", s.signature_us as f64),
            ("bisim.split_us", s.split_us as f64),
            ("bisim.quotient_us", s.quotient_us as f64),
            ("bisim.refine_rounds", s.refine_rounds as f64),
            ("bisim.states_resigned", s.states_resigned as f64),
        ] {
            out.set(k, v);
        }
        let per_point = |a: u64, b: u64| (a - b) as f64 / points_done.max(1) as f64;
        out.set(
            "transient.dtmc_steps",
            per_point(after.dtmc_steps, before.dtmc_steps),
        );
        out.set("transient.sweeps", per_point(after.sweeps, before.sweeps));
        out.set(
            "poisson.hits",
            per_point(after.poisson_hits, before.poisson_hits),
        );
        out.set(
            "poisson.misses",
            per_point(after.poisson_misses, before.poisson_misses),
        );
        out.set("query.sweep_point_us", median(&untraced_pt));
        out.set(
            "query.aggregations_built",
            f64::from(after.aggregations_built),
        );
        replay.report(&mut out);
        // The block automata the parametric model builds from, timed once
        // after the sweeps (set-up work: no sweep builds them again).
        let def = rcs_scaled_parametric(2);
        let model = tracer.span("build.model", 4000, |_| SystemModel::build(&def));
        match model {
            Ok(m) => {
                let states: usize = m.automata().iter().map(|a| a.num_states()).sum();
                out.set("build.block_states", states as f64);
                let summary = tracer.summary();
                out.set("build.model_us", summary["build.model"].1);
            }
            Err(e) => out.check(false, || format!("SystemModel::build: {e}")),
        }
        out.set("absorbing.mttf_us", mttf.secs * 1e6);
        out.set(
            "absorbing.over_limit",
            f64::from(u8::from(mttf.result.is_none())),
        );
        for name in ["sweep", "point", "mttf"] {
            tracer.report_op(&mut out, name);
        }
        tracer.report_overhead(&mut out);
        crate::write_trace(args, &tracer);
    }
    out
}

fn bitwise(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Per-point layer times of the traced replays.
#[derive(Debug, Default)]
struct Replay {
    n: f64,
    rerate_us: f64,
    transpose_us: f64,
    bfs_us: f64,
    solve_us: f64,
}

impl Replay {
    /// Replays one sweep point the way `Session::sweep` solves it, through
    /// `Ctmc::rerate`, `Ctmc::incoming`, `Ctmc::bfs_order` and the batched
    /// transient kernel. The transient kernel transposes and orders the
    /// chain again internally; the two separate calls measure that cost.
    fn point(
        &mut self,
        tr: &mut Tracer,
        op: u64,
        session: &Session,
        point: &[f64],
        measures: &[Measure],
    ) -> Result<Vec<f64>, String> {
        let agg = session.availability_model().map_err(|e| e.to_string())?;
        let times: Vec<f64> = measures
            .iter()
            .map(|m| match m {
                Measure::PointUnavailability(t) => *t,
                other => panic!("the sweep replays point unavailability only, not {other:?}"),
            })
            .collect();
        let ctx = MeasureContext::new();
        let opts = engine_options();
        let (values, spans) = tr.span("point", op, |tr| -> Result<_, String> {
            let s0 = tr.spans().len();
            let chain = tr
                .span("chain.rerate", op, |_| agg.ctmc.rerate(point))
                .map_err(|e| e.to_string())?;
            tr.span("chain.transpose", op, |_| {
                std::hint::black_box(chain.incoming())
            });
            tr.span("chain.bfs", op, |_| {
                std::hint::black_box(chain.bfs_order([chain.initial()]))
            });
            let down: Vec<u32> = chain.states_with_label(DOWN_BIT).collect();
            let values: Vec<f64> = tr.span("transient.solve", op, |_| {
                transient_many_from_ctx(
                    &chain,
                    &chain.initial_distribution(),
                    &times,
                    &opts.solver.transient,
                    &ctx,
                )
                .iter()
                .map(|pi| mass(&down, pi))
                .collect()
            });
            Ok((
                values,
                tr.spans()[s0..]
                    .iter()
                    .map(|s| (s.name.clone(), s.dur_us()))
                    .collect::<Vec<_>>(),
            ))
        })?;
        self.n += 1.0;
        for (name, us) in spans {
            match name.as_str() {
                "chain.rerate" => self.rerate_us += us,
                "chain.transpose" => self.transpose_us += us,
                "chain.bfs" => self.bfs_us += us,
                "transient.solve" => self.solve_us += us,
                _ => {}
            }
        }
        Ok(values)
    }

    fn report(&self, out: &mut Outcome) {
        let n = self.n.max(1.0);
        out.set("chain.rerate_us", self.rerate_us / n);
        out.set("chain.transpose_us", self.transpose_us / n);
        out.set("chain.bfs_us", self.bfs_us / n);
        out.set("transient.solve_us", self.solve_us / n);
    }
}
