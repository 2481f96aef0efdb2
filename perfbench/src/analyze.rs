//! `analyze_cold`: `arcade analyze`'s default batch on fresh sessions, one
//! closed-loop caller, serial engine.
//!
//! Each model is analysed in a child process of its own (the `worker`
//! subcommand), so every analysis is cold and an MTTF that overruns its
//! per-operation limit is killed at the limit: its CPU cannot overlap the
//! measurements that follow, it counts as over the limit, and `mttf_s`
//! counts it at the time it was stopped (the limit plus the stop delay).
//! No solver option is changed to make it finish.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use arcade::build::observer::DOWN_BIT;
use arcade::engine::{aggregate, Aggregation, EngineOptions};
use arcade::model::SystemModel;
use arcade::{Measure, Session};
use ctmc::measures::state_mass as mass;
use ctmc::transient::transient_many_from_ctx;
use ctmc::MeasureContext;

use crate::config::{
    self, close, ANALYZE_LIMIT_S, ANALYZE_SETUP_REPS, MTTF_LIMIT_S, REFERENCE_TIMES,
};
use crate::inputs::{self, MODELS};
use crate::report::{median, peak_rss_mb, quantile, Outcome};
use crate::trace::Tracer;
use crate::Args;

/// The serial engine of the plain single-threaded baseline.
fn serial_options() -> EngineOptions {
    let mut opts = EngineOptions::new().with_threads(1);
    opts.solver.transient.threads = 1;
    opts
}

/// `arcade analyze`'s default batch without the MTTF: A, U, then R, UR and
/// PU at every time of the grid, in the CLI's order.
fn batch(grid: &[f64]) -> Vec<Measure> {
    let mut m = vec![
        Measure::SteadyStateAvailability,
        Measure::SteadyStateUnavailability,
    ];
    for &t in grid {
        m.push(Measure::Reliability(t));
        m.push(Measure::UnreliabilityWithRepair(t));
        m.push(Measure::PointUnavailability(t));
    }
    m
}

/// What one child process reported for one model.
#[derive(Debug, Default)]
struct ChildRun {
    batch_s: f64,
    values: Vec<f64>,
    /// The time until it was stopped when the MTTF overran its limit.
    mttf_s: f64,
    mttf: Option<f64>,
    over_limit: bool,
    error: Option<String>,
    rss_mb: f64,
    counts: BTreeMap<String, f64>,
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (mttf_limit, batch_limit) = (MTTF_LIMIT_S, ANALYZE_LIMIT_S);

    // Set-up, several times: generate the three models, print them to
    // Arcade text, and run the worker once on the smallest, so the binary is
    // loaded and the page cache warm before the first timed analysis.
    let reps = ANALYZE_SETUP_REPS;
    let grid = inputs::analyze_grid(args.seed);
    let mut setup_secs = Vec::with_capacity(reps);
    let mut texts = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        texts = MODELS
            .iter()
            .map(|m| arcade::printer::to_arcade_text(&inputs::model(m)))
            .collect();
        let warm = run_child(
            "session",
            &texts[0],
            &grid,
            batch_limit,
            mttf_limit,
            None,
            0,
        );
        setup_secs.push(t0.elapsed().as_secs_f64());
        out.attempted += 2;
        match &warm.error {
            Some(e) => {
                out.failed += 1;
                out.check(false, || format!("warm-up on {}: {e}", MODELS[0]));
            }
            None => check_values(&mut out, MODELS[0], &grid, &warm),
        }
    }

    let mut tracer = Tracer::new();
    let mut op = 0u64;
    let mut batch_sums = Vec::new();
    let mut mttf_sums = Vec::new();
    let mut round_secs = Vec::new();
    let mut counts: BTreeMap<String, f64> = BTreeMap::new();
    let (mut ops, mut ok_ops, mut over_limit, mut rss) = (0u64, 0u64, 0u64, peak_rss_mb(None));
    let started = Instant::now();
    loop {
        let round_start = Instant::now();
        let (mut b, mut m) = (0.0, 0.0);
        for (name, text) in MODELS.iter().zip(&texts) {
            let run = run_child("session", text, &grid, batch_limit, mttf_limit, None, 0);
            ops += 2;
            out.attempted += 2;
            if let Some(e) = &run.error {
                out.failed += 1;
                out.check(false, || format!("analyze {name}: {e}"));
                continue;
            }
            ok_ops += 1 + u64::from(!run.over_limit);
            over_limit += u64::from(run.over_limit);
            rss = rss.max(run.rss_mb);
            b += run.batch_s;
            m += run.mttf_s;
            check_values(&mut out, name, &grid, &run);
            if args.trace {
                op += 1;
                let replay = run_child(
                    "replay",
                    text,
                    &grid,
                    batch_limit,
                    mttf_limit,
                    Some(&mut tracer),
                    op,
                );
                if let Some(e) = &replay.error {
                    out.check(false, || format!("replay {name}: {e}"));
                    continue;
                }
                let same = replay.values.len() == run.values.len()
                    && replay
                        .values
                        .iter()
                        .zip(&run.values)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                out.check(same, || {
                    format!("{name}: the traced replay differs from the Session answers")
                });
                out.check(
                    replay.mttf.map(f64::to_bits) == run.mttf.map(f64::to_bits)
                        || replay.over_limit
                        || run.over_limit,
                    || format!("{name}: replayed MTTF differs from the Session's"),
                );
                // The Session run reports the aggregations it built; every
                // other count comes from the replay.
                let built = run.counts.get("query.aggregations_built").copied();
                let session_counts = built.map(|v| ("query.aggregations_built".to_owned(), v));
                for (k, v) in session_counts.into_iter().chain(replay.counts) {
                    let e = counts.entry(k.clone()).or_default();
                    *e = if k.starts_with("engine.peak_") {
                        e.max(v)
                    } else {
                        *e + v
                    };
                }
            }
        }
        batch_sums.push(b);
        mttf_sums.push(m);
        round_secs.push(round_start.elapsed().as_secs_f64());
        if started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let rounds = batch_sums.len() as f64;

    out.set("setup_s", median(&setup_secs));
    out.set("analyze_s", median(&batch_sums));
    out.set("mttf_s", median(&mttf_sums));
    let points = (MODELS.len() * grid.len()) as f64;
    let rates: Vec<f64> = batch_sums.iter().map(|s| points / s).collect();
    out.set("sweep_points_per_s", median(&rates));
    // The closed loop's request is one round: the batch and the MTTF on
    // each of the three models.
    out.set("serve_p50_ms", quantile(&round_secs, 0.5) * 1e3);
    out.set("serve_p99_ms", quantile(&round_secs, 0.99) * 1e3);
    out.set(
        "serve_max_rps",
        round_secs.len() as f64 / round_secs.iter().sum::<f64>(),
    );
    out.set("ok_ratio", ok_ops as f64 / ops.max(1) as f64);
    out.set("peak_rss_mb", rss);

    if args.trace {
        for (k, v) in &counts {
            // Peak sizes are maxima over the models; everything else is a
            // total per round.
            let peak = k.starts_with("engine.peak_");
            out.set(k, if peak { *v } else { v / rounds });
        }
        out.set("absorbing.over_limit", over_limit as f64 / rounds);
        tracer.report_op(&mut out, "analyze");
        tracer.report_op(&mut out, "mttf");
        tracer.report_overhead(&mut out);
        crate::write_trace(args, &tracer);
    }
    out
}

/// Compares a model's answers with the committed reference values at the
/// reference times, and checks every value is a probability with the
/// monotonicity the measures must have.
fn check_values(out: &mut Outcome, name: &str, grid: &[f64], run: &ChildRun) {
    let reference = config::reference(name);
    let v = &run.values;
    out.check(v.len() == 2 + 3 * grid.len(), || {
        format!("{name}: {} values for a {}-point grid", v.len(), grid.len())
    });
    if v.len() != 2 + 3 * grid.len() {
        return;
    }
    for (i, (key, want)) in [
        (
            "steady_state_availability",
            reference.steady_state_availability,
        ),
        (
            "steady_state_unavailability",
            reference.steady_state_unavailability,
        ),
    ]
    .into_iter()
    .enumerate()
    {
        out.check(close(v[i], want), || {
            format!("{name}: {key} = {} but the reference is {want}", v[i])
        });
    }
    for (k, (key, wants)) in [
        ("reliability", reference.reliability),
        (
            "unreliability_with_repair",
            reference.unreliability_with_repair,
        ),
        ("point_unavailability", reference.point_unavailability),
    ]
    .into_iter()
    .enumerate()
    {
        for (t, want) in REFERENCE_TIMES.iter().zip(wants) {
            let i = grid
                .iter()
                .position(|g| g == t)
                .expect("grid holds the reference times");
            let got = v[2 + 3 * i + k];
            out.check(close(got, want), || {
                format!("{name}: {key}({t}) = {got} but the reference is {want}")
            });
        }
    }
    let mut prev = (1.0f64, 0.0f64);
    for i in 0..grid.len() {
        let (r, ur, pu) = (v[2 + 3 * i], v[3 + 3 * i], v[4 + 3 * i]);
        let ok = [r, ur, pu].iter().all(|x| (0.0..=1.0).contains(x)) && r <= prev.0 && ur >= prev.1;
        out.check(ok, || {
            format!("{name}: implausible curve values at t={}", grid[i])
        });
        prev = (r, ur);
    }
    if let Some(got) = run.mttf {
        out.check(close(got, reference.mttf), || {
            format!(
                "{name}: MTTF = {got} but the reference is {}",
                reference.mttf
            )
        });
    }
}

/// Runs one model in a fresh child process and collects its report,
/// killing it when an operation overruns its limit.
fn run_child(
    mode: &str,
    text: &str,
    grid: &[f64],
    batch_limit: f64,
    mttf_limit: f64,
    mut tracer: Option<&mut Tracer>,
    op: u64,
) -> ChildRun {
    let mut run = ChildRun::default();
    let exe = std::env::current_exe().expect("the benchmark binary path");
    let spawned_at = Instant::now();
    let mut child = match Command::new(exe)
        .args(["worker", mode])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
    {
        Ok(c) => c,
        Err(e) => {
            run.error = Some(format!("cannot start the worker: {e}"));
            return run;
        }
    };
    let pid = child.id();
    {
        let mut stdin = child.stdin.take().expect("piped stdin");
        let grid_line: Vec<String> = grid.iter().map(|t| format!("{:x}", t.to_bits())).collect();
        let sent = writeln!(stdin, "{}", grid_line.join(" "))
            .and_then(|()| stdin.write_all(text.as_bytes()));
        if let Err(e) = sent {
            run.error = Some(format!("cannot send the inputs: {e}"));
        }
    }
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let offset = tracer.as_ref().map_or(0.0, |t| t.us_at(spawned_at));
    let mut local_ids: Vec<usize> = Vec::new();
    let mut deadline = Instant::now() + Duration::from_secs_f64(batch_limit);
    let mut batch_seen_at: Option<Instant> = None;
    loop {
        let wait = deadline.saturating_duration_since(Instant::now());
        let line = match rx.recv_timeout(wait) {
            Ok(l) => l,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                run.rss_mb = run.rss_mb.max(peak_rss_mb(Some(pid)));
                let _ = child.kill();
                match batch_seen_at {
                    Some(at) => {
                        run.over_limit = true;
                        run.mttf_s = at.elapsed().as_secs_f64();
                        *run.counts
                            .entry("absorbing.mttf_us".to_owned())
                            .or_default() += run.mttf_s * 1e6;
                        if let Some(t) = tracer.as_deref_mut() {
                            let s = t.us_at(at);
                            let e = s + run.mttf_s * 1e6;
                            let root = t.record("mttf", op, None, s, e);
                            t.record("absorbing.mttf", op, Some(root), s, e);
                        }
                    }
                    None => run.error = Some(format!("the batch overran {batch_limit} s")),
                }
                break;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                if run.error.is_none() && (batch_seen_at.is_none() || run.mttf.is_none()) {
                    run.error = Some("the worker exited early".to_owned());
                }
                break;
            }
        };
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("span") => {
                let name = parts.next().unwrap_or("?").to_owned();
                let parent: Option<usize> = parts.next().and_then(|p| p.parse().ok());
                let s: f64 = parts.next().and_then(|x| x.parse().ok()).unwrap_or(0.0);
                let e: f64 = parts.next().and_then(|x| x.parse().ok()).unwrap_or(0.0);
                if let Some(t) = tracer.as_deref_mut() {
                    let parent = parent.map(|p| local_ids[p]);
                    local_ids.push(t.record(&name, op, parent, offset + s, offset + e));
                }
            }
            Some("count") => {
                let name = parts.next().unwrap_or("?").to_owned();
                let v: f64 = parts
                    .next()
                    .and_then(|x| x.parse().ok())
                    .unwrap_or(f64::NAN);
                *run.counts.entry(name).or_default() += v;
            }
            Some("batch") => {
                run.batch_s = parse_num(parts.next()) / 1e6;
                run.rss_mb = run.rss_mb.max(parse_num(parts.next()));
                run.values = parts.map(parse_bits).collect();
                batch_seen_at = Some(Instant::now());
                deadline = Instant::now() + Duration::from_secs_f64(mttf_limit);
            }
            Some("mttf") => {
                run.mttf_s = (parse_num(parts.next()) / 1e6).min(mttf_limit);
                run.rss_mb = run.rss_mb.max(parse_num(parts.next()));
                run.mttf = parts.next().map(parse_bits);
            }
            Some("error") => run.error = Some(line[5..].trim().to_owned()),
            _ => {}
        }
    }
    let _ = child.wait();
    let _ = reader.join();
    run
}

fn parse_num(s: Option<&str>) -> f64 {
    s.and_then(|x| x.parse().ok()).unwrap_or(f64::NAN)
}

fn parse_bits(s: &str) -> f64 {
    u64::from_str_radix(s, 16).map_or(f64::NAN, f64::from_bits)
}

fn bits(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{:x}", v.to_bits()))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The child side: reads the grid (first line, hex `f64` bits) and the model
/// text (the rest) from stdin, answers the batch, then the MTTF, reporting
/// each on its own stdout line as soon as it is done.
pub fn worker(mode: &str) -> ExitCode {
    let mut input = String::new();
    if std::io::stdin().read_to_string(&mut input).is_err() {
        println!("error cannot read the inputs");
        return ExitCode::FAILURE;
    }
    let (grid_line, text) = input.split_once('\n').unwrap_or((&input, ""));
    let grid: Vec<f64> = grid_line.split_whitespace().map(parse_bits).collect();
    let result = match mode {
        "session" => session_worker(&grid, text),
        "replay" => replay_worker(&grid, text),
        other => Err(format!("unknown worker mode `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            println!("error {e}");
            ExitCode::FAILURE
        }
    }
}

fn emit(line: &str) {
    let mut stdout = std::io::stdout().lock();
    let _ = writeln!(stdout, "{line}");
    let _ = stdout.flush();
}

/// The path `arcade analyze` takes: parse, a fresh `Session`, one batch.
fn session_worker(grid: &[f64], text: &str) -> Result<(), String> {
    let t0 = Instant::now();
    let def = arcade::parser::parse_system(text).map_err(|e| e.to_string())?;
    let session = Session::new(&def)
        .map_err(|e| e.to_string())?
        .with_options(serial_options());
    let values = session.evaluate(&batch(grid)).map_err(|e| e.to_string())?;
    let batch_us = t0.elapsed().as_secs_f64() * 1e6;
    emit(&format!(
        "count query.aggregations_built {}",
        session.stats().aggregations_built
    ));
    emit(&format!(
        "batch {batch_us} {} {}",
        peak_rss_mb(None),
        bits(&values)
    ));
    let t1 = Instant::now();
    let mttf = session
        .evaluate(&[Measure::Mttf])
        .map_err(|e| e.to_string())?;
    let mttf_us = t1.elapsed().as_secs_f64() * 1e6;
    emit(&format!(
        "mttf {mttf_us} {} {}",
        peak_rss_mb(None),
        bits(&mttf)
    ));
    Ok(())
}

/// The same batch replayed through the layer functions `Session` calls,
/// in its order, with a span around each call.
fn replay_worker(grid: &[f64], text: &str) -> Result<(), String> {
    let opts = serial_options();
    let ctx = MeasureContext::new();
    let mut tr = Tracer::new();
    let mut counts: BTreeMap<&str, f64> = BTreeMap::new();
    let t0 = Instant::now();
    let replayed = tr.span("analyze", 0, |tr| -> Result<_, String> {
        let def = tr.span("parser.parse", 0, |_| arcade::parser::parse_system(text));
        let def = def.map_err(|e| e.to_string())?;
        *counts.entry("parser.bytes").or_default() += text.len() as f64;
        let mut build =
            |tr: &mut Tracer, def: &arcade::ast::SystemDef| -> Result<Aggregation, String> {
                let model = tr.span("build.model", 0, |_| SystemModel::build(def));
                let model = model.map_err(|e| e.to_string())?;
                let states: usize = model.automata().iter().map(|a| a.num_states()).sum();
                *counts.entry("build.block_states").or_default() += states as f64;
                let agg = tr.span("engine.aggregate", 0, |_| aggregate(&model, &opts));
                agg.map_err(|e| e.to_string())
            };
        let avail = build(tr, &def)?;
        let norepair = build(tr, &def.without_repair())?;
        for agg in [&avail, &norepair] {
            let peak = |k: &'static str, v: f64, c: &mut BTreeMap<&str, f64>| {
                let e = c.entry(k).or_default();
                *e = e.max(v);
            };
            peak(
                "engine.peak_states",
                agg.largest_intermediate.states as f64,
                &mut counts,
            );
            peak(
                "engine.peak_transitions",
                agg.largest_intermediate.transitions() as f64,
                &mut counts,
            );
            for (k, v) in [
                ("engine.ctmc_states", agg.ctmc_stats.states as f64),
                (
                    "engine.ctmc_transitions",
                    agg.ctmc_stats.transitions() as f64,
                ),
                ("engine.steps", agg.steps.len() as f64),
                ("bisim.signature_us", agg.refine.signature_secs * 1e6),
                ("bisim.split_us", agg.refine.split_secs * 1e6),
                ("bisim.quotient_us", agg.refine.quotient_secs * 1e6),
                ("bisim.refine_rounds", agg.refine.refine_rounds as f64),
                ("bisim.states_resigned", agg.refine.states_resigned as f64),
            ] {
                *counts.entry(k).or_default() += v;
            }
        }
        let tro = &opts.solver.transient;
        let down: Vec<u32> = avail.ctmc.states_with_label(DOWN_BIT).collect();
        let pu: Vec<f64> = tr.span("transient.solve", 0, |_| {
            transient_many_from_ctx(
                &avail.ctmc,
                &avail.ctmc.initial_distribution(),
                grid,
                tro,
                &ctx,
            )
            .iter()
            .map(|pi| mass(&down, pi))
            .collect()
        });
        let first_passage = |tr: &mut Tracer, agg: &Aggregation| -> Vec<f64> {
            let down: Vec<u32> = agg.ctmc.states_with_label(DOWN_BIT).collect();
            if down.is_empty() {
                return vec![0.0; grid.len()];
            }
            let abs = tr.span("chain.make_absorbing", 0, |_| {
                agg.ctmc.make_absorbing(down.iter().copied())
            });
            tr.span("transient.solve", 0, |_| {
                transient_many_from_ctx(&abs, &abs.initial_distribution(), grid, tro, &ctx)
                    .iter()
                    .map(|pi| mass(&down, pi))
                    .collect()
            })
        };
        let ur = first_passage(tr, &avail);
        let unrel = first_passage(tr, &norepair);
        let steady_down = tr.span("steady.solve", 0, |_| {
            mass(
                &down,
                &ctmc::steady::steady_state_with(&avail.ctmc, &opts.solver),
            )
        });
        let mut values = vec![1.0 - steady_down, steady_down];
        for i in 0..grid.len() {
            values.extend([1.0 - unrel[i], ur[i], pu[i]]);
        }
        Ok((values, avail, down))
    });
    let batch_us = t0.elapsed().as_secs_f64() * 1e6;
    let (values, avail, down) = replayed?;
    let summary = tr.summary();
    let total = |name: &str| summary.get(name).map_or(0.0, |s| s.1);
    counts.insert("parser.parse_us", total("parser.parse"));
    counts.insert("build.model_us", total("build.model"));
    counts.insert("engine.aggregate_us", total("engine.aggregate"));
    let bisim =
        counts["bisim.signature_us"] + counts["bisim.split_us"] + counts["bisim.quotient_us"];
    counts.insert("engine.unattributed_us", total("engine.aggregate") - bisim);
    counts.insert("steady.solve_us", total("steady.solve"));
    counts.insert("transient.solve_us", total("transient.solve"));
    counts.insert("chain.make_absorbing_us", total("chain.make_absorbing"));
    counts.insert("transient.dtmc_steps", ctx.counters.dtmc_steps() as f64);
    counts.insert("transient.sweeps", ctx.counters.sweeps() as f64);
    counts.insert("poisson.hits", ctx.poisson.hits() as f64);
    counts.insert("poisson.misses", ctx.poisson.misses() as f64);
    emit_spans(&tr, 0);
    for (k, v) in &counts {
        emit(&format!("count {k} {v}"));
    }
    emit(&format!(
        "batch {batch_us} {} {}",
        peak_rss_mb(None),
        bits(&values)
    ));

    let skip = tr.spans().len();
    let t1 = Instant::now();
    let mttf = tr.span("mttf", 0, |tr| {
        tr.span("absorbing.mttf", 0, |_| {
            if down.is_empty() {
                f64::INFINITY
            } else {
                ctmc::absorbing::mean_time_to_absorption_with(&avail.ctmc, &down, &opts.solver)
            }
        })
    });
    let mttf_us = t1.elapsed().as_secs_f64() * 1e6;
    emit_spans(&tr, skip);
    emit(&format!("count absorbing.mttf_us {mttf_us}"));
    emit(&format!(
        "mttf {mttf_us} {} {}",
        peak_rss_mb(None),
        bits(&[mttf])
    ));
    Ok(())
}

/// Prints the spans from index `from` on, parents as indices counted from
/// the first span the parent process has seen of this child.
fn emit_spans(tr: &Tracer, from: usize) {
    for s in &tr.spans()[from..] {
        let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
        emit(&format!(
            "span {} {parent} {} {}",
            s.name, s.start_us, s.end_us
        ));
    }
}
