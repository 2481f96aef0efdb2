//! The repository benchmark: three seeded workloads over the Arcade
//! pipeline's real request paths, with correctness checks, end-to-end
//! metrics in the timed run and per-layer metrics in the traced run.
//!
//! ```text
//! perfbench --workload analyze_cold|sweep_rerate|serve_mixed
//!           --seed N --seconds S --trace 0|1 [--out DIR] [--arcaded PATH]
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the `end_to_end` metrics of `BENCHMARK.json`
//! with `--trace 0`, its `per_layer` metrics with `--trace 1`). The exit
//! code is non-zero when any correctness check fails. `perfbench/run.py`
//! builds the binaries and runs this.

mod analyze;
mod config;
mod inputs;
mod report;
mod serve;
mod sweep;
mod trace;

use std::io::Read;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Outcome;
use trace::Tracer;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub out: PathBuf,
    /// The `arcaded` binary the serve workload starts.
    pub arcaded: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("perfbench/out"),
        arcaded: PathBuf::from("arcaded"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--out" => args.out = PathBuf::from(value),
            "--arcaded" => args.arcaded = PathBuf::from(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("worker") {
        return analyze::worker(argv.get(1).map_or("", String::as_str));
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Armed failpoints inject delays and panics: every timing and check
    // would be meaningless, so refuse to run at all.
    if arcade::chaos::enabled() || std::env::var_os("ARCADE_CHAOS").is_some_and(|v| !v.is_empty()) {
        eprintln!("perfbench: chaos failpoints are armed (ARCADE_CHAOS); refusing to run");
        return ExitCode::from(2);
    }
    let mut out = match args.workload.as_str() {
        "analyze_cold" => analyze::run(&args),
        "sweep_rerate" => sweep::run(&args),
        "serve_mixed" => serve::run(&args),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    finish_metrics(&mut out, &args.workload, args.trace);
    println!("{}", report::result_line(&mut out, args.trace));
    if out.wrong.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// In the traced run a per-layer metric that `perfbench/layers.json`
/// marks as zero on this workload (the workload never calls the layer)
/// reads zero; every other one must have been measured, or the result
/// reports it missing. A metric the code sets under a name
/// `BENCHMARK.json` does not declare, or sets on a workload where the map
/// says it is zero, is a bug and fails the run.
fn finish_metrics(out: &mut Outcome, workload: &str, traced: bool) {
    let names = |section: &str| -> Vec<String> {
        report::declared(section)
            .into_iter()
            .map(|(n, _)| n)
            .collect()
    };
    let (end_to_end, per_layer) = (names("end_to_end"), names("per_layer"));
    let unknown: Vec<String> = out
        .metrics
        .keys()
        .filter(|k| !end_to_end.contains(k) && !per_layer.contains(k))
        .cloned()
        .collect();
    for k in unknown {
        out.check(false, || {
            format!("metric `{k}` is not declared in BENCHMARK.json")
        });
    }
    if traced {
        for name in report::zero_on(workload) {
            let measured = out.metrics.insert(name.clone(), 0.0);
            out.check(measured.is_none(), || {
                format!("`{name}` is measured on {workload}, but layers.json maps it to zero there")
            });
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Writes the traced run's spans, one JSON object per line.
pub fn write_trace(args: &Args, tracer: &Tracer) {
    let path = args
        .out
        .join(format!("trace_{}_seed{}.jsonl", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
    match written {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

/// How a limited operation in a forked copy ended.
#[derive(Debug)]
pub struct Limited {
    /// `None` when the operation overran the limit and was killed.
    pub result: Option<Result<f64, String>>,
    /// Its wall time; when it was killed, the time until it was stopped
    /// (the limit plus the stop delay).
    pub secs: f64,
    pub started: Instant,
    pub rss_mb: f64,
}

extern "C" {
    fn fork() -> i32;
    fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn _exit(code: i32) -> !;
}

const WNOHANG: i32 = 1;
const SIGKILL: i32 = 9;

/// Runs `f` in a forked copy of this process — it sees every artifact the
/// parent has already built — and kills the copy once `limit_s` has
/// passed, so an overrunning operation cannot keep using CPU while later
/// measurements run.
///
/// Call it only while this process runs no other thread of its own: the
/// copy holds only the calling thread.
pub fn fork_limited(limit_s: f64, f: impl FnOnce() -> Result<f64, String>) -> Limited {
    let (mut reader, writer) = std::io::pipe().expect("create a pipe");
    let started = Instant::now();
    // SAFETY: `fork` has no preconditions of its own. The child runs only
    // `f` and a pipe write, then `_exit`s without unwinding into the
    // parent's frames or running its destructors; callers fork while no
    // other benchmark thread is alive, so no lock the child needs is held
    // by a thread that does not exist in it.
    let pid = unsafe { fork() };
    if pid == 0 {
        let t0 = Instant::now();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .unwrap_or_else(|_| Err("the operation panicked".to_owned()));
        let us = t0.elapsed().as_secs_f64() * 1e6;
        let line = match r {
            Ok(v) => format!("ok {us} {:x}\n", v.to_bits()),
            Err(e) => format!("err {us} {e}\n"),
        };
        let mut w = writer;
        let _ = std::io::Write::write_all(&mut w, line.as_bytes());
        drop(w);
        // SAFETY: ends the forked copy at once, as the contract above needs.
        unsafe { _exit(0) }
    }
    drop(writer);
    if pid < 0 {
        return Limited {
            result: Some(Err("fork failed".to_owned())),
            secs: 0.0,
            started,
            rss_mb: 0.0,
        };
    }
    let limit = Duration::from_secs_f64(limit_s);
    let mut status = 0i32;
    let mut rss_mb = 0.0f64;
    loop {
        // SAFETY: `pid` is our own child and `status` a live local.
        let done = unsafe { waitpid(pid, &mut status, WNOHANG) };
        if done == pid {
            break;
        }
        rss_mb = rss_mb.max(report::peak_rss_mb(Some(pid as u32)));
        if started.elapsed() >= limit {
            // SAFETY: signals and then reaps our own child.
            unsafe {
                kill(pid, SIGKILL);
                waitpid(pid, &mut status, 0);
            }
            return Limited {
                result: None,
                secs: started.elapsed().as_secs_f64(),
                started,
                rss_mb,
            };
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut line = String::new();
    let _ = reader.read_to_string(&mut line);
    let mut parts = line.trim_end().splitn(3, ' ');
    let kind = parts.next().unwrap_or("");
    let secs = parts
        .next()
        .and_then(|u| u.parse::<f64>().ok())
        .unwrap_or(f64::NAN)
        / 1e6;
    let rest = parts.next().unwrap_or("").to_owned();
    let result = match kind {
        "ok" => u64::from_str_radix(&rest, 16)
            .map(f64::from_bits)
            .map_err(|e| e.to_string()),
        "err" => Err(rest),
        _ => Err("the forked copy exited without a result".to_owned()),
    };
    Limited {
        result: Some(result),
        secs: secs.min(limit_s),
        started,
        rss_mb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fork_limited_returns_values_and_kills_overruns() {
        let ok = fork_limited(5.0, || Ok(2.5));
        assert_eq!(ok.result, Some(Ok(2.5)));
        assert!(ok.secs < 5.0);
        let slow = fork_limited(0.1, || {
            std::thread::sleep(Duration::from_secs(30));
            Ok(0.0)
        });
        assert!(slow.result.is_none());
        assert!(slow.secs >= 0.1);
        assert!(slow.started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn args_parse_the_command_line() {
        let argv: Vec<String> = "--workload sweep_rerate --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(str::to_owned)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sweep_rerate", 7, 3.0, true)
        );
        assert!(parse_args(&["--seconds".to_owned(), "0".to_owned()]).is_err());
    }
}
