//! `serve_mixed`: the `arcaded` request path over loopback TCP as an open
//! loop.
//!
//! One generator process sends requests on a seeded schedule at fixed
//! offered rates through a pool of one connection per core, and the
//! server runs one worker per connection. Each request goes out on the
//! first free connection once it is due, in due order, so a heavy miss
//! holds a worker that light reads behind it need. Each request is timed
//! from when it was due, so a wait for a free connection counts; a refused
//! or failed request counts as missing the latency limit. The mix (see
//! [`crate::config::DECK`]):
//!
//! * memo-hit reads — steady-state and MTTF answers the session already
//!   holds: protocol and dispatch only;
//! * memo-miss reads — transient queries at fresh time points (more
//!   distinct times than the Poisson memo holds) on all three models;
//! * writes — `load` of a generated model as text, then one cold query,
//!   each followed by the same query from another connection, which
//!   usually waits on the write's build (a dedup wait).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use arcade::build::observer::DOWN_BIT;
use arcade::engine::{Aggregation, EngineOptions};
use arcade::fuzz::{gen_system, GenConfig};
use arcade::model::SystemModel;
use arcade::serve::{expand_measures, Json};
use arcade::{Measure, Session};
use smallrand::SmallRng;

use crate::config::{
    self, close, Kind, DDS_MISS_POINTS, DECK, FIXED_RPS, FIXED_SHARE, GENERATED_MODELS,
    LADDER_RATIO, LADDER_RUNGS, LADDER_RUNG_SHARE, LADDER_START_RPS, MTTF_LIMIT_S, RCS_MISS_T,
    REFERENCE_TIMES, SERVE_P99_LIMIT_S, SERVE_T_MAX, SETUP_REPS, STIFF_MISS_T, VERIFY_CAP,
    WRITE_MAX_STATES, WRITE_READ_DELAY_S,
};
use crate::inputs::{self, log_time_digits, stream, MODELS};
use crate::report::{median, peak_rss_mb, quantile, Outcome};
use crate::trace::Tracer;
use crate::Args;

const BATCH_KINDS: [&str; 5] = [
    "steady_state_availability",
    "steady_state_unavailability",
    "reliability",
    "unreliability_with_repair",
    "unavailability",
];

/// A started `arcaded` and its address.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start(path: &std::path::Path) -> Result<Self, String> {
        let mut child = Command::new(path)
            // One engine thread per request: concurrency comes from the
            // worker pool, and cold builds stay serial, so their time and
            // peak memory do not depend on how two builds happen to overlap.
            .args(["--addr", "127.0.0.1:0", "--threads", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", path.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let read = BufReader::new(stdout).read_line(&mut line);
        match (read, line.trim().strip_prefix("arcaded listening on ")) {
            (Ok(_), Some(addr)) => Ok(Self {
                addr: addr.to_owned(),
                child,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("arcaded did not report its address: {line:?}"))
            }
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(Some(self.child.id()))
    }

    /// Stops the server at once; the benchmark never needs a graceful end.
    fn stop(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A newline-delimited JSON connection.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self { stream, reader })
    }

    /// Sends one request line and reads the response line.
    fn call(&mut self, line: &str) -> Result<String, String> {
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        self.stream
            .write_all(buf.as_bytes())
            .map_err(|e| e.to_string())?;
        let mut resp = String::new();
        match self.reader.read_line(&mut resp) {
            Ok(0) => Err("connection closed".to_owned()),
            Ok(_) => Ok(resp),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Calls, expecting `ok: true`.
    fn call_ok(&mut self, line: &str) -> Result<Json, String> {
        let resp = self.call(line)?;
        let v = Json::parse(resp.trim_end()).map_err(|e| e.to_string())?;
        if v.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(v)
        } else {
            Err(resp.trim_end().to_owned())
        }
    }
}

fn query_line(model: &str, measures: &[&str], times: &[f64]) -> String {
    let mut fields = vec![
        ("model", Json::str(model)),
        (
            "measures",
            Json::Arr(measures.iter().map(|m| Json::str(*m)).collect()),
        ),
    ];
    if !times.is_empty() {
        fields.push((
            "times",
            Json::Arr(times.iter().map(|&t| Json::Num(t)).collect()),
        ));
    }
    Json::obj(fields).to_string()
}

fn values_of(resp: &Json) -> Option<Vec<f64>> {
    resp.get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// One scheduled request.
#[derive(Debug, Clone)]
struct Request {
    /// Due time, seconds after the phase starts.
    due: f64,
    kind: Kind,
    /// The model a read goes to; the name a write loads its model under.
    model: String,
    /// The lines sent in order; the last one is the query that is checked.
    lines: Vec<String>,
    /// Time points a memo-miss read asks for.
    points: usize,
    /// The generated model a write loads or a write's read reads.
    generated: Option<usize>,
    /// The number of the write whose model this write loads, or whose
    /// model this write's read waits for.
    write: Option<u64>,
}

/// What happened to one request.
#[derive(Debug, Clone)]
struct Done {
    index: usize,
    latency_s: f64,
    rtt_s: f64,
    lateness_s: f64,
    backlog: usize,
    /// Start and end, seconds after the phase starts.
    sent: f64,
    end: f64,
    response: Result<Json, String>,
}

impl Done {
    /// Latency from the due time; a failed request misses any limit.
    fn latency(&self) -> f64 {
        if self.response.is_ok() {
            self.latency_s
        } else {
            f64::INFINITY
        }
    }
}

/// The generated models writes load, each with its directly evaluated
/// answer for the write's query and the session that gave it.
struct Generated {
    texts: Vec<String>,
    answers: Vec<Vec<f64>>,
    sessions: Vec<Session>,
}

const WRITE_MEASURES: [&str; 2] = ["steady_state_availability", "steady_state_unavailability"];

/// Draws `n` generated models, keeping those whose aggregation stays small
/// (a size bound, not a time bound, so the inputs depend on the seed only),
/// and answers each write's query on a fresh session of the parsed text.
fn generate_models(rng: &mut SmallRng, n: usize) -> Result<Generated, String> {
    let mut cfg = GenConfig::engine();
    cfg.params = false;
    let measures = [
        Measure::SteadyStateAvailability,
        Measure::SteadyStateUnavailability,
    ];
    let mut out = Generated {
        texts: Vec::new(),
        answers: Vec::new(),
        sessions: Vec::new(),
    };
    let mut tries = 0;
    while out.texts.len() < n {
        tries += 1;
        if tries > 50 * n.max(1) {
            return Err("the generator yields no small models".to_owned());
        }
        let text = arcade::printer::to_arcade_text(&gen_system(rng, &cfg));
        let Ok(def) = arcade::parser::parse_system(&text) else {
            continue;
        };
        let Ok(session) = Session::new(&def) else {
            continue;
        };
        let small = session
            .availability_model()
            .is_ok_and(|a| a.largest_intermediate.states <= WRITE_MAX_STATES);
        if !small {
            continue;
        }
        let Ok(values) = session.evaluate(&measures) else {
            continue;
        };
        out.texts.push(text);
        out.answers.push(values);
        out.sessions.push(session);
    }
    Ok(out)
}

/// The seeded schedules of the phases.
struct Mix<'a> {
    rng: SmallRng,
    fresh: HashSet<u64>,
    writes: u64,
    seed: u64,
    /// The generated model texts writes load, in turn.
    texts: &'a [String],
}

impl Mix<'_> {
    /// A time in `[lo, hi)` that no earlier request of the run asked for.
    /// Six significant digits leave room for the tens of thousands of
    /// fresh times a ladder draws.
    fn fresh_time(&mut self, lo: f64, hi: f64) -> f64 {
        for _ in 0..1000 {
            let t = log_time_digits(&mut self.rng, lo, hi, 6);
            if self.fresh.insert(t.to_bits()) {
                return t;
            }
        }
        panic!("no fresh time left in [{lo}, {hi})");
    }

    /// One phase at `rate` requests per second for `secs` seconds: due
    /// times uniformly random (a Poisson arrival process conditioned on
    /// its count), kinds dealt from shuffled decks, and each write's read
    /// due up to `WRITE_READ_DELAY_S` after it. Sorted by due time.
    fn phase(&mut self, rate: f64, secs: f64) -> Vec<Request> {
        let per_deck: usize = DECK.iter().map(|&(_, c)| c).sum();
        let writes: usize = DECK
            .iter()
            .filter(|&&(k, _)| k == Kind::Write)
            .map(|&(_, c)| c)
            .sum();
        let share = per_deck as f64 / (per_deck + writes) as f64;
        let n = (rate * secs * share).round().max(1.0) as usize;
        let mut due: Vec<f64> = (0..n).map(|_| self.rng.next_f64() * secs).collect();
        due.sort_by(f64::total_cmp);
        let kinds = self.deal(n);
        let mut out: Vec<Request> = Vec::with_capacity(n + n * writes / per_deck + 1);
        for (due, kind) in due.into_iter().zip(kinds) {
            let req = self.request(due, kind);
            if kind == Kind::Write {
                let delay = self.rng.next_f64() * WRITE_READ_DELAY_S;
                out.push(Request {
                    due: due + delay,
                    kind: Kind::WriteRead,
                    lines: req.lines[1..].to_vec(),
                    ..req.clone()
                });
            }
            out.push(req);
        }
        // Stable: a write stays ahead of a read due at the same instant.
        out.sort_by(|a, b| {
            a.due
                .total_cmp(&b.due)
                .then((a.kind == Kind::WriteRead).cmp(&(b.kind == Kind::WriteRead)))
        });
        out
    }

    /// `n` kinds dealt from shuffled decks of [`DECK`].
    fn deal(&mut self, n: usize) -> Vec<Kind> {
        let mut kinds: Vec<Kind> = Vec::with_capacity(n);
        while kinds.len() < n {
            let mut deck: Vec<Kind> = DECK
                .iter()
                .flat_map(|&(k, c)| std::iter::repeat_n(k, c))
                .collect();
            for i in (1..deck.len()).rev() {
                deck.swap(i, self.rng.below(i as u64 + 1) as usize);
            }
            kinds.extend(deck);
        }
        kinds.truncate(n);
        kinds
    }

    fn request(&mut self, due: f64, kind: Kind) -> Request {
        let mut req = Request {
            due,
            kind,
            model: String::new(),
            lines: Vec::new(),
            points: 0,
            generated: None,
            write: None,
        };
        match kind {
            Kind::Hit => {
                let model = MODELS[self.rng.below(MODELS.len() as u64) as usize];
                // The MTTF of rcs_scaled(2) is never cached (it overruns its
                // limit), so hits on it ask for the steady state only.
                let choices: &[&str] = if model == "rcs_scaled(2)" {
                    &WRITE_MEASURES
                } else {
                    &[
                        "steady_state_availability",
                        "steady_state_unavailability",
                        "mttf",
                    ]
                };
                let m = choices[self.rng.below(choices.len() as u64) as usize];
                req.model = model.to_owned();
                req.lines = vec![query_line(model, &[m], &[])];
            }
            Kind::DdsMiss => {
                let times: Vec<f64> = (0..DDS_MISS_POINTS)
                    .map(|_| self.fresh_time(1.0, SERVE_T_MAX))
                    .collect();
                req.model = "dds_scaled(3)".to_owned();
                req.lines = vec![query_line(&req.model, &["unavailability"], &times)];
                req.points = times.len();
            }
            Kind::RcsMiss | Kind::StiffMiss => {
                let (model, (lo, hi)) = if kind == Kind::RcsMiss {
                    ("rcs_scaled(2)", RCS_MISS_T)
                } else {
                    ("rcs_stiff(3)", STIFF_MISS_T)
                };
                let t = self.fresh_time(lo, hi);
                req.model = model.to_owned();
                req.lines = vec![query_line(model, &["unavailability"], &[t])];
                req.points = 1;
            }
            Kind::Write | Kind::WriteRead => {
                let k = self.writes as usize % self.texts.len();
                let name = format!("gen{}_{}", self.seed, self.writes);
                let load = Json::obj([
                    ("cmd", Json::str("load")),
                    ("name", Json::str(name.clone())),
                    ("source", Json::str(self.texts[k].clone())),
                ])
                .to_string();
                req.lines = vec![load, query_line(&name, &WRITE_MEASURES, &[])];
                req.model = name;
                req.generated = Some(k);
                req.write = Some(self.writes);
                self.writes += 1;
            }
        }
        req
    }
}

/// Runs one phase through a pool of one connection per core: each
/// connection thread takes the next request in due order, waits until it
/// is due and sends it, so a request that is due while every connection is
/// busy waits for the first one to free up. A write's read is sent only
/// once the write's `load` is answered. With `precise`, a thread spins for
/// the last moments before a due time instead of sleeping through them,
/// so that sub-millisecond latencies do not include the wake-up; the
/// ladder, which measures throughput, leaves the CPU to the server.
fn run_phase(addr: &str, schedule: &[Request], precise: bool) -> Result<Vec<Done>, String> {
    let conns = crate::nproc();
    let mut links = Vec::with_capacity(conns);
    for _ in 0..conns {
        links.push(Conn::open(addr).map_err(|e| format!("cannot connect: {e}"))?);
    }
    let dues: Vec<f64> = schedule.iter().map(|r| r.due).collect();
    let next = AtomicUsize::new(0);
    // Per write number: whether its load succeeded, once it is answered.
    let loads: Mutex<HashMap<u64, bool>> = Mutex::new(HashMap::new());
    let loaded = Condvar::new();
    let start = Instant::now() + Duration::from_millis(20);
    let drive = |mut conn: Conn| -> Vec<Done> {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::SeqCst);
            let Some(req) = schedule.get(i) else { break };
            let due = start + Duration::from_secs_f64(req.due);
            if precise {
                wait_until(due);
            } else if let Some(ahead) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(ahead);
            }
            let ready = match (req.kind, req.write) {
                (Kind::WriteRead, Some(w)) => {
                    let mut l = loads.lock().expect("load table");
                    loop {
                        match l.get(&w) {
                            Some(&ok) => break ok,
                            None => l = loaded.wait(l).expect("load table"),
                        }
                    }
                }
                _ => true,
            };
            let sent = Instant::now();
            let sent_s = sent.duration_since(start).as_secs_f64();
            let backlog = dues.partition_point(|&d| d <= sent_s).saturating_sub(i);
            let mut response = Err("the write it reads was not loaded".to_owned());
            if ready {
                for (j, line) in req.lines.iter().enumerate() {
                    response = conn.call_ok(line);
                    if let (Kind::Write, Some(w), 0) = (req.kind, req.write, j) {
                        loads
                            .lock()
                            .expect("load table")
                            .insert(w, response.is_ok());
                        loaded.notify_all();
                    }
                    if response.is_err() {
                        break;
                    }
                }
            }
            let end = Instant::now();
            done.push(Done {
                index: i,
                latency_s: end.duration_since(due).as_secs_f64(),
                rtt_s: end.duration_since(sent).as_secs_f64(),
                lateness_s: sent.saturating_duration_since(due).as_secs_f64(),
                backlog,
                sent: sent_s,
                end: end.duration_since(start).as_secs_f64(),
                response,
            });
        }
        done
    };
    let mut all: Vec<Done> = std::thread::scope(|s| {
        let mut links = links.into_iter();
        let first = links.next().expect("at least one connection");
        let handles: Vec<_> = links.map(|conn| s.spawn(|| drive(conn))).collect();
        let mut all = drive(first);
        for h in handles {
            all.extend(h.join().expect("a generator thread panicked"));
        }
        all
    });
    all.sort_by_key(|d| d.index);
    Ok(all)
}

/// How long before a due time a generator thread stops sleeping and
/// spins, so waking up from sleep does not make the request late.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(300);

/// Returns at `due`: sleeps until shortly before, then spins.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN_BEFORE_DUE {
        std::thread::sleep(due - SPIN_BEFORE_DUE - now);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Checks every answer of a phase: each must be bitwise equal to a direct
/// `Session::evaluate` of the same batch. Heavy memo-miss reads are
/// checked up to `VERIFY_CAP` per kind.
struct Verifier {
    sessions: BTreeMap<String, Session>,
    checked: BTreeMap<Kind, usize>,
}

impl Verifier {
    fn new() -> Self {
        Self {
            sessions: BTreeMap::new(),
            checked: BTreeMap::new(),
        }
    }

    fn check(
        &mut self,
        out: &mut Outcome,
        schedule: &[Request],
        done: &[Done],
        generated: &Generated,
    ) {
        for d in done {
            let req = &schedule[d.index];
            let Ok(resp) = &d.response else { continue };
            let Some(got) = values_of(resp) else {
                out.check(false, || {
                    format!("{} request {}: no values", req.kind.name(), d.index)
                });
                continue;
            };
            let want = if let Some(k) = req.generated {
                Some(generated.answers[k].clone())
            } else {
                let n = self.checked.entry(req.kind).or_default();
                if matches!(req.kind, Kind::RcsMiss | Kind::StiffMiss) && *n >= VERIFY_CAP {
                    continue;
                }
                *n += 1;
                let line = Json::parse(req.lines.last().expect("a query")).expect("valid request");
                let measures = expand_measures(&line).expect("the request's measures expand");
                let session = self.sessions.entry(req.model.clone()).or_insert_with(|| {
                    Session::new(&inputs::model(&req.model)).expect("benchmark model")
                });
                session.evaluate(&measures).ok()
            };
            let same = want.as_ref().is_some_and(|w| {
                w.len() == got.len() && w.iter().zip(&got).all(|(a, b)| a.to_bits() == b.to_bits())
            });
            out.check(same, || {
                format!(
                    "{} request {} on {}: served {got:?}, direct evaluation {want:?}",
                    req.kind.name(),
                    d.index,
                    req.model
                )
            });
        }
    }
}

/// Server-side counters and histogram quantiles from `stats`.
fn server_stats(addr: &str) -> Result<Json, String> {
    Conn::open(addr)
        .map_err(|e| e.to_string())?
        .call_ok(r#"{"cmd":"stats"}"#)
}

fn stat(v: &Json, path: &[&str]) -> f64 {
    let mut cur = v;
    for k in path {
        match cur.get(k) {
            Some(x) => cur = x,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

/// A session counter summed over every model the server holds. Writes
/// load fresh names, so no session is dropped between two reads of it.
fn session_sum(v: &Json, key: &str) -> f64 {
    v.get("models")
        .and_then(Json::as_arr)
        .map_or(0.0, |ms| ms.iter().map(|m| stat(m, &["stats", key])).sum())
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    match run_inner(args, &mut out) {
        Ok(()) => {}
        Err(e) => {
            out.failed += 1;
            out.check(false, || e);
        }
    }
    out
}

fn run_inner(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let reps = SETUP_REPS;

    // Inputs: generated models for the writes and the phase schedules. The
    // fixed-rate phase is split over the servers of all set-ups, so its
    // percentiles pool several server processes.
    let mut rng = stream(args.seed, 300);
    let generated = generate_models(&mut rng, GENERATED_MODELS)?;
    let mut mix = Mix {
        rng,
        fresh: HashSet::new(),
        writes: 0,
        seed: args.seed,
        texts: &generated.texts,
    };
    let fixed_secs = args.seconds * FIXED_SHARE;
    let segments: Vec<Vec<Request>> = (0..reps)
        .map(|_| mix.phase(FIXED_RPS, fixed_secs / reps as f64))
        .collect();
    let traced_phase = if args.trace {
        mix.phase(FIXED_RPS, args.seconds - fixed_secs)
    } else {
        Vec::new()
    };
    let rung_secs = args.seconds * LADDER_RUNG_SHARE;
    // A warm-up at the rate of the bisection's first rung, then the rungs.
    let rung_rate = |k: usize| LADDER_START_RPS * LADDER_RATIO.powi(k as i32);
    let rungs: Vec<(f64, Vec<Request>)> = if args.trace {
        Vec::new()
    } else {
        let warm_rate = rung_rate(LADDER_RUNGS / 2);
        let warm_up = (warm_rate, mix.phase(warm_rate, rung_secs));
        let ladder = (0..LADDER_RUNGS).map(|k| (rung_rate(k), mix.phase(rung_rate(k), rung_secs)));
        std::iter::once(warm_up).chain(ladder).collect()
    };

    // Every set-up: start arcaded and answer the cold batch on the three
    // models (timed as set-up), ask the MTTFs, run one fixed-rate segment;
    // the last set-up also runs the ladder or the traced phase. The MTTF of
    // rcs_scaled(2) comes last, with the per-operation limit as the read
    // timeout; the server cannot stop an overrunning MTTF itself, so the
    // server is killed right after.
    let (mut setup_secs, mut cold_secs, mut mttf_secs) = (Vec::new(), Vec::new(), Vec::new());
    let (mut setup_ops, mut setup_ok) = (0u64, 0u64);
    // Memory of the system under test: the servers, not the generator and
    // its verification sessions.
    let mut rss = 0.0f64;
    let mut fixed: Vec<(Request, Done)> = Vec::new();
    let mut verifier = Verifier::new();
    let mut tracer = Tracer::new();
    for (rep, segment) in segments.iter().enumerate() {
        let t0 = Instant::now();
        let server = Server::start(&args.arcaded)?;
        let result = (|| -> Result<(), String> {
            let mut conn = Conn::open(&server.addr).map_err(|e| format!("cannot connect: {e}"))?;
            let mut cold = 0.0;
            for model in MODELS {
                let t1 = Instant::now();
                setup_ops += 1;
                let resp = conn.call_ok(&query_line(model, &BATCH_KINDS, &REFERENCE_TIMES))?;
                cold += t1.elapsed().as_secs_f64();
                setup_ok += 1;
                check_batch(out, model, &resp);
            }
            setup_secs.push(t0.elapsed().as_secs_f64());
            cold_secs.push(cold);
            let mut mttf = 0.0;
            for model in ["dds_scaled(3)", "rcs_stiff(3)"] {
                let t1 = Instant::now();
                setup_ops += 1;
                let resp = conn.call_ok(&query_line(model, &["mttf"], &[]))?;
                mttf += t1.elapsed().as_secs_f64();
                setup_ok += 1;
                check_mttf(out, model, &resp);
            }
            drop(conn);
            // Memory through set-up: the cold builds. Later, how concurrent
            // requests land in the allocator's per-thread arenas adds up to
            // ~30 MB on some runs, and how far the over-limit MTTF gets
            // before it is stopped depends on the machine's speed.
            rss = rss.max(server.peak_rss_mb());

            let done = run_phase(&server.addr, segment, true)?;
            verifier.check(out, segment, &done, &generated);
            record_attempts(out, &done);
            fixed.extend(done.into_iter().map(|d| (segment[d.index].clone(), d)));
            if rep + 1 == reps {
                if args.trace {
                    traced(
                        args,
                        out,
                        &mut tracer,
                        &mut verifier,
                        &server.addr,
                        &traced_phase,
                        &generated,
                    )?;
                } else {
                    let best = climb(out, &mut verifier, &server.addr, &rungs, &generated)?;
                    out.set("serve_max_rps", best);
                }
            }

            let mut conn = Conn::open(&server.addr).map_err(|e| format!("cannot connect: {e}"))?;
            conn.stream
                .set_read_timeout(Some(Duration::from_secs_f64(MTTF_LIMIT_S)))
                .map_err(|e| e.to_string())?;
            setup_ops += 1;
            let t1 = Instant::now();
            // Over the limit the read times out: the operation counts until
            // it was given up on.
            if let Ok(resp) = conn.call_ok(&query_line("rcs_scaled(2)", &["mttf"], &[])) {
                setup_ok += 1;
                check_mttf(out, "rcs_scaled(2)", &resp);
            }
            mttf += t1.elapsed().as_secs_f64();
            mttf_secs.push(mttf);
            Ok(())
        })();
        server.stop();
        result?;
    }
    out.attempted += setup_ops;

    let lat: Vec<f64> = fixed.iter().map(|(_, d)| d.latency()).collect();
    let ok_fast = lat.iter().filter(|&&l| l <= SERVE_P99_LIMIT_S).count() as u64;
    out.set(
        "ok_ratio",
        (ok_fast + setup_ok) as f64 / (lat.len() as u64 + setup_ops) as f64,
    );
    out.set("serve_p50_ms", quantile(&lat, 0.5) * 1e3);
    out.set("serve_p99_ms", quantile(&lat, 0.99) * 1e3);
    let p99 = quantile(&lat, 0.99);
    let mut above: BTreeMap<&str, usize> = BTreeMap::new();
    for (r, d) in &fixed {
        if d.latency() > p99 {
            *above.entry(r.kind.name()).or_default() += 1;
        }
    }
    eprintln!(
        "perfbench: fixed rate: {} requests, p98 {:.2} ms, p99 {:.2} ms, p99.5 {:.2} ms; above p99: {above:?}",
        lat.len(),
        quantile(&lat, 0.98) * 1e3,
        p99 * 1e3,
        quantile(&lat, 0.995) * 1e3
    );
    // Time points the memo-miss reads answered per second of the server's
    // own evaluation time for them.
    let (points, eval_us) = fixed
        .iter()
        .filter(|(r, _)| r.points > 0)
        .filter_map(|(r, d)| {
            d.response
                .as_ref()
                .ok()
                .map(|resp| (r.points as f64, stat(resp, &["timings", "evaluate_us"])))
        })
        .fold((0.0, 0.0), |(p, e), (rp, re)| (p + rp, e + re));
    out.set("sweep_points_per_s", points / (eval_us / 1e6));
    for kind in Kind::ALL {
        let of_kind: Vec<&Done> = fixed
            .iter()
            .filter(|(r, _)| r.kind == kind)
            .map(|(_, d)| d)
            .collect();
        let service: Vec<f64> = of_kind.iter().map(|d| d.rtt_s * 1e3).collect();
        let latency: Vec<f64> = of_kind.iter().map(|d| d.latency() * 1e3).collect();
        eprintln!(
            "perfbench: {:>10}: {:5} requests, service p50 {:8.3} ms p99 {:8.3} ms, latency p50 {:8.3} ms p99 {:8.3} ms",
            kind.name(),
            of_kind.len(),
            quantile(&service, 0.5),
            quantile(&service, 0.99),
            quantile(&latency, 0.5),
            quantile(&latency, 0.99)
        );
    }
    out.set("setup_s", median(&setup_secs));
    out.set("analyze_s", median(&cold_secs));
    out.set("mttf_s", median(&mttf_secs));
    out.set("peak_rss_mb", rss);
    if args.trace {
        out.set("absorbing.mttf_us", median(&mttf_secs) * 1e6);
        out.set(
            "absorbing.over_limit",
            f64::from(u8::from(median(&mttf_secs) >= MTTF_LIMIT_S)),
        );
    }
    Ok(())
}

/// How far a rung is from the latency limit: the larger of its p99 and
/// the lateness of its last 1% of requests (a growing backlog shows as
/// lateness at the end).
fn rung_score(done: &[Done]) -> (f64, f64) {
    let lat: Vec<f64> = done.iter().map(Done::latency).collect();
    let tail = (done.len() / 100).max(1);
    let tail_late = done
        .iter()
        .rev()
        .take(tail)
        .map(|d| d.lateness_s)
        .fold(0.0, f64::max);
    (quantile(&lat, 0.99), tail_late)
}

/// The ladder: a warm-up, its first entry, which goes unscored (the first
/// second at a high rate after the low fixed rate runs slow), then a
/// bisection over the rungs that follow for the lowest rung that
/// misses the limit above one that meets it. It reports the offered rate
/// where the score crosses the limit, interpolated on a log-log scale
/// between those two rungs; the top rung's rate when every rung meets it.
fn climb(
    out: &mut Outcome,
    verifier: &mut Verifier,
    addr: &str,
    rungs: &[(f64, Vec<Request>)],
    generated: &Generated,
) -> Result<f64, String> {
    let limit = SERVE_P99_LIMIT_S;
    let mut run_rung = |label: &str, rate: f64, rung: &[Request]| -> Result<f64, String> {
        let done = run_phase(addr, rung, false)?;
        verifier.check(out, rung, &done, generated);
        record_attempts(out, &done);
        let (p99, tail_late) = rung_score(&done);
        let score = p99.max(tail_late);
        eprintln!(
            "perfbench: {label} {rate:.0} req/s: p99 {:.1} ms, tail lateness {:.1} ms, {}",
            p99 * 1e3,
            tail_late * 1e3,
            if score <= limit {
                "meets the limit"
            } else {
                "misses the limit"
            }
        );
        Ok(score)
    };
    let Some(((warm_rate, warm_up), ladder)) = rungs.split_first() else {
        return Ok(0.0);
    };
    run_rung("warm-up", *warm_rate, warm_up)?;
    let (pass, miss) = bisect(ladder.len(), limit, |k| {
        let (rate, rung) = &ladder[k];
        run_rung("rung", *rate, rung)
    })?;
    let at = |(k, score): (usize, f64)| (ladder[k].0, score);
    Ok(match miss {
        Some(m) => crossing(pass.map(at), at(m), limit),
        None => pass.map_or(0.0, |p| at(p).0),
    })
}

/// A probed rung: its index and score.
type Probed = Option<(usize, f64)>;

/// Bisects `n` rungs whose score grows with their index for the highest
/// rung that meets `limit` and the lowest that misses it, each with its
/// score, probing ⌈log2(n + 1)⌉ rungs at most.
fn bisect(
    n: usize,
    limit: f64,
    mut probe: impl FnMut(usize) -> Result<f64, String>,
) -> Result<(Probed, Probed), String> {
    let (mut pass, mut miss): (Probed, Probed) = (None, None);
    loop {
        let lo = pass.map_or(0, |(k, _)| k + 1);
        let hi = miss.map_or(n, |(k, _)| k);
        if lo >= hi {
            return Ok((pass, miss));
        }
        let mid = (lo + hi) / 2;
        let score = probe(mid)?;
        if score <= limit {
            pass = Some((mid, score));
        } else {
            miss = Some((mid, score));
        }
    }
}

/// The rate where the score reaches `limit`, between a rung that met it
/// (`pass`, if any) and the first that missed it.
fn crossing(pass: Option<(f64, f64)>, miss: (f64, f64), limit: f64) -> f64 {
    let (rate_b, score_b) = miss;
    match pass {
        Some((rate_a, score_a)) if score_b.is_finite() && score_a > 0.0 => {
            let f = ((limit / score_a).ln() / (score_b / score_a).ln()).clamp(0.0, 1.0);
            rate_a * (rate_b / rate_a).powf(f)
        }
        Some((rate_a, _)) => rate_a,
        // Even the first rung misses: scale it down to the limit.
        None if score_b.is_finite() => rate_b * limit / score_b,
        None => 0.0,
    }
}

/// The traced phase: the fixed rate again on the last server, with the
/// server's `stats` read over short-lived connections before and after (an
/// open connection holds a server worker).
fn traced(
    args: &Args,
    out: &mut Outcome,
    tracer: &mut Tracer,
    verifier: &mut Verifier,
    addr: &str,
    phase: &[Request],
    generated: &Generated,
) -> Result<(), String> {
    let before = server_stats(addr)?;
    let done = run_phase(addr, phase, true)?;
    let after = server_stats(addr)?;
    verifier.check(out, phase, &done, generated);
    record_attempts(out, &done);
    traced_metrics(out, tracer, phase, &done, &before, &after);
    replay_writes(out, tracer, phase, &done, generated)?;
    tracer.report_overhead(out);
    crate::write_trace(args, tracer);
    Ok(())
}

fn check_mttf(out: &mut Outcome, model: &str, resp: &Json) {
    let want = config::reference(model).mttf;
    let got = values_of(resp).and_then(|v| v.first().copied());
    out.check(got.is_some_and(|g| close(g, want)), || {
        format!("{model}: served MTTF {got:?}, reference {want}")
    });
}

fn record_attempts(out: &mut Outcome, done: &[Done]) {
    for d in done {
        out.attempted += 1;
        if let Err(e) = &d.response {
            out.failed += 1;
            out.check(false, || format!("request {}: {e}", d.index));
        }
    }
}

/// The cold batch of a set-up against the committed reference values.
fn check_batch(out: &mut Outcome, model: &str, resp: &Json) {
    let want = config::reference(model).batch_by_kind();
    let Some(v) = values_of(resp) else {
        out.check(false, || format!("{model}: the cold batch has no values"));
        return;
    };
    // Values come in measure order, each timed kind across the sorted grid.
    let ok = v.len() == want.len() && v.iter().zip(&want).all(|(g, w)| close(*g, *w));
    out.check(ok, || {
        format!("{model}: cold batch {v:?} differs from the reference {want:?}")
    });
}

/// Per-layer numbers of the traced phase: one client span per request with
/// the server's reported build and evaluate times as its children, plus the
/// server's own counters and histograms read before and after. Counters
/// and times are totals over the phase.
fn traced_metrics(
    out: &mut Outcome,
    tracer: &mut Tracer,
    phase: &[Request],
    done: &[Done],
    before: &Json,
    after: &Json,
) {
    let base = tracer.now_us();
    let mut miss_eval_us = 0.0;
    for d in done {
        let (s, e) = (base + d.sent * 1e6, base + d.end * 1e6);
        let root = tracer.record("request", d.index as u64, None, s, e);
        if let Ok(resp) = &d.response {
            let build = stat(resp, &["timings", "build_us"]);
            let eval = stat(resp, &["timings", "evaluate_us"]);
            if phase[d.index].kind.is_miss() {
                miss_eval_us += eval;
            }
            tracer.record("server.build", d.index as u64, Some(root), s, s + build);
            tracer.record(
                "server.evaluate",
                d.index as u64,
                Some(root),
                s + build,
                s + build + eval,
            );
        }
    }
    tracer.report_op(out, "request");
    // The memo-miss reads' evaluate phase is their transient solve.
    out.set("transient.solve_us", miss_eval_us);
    for name in ["parse", "build", "evaluate", "total"] {
        for q in ["p50", "p99"] {
            out.set(
                &format!("server.{name}_us.{q}"),
                stat(after, &["server", "latency", name, &format!("{q}_us")]),
            );
        }
    }
    for key in ["cache_hits", "cache_misses", "dedup_waits", "errors"] {
        out.set(
            &format!("server.{key}"),
            stat(after, &["server", key]) - stat(before, &["server", key]),
        );
    }
    let delta = |key: &str| session_sum(after, key) - session_sum(before, key);
    for (name, key) in [
        ("poisson.hits", "poisson_hits"),
        ("poisson.misses", "poisson_misses"),
        ("transient.dtmc_steps", "dtmc_steps"),
        ("transient.sweeps", "sweeps"),
        ("query.aggregations_built", "aggregations_built"),
        ("bisim.refine_rounds", "refine_rounds"),
        ("bisim.states_resigned", "states_resigned"),
    ] {
        out.set(name, delta(key));
    }
    // The aggregations of the written models, as the server timed them.
    let aggregate = delta("aggregation_secs") * 1e6;
    let mut phases = 0.0;
    for (name, key) in [
        ("bisim.signature_us", "signature_secs"),
        ("bisim.split_us", "split_secs"),
        ("bisim.quotient_us", "quotient_secs"),
    ] {
        let us = delta(key) * 1e6;
        phases += us;
        out.set(name, us);
    }
    out.set("engine.aggregate_us", aggregate);
    out.set("engine.unattributed_us", aggregate - phases);
    let rtt: Vec<f64> = done.iter().map(|d| d.rtt_s * 1e6).collect();
    let late: Vec<f64> = done.iter().map(|d| d.lateness_s * 1e6).collect();
    out.set("client.rtt_us.p50", quantile(&rtt, 0.5));
    out.set("client.rtt_us.p99", quantile(&rtt, 0.99));
    out.set("gen.lateness_us.p50", quantile(&late, 0.5));
    out.set("gen.lateness_us.p99", quantile(&late, 0.99));
    out.set(
        "gen.backlog",
        done.iter().map(|d| d.backlog).max().unwrap_or(0) as f64,
    );
}

/// The write path of the traced phase's writes, replayed in the generator
/// on the same texts after the phase: a span around `parse_system`,
/// `SystemModel::build` and `steady_state_with` each, and the sizes of the
/// aggregation the generator's own session of the text holds (the engine
/// is deterministic, so the server's is the same). Totals over the writes;
/// peaks are maxima.
fn replay_writes(
    out: &mut Outcome,
    tracer: &mut Tracer,
    phase: &[Request],
    done: &[Done],
    generated: &Generated,
) -> Result<(), String> {
    let mut opts = EngineOptions::new().with_threads(1);
    opts.solver.transient.threads = 1;
    let mut sums: BTreeMap<&str, f64> = BTreeMap::new();
    let mut writes = Vec::new();
    for d in done {
        let req = &phase[d.index];
        if let (Kind::Write, Some(k), Ok(_)) = (req.kind, req.generated, &d.response) {
            writes.push((d.index as u64, k));
        }
    }
    let mut aggs: Vec<Arc<Aggregation>> = Vec::new();
    for &(op, k) in &writes {
        let text = &generated.texts[k];
        let agg = generated.sessions[k]
            .availability_model()
            .map_err(|e| e.to_string())?;
        tracer.span("write", op, |tr| -> Result<(), String> {
            let def = tr
                .span("parser.parse", op, |_| arcade::parser::parse_system(text))
                .map_err(|e| e.to_string())?;
            let model = tr
                .span("build.model", op, |_| SystemModel::build(&def))
                .map_err(|e| e.to_string())?;
            let states: usize = model.automata().iter().map(|a| a.num_states()).sum();
            let down: Vec<u32> = agg.ctmc.states_with_label(DOWN_BIT).collect();
            let pi = tr.span("steady.solve", op, |_| {
                ctmc::steady::steady_state_with(&agg.ctmc, &opts.solver)
            });
            std::hint::black_box(ctmc::measures::state_mass(&down, &pi));
            *sums.entry("parser.bytes").or_default() += text.len() as f64;
            *sums.entry("build.block_states").or_default() += states as f64;
            Ok(())
        })?;
        aggs.push(agg);
    }
    for agg in &aggs {
        for (k, v) in [
            ("engine.peak_states", agg.largest_intermediate.states as f64),
            (
                "engine.peak_transitions",
                agg.largest_intermediate.transitions() as f64,
            ),
        ] {
            let e = sums.entry(k).or_default();
            *e = e.max(v);
        }
        for (k, v) in [
            ("engine.ctmc_states", agg.ctmc_stats.states as f64),
            (
                "engine.ctmc_transitions",
                agg.ctmc_stats.transitions() as f64,
            ),
            ("engine.steps", agg.steps.len() as f64),
        ] {
            *sums.entry(k).or_default() += v;
        }
    }
    let summary = tracer.summary();
    let total = |name: &str| summary.get(name).map_or(0.0, |s| s.1);
    sums.insert("parser.parse_us", total("parser.parse"));
    sums.insert("build.model_us", total("build.model"));
    sums.insert("steady.solve_us", total("steady.solve"));
    for (k, v) in sums {
        out.set(k, v);
    }
    out.check(!writes.is_empty(), || {
        "the traced phase answered no write".to_owned()
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossing_interpolates_between_rungs() {
        // Halfway between the scores on a log scale is halfway in rate.
        let r = crossing(Some((400.0, 0.1)), (460.0, 0.4), 0.2);
        assert!((r - 400.0 * (460.0f64 / 400.0).sqrt()).abs() < 1e-9);
        assert_eq!(
            crossing(Some((400.0, 0.1)), (460.0, f64::INFINITY), 0.2),
            400.0
        );
        assert_eq!(crossing(None, (400.0, 0.4), 0.2), 200.0);
    }

    #[test]
    fn bisection_finds_the_rungs_around_the_crossing() {
        let limit = 0.25;
        // Scores double from rung to rung: rung 5 (0.32) is the first miss.
        let score = |k: usize| 0.01 * 2f64.powi(k as i32);
        let mut probed = Vec::new();
        let found = bisect(12, limit, |k| {
            probed.push(k);
            Ok(score(k))
        });
        assert_eq!(found, Ok((Some((4, score(4))), Some((5, score(5))))));
        assert!(probed.len() <= 4, "probed {probed:?}");
        // Every rung meets the limit, or none does.
        assert_eq!(
            bisect(12, limit, |_| Ok(0.1)).unwrap(),
            (Some((11, 0.1)), None)
        );
        assert_eq!(
            bisect(12, limit, |_| Ok(0.5)).unwrap(),
            (None, Some((0, 0.5)))
        );
        assert_eq!(bisect(0, limit, |_| Ok(0.5)).unwrap(), (None, None));
    }

    #[test]
    fn phases_are_seeded_and_keep_each_write_ahead_of_its_read() {
        let texts = vec!["a".to_owned(), "b".to_owned()];
        let schedule = |seed: u64| {
            let mut mix = Mix {
                rng: stream(seed, 300),
                fresh: HashSet::new(),
                writes: 0,
                seed,
                texts: &texts,
            };
            mix.phase(FIXED_RPS, 5.0)
        };
        let phase = schedule(4);
        let lines = |p: &[Request]| p.iter().map(|r| r.lines.clone()).collect::<Vec<_>>();
        assert_eq!(lines(&phase), lines(&schedule(4)));
        assert_ne!(lines(&phase), lines(&schedule(5)));
        assert!((phase.len() as f64 - FIXED_RPS * 5.0).abs() <= 2.0);
        assert!(phase.windows(2).all(|w| w[0].due <= w[1].due));
        let mut seen = HashSet::new();
        let (mut writes, mut reads) = (0, 0);
        for r in &phase {
            match r.kind {
                Kind::Write => {
                    writes += 1;
                    seen.insert(r.write.unwrap());
                }
                Kind::WriteRead => {
                    reads += 1;
                    assert!(seen.contains(&r.write.unwrap()));
                    assert_eq!(r.lines.len(), 1);
                }
                _ => assert!(r.write.is_none()),
            }
        }
        assert!(writes > 0 && writes == reads);
    }
}
