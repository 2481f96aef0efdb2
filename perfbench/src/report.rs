//! Result assembly: statistics helpers, resident-memory probes, and the
//! one-line JSON result the benchmark prints last.

use std::collections::BTreeMap;

use arcade::serve::Json;

/// `BENCHMARK.json` at the checkout root declares every metric name and unit;
/// the binary emits exactly that set.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Operations that returned an error or were refused.
    pub failed: u64,
    /// Correctness checks that did not hold.
    pub wrong: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    /// Records a correctness check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.wrong.push(msg);
        }
    }
}

/// The `(name, unit)` pairs `BENCHMARK.json` declares under `section`.
pub fn declared(section: &str) -> Vec<(String, String)> {
    let spec = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    spec.get(section)
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json lists the metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("metric without `{k}` in BENCHMARK.json"))
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// `perfbench/layers.json`: the layer map, with the workloads on which
/// each per-layer metric reads zero by construction.
const LAYERS_JSON: &str = include_str!("../layers.json");

/// The per-layer metrics `layers.json` marks as zero on `workload`: the
/// workload never calls that layer, or has no such operation.
pub fn zero_on(workload: &str) -> Vec<String> {
    let layers = Json::parse(LAYERS_JSON).expect("layers.json is valid JSON");
    layers
        .get("per_layer")
        .and_then(Json::as_arr)
        .expect("layers.json lists the per-layer metrics")
        .iter()
        .filter(|m| {
            m.get("zero_on")
                .and_then(Json::as_arr)
                .is_some_and(|ws| ws.iter().any(|w| w.as_str() == Some(workload)))
        })
        .map(|m| {
            m.get("metric")
                .and_then(Json::as_str)
                .expect("a per-layer entry names its metric")
                .to_owned()
        })
        .collect()
}

/// The result line: exactly the declared metrics of the mode, each with its
/// unit. A metric the run did not set is reported missing on stderr and
/// fails the run, so the declared set and the code cannot drift apart.
pub fn result_line(out: &mut Outcome, traced: bool) -> String {
    let section = if traced { "per_layer" } else { "end_to_end" };
    let mut fields = Vec::new();
    for (name, unit) in declared(section) {
        let value = match out.metrics.get(&name) {
            Some(v) if v.is_finite() => *v,
            _ => {
                out.wrong.push(format!("metric `{name}` was not measured"));
                0.0
            }
        };
        fields.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            Json::Num(value)
        ));
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.wrong.is_empty(),
        out.attempted.max(1),
        out.failed,
        fields.join(",")
    )
}

/// Linear-interpolated quantile of an unsorted sample (`q` in `[0, 1]`).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Peak resident set (`VmHWM`) in MB of `pid`, or of this process.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = pid.map_or("/proc/self/status".to_owned(), |p| {
        format!("/proc/{p}/status")
    });
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
    }

    #[test]
    fn layers_json_maps_every_per_layer_metric() {
        let layers = Json::parse(LAYERS_JSON).unwrap();
        let entries = layers.get("per_layer").and_then(Json::as_arr).unwrap();
        let mapped: Vec<&str> = entries
            .iter()
            .map(|m| m.get("metric").and_then(Json::as_str).unwrap())
            .collect();
        let declared: Vec<String> = declared("per_layer").into_iter().map(|(n, _)| n).collect();
        assert_eq!(mapped, declared);
        let workloads = ["analyze_cold", "sweep_rerate", "serve_mixed"];
        for m in entries {
            for w in m.get("zero_on").and_then(Json::as_arr).unwrap() {
                assert!(workloads.contains(&w.as_str().unwrap()));
            }
        }
        assert!(zero_on("analyze_cold").contains(&"server.cache_hits".to_owned()));
    }

    #[test]
    fn declared_sections_are_nonempty() {
        assert!(declared("end_to_end")
            .iter()
            .any(|(n, u)| n == "setup_s" && u == "s"));
        assert!(!declared("per_layer").is_empty());
    }
}
