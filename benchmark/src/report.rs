//! Metric specs from `BENCHMARK.json`, the result line, `report.json`,
//! and `benchmark compare`.

use std::fmt::Write as _;

use evematch::core::telemetry::json::{push_key, push_string, JsonValue};

use crate::check::Tally;
use crate::stats;

/// The benchmark definition, compiled in so the binary and the file cannot
/// disagree.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// Its name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// Whether higher values are better.
    pub higher_is_better: bool,
    /// The share by which it may worsen (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the binary uses.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// End-to-end metrics (`--trace 0`).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (`--trace 1`).
    pub per_layer: Vec<MetricSpec>,
}

fn num(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::Num(raw) => raw.parse().ok(),
        _ => None,
    }
}

/// Parses a `BENCHMARK.json` document.
pub fn parse_spec(text: &str) -> Option<Spec> {
    let doc = JsonValue::parse(text)?;
    let metrics = |key: &str| -> Option<Vec<MetricSpec>> {
        doc.get(key)?
            .as_arr()?
            .iter()
            .map(|m| {
                Some(MetricSpec {
                    name: m.get("name")?.as_str()?.to_owned(),
                    unit: m.get("unit")?.as_str()?.to_owned(),
                    higher_is_better: m.get("better")?.as_str()? == "higher",
                    bound: m.get("bound").and_then(num),
                })
            })
            .collect()
    };
    Some(Spec {
        run_seconds: num(doc.get("run_seconds")?)?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// The compiled-in spec.
pub fn spec() -> Spec {
    // A malformed BENCHMARK.json is a build-time defect of this crate: the
    // unit tests parse it, so this cannot fail in a tested build.
    parse_spec(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

/// One measured metric of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Its name.
    pub name: String,
    /// Its value.
    pub value: f64,
    /// How many samples the value summarizes.
    pub n: usize,
}

impl Metric {
    /// A metric, or `None` for a non-finite value.
    pub fn new(name: &str, value: f64, n: usize) -> Option<Metric> {
        value.is_finite().then(|| Metric {
            name: name.to_owned(),
            value,
            n,
        })
    }
}

/// The result of one workload run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The workload's name.
    pub workload: &'static str,
    /// The seed its inputs came from.
    pub seed: u64,
    /// Checked ops.
    pub tally: Tally,
    /// Every metric measured (a superset of the spec's list).
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The metric named `name`.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

fn push_f64(out: &mut String, v: f64) {
    // `{}` prints the shortest text that reads back to the same f64.
    let _ = write!(out, "{v}");
}

/// The one-line result object: the spec's metrics only. Several runs of
/// one workload report each metric's median; several workloads prefix
/// each name with `<workload>/`.
pub fn result_line(runs: &[RunResult], specs: &[MetricSpec]) -> String {
    let mut tally = Tally::default();
    for r in runs {
        tally.merge(&r.tally);
    }
    let mut workloads: Vec<&str> = Vec::new();
    for r in runs {
        if !workloads.contains(&r.workload) {
            workloads.push(r.workload);
        }
    }
    let mut out = String::from("{");
    push_key(&mut out, "correct");
    out.push_str(if tally.failed == 0 { "true" } else { "false" });
    let _ = write!(
        out,
        ",\"attempted\":{},\"failed\":{},\"metrics\":{{",
        tally.attempted, tally.failed
    );
    let mut first = true;
    for w in &workloads {
        for spec in specs {
            let values: Vec<f64> = runs
                .iter()
                .filter(|r| r.workload == *w)
                .filter_map(|r| r.get(&spec.name).map(|m| m.value))
                .collect();
            let Some(value) = stats::quartiles(&values).map(|q| q.1) else {
                continue;
            };
            if !first {
                out.push(',');
            }
            first = false;
            let name = if workloads.len() > 1 {
                format!("{w}/{}", spec.name)
            } else {
                spec.name.clone()
            };
            push_key(&mut out, &name);
            out.push_str("{\"value\":");
            push_f64(&mut out, value);
            out.push_str(",\"unit\":");
            push_string(&mut out, &spec.unit);
            out.push('}');
        }
    }
    out.push_str("}}");
    out
}

/// Host facts every report records.
#[derive(Clone, Debug)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub parallelism: usize,
    /// The checkout's commit, or `unknown` outside a git repository.
    pub git_sha: String,
}

/// `report.json`: every run with every metric, its unit and sample count,
/// and the failure causes.
pub fn report_json(
    host: &Host,
    seed: u64,
    seconds: f64,
    runs: &[RunResult],
    spec: &Spec,
) -> String {
    let unit = |name: &str| {
        spec.end_to_end
            .iter()
            .chain(&spec.per_layer)
            .find(|m| m.name == name)
            .map_or_else(|| extra_unit(name), |m| m.unit.as_str())
    };
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"host_parallelism\":{},\"git_sha\":",
        host.parallelism
    );
    push_string(&mut out, &host.git_sha);
    let _ = write!(out, ",\"seed\":{seed},\"seconds\":");
    push_f64(&mut out, seconds);
    out.push_str(",\"runs\":[");
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{");
        push_key(&mut out, "workload");
        push_string(&mut out, r.workload);
        let _ = write!(
            out,
            ",\"seed\":{},\"attempted\":{},\"failed\":{},\"causes\":{{",
            r.seed, r.tally.attempted, r.tally.failed
        );
        for (j, (cause, n)) in r.tally.causes.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_key(&mut out, cause);
            let _ = write!(out, "{n}");
        }
        out.push_str("},\"metrics\":{");
        for (j, m) in r.metrics.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_key(&mut out, &m.name);
            out.push_str("{\"value\":");
            push_f64(&mut out, m.value);
            out.push_str(",\"unit\":");
            push_string(&mut out, unit(&m.name));
            let _ = write!(out, ",\"n\":{}}}", m.n);
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

/// The metrics reports carry beyond `BENCHMARK.json`, with their units:
/// the p90 (only with ten samples beyond it), the failure share (0 on
/// every passing run), and the grid's own layers.
pub const REPORT_ONLY: [(&str, &str); 7] = [
    ("latency_s.p90", "s"),
    ("failed_frac", "ratio"),
    ("eval.grid_s", "s"),
    ("eval.worker_busy_frac", "ratio"),
    ("persist.emit_s", "s"),
    ("persist.bytes", "bytes"),
    ("persist.verify_s", "s"),
];

fn extra_unit(name: &str) -> &'static str {
    REPORT_ONLY
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// Per (workload, metric): the values of every run.
type Rows = Vec<((String, String), Vec<f64>)>;

/// The [`Rows`] of a `report.json`.
fn report_values(text: &str) -> Option<Rows> {
    let doc = JsonValue::parse(text)?;
    let mut rows = Rows::new();
    for run in doc.get("runs")?.as_arr()? {
        let workload = run.get("workload")?.as_str()?;
        let JsonValue::Obj(metrics) = run.get("metrics")? else {
            return None;
        };
        for (name, m) in metrics {
            let value = num(m.get("value")?)?;
            let key = (workload.to_owned(), name.clone());
            match rows.iter_mut().find(|(k, _)| *k == key) {
                Some((_, values)) => values.push(value),
                None => rows.push((key, vec![value])),
            }
        }
    }
    Some(rows)
}

/// The verdict on one (metric, workload) row.
pub fn verdict(spec: &MetricSpec, a: &[f64], b: &[f64]) -> &'static str {
    let bound = spec.bound.unwrap_or(0.0);
    let (Some((_, ma, _)), Some((_, mb, _))) = (stats::quartiles(a), stats::quartiles(b)) else {
        return "unresolved";
    };
    if stats::spread(a) > bound || stats::spread(b) > bound {
        return "unresolved";
    }
    let change = stats::ratio(mb - ma, ma.abs());
    let gain = if spec.higher_is_better {
        change
    } else {
        -change
    };
    if gain < -bound {
        "worse"
    } else if gain > bound {
        "better"
    } else {
        "unchanged"
    }
}

/// `benchmark compare A B`: one row per end-to-end (metric, workload) with
/// both sides' median and quartiles and a verdict. Returns the table and
/// whether any row is worse.
pub fn compare(a: &str, b: &str, spec: &Spec) -> Result<(String, bool), String> {
    let ra = report_values(a).ok_or("first report is not a benchmark report")?;
    let rb = report_values(b).ok_or("second report is not a benchmark report")?;
    let mut out = format!(
        "{:<14} {:<15} {:>31}  {:>31}  verdict\n",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]"
    );
    let mut any_worse = false;
    for ((workload, name), va) in &ra {
        let Some(ms) = spec.end_to_end.iter().find(|m| &m.name == name) else {
            continue;
        };
        let Some((_, vb)) = rb.iter().find(|(k, _)| k.0 == *workload && k.1 == *name) else {
            continue;
        };
        let cell = |v: &[f64]| {
            stats::quartiles(v).map_or_else(String::new, |(q1, m, q3)| {
                format!("{m:.4} [{q1:.4}, {q3:.4}] n={}", v.len())
            })
        };
        let v = verdict(ms, va, vb);
        any_worse |= v == "worse";
        let _ = writeln!(
            out,
            "{workload:<14} {name:<15} {:>31}  {:>31}  {v} (bound {})",
            cell(va),
            cell(vb),
            ms.bound.unwrap_or(0.0)
        );
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_parses_with_bounded_end_to_end_metrics() {
        let s = spec();
        assert!(s.run_seconds >= 1.0);
        assert!(s
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| (0.0..=0.25).contains(&b))));
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = s.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        let max = s
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(max), "setup_s carries the largest bound");
    }

    #[test]
    fn verdicts_apply_bounds_and_spreads() {
        let lower = MetricSpec {
            name: "latency_s.p50".into(),
            unit: "s".into(),
            higher_is_better: false,
            bound: Some(0.1),
        };
        let base = [1.0, 1.01, 0.99, 1.0];
        assert_eq!(
            verdict(&lower, &base, &[1.05, 1.04, 1.06, 1.05]),
            "unchanged"
        );
        assert_eq!(verdict(&lower, &base, &[1.2, 1.21, 1.19, 1.2]), "worse");
        assert_eq!(verdict(&lower, &base, &[0.8, 0.81, 0.79, 0.8]), "better");
        assert_eq!(verdict(&lower, &base, &[0.5, 1.5, 0.7, 1.2]), "unresolved");
        let higher = MetricSpec {
            higher_is_better: true,
            ..lower
        };
        assert_eq!(verdict(&higher, &base, &[0.8, 0.81, 0.79, 0.8]), "worse");
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let s = spec();
        let mut tally = Tally::default();
        tally.record(&[]);
        let metrics = s
            .end_to_end
            .iter()
            .map(|m| Metric::new(&m.name, 0.5, 3).unwrap())
            .collect();
        let run = RunResult {
            workload: "cli-exact",
            seed: 11,
            tally,
            metrics,
        };
        let line = result_line(&[run], &s.end_to_end);
        let doc = JsonValue::parse(&line).unwrap();
        let JsonValue::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(true)));
        let latency = doc.get("metrics").unwrap().get("latency_s.p50").unwrap();
        assert_eq!(latency.get("unit").unwrap().as_str(), Some("s"));

        // Runs interleave workloads: each name appears once, as the median.
        let make = |workload, value| RunResult {
            workload,
            seed: 11,
            tally: Tally::default(),
            metrics: vec![Metric::new("setup_s", value, 3).unwrap()],
        };
        let runs = [
            make("cli-exact", 1.0),
            make("grid-fig12", 5.0),
            make("cli-exact", 3.0),
        ];
        let doc = JsonValue::parse(&result_line(&runs, &s.end_to_end)).unwrap();
        let JsonValue::Obj(metrics) = doc.get("metrics").unwrap() else {
            panic!("metrics is not an object")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["cli-exact/setup_s", "grid-fig12/setup_s"]);
        let median = metrics[0].1.get("value").unwrap();
        assert_eq!(median, &JsonValue::Num("2".into()));
    }
}
