//! The metric registry. `BENCHMARK.json` at the repo root is the single
//! list of metric names, units, directions and bounds; this module reads
//! it (compiled in, so the binary and the file cannot drift) and refuses
//! to print a result that sets an unlisted metric or leaves a listed one
//! unset.

use gist::obs::json::{self, Value};
use std::collections::BTreeMap;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (`end_to_end` only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
    pub run_seconds: f64,
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Num(n) => Some(*n),
        _ => None,
    }
}

fn metric_list(doc: &Value, key: &str) -> Vec<MetricSpec> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing array {key}"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("BENCHMARK.json: {key} entry lacks {k}"))
                    .to_string()
            };
            let better = field("better");
            assert!(better == "higher" || better == "lower", "BENCHMARK.json: better={better}");
            MetricSpec {
                name: field("name"),
                unit: field("unit"),
                higher_is_better: better == "higher",
                bound: m.get("bound").and_then(num),
            }
        })
        .collect()
}

impl Spec {
    /// Parses the compiled-in `BENCHMARK.json`. Panics on a malformed file:
    /// that is a defect of this package, not an input error.
    pub fn load() -> Spec {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("BENCHMARK.json: workloads")
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Value::as_str).expect("workload field");
                (s("name").to_string(), s("why").to_string())
            })
            .collect();
        Spec {
            workloads,
            end_to_end: metric_list(&doc, "end_to_end"),
            per_layer: metric_list(&doc, "per_layer"),
            run_seconds: doc.get("run_seconds").and_then(num).expect("run_seconds"),
        }
    }

    pub fn has_workload(&self, name: &str) -> bool {
        self.workloads.iter().any(|(n, _)| n == name)
    }
}

/// Whether `name` obeys the contract's naming rule: starts with a letter
/// or digit, at most 64 of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Whether `unit` obeys the contract's unit rule.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// Values measured by one run, keyed by metric name, plus free-text notes
/// (which tail percentile was reported, sample counts) shown beside them.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    notes: BTreeMap<String, String>,
    /// Steps or jobs attempted.
    pub attempted: u64,
    /// Of those, how many errored, produced a non-finite loss, or failed an
    /// output check.
    pub failed: u64,
    /// Human-readable descriptions of each failed check.
    pub failures: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let old = self.values.insert(name.to_string(), value);
        assert!(old.is_none(), "metric {name} set twice");
    }

    pub fn note(&mut self, name: &str, note: String) {
        self.notes.insert(name.to_string(), note);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts one failed check against the run.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// Names set by the run that `specs` does not list, and names `specs`
    /// lists that the run did not set.
    pub fn mismatch(&self, specs: &[MetricSpec]) -> (Vec<String>, Vec<String>) {
        let extra =
            self.values.keys().filter(|k| !specs.iter().any(|s| &s.name == *k)).cloned().collect();
        let missing = specs
            .iter()
            .filter(|s| !self.values.contains_key(&s.name))
            .map(|s| s.name.clone())
            .collect();
        (extra, missing)
    }

    /// The table a person reads: every metric by name with value, unit and
    /// direction.
    pub fn table(&self, specs: &[MetricSpec]) -> String {
        let mut out = String::new();
        for s in specs {
            let v = self.values[&s.name];
            let dir = if s.higher_is_better { "higher is better" } else { "lower is better" };
            let note = self.notes.get(&s.name).map(|n| format!("  [{n}]")).unwrap_or_default();
            out.push_str(&format!("  {:<44} {:>16} {:<8} {dir}{note}\n", s.name, fmt(v), s.unit));
        }
        out
    }

    /// The contract's result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self, specs: &[MetricSpec]) -> String {
        let metrics: Vec<String> = specs
            .iter()
            .map(|s| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    s.name,
                    fmt(self.values[&s.name]),
                    json::escape(&s.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Shortest decimal that round-trips the value: every measured digit, no
/// rounding, and valid JSON (no exponent-free `inf`/`NaN`, which `set`
/// already rejected).
fn fmt(v: f64) -> String {
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_contract() {
        assert!(valid_name("runtime.step_ms_p50_ref"));
        assert!(valid_name("9lives-ok_1"));
        assert!(!valid_name(""));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("GiB/s") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("seventeen_chars_x") && !valid_unit("a b"));
    }

    #[test]
    fn benchmark_json_obeys_its_contract() {
        let spec = Spec::load();
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in &spec.workloads {
            assert!(valid_name(name) && seen.insert(name.clone()), "workload {name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(valid_name(&m.name) && seen.insert(m.name.clone()), "metric {}", m.name);
            assert!(valid_unit(&m.unit), "unit of {}", m.name);
        }
        for m in &spec.end_to_end {
            let b = m.bound.unwrap_or_else(|| panic!("{} lacks a bound", m.name));
            assert!(b > 0.0 && b <= 0.25, "bound of {}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }

    #[test]
    fn report_flags_unlisted_and_unset_names() {
        let specs = vec![
            MetricSpec {
                name: "a".into(),
                unit: "ms".into(),
                higher_is_better: false,
                bound: None,
            },
            MetricSpec {
                name: "b".into(),
                unit: "ms".into(),
                higher_is_better: false,
                bound: None,
            },
        ];
        let mut r = Report::default();
        r.set("a", 1.5);
        r.set("c", 2.0);
        assert_eq!(r.mismatch(&specs), (vec!["c".to_string()], vec!["b".to_string()]));
    }

    #[test]
    fn result_line_is_the_contract_object() {
        let specs = vec![MetricSpec {
            name: "setup_s".into(),
            unit: "s".into(),
            higher_is_better: false,
            bound: Some(0.25),
        }];
        let mut r = Report { attempted: 7, ..Report::default() };
        r.set("setup_s", 0.8127);
        let doc = json::parse(&r.result_line(&specs)).unwrap();
        let Value::Object(members) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("attempted").unwrap().as_u64(), Some(7));
        let m = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(num(m.get("value").unwrap()), Some(0.8127));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
    }
}
