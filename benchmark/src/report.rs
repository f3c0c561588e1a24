//! The metric names, units and bounds (read from `BENCHMARK.json`, the one
//! place they are written down) and the result a workload prints.

use crate::json::Json;
use std::collections::BTreeMap;

/// `BENCHMARK.json` as it was when this binary was built.
const SPEC: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// End-to-end metrics only: the share by which it may get worse.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Spec {
        Spec::parse(SPEC).expect("BENCHMARK.json is well-formed")
    }

    fn parse(text: &str) -> Result<Spec, String> {
        let j = Json::parse(text)?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            j.get(key)
                .ok_or(format!("missing {key}"))?
                .items()
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .map(str::to_owned)
                            .ok_or(format!("{key}: metric without {f}"))
                    };
                    Ok(MetricSpec {
                        name: field("name")?,
                        unit: field("unit")?,
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: j
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("missing run_seconds")? as u64,
            workloads: j
                .get("workloads")
                .ok_or("missing workloads")?
                .items()
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Operations refused, errored, timed out or answered wrongly.
    pub failed: u64,
    /// Failed whole-run checks (tallies, recovery), one line each.
    pub problems: Vec<String>,
    /// Metric name → (value, samples behind it; 0 = a count or a ratio).
    pub values: BTreeMap<String, (f64, usize)>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_n(name, value, 0);
    }

    pub fn set_n(&mut self, name: &str, value: f64, samples: usize) {
        let old = self.values.insert(name.to_owned(), (value, samples));
        assert!(old.is_none(), "metric {name} set twice");
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |v| v.0)
    }

    /// Records a failed whole-run check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Prints every metric of the requested kind by name, with unit and
    /// sample count, then the one-line JSON result. A per-layer metric
    /// the workload did not set reads 0: its layer did no work in this
    /// run. Every end-to-end metric must be set.
    pub fn print(&self, spec: &Spec, workload: &str, trace: bool) {
        let wanted = if trace {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        let mut cells = Vec::new();
        for m in wanted {
            let (value, n) = match self.values.get(&m.name) {
                Some(v) => *v,
                None if trace => (0.0, 0),
                None => panic!("workload {workload} did not report {}", m.name),
            };
            let samples = if n > 0 {
                format!("  n={n}")
            } else {
                String::new()
            };
            println!(
                "{workload:<13} {:<36} {value:>16.4} {}{samples}",
                m.name, m.unit
            );
            cells.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
        for name in self.values.keys() {
            assert!(
                spec.end_to_end
                    .iter()
                    .chain(&spec.per_layer)
                    .any(|m| &m.name == name),
                "metric {name} is not listed in BENCHMARK.json"
            );
        }
        for p in &self.problems {
            println!("{workload:<13} CHECK FAILED: {p}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            cells.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_valid_unique_names() {
        let spec = Spec::load();
        assert_eq!(
            spec.workloads,
            ["topk_hot", "enum_all", "serve_open", "ingest_mixed"]
        );
        let mut seen = std::collections::BTreeSet::new();
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(
                !m.name.is_empty()
                    && m.name.len() <= 64
                    && m.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {:?}",
                m.name
            );
            assert!(seen.insert(m.name.clone()), "{} listed twice", m.name);
        }
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert_eq!(setup.unit, "s");
    }
}
