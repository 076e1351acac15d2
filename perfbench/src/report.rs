//! The run's result: metrics with units, output checks, diagnostics and the
//! configuration fingerprint; its JSON forms; and the comparison of two
//! saved results, which refuses to run across differing fingerprints.

use serde_json::Value;
use std::path::{Path, PathBuf};

/// Ordered JSON object builder over the serde stub's `Value`.
#[derive(Debug, Clone, Default)]
pub struct Obj(Vec<(String, Value)>);

impl Obj {
    pub fn set(&mut self, key: &str, value: impl Into<J>) -> &mut Obj {
        let value = value.into().0;
        match self.0.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value,
            None => self.0.push((key.to_string(), value)),
        }
        self
    }

    pub fn value(&self) -> Value {
        Value::Map(self.0.clone())
    }
}

/// Conversion wrapper so `Obj::set` takes numbers, strings and objects.
pub struct J(pub Value);

impl From<f64> for J {
    fn from(v: f64) -> J {
        J(Value::Float(v))
    }
}
impl From<u64> for J {
    fn from(v: u64) -> J {
        J(Value::Int(v as i128))
    }
}
impl From<usize> for J {
    fn from(v: usize) -> J {
        J(Value::Int(v as i128))
    }
}
impl From<bool> for J {
    fn from(v: bool) -> J {
        J(Value::Bool(v))
    }
}
impl From<&str> for J {
    fn from(v: &str) -> J {
        J(Value::Str(v.to_string()))
    }
}
impl From<String> for J {
    fn from(v: String) -> J {
        J(Value::Str(v))
    }
}
impl From<Obj> for J {
    fn from(v: Obj) -> J {
        J(v.value())
    }
}

/// One output check: how many operations it covered and how many failed.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ops: u64,
    pub failed: u64,
    pub detail: String,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// `(name, value, unit)`, in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Configuration that must match for two results to be comparable.
    pub fingerprint: Obj,
    /// Noise diagnostics, sample counts and provenance: reported, not gated.
    pub diagnostics: Obj,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Record a check; its failed operations count as failed requests.
    pub fn check(&mut self, name: &'static str, ops: u64, failed: u64, detail: impl Into<String>) {
        self.attempted += ops;
        self.failed += failed;
        self.checks.push(Check {
            name,
            ops,
            failed,
            detail: detail.into(),
        });
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.failed == 0)
    }

    fn metrics_obj(&self, keep: impl Fn(&str) -> bool) -> Obj {
        let mut m = Obj::default();
        for (name, value, unit) in self.metrics.iter().filter(|m| keep(&m.0)) {
            let mut e = Obj::default();
            e.set("value", *value).set("unit", *unit);
            m.set(name, e);
        }
        m
    }

    /// The one-line result: exactly `correct`, `attempted`, `failed`, and
    /// the `gated` metrics.
    pub fn summary_line(&self, gated: &[&str]) -> String {
        let mut o = Obj::default();
        o.set("correct", self.correct())
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", self.metrics_obj(|n| gated.contains(&n)));
        serde_json::to_string(&o.value()).expect("report renders")
    }

    /// The full record: summary plus checks, fingerprint and diagnostics.
    pub fn full(&self) -> Value {
        let mut checks = Obj::default();
        for c in &self.checks {
            let mut e = Obj::default();
            e.set("ops", c.ops)
                .set("failed", c.failed)
                .set("detail", c.detail.as_str());
            checks.set(c.name, e);
        }
        let mut o = Obj::default();
        o.set("correct", self.correct())
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", self.metrics_obj(|_| true))
            .set("checks", checks)
            .set("fingerprint", self.fingerprint.clone())
            .set("diagnostics", self.diagnostics.clone());
        o.value()
    }

    /// Human-readable table on stderr.
    pub fn print_table(&self) {
        for (name, value, unit) in &self.metrics {
            eprintln!("  {name:<28} {value:>14.6} {unit}");
        }
        for c in &self.checks {
            let verdict = if c.failed == 0 { "ok" } else { "FAILED" };
            eprintln!(
                "  check {:<22} {verdict} ({} ops, {} failed) {}",
                c.name, c.ops, c.failed, c.detail
            );
        }
    }
}

/// Where a run's full record is written.
pub fn result_path(out_dir: &Path, workload: &str, seed: u64, trace: bool) -> PathBuf {
    out_dir
        .join("results")
        .join(format!("{workload}-seed{seed}-trace{}.json", trace as u8))
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.get_field(key)
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// Compare two saved full records. Refuses (`Err`) when their fingerprints
/// differ, naming every differing key; otherwise returns one line per
/// metric with both values and the relative change.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<String>, String> {
    let (fa, fb) = match (field(a, "fingerprint"), field(b, "fingerprint")) {
        (Some(Value::Map(fa)), Some(Value::Map(fb))) => (fa, fb),
        _ => return Err("both results must carry a fingerprint".to_string()),
    };
    let mut keys: Vec<&String> = fa.iter().chain(fb.iter()).map(|(k, _)| k).collect();
    keys.sort();
    keys.dedup();
    let differing: Vec<String> = keys
        .into_iter()
        .filter(|k| {
            let va = fa.iter().find(|(x, _)| x == *k).map(|(_, v)| v);
            let vb = fb.iter().find(|(x, _)| x == *k).map(|(_, v)| v);
            va != vb
        })
        .map(|k| k.to_string())
        .collect();
    if !differing.is_empty() {
        return Err(format!("fingerprints differ in: {}", differing.join(", ")));
    }
    let (Some(Value::Map(ma)), Some(Value::Map(mb))) = (field(a, "metrics"), field(b, "metrics"))
    else {
        return Err("both results must carry metrics".to_string());
    };
    let mut lines = Vec::new();
    for (name, ea) in ma {
        let Some((_, eb)) = mb.iter().find(|(n, _)| n == name) else {
            continue;
        };
        let va = field(ea, "value").and_then(as_f64);
        let vb = field(eb, "value").and_then(as_f64);
        if let (Some(va), Some(vb)) = (va, vb) {
            let change = if va != 0.0 {
                format!("{:+.2}%", (vb / va - 1.0) * 100.0)
            } else {
                "n/a".into()
            };
            lines.push(format!("{name:<28} {va:>14.6} {vb:>14.6} {change}"));
        }
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(shards: u64, p50: f64) -> Value {
        let mut r = Report::default();
        r.metric("p50_ms", p50, "ms");
        r.check("recall", 10, 0, "");
        r.fingerprint.set("shards", shards).set("dim", 32u64);
        serde_json::from_str(&serde_json::to_string(&r.full()).expect("render")).expect("parse")
    }

    #[test]
    fn compare_refuses_differing_fingerprints() {
        let err = compare(&record(2, 1.0), &record(4, 1.0)).expect_err("shards differ");
        assert!(err.contains("shards"), "{err}");
        let lines = compare(&record(2, 1.0), &record(2, 1.1)).expect("same fingerprint");
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("+10.00%"), "{}", lines[0]);
    }

    #[test]
    fn summary_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.metric("setup_s", 0.5, "s");
        r.check("x", 3, 1, "one failed");
        r.metric("p95_ms", 2.0, "ms");
        let v: Value = serde_json::from_str(&r.summary_line(&["setup_s"])).expect("parse");
        let Value::Map(entries) = v else {
            panic!("summary is an object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(entries[0].1, Value::Bool(false));
        let Value::Map(metrics) = &entries[3].1 else {
            panic!("metrics is an object")
        };
        assert_eq!(
            metrics.len(),
            1,
            "only gated metrics reach the summary line"
        );
    }
}
