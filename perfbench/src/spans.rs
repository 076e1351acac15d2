//! Span arithmetic over captured traces: per-name self time (a span's
//! duration minus what its direct children cover) and attribute lookups.

use std::collections::BTreeMap;
use tmn_obs::trace::{SpanSnapshot, TraceSnapshot};

/// Self time of every non-root span, grouped by span name: one sample per
/// span, in nanoseconds.
pub fn self_times(traces: &[TraceSnapshot]) -> BTreeMap<String, Vec<f64>> {
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for t in traces {
        for s in t.spans.iter().filter(|s| s.parent != 0) {
            let covered: u64 = t.children(s.span).iter().map(|c| c.dur_ns).sum();
            out.entry(s.name.clone())
                .or_default()
                .push(s.dur_ns.saturating_sub(covered) as f64);
        }
    }
    out
}

/// Per-request sum of the self time of spans named `name`, for every trace
/// holding at least one of them.
pub fn per_trace_self(traces: &[TraceSnapshot], name: &str) -> Vec<f64> {
    traces
        .iter()
        .filter_map(|t| {
            let spans = t.spans_named(name);
            (!spans.is_empty()).then(|| {
                spans
                    .iter()
                    .map(|s| {
                        let covered: u64 = t.children(s.span).iter().map(|c| c.dur_ns).sum();
                        s.dur_ns.saturating_sub(covered) as f64
                    })
                    .sum()
            })
        })
        .collect()
}

/// The numeric attribute `key` of a span, if present.
pub fn attr(s: &SpanSnapshot, key: &str) -> Option<u64> {
    s.attrs.iter().find(|a| a.key == key).map(|a| a.value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmn_obs::trace::SpanAttr;

    fn span(span: u64, parent: u64, name: &str, dur_ns: u64) -> SpanSnapshot {
        SpanSnapshot {
            span,
            parent,
            name: name.into(),
            start_ns: 0,
            dur_ns,
            thread: 1,
            attrs: vec![SpanAttr {
                key: "batch_size".into(),
                value: 4,
            }],
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let t = TraceSnapshot {
            trace_id: 1,
            name: "root".into(),
            start_ns: 0,
            total_ns: 100,
            slow: false,
            spans: vec![
                span(1, 0, "root", 100),
                span(2, 1, "search", 60),
                span(3, 2, "knn", 30),
                span(4, 2, "knn", 20),
            ],
        };
        let st = self_times(std::slice::from_ref(&t));
        assert_eq!(st["search"], vec![10.0]);
        assert_eq!(st["knn"], vec![30.0, 20.0]);
        assert!(!st.contains_key("root"));
        assert_eq!(per_trace_self(std::slice::from_ref(&t), "knn"), vec![50.0]);
        assert_eq!(attr(&t.spans[1], "batch_size"), Some(4));
    }
}
