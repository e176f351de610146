//! The per-trace read a `SpanExport` reply serves.
//!
//! The tracer ring is never shipped whole: an `ObsExport` reply carries a
//! [`Registry::snapshot`] without its spans, and spans cross the wire
//! only through this filter, one trace id at a time.

use crate::registry::Registry;
use crate::span::SpanRecord;

impl Registry {
    /// Every recent span belonging to trace `trace_id`, in completion
    /// order. Serving this needs no new state: the tracer ring already
    /// holds the spans, and the trace id is part of each record.
    pub fn trace_spans(&self, trace_id: u64) -> Vec<SpanRecord> {
        let mut spans = self.tracer().recent();
        spans.retain(|s| trace_id != 0 && s.trace_id == trace_id);
        spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slow::SlowOpRecord;
    use std::time::Duration;

    #[test]
    fn trace_spans_filters_the_ring_by_trace() {
        let r = Registry::new();
        {
            let _root = r.span_traced("traced_root", 42);
            drop(r.span("traced_child"));
        }
        drop(r.span("untraced"));
        {
            let _other = r.span_traced("other_trace", 43);
        }
        let spans = r.trace_spans(42);
        let names: Vec<&str> = spans.iter().map(|s| &*s.name).collect();
        assert_eq!(names, ["traced_child", "traced_root"]);
        assert!(spans.iter().all(|s| s.trace_id == 42));
        assert!(r.trace_spans(0).is_empty(), "trace 0 means untraced");
    }

    #[test]
    fn export_carries_metrics_and_slow_ops_in_owned_form() {
        let r = Registry::new();
        r.counter("c.hits").add(3);
        r.gauge("g.depth").set(-2);
        r.histogram("h_ns").record(Duration::from_micros(9));
        r.slow_log().set_threshold(Duration::from_nanos(1));
        let root_id = {
            let root = r.span_traced("slow_op", 9);
            root.id()
        };
        r.slow_log().record(SlowOpRecord {
            op: "slow_op".into(),
            trace_id: Some(9),
            detail: "vertex=1".to_string(),
            duration_ns: 5_000_000,
            spans: crate::slow::span_subtree(&r.tracer().recent(), root_id),
        });
        let e = r.snapshot();
        assert_eq!(
            e.counters.iter().find(|(n, _)| n == "c.hits"),
            Some(&("c.hits".to_string(), 3))
        );
        assert_eq!(e.gauges, vec![("g.depth".to_string(), -2)]);
        assert_eq!(e.histograms.len(), 1);
        assert_eq!(e.histograms[0].1.count, 1);
        assert_eq!(e.slow.len(), 1);
        assert_eq!(e.slow[0].op, "slow_op");
        assert_eq!(e.slow[0].trace_id, Some(9));
        assert_eq!(e.slow[0].spans.len(), 1);
        assert_eq!(e.slow[0].spans[0].trace_id, 9);
        let json = e.slow[0].to_json_tagged(Some("s1"));
        assert!(
            json.starts_with("{\"server\":\"s1\",\"op\":\"slow_op\""),
            "{json}"
        );
    }
}
