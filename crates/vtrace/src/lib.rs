//! Invocation tracing for the virtine serving stack.
//!
//! The paper's §5 methodology decomposes every virtine invocation into
//! spans (create/image/exec/release); `wasp::Breakdown` records that
//! decomposition but, before this crate, nothing exported it. `vtrace`
//! gives the dispatcher a bounded, allocation-free-when-disabled
//! [`TraceCollector`] that captures one span tree per invocation —
//! admit → queue-wait → shell-acquire → exec → park/resume → migrate →
//! complete/shed — stamped with virtual-clock cycles, plus a JSON-lines
//! dump consumed by the host-side `GET /trace` endpoint in `vhttp`.
//!
//! The [`slo`] module layers service-level objectives on top: sliding
//! vclock windows, error-budget burn rates, and multi-window alerts in
//! the style of the SRE workbook's multiwindow multi-burn-rate policy.
//!
//! Everything here is deterministic: timestamps come from the shared
//! virtual clock, so a trace dump is bit-for-bit reproducible across
//! runs and machines.

pub mod slo;

use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt::Write as _;

use vclock::Cycles;

/// One timed segment of an invocation (e.g. `queue_wait`, `exec`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Span kind: `admit`, `queue_wait`, `shell_acquire`, `exec`,
    /// `park`, `resume`, `migrate`, `shed`, `reconcile` (a lifecycle
    /// move off a draining shard), `drain_evict` (a lifecycle
    /// hard-stop; detail names the cause, `grace_expired` or
    /// `shard_failed`), `retry` (an exactly-once re-submission of work
    /// lost to a shard failure; detail carries `attempt=`/`cause=` at
    /// schedule time and `resubmit shard=` at release), or `hedge` (a
    /// speculative tail-latency duplicate; detail links the logical
    /// request and its copy via `of=`/`copy=`, and a suppressed loser
    /// closes with outcome `hedge:canceled`).
    pub label: &'static str,
    /// Free-form detail, e.g. `warm(delta=3)` or `hop=cross_socket`.
    pub detail: String,
    /// Start timestamp on the worker timeline.
    pub start: Cycles,
    /// End timestamp on the worker timeline.
    pub end: Cycles,
}

impl TraceSpan {
    /// Duration of the span (saturating, in case of zero-length marks).
    pub fn duration(&self) -> Cycles {
        self.end.saturating_sub(self.start)
    }
}

/// The complete span tree of one invocation, from admission to
/// completion (or shed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvocationTrace {
    /// Dispatcher sequence number (unique per submitted request).
    pub id: u64,
    /// Tenant index (resolved to a name at dump time).
    pub tenant: usize,
    /// Virtine image id the request targeted.
    pub virtine: u64,
    /// Submission timestamp.
    pub arrival: Cycles,
    /// Final timestamp (completion, kill, or shed decision).
    pub end: Cycles,
    /// Terminal outcome: `completed`, `timeout`, or `shed:<reason>`.
    pub outcome: String,
    /// Ordered spans of the invocation.
    pub spans: Vec<TraceSpan>,
}

impl InvocationTrace {
    /// End-to-end latency (zero for sheds, which never start).
    pub fn e2e(&self) -> Cycles {
        self.end.saturating_sub(self.arrival)
    }

    /// One human-readable line, used by `examples/http_server.rs`.
    pub fn summary(&self, tenant_name: &str) -> String {
        let mut s = format!(
            "#{:<4} {:<10} {:<12} e2e {:>8} cyc |",
            self.id,
            tenant_name,
            self.outcome,
            self.e2e().get()
        );
        for sp in &self.spans {
            if sp.detail.is_empty() {
                let _ = write!(s, " {} {}", sp.label, sp.duration().get());
            } else {
                let _ = write!(s, " {}[{}] {}", sp.label, sp.detail, sp.duration().get());
            }
        }
        s
    }

    fn json_line(&self, tenant_name: &str) -> String {
        let mut s = format!(
            "{{\"id\":{},\"tenant\":\"{}\",\"virtine\":{},\"arrival\":{},\"end\":{},\"outcome\":\"{}\",\"spans\":[",
            self.id,
            escape_json(tenant_name),
            self.virtine,
            self.arrival.get(),
            self.end.get(),
            escape_json(&self.outcome),
        );
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"span\":\"{}\",\"detail\":\"{}\",\"start\":{},\"end\":{}}}",
                escape_json(sp.label),
                escape_json(&sp.detail),
                sp.start.get(),
                sp.end.get(),
            );
        }
        s.push_str("]}");
        s
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A bounded ring buffer of invocation traces.
///
/// Construct with [`TraceCollector::disabled`] (the default) for a
/// zero-cost collector: every method is a no-op and nothing is ever
/// allocated, so the dispatcher can keep one unconditionally without
/// perturbing untraced runs. [`TraceCollector::with_capacity`] retains
/// the most recent `capacity` finished traces, evicting the oldest and
/// counting evictions in [`TraceCollector::dropped`].
#[derive(Debug, Default)]
pub struct TraceCollector {
    capacity: usize,
    active: HashMap<u64, InvocationTrace>,
    finished: VecDeque<InvocationTrace>,
    dropped: u64,
    spans: u64,
}

impl TraceCollector {
    /// A collector that records nothing and never allocates.
    pub fn disabled() -> TraceCollector {
        TraceCollector::default()
    }

    /// A collector retaining the most recent `capacity` traces.
    /// `capacity == 0` is equivalent to [`TraceCollector::disabled`].
    pub fn with_capacity(capacity: usize) -> TraceCollector {
        TraceCollector {
            capacity,
            ..TraceCollector::default()
        }
    }

    /// Whether tracing is active. Callers gate span construction on
    /// this so the disabled path never formats detail strings.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Opens a trace for request `id`. No-op when disabled.
    pub fn begin(&mut self, id: u64, tenant: usize, virtine: u64, arrival: Cycles) {
        if !self.enabled() {
            return;
        }
        self.active.insert(
            id,
            InvocationTrace {
                id,
                tenant,
                virtine,
                arrival,
                end: arrival,
                outcome: String::new(),
                spans: Vec::new(),
            },
        );
    }

    /// Appends a span to an open trace. No-op when disabled or when
    /// `id` is unknown (e.g. the trace was begun before enabling).
    pub fn span(
        &mut self,
        id: u64,
        label: &'static str,
        detail: String,
        start: Cycles,
        end: Cycles,
    ) {
        if let Some(t) = self.active.get_mut(&id) {
            t.spans.push(TraceSpan {
                label,
                detail,
                start,
                end,
            });
            self.spans += 1;
        }
    }

    /// Closes the trace for `id` with a terminal outcome, moving it to
    /// the finished ring (evicting the oldest when full).
    pub fn finish(&mut self, id: u64, outcome: &str, end: Cycles) {
        if let Some(mut t) = self.active.remove(&id) {
            t.outcome = outcome.to_string();
            t.end = end;
            if self.finished.len() == self.capacity {
                self.finished.pop_front();
                self.dropped += 1;
            }
            self.finished.push_back(t);
        }
    }

    /// Records a complete one-span trace in one call — used for sheds,
    /// which never enter the queue. No-op when disabled.
    pub fn record_shed(&mut self, id: u64, tenant: usize, virtine: u64, at: Cycles, reason: &str) {
        if !self.enabled() {
            return;
        }
        self.begin(id, tenant, virtine, at);
        self.span(id, "shed", reason.to_string(), at, at);
        self.finish(id, &format!("shed:{reason}"), at);
    }

    /// Finished traces, oldest first.
    pub fn finished(&self) -> impl Iterator<Item = &InvocationTrace> {
        self.finished.iter()
    }

    /// Number of finished traces currently retained.
    pub fn len(&self) -> usize {
        self.finished.len()
    }

    /// True when no finished traces are retained.
    pub fn is_empty(&self) -> bool {
        self.finished.is_empty()
    }

    /// Traces evicted from the ring since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total spans recorded since construction. Recording charges no
    /// virtual cycle; its cost is host time only.
    pub fn spans_recorded(&self) -> u64 {
        self.spans
    }

    /// Dumps retained traces as JSON lines, newest first, optionally
    /// filtered by tenant index and truncated to `limit` lines.
    /// `tenant_name` resolves a tenant index to its display name.
    pub fn json_lines(
        &self,
        tenant: Option<usize>,
        limit: usize,
        tenant_name: &dyn Fn(usize) -> String,
    ) -> String {
        let mut out = String::new();
        let mut n = 0;
        for t in self.finished.iter().rev() {
            if n == limit {
                break;
            }
            if tenant.is_some_and(|want| t.tenant != want) {
                continue;
            }
            out.push_str(&t.json_line(&tenant_name(t.tenant)));
            out.push('\n');
            n += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(i: usize) -> String {
        format!("tenant-{i}")
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let mut c = TraceCollector::disabled();
        assert!(!c.enabled());
        c.begin(1, 0, 7, Cycles(10));
        c.span(1, "exec", String::new(), Cycles(10), Cycles(20));
        c.finish(1, "completed", Cycles(20));
        c.record_shed(2, 0, 7, Cycles(30), "rate_limited");
        assert!(c.is_empty());
        assert_eq!(c.spans_recorded(), 0);
        assert_eq!(c.json_lines(None, 100, &name), "");
    }

    #[test]
    fn trace_lifecycle_and_ring_eviction() {
        let mut c = TraceCollector::with_capacity(2);
        for id in 0..3u64 {
            c.begin(id, 0, 1, Cycles(id * 100));
            c.span(
                id,
                "exec",
                String::new(),
                Cycles(id * 100),
                Cycles(id * 100 + 50),
            );
            c.finish(id, "completed", Cycles(id * 100 + 50));
        }
        assert_eq!(c.len(), 2);
        assert_eq!(c.dropped(), 1);
        let ids: Vec<u64> = c.finished().map(|t| t.id).collect();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(c.finished().next().unwrap().e2e(), Cycles(50));
    }

    #[test]
    fn json_lines_filters_and_limits_newest_first() {
        let mut c = TraceCollector::with_capacity(16);
        for id in 0..4u64 {
            let tenant = (id % 2) as usize;
            c.begin(id, tenant, 9, Cycles(id));
            c.finish(id, "completed", Cycles(id + 5));
        }
        let all = c.json_lines(None, 10, &name);
        assert_eq!(all.lines().count(), 4);
        assert!(all.lines().next().unwrap().contains("\"id\":3"));
        let t1 = c.json_lines(Some(1), 10, &name);
        assert_eq!(t1.lines().count(), 2);
        assert!(t1.contains("\"tenant\":\"tenant-1\""));
        let limited = c.json_lines(None, 1, &name);
        assert_eq!(limited.lines().count(), 1);
    }

    #[test]
    fn json_escapes_hostile_names() {
        let mut c = TraceCollector::with_capacity(4);
        c.begin(0, 0, 1, Cycles(0));
        c.span(0, "shed", "a\"b\\c\nd".to_string(), Cycles(0), Cycles(0));
        c.finish(0, "completed", Cycles(1));
        let line = c.json_lines(None, 1, &|_| "we\"ird\n".to_string());
        assert!(line.contains("we\\\"ird\\n"));
        assert!(line.contains("a\\\"b\\\\c\\nd"));
        assert!(!line.trim_end().contains('\n'), "one line per trace");
    }

    #[test]
    fn shed_records_single_span_trace() {
        let mut c = TraceCollector::with_capacity(4);
        c.record_shed(7, 2, 3, Cycles(500), "rate_limited");
        let t = c.finished().next().unwrap();
        assert_eq!(t.outcome, "shed:rate_limited");
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.e2e(), Cycles::ZERO);
        assert!(t.summary("x").contains("shed[rate_limited]"));
    }
}
