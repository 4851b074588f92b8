//! The Prometheus text exposition writer: the one place that knows how a
//! metric family is spelled (`# HELP`, `# TYPE`, one line per series) and
//! how a label value is escaped. Both `/metrics` surfaces — a node's
//! [`prometheus_text`](crate::dispatch::prometheus_text) and the edge's
//! [`Ingress::metrics`](crate::ingress::Ingress::metrics) — render through
//! it.

use std::fmt::{Display, Write};

use vclock::stats::Histogram;

/// An exposition under construction.
#[derive(Default)]
pub(crate) struct Exposition(String);

impl Exposition {
    fn head(&mut self, name: &str, kind: &str, help: &str) {
        let _ = writeln!(self.0, "# HELP {name} {help}");
        let _ = writeln!(self.0, "# TYPE {name} {kind}");
    }

    /// Appends one counter or gauge family, integer- or float-valued.
    /// Each entry in `series` pairs a rendered label set (`{shard="0"}`,
    /// or empty for an unlabelled family) with its value.
    pub(crate) fn metric<V: Display>(
        &mut self,
        name: &str,
        kind: &str,
        help: &str,
        series: &[(String, V)],
    ) {
        self.head(name, kind, help);
        for (labels, value) in series {
            let _ = writeln!(self.0, "{name}{labels} {value}");
        }
    }

    /// Appends one histogram family: cumulative `_bucket` series at
    /// power-of-two `le` edges (exact counts — every power of two is an
    /// inclusive upper bucket edge of the underlying [`Histogram`], so
    /// these are not interpolated), terminated by `le="+Inf"`, plus
    /// `_sum` and `_count`. Each entry in `series` pairs an inner label
    /// prefix (`tenant="a",` — note the trailing comma — or empty for an
    /// unlabelled family) with its histogram.
    pub(crate) fn histogram(&mut self, name: &str, help: &str, series: &[(String, &Histogram)]) {
        self.head(name, "histogram", help);
        let out = &mut self.0;
        for (inner, h) in series {
            for (bound, cum) in h.power_of_two_buckets() {
                let _ = writeln!(out, "{name}_bucket{{{inner}le=\"{bound}\"}} {cum}");
            }
            let _ = writeln!(out, "{name}_bucket{{{inner}le=\"+Inf\"}} {}", h.count());
            let plain = inner.trim_end_matches(',');
            let braces = if plain.is_empty() {
                String::new()
            } else {
                format!("{{{plain}}}")
            };
            let _ = writeln!(out, "{name}_sum{braces} {}", h.sum());
            let _ = writeln!(out, "{name}_count{braces} {}", h.count());
        }
    }

    /// The rendered text.
    pub(crate) fn finish(self) -> String {
        self.0
    }
}

/// Escapes a label value per the exposition format (backslash, quote,
/// newline). Tenant and SLO names are operator-supplied free text; one
/// odd name must not make the whole scrape unparseable.
pub(crate) fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}
