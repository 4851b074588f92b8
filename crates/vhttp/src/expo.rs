//! The Prometheus text exposition. Every metric family a `/metrics`
//! surface exports is declared once, as a row of [`NODE`] (a node's
//! [`prometheus_text`](crate::dispatch::prometheus_text), read off its
//! `Dispatcher`) or [`EDGE`] (the edge's
//! [`Ingress::metrics`](crate::ingress::Ingress::metrics)). A row holds the
//! family's kind, name, label keys and help text, and a reader that emits
//! its series from the stats structs the surface already keeps: counters
//! stay with the code that bumps them, and the table only reads them at
//! scrape time. [`render`] writes a table out — `# HELP`, `# TYPE`, one
//! line per series — and escapes every label value. The catalog in
//! docs/observability.md is checked against both tables, row for row
//! (`every_family_has_one_catalog_row_and_every_row_one_family`).

use std::fmt::{Display, Write};

use vclock::stats::Histogram;
use vsched::{Dispatcher, ShardSnapshot, ShedReason, TenantStats};
use vtrace::slo::SloReport;

use crate::ingress::Ingress;
use Kind::{Counter, Gauge};

/// What a family's samples mean to a scraper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Only ever grows; the name ends in `_total`.
    Counter,
    /// Moves both ways.
    Gauge,
    /// Cumulative `_bucket` series plus `_sum` and `_count`.
    Histogram,
}

impl Kind {
    /// The kind as a `# TYPE` line and the docs catalog spell it.
    pub(crate) fn as_str(self) -> &'static str {
        ["counter", "gauge", "histogram"][self as usize]
    }
}

/// A family's name or help text.
type Text = &'static str;
/// A family's label keys, in the order each series gives its values.
type Keys = &'static [&'static str];
/// A family's reader: emits its series from the surface's stats.
type Read<S> = fn(&S, &mut Samples);

/// One metric family of a surface that renders from an `S`.
pub(crate) struct Family<S> {
    pub(crate) kind: Kind,
    pub(crate) name: Text,
    pub(crate) labels: Keys,
    read: Read<S>,
    pub(crate) help: Text,
}

/// A table row: its reader comes before its help text, the longest field.
const fn row<S>(kind: Kind, name: Text, labels: Keys, read: Read<S>, help: Text) -> Family<S> {
    Family {
        kind,
        name,
        labels,
        read,
        help,
    }
}

/// Renders every family of `table` over `source`, in table order.
pub(crate) fn render<S>(table: &[Family<S>], source: &S) -> String {
    let mut o = Samples::default();
    for f in table {
        (o.name, o.keys, o.head) = (f.name, f.labels, Some((f.kind, f.help)));
        (f.read)(source, &mut o);
    }
    o.out
}

/// The series of one family, written as its reader emits them. The
/// family's `# HELP` / `# TYPE` head goes out before its first series, so
/// a family with none (no SLO engine or failure detector installed, no
/// tenant registered) is not announced.
#[derive(Default)]
pub(crate) struct Samples {
    out: String,
    name: Text,
    keys: Keys,
    head: Option<(Kind, Text)>,
}

impl Samples {
    /// One counter or gauge series; `values` pair with the label keys.
    fn put(&mut self, values: &[&str], value: impl Display) {
        self.sample("", values, None, value);
    }

    /// One series per `(label value, value)` of a one-key family.
    fn each<V: Display + Copy>(&mut self, series: &[(&str, V)]) {
        for &(label, value) in series {
            self.put(&[label], value);
        }
    }

    /// One histogram: cumulative `_bucket` series at power-of-two `le`
    /// edges (exact counts — every power of two is an inclusive upper
    /// bucket edge of the underlying [`Histogram`], so these are not
    /// interpolated), terminated by `le="+Inf"`, plus `_sum` and `_count`.
    fn histogram(&mut self, values: &[&str], h: &Histogram) {
        for (bound, cum) in h.power_of_two_buckets() {
            self.sample("_bucket", values, Some(&bound.to_string()), cum);
        }
        self.sample("_bucket", values, Some("+Inf"), h.count());
        self.sample("_sum", values, None, h.sum());
        self.sample("_count", values, None, h.count());
    }

    /// Writes `name<suffix>{key="value",…} value`, `le` the last label
    /// when given, after the family's head if this is its first series.
    fn sample(&mut self, suffix: &str, values: &[&str], le: Option<&str>, v: impl Display) {
        debug_assert_eq!(values.len(), self.keys.len(), "{}", self.name);
        let out = &mut self.out;
        if let Some((kind, help)) = self.head.take() {
            let _ = writeln!(out, "# HELP {} {help}", self.name);
            let _ = writeln!(out, "# TYPE {} {}", self.name, kind.as_str());
        }
        let _ = write!(out, "{}{suffix}", self.name);
        let mut sep = '{';
        let labels = self.keys.iter().copied().zip(values.iter().copied());
        for (key, value) in labels.chain(le.map(|le| ("le", le))) {
            let _ = write!(out, "{sep}{key}=\"");
            escape_label(out, value);
            out.push('"');
            sep = ',';
        }
        out.extend((sep == ',').then_some('}'));
        let _ = writeln!(out, " {v}");
    }
}

/// Appends a label value escaped per the exposition format (backslash,
/// quote, newline). Tenant and SLO names are operator-supplied free text;
/// one odd name must not make the whole scrape unparseable.
fn escape_label(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '\\' | '"' => out.extend(['\\', c]),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// One series per value, labelled by its index (a shard's or a node's).
fn indexed<V: Display>(o: &mut Samples, values: impl IntoIterator<Item = V>) {
    for (i, v) in values.into_iter().enumerate() {
        o.put(&[&i.to_string()], v);
    }
}

/// One series per shard, labelled by its index.
fn per_shard(d: &Dispatcher, o: &mut Samples, f: fn(&ShardSnapshot) -> u64) {
    indexed(o, d.shard_snapshots().iter().map(f));
}

/// One series per tenant, labelled by its name.
fn per_tenant(d: &Dispatcher, o: &mut Samples, f: fn(&TenantStats) -> u64) {
    for id in d.tenant_ids() {
        o.put(&[d.tenant_name(id)], f(&d.tenant_stats(id)));
    }
}

/// The SLO engine's report, empty when none is installed.
fn slos(d: &Dispatcher) -> Vec<SloReport> {
    d.slo().map_or_else(Vec::new, |slo| slo.report())
}

/// A node's families: dispatcher counters (including the warm-hit and
/// demotion counters of the snapshot-aware fast path), the process- and
/// thread-wide guest counters, aggregated pool counters, per-shard and
/// per-tenant series, latency histograms, and the SLO and detector gauges
/// when those are installed.
#[rustfmt::skip]
pub(crate) const NODE: &[Family<Dispatcher>] = &[
    row(Counter, "vsched_requests_total", &["outcome"],
        |d, o| { let s = d.stats();
            o.each(&[("submitted", s.submitted), ("admitted", s.admitted), ("served", s.served)]);
            for r in ShedReason::ALL { o.put(&[&format!("shed_{}", r.label())], s.shed_by(r)) } },
        "Requests by outcome: submitted (offered at the door), admitted (passed admission and \
         enqueued), served (ran to completion), shed_rate_limit (tenant token bucket empty), \
         shed_in_flight (tenant max_in_flight reached), shed_evicted (hard-stopped by shard \
         lifecycle: drain grace period expired or the shard failed)"),
    row(Counter, "vsched_retries_total", &["cause"],
        |d, o| o.each(&[("shard_failed_queued", d.stats().retries_queued)]),
        "Exactly-once re-submissions of work lost to a shard failure, by the copy that was lost: \
         shard_failed_queued (a queued copy with no surviving shard to evacuate to)"),
    row(Gauge, "vsched_retried_in_flight", &[], |d, o| o.put(&[], d.stats().retried_in_flight),
        "Requests currently waiting out a retry backoff (admitted, not yet re-enqueued; the \
         bridge term in the conservation identity)"),
    row(Counter, "vsched_hedges_total", &["outcome"],
        |d, o| { let s = d.stats(); o.each(&[("armed", s.hedges_armed), ("fired", s.hedges_fired),
            ("won", s.hedges_won), ("canceled", s.hedges_canceled)]) },
        "Tail-latency hedging events: armed (a hedge delay was scheduled at admission), fired \
         (the delay elapsed and a duplicate copy was enqueued), won (a hedge copy finished \
         first), canceled (a loser copy was suppressed after the race was decided)"),
    row(Counter, "vsched_evictions_total", &["reason"],
        |d, o| { let s = d.stats();
            o.each(&[("grace_expired", s.evicted_grace), ("shard_failed", s.evicted_failed)]) },
        "Parked runs hard-stopped by shard lifecycle, by cause: grace_expired (unmigratable run \
         outlived its tenant drain grace on a draining shard), shard_failed (the run's shard \
         failed and its suspended context died with it)"),
    row(Counter, "vsched_warm_hits_total", &[], |d, o| o.put(&[], d.stats().warm_hits),
        "Requests served by a warm-shell delta re-arm"),
    row(Counter, "vsched_warm_demotions_total", &[], |d, o| o.put(&[], d.stats().warm_demotions),
        "Warm shells demoted (wiped) on the acquire path"),
    row(Counter, "vsched_steals_total", &[], |d, o| o.put(&[], d.stats().stolen),
        "Shells stolen between shards"),
    row(Counter, "vsched_steal_transfers_total", &["distance"],
        |d, o| { let s = d.stats(); o.each(&[("same_ccx", s.stolen_same_ccx),
            ("cross_ccx", s.stolen_cross_ccx), ("cross_socket", s.stolen_cross_socket)]) },
        "Shells stolen between shards, by topology distance class"),
    row(Counter, "visa_insts_retired_total", &["engine"],
        |_, o| { let g = visa::pred::counters();
            o.each(&[("fast", g.retired_fast), ("ref", g.retired_ref)]) },
        "Guest instructions retired process-wide, by interpreter engine: fast (the predecoded \
         basic-block engine, the default), ref (the reference single-step oracle, selected by \
         Cpu::set_engine)"),
    row(Counter, "visa_predecode_blocks_total", &["event"],
        |_, o| { let g = visa::pred::counters();
            o.each(&[("built", g.blocks_built), ("invalidated", g.blocks_invalidated)]) },
        "Predecoded basic blocks, by event: built (decoded, fused, and cached), invalidated \
         (dropped for stale bytes found by a revalidation sweep, a self-modifying store, or the \
         capacity bound; the cache survives snapshot restores and shell cleaning)"),
    row(Counter, "visa_predecode_dispatch_total", &["path"],
        |_, o| { let g = visa::pred::counters(); o.each(&[("front", g.dispatch_front),
            ("map", g.dispatch_map), ("built", g.dispatch_built), ("loop", g.dispatch_loop),
            ("reference", g.dispatch_reference)]) },
        "Predecoded block entries served by the front cache, the block map or a fresh build; the \
         map and build entries that fast-forwarded a counted loop instead of running it (loop); \
         and instructions single-stepped on the reference path instead (uncacheable code, the \
         tail of a step budget)"),
    row(Counter, "visa_predecode_loop_iterations_total", &[],
        |_, o| o.put(&[], visa::pred::counters().loop_iterations),
        "Counted-loop iterations the predecoded engine fast-forwarded"),
    row(Counter, "visa_superinsts_fused_total", &[],
        |_, o| o.put(&[], visa::pred::counters().superinsts_fused),
        "Superinstructions fused at predecode time (the six two-instruction patterns listed in \
         docs/interpreter.md#superinstructions)"),
    row(Counter, "visa_mem_pages_total", &["op"],
        |_, o| { let m = visa::mem::counters(); o.each(&[("wiped", m.pages_wiped),
            ("restored", m.pages_restored), ("rearmed", m.pages_rearmed)]) },
        "Guest-memory pages (4 KiB) physically rewritten on this thread: wiped (zeroed by a \
         clean, a restore onto a dirty shell or a VM's drop), restored (copied by a full \
         restore), rearmed (by a delta re-arm)"),
    row(Counter, "visa_mem_buffers_total", &["event"],
        |_, o| { let m = visa::mem::counters();
            o.each(&[("allocated", m.buffers_allocated), ("recycled", m.buffers_recycled)]) },
        "Guest-memory buffers behind created VMs on this thread: allocated, or recycled (the \
         wiped buffer of a destroyed VM, off the spare list)"),
    row(Gauge, "vsched_topology", &["level"],
        |d, o| { let t = d.topology();
            o.each(&[("sockets", t.sockets()), ("ccxs", t.ccxs()), ("shards", t.shards())]) },
        "Shard topology dimensions (sockets, CCXs, shards)"),
    row(Gauge, "vsched_warm_resident", &[], |d, o| o.put(&[], d.warm_resident()),
        "Warm shells resident across all shard pools"),
    row(Counter, "vsched_batches_total", &[], |d, o| o.put(&[], d.stats().batches),
        "Shard batch ticks executed"),
    row(Counter, "vsched_blocked_total", &[], |d, o| o.put(&[], d.stats().blocked),
        "Runs suspended at a blocking recv"),
    row(Counter, "vsched_blocked_cycles_total", &[], |d, o| o.put(&[], d.stats().blocked_cycles),
        "Virtual cycles completed runs spent parked at a blocking recv (the Breakdown.blocked \
         share of served work)"),
    row(Counter, "vsched_resumed_total", &[], |d, o| o.put(&[], d.stats().resumed),
        "Parked runs re-queued by a socket wake"),
    row(Counter, "vsched_blocked_timeout_total", &[], |d, o| o.put(&[], d.stats().blocked_timeout),
        "Parked runs killed at their tenant max_block bound"),
    row(Counter, "vsched_migrations_total", &[], |d, o| o.put(&[], d.stats().migrations),
        "Woken parked runs re-admitted on a different shard (resume-time migration)"),
    row(Counter, "vsched_busy_wait_cycles_total", &[],
        |d, o| o.put(&[], d.stats().busy_wait_cycles),
        "Worker cycles burned waiting on blocked I/O (zero when event-driven)"),
    row(Gauge, "vsched_parked", &[], |d, o| o.put(&[], d.parked()),
        "Blocked runs currently parked across all shards"),
    row(Counter, "wasp_pool_shells_total", &["event"],
        |d, o| { let p = d.pool_stats();
            o.each(&[("created", p.created), ("reused", p.reused), ("released", p.released),
                ("warm_acquired", p.warm_acquired), ("warm_parked", p.warm_parked),
                ("warm_demoted", p.warm_demoted), ("dropped", p.dropped)]) },
        "Shell lifecycle events across all shard pools"),
    row(Gauge, "vsched_shard_state", &["shard"], |d, o| per_shard(d, o, |s| s.state.gauge()),
        "Lifecycle state per shard: 0 = active, 1 = draining, 2 = drained, 3 = failed"),
    row(Gauge, "vsched_shard_queue_depth", &["shard"],
        |d, o| per_shard(d, o, |s| s.queue_depth as u64), "Requests waiting per shard"),
    row(Gauge, "vsched_shard_idle_shells", &["shard"],
        |d, o| per_shard(d, o, |s| s.idle_shells as u64), "Clean shells parked per shard"),
    row(Gauge, "vsched_shard_warm_shells", &["shard"],
        |d, o| per_shard(d, o, |s| s.warm_shells as u64), "Warm shells parked per shard"),
    row(Counter, "vsched_shard_served_total", &["shard"],
        |d, o| per_shard(d, o, |s| s.stats.served), "Requests served per shard"),
    row(Counter, "vsched_shard_warm_hits_total", &["shard"],
        |d, o| per_shard(d, o, |s| s.stats.warm_hits), "Warm hits per shard"),
    row(Gauge, "vsched_shard_parked", &["shard"], |d, o| per_shard(d, o, |s| s.parked as u64),
        "Blocked runs parked per shard"),
    row(Counter, "vsched_shard_migrated_in_total", &["shard"],
        |d, o| per_shard(d, o, |s| s.stats.migrated_in),
        "Woken runs this shard received via resume-time migration"),
    row(Counter, "vsched_shard_migrated_out_total", &["shard"],
        |d, o| per_shard(d, o, |s| s.stats.migrated_out),
        "Woken runs that left this shard via resume-time migration"),
    row(Counter, "vsched_shard_busy_wait_cycles_total", &["shard"],
        |d, o| per_shard(d, o, |s| s.stats.busy_wait_cycles),
        "Worker cycles burned on blocked waits per shard"),
    row(Counter, "vsched_tenant_served_total", &["tenant"], |d, o| per_tenant(d, o, |t| t.served),
        "Requests served per tenant"),
    row(Counter, "vsched_tenant_shed_total", &["tenant"], |d, o| per_tenant(d, o, |t| t.shed()),
        "Requests shed per tenant"),
    row(Counter, "vsched_tenant_warm_serves_total", &["tenant"],
        |d, o| per_tenant(d, o, |t| t.warm_serves), "Warm-hit serves per tenant"),
    row(Gauge, "vsched_tenant_in_flight", &["tenant"], |d, o| per_tenant(d, o, |t| t.in_flight),
        "Requests queued or running per tenant"),
    row(Kind::Histogram, "vsched_queue_wait_cycles", &[],
        |d, o| o.histogram(&[], d.queue_wait_hist()),
        "Virtual cycles from admission to first execution, across all served requests"),
    row(Kind::Histogram, "vsched_exec_cycles", &[], |d, o| o.histogram(&[], d.exec_hist()),
        "Virtual cycles of virtine execution (guest segments, excluding parked waits)"),
    row(Kind::Histogram, "vsched_e2e_cycles", &["tenant"],
        |d, o| for id in d.tenant_ids() {
            o.histogram(&[d.tenant_name(id)], d.tenant_e2e_hist(id));
        },
        "End-to-end virtual cycles from arrival to completion, per tenant"),
    row(Gauge, "vslo_error_budget_remaining", &["slo"],
        |d, o| for r in slos(d) { o.put(&[&r.name], r.budget_remaining) },
        "Fraction of the slow-window error budget unspent (1 - slow burn; negative when \
         overspent)"),
    row(Gauge, "vslo_burn_rate", &["slo", "window"],
        |d, o| for r in slos(d) {
            o.put(&[&r.name, "fast"], r.burn_fast);
            o.put(&[&r.name, "slow"], r.burn_slow);
        },
        "Error-budget burn rate (bad fraction over the window / allowed bad fraction)"),
    row(Gauge, "vslo_alert", &["slo", "severity"],
        |d, o| for r in slos(d) {
            for sev in ["ticket", "page"] {
                let firing = r.severity.is_some_and(|s| s.to_string() == sev);
                o.put(&[&r.name, sev], u8::from(firing));
            }
        },
        "1 while the multiwindow burn-rate alert at this severity is firing, else 0"),
    row(Gauge, "vsched_suspicion", &["shard"],
        |d, o| indexed(o, d.shard_health().unwrap_or_default().iter().map(|h| h.suspicion)),
        "Failure-detector suspicion per shard (heartbeat silence over the expected interval; 0 \
         while heartbeats arrive, declared failed at the configured threshold)"),
];

/// The edge's families: ingress counters plus per-node routing,
/// lifecycle and suspicion gauges. Backend node internals are each node's
/// own [`NODE`] surface; this is the layer above it.
#[rustfmt::skip]
pub(crate) const EDGE: &[Family<Ingress>] = &[
    row(Counter, "vsched_ingress_offered_total", &[], |i, o| o.put(&[], i.stats().offered),
        "Connections offered to the edge"),
    row(Counter, "vsched_ingress_accepted_total", &[], |i, o| o.put(&[], i.stats().accepted),
        "Connections that passed edge admission and were routed"),
    row(Counter, "vsched_ingress_edge_shed_total", &["reason"],
        |i, o| { let s = i.stats(); o.each(&[("edge_rate", s.shed_edge_rate),
            ("bad_attribution", s.shed_bad_attribution), ("no_healthy_node", s.shed_no_node),
            ("node", s.shed_node)]) },
        "Connections shed at the edge, by cause"),
    row(Counter, "vsched_ingress_redispatched_total", &[],
        |i, o| o.put(&[], i.stats().redispatched), "Failover re-dispatches to a surviving node"),
    row(Counter, "vsched_ingress_completed_total", &[], |i, o| o.put(&[], i.stats().completed),
        "Terminal completions delivered to the edge"),
    row(Counter, "vsched_ingress_duplicates_total", &[], |i, o| o.put(&[], i.stats().duplicates),
        "Node completions no live request answers for (must be 0)"),
    row(Gauge, "vsched_ingress_live_requests", &[], |i, o| o.put(&[], i.live_requests()),
        "Accepted requests not yet terminal: the records the edge holds"),
    row(Counter, "vsched_ingress_acceptor_wakes_total", &[],
        |i, o| o.put(&[], i.stats().acceptor_wakes),
        "Doorbell rings that woke the parked acceptor virtine"),
    row(Counter, "vsched_ingress_transfer_cycles_total", &[],
        |i, o| o.put(&[], i.cluster().stats().transfer_cycles),
        "Virtual cycles charged to cross-node transfers"),
    row(Counter, "vsched_ingress_routed_total", &["node"],
        |i, o| indexed(o, (0..i.cluster().len()).map(|n| i.cluster().routed_to(n))),
        "Connections routed per backend node"),
    row(Gauge, "vsched_ingress_node_state", &["node"],
        |i, o| indexed(o, (0..i.cluster().len()).map(|n| i.cluster().node_state(n).gauge())),
        "Lifecycle state per node: 0 = active, 1 = draining, 2 = drained, 3 = failed"),
    row(Gauge, "vsched_ingress_suspicion", &["node"],
        |i, o| {
            let health = i.cluster().node_health().unwrap_or_default();
            indexed(o, health.iter().map(|h| h.suspicion))
        },
        "Node suspicion (silence since the last heartbeat over the heartbeat interval; 0 while \
         heartbeats arrive)"),
];

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::path::{Path, PathBuf};

    use super::*;

    /// `(name, type, label keys)` of a family or a catalog row.
    type Row = (String, String, Vec<String>);

    fn rows<S>(table: &[Family<S>]) -> impl Iterator<Item = Row> + '_ {
        table.iter().map(|f| {
            let labels = f.labels.iter().map(|k| k.to_string()).collect();
            (f.name.to_string(), f.kind.as_str().to_string(), labels)
        })
    }

    /// The rows of every `| metric | type | labels | meaning |` table in
    /// the docs catalog, each counted once per time it appears.
    fn catalog_rows(doc: &str) -> Vec<Row> {
        let mut rows = Vec::new();
        let mut in_table = false;
        for line in doc.lines() {
            if line.starts_with("| metric |") {
                assert_eq!(line, "| metric | type | labels | meaning |", "table shape");
                in_table = true;
                continue;
            }
            in_table &= line.starts_with('|');
            if !in_table || line.starts_with("|---") {
                continue;
            }
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            let cell = |c: &str| c.trim_matches('`').to_string();
            let labels = match cells[3] {
                "—" => Vec::new(),
                keys => keys.split(',').map(|k| cell(k.trim())).collect(),
            };
            rows.push((cell(cells[1]), cells[2].to_string(), labels));
        }
        rows
    }

    #[test]
    fn every_family_has_one_catalog_row_and_every_row_one_family() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let doc = std::fs::read_to_string(dir.join("../../docs/observability.md")).unwrap();
        let documented = catalog_rows(&doc);
        let catalog: BTreeSet<Row> = documented.iter().cloned().collect();
        assert_eq!(catalog.len(), documented.len(), "a family has two rows");
        let declared: BTreeSet<Row> = rows(NODE).chain(rows(EDGE)).collect();
        assert_eq!(
            declared.len(),
            NODE.len() + EDGE.len(),
            "a family declared twice"
        );
        let undocumented: Vec<_> = declared.difference(&catalog).collect();
        let stale: Vec<_> = catalog.difference(&declared).collect();
        assert!(
            undocumented.is_empty() && stale.is_empty(),
            "families without a catalog row: {undocumented:?}\n\
             catalog rows without a family: {stale:?}"
        );
    }

    /// Every `.rs` file under `dir`, recursively.
    fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                sources(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }

    #[test]
    fn no_metric_name_is_spelled_outside_the_tables() {
        let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let mut files = Vec::new();
        for krate in std::fs::read_dir(&crates).unwrap() {
            let src = krate.unwrap().path().join("src");
            if src.is_dir() {
                sources(&src, &mut files);
            }
        }
        let mut found = Vec::new();
        for file in files.iter().filter(|f| !f.ends_with("vhttp/src/expo.rs")) {
            let text = std::fs::read_to_string(file).unwrap();
            // Code ends at the first column-0 `#[cfg(test)]`, as in
            // tools/loc.sh; comments may name a family.
            let code = text.split("\n#[cfg(test)]").next().unwrap();
            let lines = code.lines().filter(|l| !l.trim_start().starts_with("//"));
            for line in lines {
                for prefix in ["\"vsched_", "\"vslo_", "\"visa_", "\"wasp_"] {
                    if line.contains(prefix) {
                        found.push(format!("{}: {}", file.display(), line.trim()));
                    }
                }
            }
        }
        assert!(
            found.is_empty(),
            "metric names outside NODE and EDGE:\n{}",
            found.join("\n")
        );
    }
}
