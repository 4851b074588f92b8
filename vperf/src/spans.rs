//! Host-side span recorder for the traced repetition.
//!
//! Every call the benchmark makes into a layer goes through [`span`] (from
//! `sut.rs`), named `layer.fn`. Spans nest on a stack, so each knows the
//! span that caused it; a layer's *self* time is its span's duration minus
//! the part its child spans cover. Because every span sits under the one
//! `rep` root, the self times sum to the repetition's wall time exactly.
//!
//! Spans are held in memory and written out when the run ends. A request
//! stream makes the same call a hundred thousand times, so spans are
//! aggregated per tree position (count / sum / min / max) and only the first
//! few plus one in [`SAMPLE_EVERY`] are kept as individual records.
//!
//! Recording is off unless [`start`] was called: the end-to-end repetitions
//! pay one thread-local flag test per call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One raw span is kept per this many at a tree position.
pub const SAMPLE_EVERY: u64 = 1024;
/// The first spans at every tree position are always kept raw.
const ALWAYS_KEEP: u64 = 4;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Aggregate of every span recorded at one position of the tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub count: u64,
    pub sum_ns: u64,
    /// Time covered by direct children (already part of `sum_ns`).
    pub child_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
}

impl Node {
    pub fn self_ns(&self) -> u64 {
        self.sum_ns - self.child_ns
    }
}

/// One span kept individually.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    pub node: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Frame {
    node: usize,
    start_ns: u64,
    child_ns: u64,
}

struct Recorder {
    epoch: Instant,
    rep: u32,
    nodes: Vec<Node>,
    /// Child node ids, indexed by node id.
    children: Vec<Vec<usize>>,
    roots: Vec<usize>,
    stack: Vec<Frame>,
    samples: Vec<Sample>,
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) {
        let parent = self.stack.last().map(|f| f.node);
        let siblings = match parent {
            Some(p) => &self.children[p],
            None => &self.roots,
        };
        let found = siblings
            .iter()
            .copied()
            .find(|&c| self.nodes[c].name == name);
        let node = found.unwrap_or_else(|| {
            self.nodes.push(Node {
                name,
                parent,
                count: 0,
                sum_ns: 0,
                child_ns: 0,
                min_ns: u64::MAX,
                max_ns: 0,
            });
            self.children.push(Vec::new());
            let id = self.nodes.len() - 1;
            match parent {
                Some(p) => self.children[p].push(id),
                None => self.roots.push(id),
            }
            id
        });
        let start_ns = self.now_ns();
        self.stack.push(Frame {
            node,
            start_ns,
            child_ns: 0,
        });
    }

    fn exit(&mut self) {
        let end_ns = self.now_ns();
        let f = self.stack.pop().expect("span exit without enter");
        let dur = end_ns - f.start_ns;
        let n = &mut self.nodes[f.node];
        n.count += 1;
        n.sum_ns += dur;
        n.child_ns += f.child_ns;
        n.min_ns = n.min_ns.min(dur);
        n.max_ns = n.max_ns.max(dur);
        if n.count <= ALWAYS_KEEP || n.count.is_multiple_of(SAMPLE_EVERY) {
            self.samples.push(Sample {
                node: f.node,
                start_ns: f.start_ns,
                end_ns,
            });
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
    }
}

/// Starts recording; spans of this repetition carry `rep` as their id.
pub fn start(rep: u32) {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            rep,
            nodes: Vec::new(),
            children: Vec::new(),
            roots: Vec::new(),
            stack: Vec::new(),
            samples: Vec::new(),
        });
    });
    ON.with(|on| on.set(true));
}

/// Stops recording and returns what was recorded.
pub fn finish() -> Report {
    ON.with(|on| on.set(false));
    let rec = REC
        .with(|r| r.borrow_mut().take())
        .expect("spans::finish without spans::start");
    assert!(rec.stack.is_empty(), "a span is still open");
    Report {
        rep: rec.rep,
        nodes: rec.nodes,
        samples: rec.samples,
    }
}

/// Runs `f` inside a span named `name` (`layer.fn`, or a bare phase name for
/// the benchmark's own phases).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !ON.with(Cell::get) {
        return f();
    }
    REC.with(|r| r.borrow_mut().as_mut().expect("recording").enter(name));
    let out = f();
    REC.with(|r| r.borrow_mut().as_mut().expect("recording").exit());
    out
}

/// The spans of one traced repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub rep: u32,
    pub nodes: Vec<Node>,
    pub samples: Vec<Sample>,
}

impl Report {
    /// `rep/drive/vhttp.offer`-style path of a node.
    pub fn path(&self, mut node: usize) -> String {
        let mut parts = vec![self.nodes[node].name];
        while let Some(p) = self.nodes[node].parent {
            parts.push(self.nodes[p].name);
            node = p;
        }
        parts.reverse();
        parts.join("/")
    }

    /// Wall time of the root span(s).
    pub fn root_ns(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.parent.is_none())
            .map(|n| n.sum_ns)
            .sum()
    }

    /// Sum of every node's self time; equals [`Report::root_ns`].
    pub fn total_self_ns(&self) -> u64 {
        self.nodes.iter().map(Node::self_ns).sum()
    }

    /// Self time by layer: the part of the name before the dot, or `bench`
    /// for the benchmark's own phases.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut by = BTreeMap::new();
        for n in &self.nodes {
            *by.entry(layer_of(n.name)).or_insert(0) += n.self_ns();
        }
        by
    }

    /// Total time and call count of the spans called `name` directly under
    /// a span called `parent` (a phase such as `drive`), so that warm-up
    /// calls made during `setup` are not mixed into the stream's.
    pub fn total_under(&self, parent: &str, name: &str) -> (u64, u64) {
        self.nodes
            .iter()
            .filter(|n| n.name == name && n.parent.is_some_and(|p| self.nodes[p].name == parent))
            .fold((0, 0), |(ns, c), n| (ns + n.sum_ns, c + n.count))
    }

    /// JSON lines: one `agg` record per tree position, then the raw spans
    /// that were kept.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"kind\":\"agg\",\"workload\":\"{workload}\",\"rep\":{},\"id\":{i},\
                 \"parent\":{},\"name\":\"{}\",\"path\":\"{}\",\"count\":{},\"sum_ns\":{},\
                 \"self_ns\":{},\"min_ns\":{},\"max_ns\":{}}}",
                self.rep,
                n.parent.map_or("null".to_string(), |p| p.to_string()),
                n.name,
                self.path(i),
                n.count,
                n.sum_ns,
                n.self_ns(),
                n.min_ns,
                n.max_ns,
            );
        }
        for s in &self.samples {
            let n = &self.nodes[s.node];
            let _ = writeln!(
                out,
                "{{\"kind\":\"span\",\"workload\":\"{workload}\",\"rep\":{},\"node\":{},\
                 \"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.rep,
                s.node,
                n.parent.map_or("null".to_string(), |p| p.to_string()),
                n.name,
                s.start_ns,
                s.end_ns,
            );
        }
        out
    }
}

/// The layer a span name belongs to.
pub fn layer_of(name: &str) -> &str {
    match name.split_once('.') {
        Some((layer, _)) => layer,
        None => "bench",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_sum_to_the_root() {
        start(3);
        span("rep", || {
            span("setup", || {
                span("vcc.compile", || spin(200_000));
                spin(100_000);
            });
            span("drive", || {
                for _ in 0..10 {
                    span("wasp.run", || spin(20_000));
                }
            });
        });
        let r = finish();
        assert_eq!(r.rep, 3);
        assert_eq!(r.total_self_ns(), r.root_ns());
        let by = r.self_ns_by_layer();
        assert!(by["vcc"] >= 200_000);
        assert!(by["wasp"] >= 200_000);
        // `setup` keeps only what its child does not cover.
        let setup = r.nodes.iter().find(|n| n.name == "setup").unwrap();
        assert!(setup.self_ns() >= 100_000 && setup.self_ns() < setup.sum_ns);
        let (_, calls) = r.total_under("drive", "wasp.run");
        assert_eq!(calls, 10);
        assert_eq!(r.total_under("setup", "wasp.run"), (0, 0));
        assert_eq!(
            r.path(r.nodes.iter().position(|n| n.name == "wasp.run").unwrap()),
            "rep/drive/wasp.run"
        );
    }

    #[test]
    fn per_op_spans_are_aggregated_and_sampled() {
        start(0);
        span("rep", || {
            for _ in 0..(2 * SAMPLE_EVERY) {
                span("wasp.run", || {});
            }
        });
        let r = finish();
        let run = r.nodes.iter().position(|n| n.name == "wasp.run").unwrap();
        assert_eq!(r.nodes[run].count, 2 * SAMPLE_EVERY);
        let kept = r.samples.iter().filter(|s| s.node == run).count() as u64;
        assert_eq!(kept, ALWAYS_KEEP + 2);
        let jsonl = r.to_jsonl("w");
        assert_eq!(jsonl.lines().count(), r.nodes.len() + r.samples.len());
        assert!(jsonl
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn recording_off_runs_the_closure_and_nothing_else() {
        assert_eq!(span("x.y", || 7), 7);
        assert_eq!(layer_of("vhttp.offer"), "vhttp");
        assert_eq!(layer_of("drive"), "bench");
    }
}
