//! Bench regression gates as data.
//!
//! Every committed baseline in `crates/bench/baselines/` carries one
//! `"gates"` object mapping a dotted path to a rule (a `*` segment matches
//! every array index). The walker checks each numeric leaf of the baseline
//! against the same path in the bench's fresh `BENCH_<name>.json`:
//!
//! * `"exact"` — current equals baseline: a correctness claim, or a
//!   deterministic virtual-time number;
//! * `"max_drift"` / `"min_drift"` — current may rise / fall at most
//!   [`TOLERANCE`] past baseline: lower- / higher-is-better numbers;
//! * `{"min": x}` / `{"max": x}` — current ≥ x / ≤ x whatever the
//!   baseline reads: a floor or ceiling on a host-time reading.
//!
//! Every numeric leaf must match exactly one gate, every gate must match
//! a leaf, every gated path must exist in the artifact, and every other
//! leaf (row labels, kernel names) must read the same in both. A miss is
//! an error, never a skip: what the table lists is checked by
//! construction.

use std::path::Path;

use crate::json::{collect, matches, Json};

/// Relative tolerance of the drift rules.
pub const TOLERANCE: f64 = 0.15;

/// How one gated number may move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// `"exact"`.
    Exact,
    /// `"max_drift"`: at most `baseline × (1 + TOLERANCE)`.
    MaxDrift,
    /// `"min_drift"`: at least `baseline × (1 − TOLERANCE)`.
    MinDrift,
    /// `{"min": x}`.
    Min(f64),
    /// `{"max": x}`.
    Max(f64),
}

impl Rule {
    fn parse(j: &Json) -> Option<Rule> {
        let one_key = matches!(j, Json::Obj(fields) if fields.len() == 1);
        let bound = |key| j.get(key).and_then(Json::as_f64).filter(|_| one_key);
        Some(match j.as_str() {
            Some("exact") => Rule::Exact,
            Some("max_drift") => Rule::MaxDrift,
            Some("min_drift") => Rule::MinDrift,
            _ => return bound("min").map(Rule::Min).or(bound("max").map(Rule::Max)),
        })
    }

    /// Whether `current` passes against `baseline`.
    fn holds(self, baseline: f64, current: f64) -> bool {
        match self {
            Rule::Exact => current == baseline,
            Rule::MaxDrift => current <= baseline * (1.0 + TOLERANCE),
            Rule::MinDrift => current >= baseline * (1.0 - TOLERANCE),
            Rule::Min(x) => current >= x,
            Rule::Max(x) => current <= x,
        }
    }
}

/// One gated number and its verdict.
#[derive(Debug, Clone)]
pub struct Check {
    /// The baseline file.
    pub file: String,
    /// The leaf's dotted path.
    pub path: String,
    /// The gate that matched it.
    pub rule: Rule,
    /// The baseline's reading.
    pub baseline: f64,
    /// The artifact's reading.
    pub current: f64,
    /// Whether `rule` holds.
    pub ok: bool,
}

/// What a walk found: the checks it ran, and the errors (each naming its
/// baseline file and path) that kept a number from being checked. The
/// gate passes when every check is `ok` and there is no error.
#[derive(Debug, Default)]
pub struct Report {
    /// Every gated leaf, in baseline order.
    pub checks: Vec<Check>,
    /// Every error, in baseline order.
    pub errors: Vec<String>,
}

impl Report {
    /// Gates every `<stem>.json` baseline in `dir` against
    /// `BENCH_<stem>.json` in `artifacts`.
    pub fn walk(dir: &Path, artifacts: &Path) -> Report {
        let entries = std::fs::read_dir(dir).into_iter().flatten().flatten();
        let mut files: Vec<_> = entries.map(|e| e.file_name()).collect();
        files.retain(|f| f.to_string_lossy().ends_with(".json"));
        files.sort();
        let mut report = Report::default();
        for file in files.iter().map(|f| f.to_string_lossy()) {
            let artifact = artifacts.join(format!("BENCH_{file}"));
            match (load(&dir.join(&*file)), load(&artifact)) {
                (Ok(base), Ok(cur)) => report.check(&file, &base, &cur),
                (Err(e), _) | (_, Err(e)) => report.errors.push(format!("{file}: {e}")),
            }
        }
        report
    }

    /// Gates one artifact against its baseline; `file` names the baseline
    /// in every check and error.
    fn check(&mut self, file: &str, baseline: &Json, current: &Json) {
        let mut fail = |what: String| self.errors.push(format!("{file}: {what}"));
        let Some(Json::Obj(table)) = baseline.get("gates") else {
            return fail("no `gates` object".into());
        };
        let mut gates: Vec<_> = table.iter().map(|(p, r)| (p, Rule::parse(r), 0)).collect();
        let mut leaves = Vec::new();
        collect(baseline, "", &mut leaves);
        leaves.retain(|(path, _)| !path.starts_with("gates."));
        for (path, leaf) in leaves {
            let cur = current.path(&path);
            let mut hits: Vec<_> = gates.iter_mut().filter(|g| matches(g.0, &path)).collect();
            hits.iter_mut().for_each(|g| g.2 += 1);
            match (leaf, &hits[..], cur.and_then(Json::as_f64)) {
                (Json::Num(base), [(_, Some(rule), _)], Some(cur)) => self.checks.push(Check {
                    file: file.to_string(),
                    ok: rule.holds(*base, cur),
                    path,
                    rule: *rule,
                    baseline: *base,
                    current: cur,
                }),
                (Json::Num(_), [(_, None, _)], _) => {}
                (Json::Num(_), [_], None) => fail(format!("`{path}` missing from artifact")),
                (Json::Num(_), hits, _) => fail(format!("`{path}` matches {} gates", hits.len())),
                (_, [_, ..], _) => fail(format!("`{path}` is gated but not a number")),
                _ if cur != Some(leaf) => fail(format!("`{path}` is {cur:?}, not {leaf:?}")),
                _ => {}
            }
        }
        for (pattern, rule, hits) in gates {
            match (rule, hits) {
                (None, _) => fail(format!("gate `{pattern}` has an unknown rule")),
                (_, 0) => fail(format!("gate `{pattern}` matches no number")),
                _ => {}
            }
        }
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baselines() -> Vec<(String, Json)> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines");
        let mut files: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
        files.sort_by_key(|e| e.file_name());
        files
            .iter()
            .map(|e| {
                let file = e.file_name().into_string().unwrap();
                (file, load(&e.path()).unwrap())
            })
            .collect()
    }

    fn set(j: &mut Json, path: &str, v: f64) {
        let mut cur = j;
        for seg in path.split('.') {
            cur = match cur {
                Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == seg).unwrap().1,
                Json::Arr(items) => &mut items[seg.parse::<usize>().unwrap()],
                _ => panic!("`{path}` runs through a leaf"),
            };
        }
        *cur = Json::Num(v);
    }

    /// The nearest reading that breaks `rule`.
    fn just_past(rule: Rule, baseline: f64) -> f64 {
        match rule {
            Rule::Exact => f64::from_bits(baseline.to_bits() + 1),
            Rule::MaxDrift => (baseline * (1.0 + TOLERANCE)).next_up(),
            Rule::MinDrift => (baseline * (1.0 - TOLERANCE)).next_down(),
            Rule::Min(x) => x.next_down(),
            Rule::Max(x) => x.next_up(),
        }
    }

    #[test]
    fn every_gate_passes_its_own_baseline_and_trips_alone_just_past_its_bound() {
        let mut total = 0;
        for (file, base) in baselines() {
            let mut report = Report::default();
            report.check(&file, &base, &base);
            assert!(report.errors.is_empty(), "{:?}", report.errors);
            assert!(report.checks.iter().all(|c| c.ok), "{file} fails itself");
            for check in &report.checks {
                let mut cur = base.clone();
                set(&mut cur, &check.path, just_past(check.rule, check.baseline));
                let mut pushed = Report::default();
                pushed.check(&file, &base, &cur);
                let failed: Vec<&str> = (pushed.checks.iter())
                    .filter(|c| !c.ok)
                    .map(|c| c.path.as_str())
                    .collect();
                assert_eq!(failed, [check.path.as_str()], "{check:?}");
                assert!(pushed.errors.is_empty());
            }
            total += report.checks.len();
        }
        assert!(total >= 60, "only {total} checks across the baselines");
    }

    #[test]
    fn a_table_that_misses_the_baseline_or_artifact_names_file_and_path() {
        let rows = r#""rows": [{"label": "x", "b": 2}]"#;
        let cur = format!(r#"{{"a": 1, {rows}}}"#);
        let cases = [
            (
                r#""a": "exact""#,
                cur.clone(),
                "t.json: `rows.0.b` matches 0 gates",
            ),
            (
                r#""a": "exact", "rows.*.b": "exact", "rows.*.label": "exact""#,
                cur.clone(),
                "t.json: `rows.0.label` is gated but not a number",
            ),
            (
                r#""a": "exact", "rows.*.b": "exact", "rows.0.b": "max_drift""#,
                cur.clone(),
                "t.json: `rows.0.b` matches 2 gates",
            ),
            (
                r#""a": "exact", "rows.*.b": "exact", "rows.*.c": "exact""#,
                cur.clone(),
                "t.json: gate `rows.*.c` matches no number",
            ),
            (
                r#""a": "exact", "rows.*.b": "exact""#,
                format!("{{{rows}}}"),
                "t.json: `a` missing from artifact",
            ),
            (
                r#""a": "exact", "rows.*.b": "exact""#,
                cur.replace('x', "y"),
                "t.json: `rows.0.label` is Some(Str(\"y\")), not Str(\"x\")",
            ),
            (
                r#""a": "exact", "rows.*.b": "lower""#,
                cur.clone(),
                "t.json: gate `rows.*.b`",
            ),
        ];
        for (gates, cur, want) in cases {
            let base =
                Json::parse(&format!(r#"{{"gates": {{{gates}}}, "a": 1, {rows}}}"#)).unwrap();
            let mut report = Report::default();
            report.check("t.json", &base, &Json::parse(&cur).unwrap());
            assert!(
                report.errors.iter().any(|e| e.starts_with(want)),
                "{want:?} not in {:?}",
                report.errors
            );
        }
    }

    #[test]
    fn a_baseline_with_no_artifact_fails_the_walk() {
        let dir = std::env::temp_dir().join(format!("bench-gate-orphan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("orphan.json"),
            r#"{"gates": {"a": "exact"}, "a": 1}"#,
        )
        .unwrap();
        let report = Report::walk(&dir, &dir);
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(report.checks.is_empty());
        assert_eq!(report.errors.len(), 1);
        assert!(report.errors[0].starts_with("orphan.json: "));
        assert!(report.errors[0].contains("BENCH_orphan.json"));
    }
}
