//! Claims as checked data: the vocabulary `paper` and `scenarios` both
//! state their claims in, and the one printer that shows each claim's
//! numbers with its checks' verdicts.
//!
//! A [`Check`] reads numbers through [`Numbers`]: a figure's [`Table`]
//! addresses one by its (row, column) cell, a scenario's artifact by the
//! dotted path its baseline's gates use (`runs.1.fast_p99_ms`, with `*`
//! for every array index: [`crate::gate`]). A series is a figure's column,
//! or a path whose `*` each key fills in turn.

use std::fmt::{self, Debug, Display};

use crate::json::{Json, Obj};
use vclock::stats::mean;

/// A table cell: row label and column name.
pub type Cell = (&'static str, &'static str);

/// A measured row: its label and one value per column.
pub type Row = (String, Vec<f64>);

/// What a claim implies about its numbers, at addresses of type `A`.
/// Bounds are inclusive. A check fails when an address names no number.
#[derive(Debug, Clone, Copy)]
pub enum Check<A: 'static> {
    /// Series `.0` at keys `.1`: each entry at most the next.
    Order(&'static str, &'static [&'static str]),
    /// Series `.0` at keys `.1`: each entry strictly below the next.
    StrictOrder(&'static str, &'static [&'static str]),
    /// The first number over the second, within `[lo, hi]`.
    Ratio(A, A, f64, f64),
    /// Every number at the address within `[lo, hi]`.
    Band(A, f64, f64),
    /// Series `y` against series `x`: the least-squares line's R² is at
    /// least the floor.
    Linear(&'static str, &'static str, f64),
}

use Check::{Band, Linear, Order, Ratio, StrictOrder};

/// Numbers a [`Check`] reads, by address.
pub trait Numbers {
    /// Where one number lives.
    type At: Copy + Debug;
    /// The numbers at `at`: one, one per array index where a path has a
    /// `*`, or none where it names nothing.
    fn at(&self, at: Self::At) -> Vec<f64>;
    /// Entry `key` of `series`, or without a key every entry in order.
    fn series(&self, series: &str, key: Option<&str>) -> Vec<f64>;
}

impl<A: Copy + Debug> Check<A> {
    /// The numbers each operand reads from `n`.
    fn operands<N: Numbers<At = A>>(&self, n: &N) -> Vec<Vec<f64>> {
        match *self {
            Order(s, keys) | StrictOrder(s, keys) => {
                keys.iter().map(|&k| n.series(s, Some(k))).collect()
            }
            Ratio(a, b, ..) => vec![n.at(a), n.at(b)],
            Band(a, ..) => vec![n.at(a)],
            Linear(x, y, _) => vec![n.series(x, None), n.series(y, None)],
        }
    }

    /// Whether every operand names what the check reads: one number for
    /// an order entry or a ratio term, at least one otherwise.
    pub fn resolves<N: Numbers<At = A>>(&self, n: &N) -> bool {
        self.resolved(&self.operands(n))
    }

    fn resolved(&self, ops: &[Vec<f64>]) -> bool {
        match self {
            Band(..) | Linear(..) => ops.iter().all(|o| !o.is_empty()),
            _ => ops.iter().all(|o| o.len() == 1),
        }
    }

    /// Whether the claim holds on `n`.
    pub fn holds<N: Numbers<At = A>>(&self, n: &N) -> bool {
        let within = |v: f64, lo: f64, hi: f64| (lo..=hi).contains(&v);
        let ops = self.operands(n);
        let one = |i: usize| ops[i][0];
        self.resolved(&ops)
            && match *self {
                Order(..) => (1..ops.len()).all(|i| one(i - 1) <= one(i)),
                StrictOrder(..) => (1..ops.len()).all(|i| one(i - 1) < one(i)),
                Ratio(.., lo, hi) => within(one(0) / one(1), lo, hi),
                Band(_, lo, hi) => ops[0].iter().all(|&v| within(v, lo, hi)),
                Linear(.., floor) => r_squared(&ops[0], &ops[1]) >= floor,
            }
    }
}

/// R² of the least-squares line through the points `(x, y)`.
pub fn r_squared(x: &[f64], y: &[f64]) -> f64 {
    let (mx, my) = (mean(x), mean(y));
    let dot = |a: &[f64], ma: f64, b: &[f64], mb: f64| -> f64 {
        a.iter().zip(b).map(|(a, b)| (a - ma) * (b - mb)).sum()
    };
    dot(x, mx, y, my).powi(2) / (dot(x, mx, x, mx) * dot(y, my, y, my))
}

/// A figure's measured rows under its columns. The checks read the exact
/// values; the printed table shows them to two decimals.
pub struct Table {
    /// Column names.
    pub columns: &'static [&'static str],
    /// Labelled rows, one value per column.
    pub rows: Vec<Row>,
}

impl Numbers for Table {
    type At = Cell;

    fn at(&self, (row, col): Cell) -> Vec<f64> {
        self.series(col, Some(row))
    }

    /// Column `col`, at row `row` or down every row.
    fn series(&self, col: &str, row: Option<&str>) -> Vec<f64> {
        let Some(i) = self.columns.iter().position(|&c| c == col) else {
            return Vec::new();
        };
        let named = |r: &&Row| row.is_none_or(|row| r.0 == row);
        self.rows.iter().filter(named).map(|r| r.1[i]).collect()
    }
}

impl Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let head = self.columns.iter().map(|c| format!("{c:>13}"));
        writeln!(f, "{:20}{}", "", head.collect::<String>())?;
        for (label, values) in &self.rows {
            let two = |v: &f64| format!("{:>13}", format!("{v:.2}").trim_end_matches(".00"));
            let cells: String = values.iter().map(two).collect();
            writeln!(f, "{label:20}{cells}")?;
        }
        Ok(())
    }
}

/// One figure or table of the paper.
pub struct Figure {
    /// Its id, as the paper names it.
    pub id: &'static str,
    /// The gist of the paper's claim.
    pub claim: &'static str,
    /// Default trial count.
    pub trials: usize,
    /// Its table's columns.
    pub columns: &'static [&'static str],
    /// The rows at a trial count.
    pub measure: fn(usize) -> Vec<Row>,
    /// What the claim implies about the table.
    pub checks: &'static [Check<Cell>],
}

/// Measures every figure at its trial count (`--trials N` overrides
/// them all), prints each table with its checks' verdicts, and writes
/// `BENCH_paper.json`. Returns how many checks failed.
pub fn figures(figures: &[Figure]) -> usize {
    let (mut heads, mut json, mut failed) = (Vec::new(), Vec::new(), 0);
    for fig in figures {
        let rows = (fig.measure)(crate::trials(fig.trials));
        let table = Table {
            columns: fig.columns,
            rows,
        };
        failed += report(fig.id, fig.claim, &table, fig.checks, &table);
        let columns = fig.columns.iter().map(|c| format!("{c:?}"));
        heads.push(Obj::new().str("id", fig.id).list("columns", columns));
        for (label, values) in &table.rows {
            let row = Obj::new().str("table", fig.id).str("label", label);
            json.push(row.list("values", values));
        }
    }
    crate::write_json("paper", Obj::new().rows("tables", heads).rows("rows", json));
    failed
}

/// An artifact, as its scenario's checks read it.
impl Numbers for Json {
    type At = &'static str;

    fn at(&self, path: &'static str) -> Vec<f64> {
        self.numbers(path)
    }

    /// The path `series` with its `*` read as `key`, or every match.
    fn series(&self, series: &str, key: Option<&str>) -> Vec<f64> {
        self.numbers(&key.map_or(series.into(), |k| series.replacen('*', k, 1)))
    }
}

/// Prints `id` and its claim, then `body`, then each check's verdict on
/// `n`. Returns how many checks failed.
pub fn report<N: Numbers>(
    id: &str,
    claim: &str,
    body: &dyn Display,
    checks: &[Check<N::At>],
    n: &N,
) -> usize {
    crate::header(id, claim);
    print!("{body}");
    let mut failed = 0;
    for check in checks {
        let holds = check.holds(n);
        println!("# {} {check:?}", if holds { "holds: " } else { "FAILED:" });
        failed += usize::from(!holds);
    }
    println!();
    failed
}

/// Exits non-zero when any of a bin's `what` checks failed.
pub fn exit_on(failed: usize, what: &str) {
    if failed > 0 {
        eprintln!("{failed} {what} checks failed");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `check` holds on `y` against `x = 0, 1, 2, …`, in rows
    /// `r0, r1, …`.
    fn holds(check: Check<Cell>, y: &[f64]) -> bool {
        let rows = (0..)
            .zip(y)
            .map(|(i, &y)| (format!("r{i}"), vec![i as f64, y]));
        let table = Table {
            columns: &["x", "y"],
            rows: rows.collect(),
        };
        check.holds(&table)
    }

    const EPS: f64 = 1e-9;

    #[test]
    fn an_ordering_fails_once_two_rows_swap() {
        let c = Order("y", &["r0", "r1", "r2"]);
        assert!(holds(c, &[1.0, 2.0, 3.0]));
        assert!(holds(c, &[1.0, 2.0, 2.0]));
        assert!(!holds(c, &[1.0, 2.0, 2.0 - EPS]));
        assert!(!holds(c, &[2.0, 1.0, 3.0]));
    }

    #[test]
    fn a_strict_ordering_fails_once_two_rows_tie() {
        let c = StrictOrder("y", &["r0", "r1", "r2"]);
        assert!(holds(c, &[1.0, 2.0, 3.0]));
        assert!(holds(c, &[1.0, 2.0, 2.0 + EPS]));
        assert!(!holds(c, &[1.0, 2.0, 2.0]));
        assert!(!holds(c, &[2.0, 1.0, 3.0]));
    }

    #[test]
    fn a_ratio_band_fails_just_past_either_bound() {
        let c = Ratio(("r1", "y"), ("r0", "y"), 1.0, 1.04);
        assert!(holds(c, &[100.0, 100.0]));
        assert!(holds(c, &[100.0, 103.9]));
        assert!(!holds(c, &[100.0, 104.0 + EPS]));
        assert!(!holds(c, &[100.0, 100.0 - EPS]));
    }

    #[test]
    fn a_value_band_fails_just_past_either_bound() {
        let c = Band(("r0", "y"), 8.0, 12.0);
        assert!(holds(c, &[8.0]) && holds(c, &[12.0]));
        assert!(!holds(c, &[8.0 - EPS]));
        assert!(!holds(c, &[12.0 + EPS]));
    }

    #[test]
    fn a_linear_fit_fails_just_under_its_r_squared_floor() {
        // y = 2x + 1 with the middle point lifted by d: R² = 1 / (1 + d²/12).
        let y = |d: f64| [1.0, 3.0 + d, 5.0];
        let floor = r_squared(&[0.0, 1.0, 2.0], &y(0.1));
        assert!((floor - 1.0 / (1.0 + 0.01 / 12.0)).abs() < 1e-12);
        let c = Linear("x", "y", floor);
        assert!(holds(c, &y(0.0)));
        assert!(holds(c, &y(0.1)));
        assert!(!holds(c, &y(0.1 + 1e-6)));
    }

    #[test]
    fn a_check_on_a_missing_row_or_column_fails() {
        assert!(!holds(Band(("r9", "y"), 0.0, 1.0), &[0.5]));
        assert!(!holds(Band(("r0", "z"), 0.0, 1.0), &[0.5]));
        assert!(!holds(Order("y", &["r0", "r9"]), &[0.5]));
        assert!(!holds(Linear("x", "z", 0.0), &[0.5, 1.0]));
    }

    #[test]
    fn a_starred_path_bands_every_entry_and_orders_the_keys_it_names() {
        let j = |b: f64| {
            let doc = format!(r#"{{"runs": [{{"p": 1}}, {{"p": {b}}}], "m": {{"a": 2, "b": 3}}}}"#);
            Json::parse(&doc).unwrap()
        };
        let band: Check<&str> = Band("runs.*.p", 1.0, 2.0);
        assert!(band.holds(&j(2.0)));
        assert!(!band.holds(&j(2.0 + EPS)));
        let rising: Check<&str> = StrictOrder("runs.*.p", &["0", "1"]);
        assert!(rising.holds(&j(1.0 + EPS)) && !rising.holds(&j(1.0)));
        let keyed: Check<&str> = StrictOrder("m.*", &["a", "b"]);
        assert!(keyed.holds(&j(0.0)));
        // A path that names nothing, or a ratio term that names several,
        // does not resolve.
        let dangling: Check<&str> = Band("runs.*.q", 0.0, 9.0);
        assert!(!dangling.resolves(&j(0.0)) && !dangling.holds(&j(0.0)));
        let several: Check<&str> = Ratio("runs.*.p", "m.a", 0.0, 9.0);
        assert!(!several.resolves(&j(0.0)));
    }
}
