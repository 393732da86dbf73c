//! The paper report: the 1-thread work-efficiency ledger and every
//! figure and table reproduction, as sections of the `report` binary.
//!
//! A section is a list of rows. A row builds its input, times each run
//! with `Row::time` (median and quartiles over `REPS` runs; two runs
//! compared with each other alternate, `Row::time_alternating`) and
//! pairs the sequential baseline's digest with each parallel run's
//! (`Row::check`, `Row::par`). Rows print as flat JSON objects, one
//! per line; a row whose pairs differ is a disagreement.

use phase_parallel::Report;
use pp_algos::registry::Digest;
use std::fmt::{self, Display};
use std::io::Write;
use std::time::Instant;

mod sections;

/// Repetitions behind every timed column.
pub(crate) const REPS: usize = 5;

type Section = fn(Sizing, &mut dyn FnMut(&Row));

/// Every section, in the order `all` runs them.
pub(crate) const SECTIONS: [(&str, Section); 10] = [
    ("ledger", sections::ledger),
    ("fig5", sections::fig5),
    ("fig6", sections::fig6),
    ("fig7", sections::fig7),
    ("fig8_9", sections::fig8_9),
    ("fig10", sections::fig10),
    ("table1", sections::table1),
    ("threads", sections::threads),
    ("ablations", sections::ablations),
    ("model", sections::model),
];

/// Input sizes: `PP_SCALE` multiplies the sizes a figure sweeps, and
/// `PP_SMOKE` shrinks every size 64-fold so CI runs all sections fast.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    pub scale: usize,
    pub smoke: bool,
}

impl Sizing {
    /// A size the figure sweeps, which `PP_SCALE` multiplies.
    pub(crate) fn n(&self, full: usize) -> usize {
        self.fixed(full * self.scale)
    }

    /// A size the figure holds fixed.
    pub(crate) fn fixed(&self, full: usize) -> usize {
        (if self.smoke { full / 64 } else { full }).max(1)
    }
}

/// One report row: its JSON-rendered columns, in order.
#[derive(Debug, Default)]
pub(crate) struct Row {
    fields: Vec<(String, String)>,
    /// Whether a digest pair in the row differs.
    differs: bool,
}

impl Row {
    pub fn new(section: &str, label: &str) -> Self {
        let mut row = Self::default();
        row.field("section", section).field("label", label);
        row
    }

    /// A column: a number as itself (`null` if not finite), anything else
    /// as a string (Rust's debug escaping of printable text is JSON's).
    pub fn field(&mut self, key: impl Into<String>, value: impl Display) -> &mut Self {
        let text = value.to_string();
        let json = match text.parse::<f64>() {
            Ok(v) if v.is_finite() => text,
            Ok(_) => "null".into(),
            Err(_) => format!("{text:?}"),
        };
        self.fields.push((key.into(), json));
        self
    }

    /// Run `run` [`REPS`] times, recording the median seconds under `key`
    /// and the quartiles under `key_p25`, `key_p75`; return its last output.
    pub fn time<R>(&mut self, key: &str, mut run: impl FnMut() -> R) -> R {
        let mut secs = [0.0; REPS];
        let mut last = None;
        for s in &mut secs {
            last = Some(timed(s, &mut run));
        }
        for (k, v) in spread(key, secs) {
            self.field(k, v);
        }
        last.expect("REPS > 0")
    }

    /// [`Row::time`] two runs in turn, `a b a b …`, so that a drift in
    /// the machine's state (caches, clock, neighbours) lands on both
    /// columns alike; return the last output of each.
    pub fn time_alternating<A, B>(
        &mut self,
        key_a: &str,
        mut a: impl FnMut() -> A,
        key_b: &str,
        mut b: impl FnMut() -> B,
    ) -> (A, B) {
        let (mut secs_a, mut secs_b) = ([0.0; REPS], [0.0; REPS]);
        let mut last = None;
        for (sa, sb) in secs_a.iter_mut().zip(&mut secs_b) {
            last = Some((timed(sa, &mut a), timed(sb, &mut b)));
        }
        for (k, v) in spread(key_a, secs_a)
            .into_iter()
            .chain(spread(key_b, secs_b))
        {
            self.field(k, v);
        }
        last.expect("REPS > 0")
    }

    /// [`Row::time`] a parallel run under `key` and check its output
    /// against the baseline digest `seq`, named `key` without its `_s`.
    pub fn par<O: Digest>(
        &mut self,
        key: &str,
        seq: u64,
        run: impl FnMut() -> Report<O>,
    ) -> Report<O> {
        let report = self.time(key, run);
        self.check(key.trim_end_matches("_s"), seq, report.output.digest());
        report
    }

    /// The median [`Row::time`] recorded under `key`.
    pub fn median(&self, key: &str) -> f64 {
        let value = self.fields.iter().find(|(k, _)| k == key);
        value.expect("a column").1.parse().expect("a number")
    }

    /// `key` = median of `num` ÷ median of `den`.
    pub fn ratio(&mut self, key: &str, num: &str, den: &str) -> &mut Self {
        let ratio = self.median(num) / self.median(den);
        self.field(key, ratio)
    }

    /// `key` = the median under `timed`, in nanoseconds per element.
    pub fn ns_per(&mut self, key: &str, timed: &str, elements: usize) -> &mut Self {
        let ns = self.median(timed) * 1e9 / elements.max(1) as f64;
        self.field(key, ns)
    }

    /// Record the baseline's digest next to a parallel run's.
    pub fn check(&mut self, name: &str, seq: u64, par: u64) -> &mut Self {
        self.differs |= seq != par;
        self.field(format!("{name}_seq_digest"), format!("{seq:#018x}"))
            .field(format!("{name}_par_digest"), format!("{par:#018x}"))
    }
}

/// Run `run` once, storing its wall time in seconds in `secs`.
fn timed<R>(secs: &mut f64, run: &mut impl FnMut() -> R) -> R {
    let start = Instant::now();
    let out = run();
    *secs = start.elapsed().as_secs_f64();
    out
}

/// The median of `secs` under `key` and its quartiles under `key_p25`
/// and `key_p75`.
fn spread(key: &str, mut secs: [f64; REPS]) -> [(String, f64); 3] {
    secs.sort_by(f64::total_cmp);
    let quartile = |q: usize| secs[(REPS - 1) * q / 4];
    [
        (key.into(), quartile(2)),
        (format!("{key}_p25"), quartile(1)),
        (format!("{key}_p75"), quartile(3)),
    ]
}

impl Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (key, value) in &self.fields {
            write!(f, "{key:?}:{value},")?;
        }
        write!(f, "\"agree\":{}}}", !self.differs)
    }
}

/// Write each row of `section` (a section name, or `all`) to `sink`
/// as a JSON line; return how many rows disagree with their baseline.
pub fn run(section: &str, sizing: Sizing, sink: &mut dyn Write) -> Result<usize, String> {
    let chosen = |name: &str| section == "all" || section == name;
    if !SECTIONS.iter().any(|(name, _)| chosen(name)) {
        let names = SECTIONS.map(|(name, _)| name).join(" | ");
        return Err(format!("unknown section {section:?} (not {names} | all)"));
    }
    let mut disagreements = 0;
    let mut emit = |row: &Row| {
        disagreements += usize::from(row.differs);
        writeln!(sink, "{row}").expect("write a report row");
    };
    for (_, run) in SECTIONS.iter().filter(|(name, _)| chosen(name)) {
        run(sizing, &mut emit);
    }
    Ok(disagreements)
}
