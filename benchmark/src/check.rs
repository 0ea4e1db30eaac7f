//! Output checks: every op's output is validated, and each failed check
//! is counted under its cause.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::workload::Instance;

/// Why an op failed. One op can fail for several causes; it still counts
/// once in `failed`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cause {
    /// The process did not exit with an accepted code.
    Exit,
    /// The mapping is not a complete injective map over `V1`.
    Mapping,
    /// The output differs from the run's first op on the same input.
    Drift,
    /// At the golden seed, the output differs from the committed golden
    /// file.
    Golden,
    /// The grid's output directory fails `persist::integrity::verify_dir`.
    Integrity,
}

impl Cause {
    /// The report name.
    pub fn name(self) -> &'static str {
        match self {
            Cause::Exit => "exit",
            Cause::Mapping => "mapping",
            Cause::Drift => "drift",
            Cause::Golden => "golden",
            Cause::Integrity => "integrity",
        }
    }
}

/// Counts of attempted and failed ops, and of failures per cause.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tally {
    /// Ops checked.
    pub attempted: u64,
    /// Ops with at least one failed check.
    pub failed: u64,
    /// Failed checks per cause.
    pub causes: BTreeMap<&'static str, u64>,
}

impl Tally {
    /// Records one op's failed checks (none = a passing op).
    pub fn record(&mut self, causes: &[Cause]) {
        self.attempted += 1;
        if !causes.is_empty() {
            self.failed += 1;
        }
        for c in causes {
            *self.causes.entry(c.name()).or_insert(0) += 1;
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (name, n) in &other.causes {
            *self.causes.entry(name).or_insert(0) += n;
        }
    }

    /// `failed / attempted` (0 before any op).
    pub fn failed_frac(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// The reference outputs an op is compared against.
#[derive(Clone, Copy, Debug, Default)]
pub struct Reference<'a> {
    /// The run's first output on the same input.
    pub first: Option<&'a [u8]>,
    /// The golden output, at the golden seed only.
    pub golden: Option<&'a [u8]>,
}

impl Reference<'_> {
    /// The drift and golden causes of `out`.
    pub fn causes(&self, out: &[u8]) -> Vec<Cause> {
        let mut causes = Vec::new();
        if self.first.is_some_and(|f| f != out) {
            causes.push(Cause::Drift);
        }
        if self.golden.is_some_and(|g| g != out) {
            causes.push(Cause::Golden);
        }
        causes
    }
}

/// The `source → target` pairs of an `evematch` mapping printout, after
/// an optional `# degraded (gap=…)` header. `None` if a line is malformed
/// or a source or target repeats.
pub fn parse_mapping(stdout: &[u8]) -> Option<BTreeMap<String, String>> {
    let text = std::str::from_utf8(stdout).ok()?;
    let mut lines = text.lines().peekable();
    if lines
        .peek()
        .is_some_and(|l| l.starts_with("# degraded (gap="))
    {
        lines.next();
    }
    let mut pairs = BTreeMap::new();
    let mut targets = BTreeSet::new();
    for line in lines {
        let (a, b) = line.split_once('\t')?;
        if pairs.insert(a.to_owned(), b.to_owned()).is_some() || !targets.insert(b) {
            return None;
        }
    }
    Some(pairs)
}

/// The F-measure of `found` against `truth` (Section 6's criterion).
pub fn f_measure(found: &BTreeMap<String, String>, truth: &BTreeMap<String, String>) -> f64 {
    let correct = found
        .iter()
        .filter(|(a, b)| truth.get(*a) == Some(*b))
        .count() as f64;
    let precision = crate::stats::ratio(correct, found.len() as f64);
    let recall = crate::stats::ratio(correct, truth.len() as f64);
    crate::stats::ratio(2.0 * precision * recall, precision + recall)
}

/// Checks one CLI op: its exit code (0, or 2 when `degraded_ok`), its
/// mapping, and its output against the references. Returns the failed
/// causes and the mapping's F-measure (0 when unreadable).
pub fn check_cli(
    code: Option<i32>,
    stdout: &[u8],
    inst: &Instance,
    degraded_ok: bool,
    refs: Reference<'_>,
) -> (Vec<Cause>, f64) {
    let mut causes = Vec::new();
    let degraded = stdout.starts_with(b"# degraded");
    let exit_ok = match code {
        Some(0) => !degraded,
        Some(2) => degraded_ok && degraded,
        _ => false,
    };
    if !exit_ok {
        causes.push(Cause::Exit);
    }
    let mapping = parse_mapping(stdout)
        .filter(|m| m.keys().eq(inst.v1.iter()) && m.values().all(|b| inst.v2.contains(b)));
    if mapping.is_none() {
        causes.push(Cause::Mapping);
    }
    causes.extend(refs.causes(stdout));
    let f = mapping.map_or(0.0, |m| f_measure(&m, &inst.truth));
    (causes, f)
}

/// The grid CSVs compared across ops and against the golden files: the
/// deterministic panels (the time panel is wall-clock).
pub const GRID_CSVS: [&str; 3] = [
    "fig12a_fmeasure.csv",
    "fig12a_anytime_fmeasure.csv",
    "fig12c_processed.csv",
];

/// The grid's deterministic panels, concatenated under `## <file>`
/// headers (the same layout as the golden file). A missing file reads as
/// empty.
pub fn grid_output(out_dir: &Path) -> Vec<u8> {
    let mut text = Vec::new();
    for name in GRID_CSVS {
        text.extend_from_slice(format!("## {name}\n").as_bytes());
        text.extend(std::fs::read(out_dir.join(name)).unwrap_or_default());
    }
    text
}

/// The mean of the numeric cells of the anytime F-measure panel in a
/// [`grid_output`].
pub fn grid_f_measure(output: &[u8]) -> f64 {
    let text = String::from_utf8_lossy(output);
    let panel = section(&text, GRID_CSVS[1]).unwrap_or_default();
    let cells: Vec<f64> = panel
        .lines()
        .filter(|l| !l.starts_with('#'))
        .flat_map(|l| l.split(',').skip(1))
        .filter_map(|c| c.trim().parse().ok())
        .collect();
    crate::stats::mean(&cells)
}

/// Checks one grid op: exit code 0, a clean integrity walk of its output
/// directory, and its panels against the references.
pub fn check_grid(
    code: Option<i32>,
    output: &[u8],
    integrity_clean: bool,
    refs: Reference<'_>,
) -> Vec<Cause> {
    let mut causes = Vec::new();
    if code != Some(0) {
        causes.push(Cause::Exit);
    }
    if !integrity_clean {
        causes.push(Cause::Integrity);
    }
    causes.extend(refs.causes(output));
    causes
}

/// The body of the `## <key>` section of a golden file.
pub fn section<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let header = format!("## {key}\n");
    let start = text.find(&header)? + header.len();
    let rest = &text[start..];
    let end = rest.find("\n## ").map_or(rest.len(), |i| i + 1);
    Some(&rest[..end])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::CliInputs;

    fn instance() -> Instance {
        let names = |xs: &[&str]| xs.iter().map(|s| (*s).to_owned()).collect::<BTreeSet<_>>();
        Instance {
            files: CliInputs::under(Path::new(".")),
            seed: 11,
            v1: names(&["a", "b"]),
            v2: names(&["X", "Y"]),
            truth: [("a", "X"), ("b", "Y")]
                .map(|(a, b)| (a.to_owned(), b.to_owned()))
                .into(),
        }
    }

    #[test]
    fn failed_frac_counts_each_cause() {
        let inst = instance();
        let good: &[u8] = b"a\tX\nb\tY\n";
        let none = Reference::default();
        let mut tally = Tally::default();
        let mut cli = |code, out: &[u8], refs| {
            let (causes, _) = check_cli(code, out, &inst, false, refs);
            tally.record(&causes);
            causes
        };
        assert_eq!(cli(Some(0), good, none), []);
        assert_eq!(cli(Some(1), good, none), [Cause::Exit]);
        assert_eq!(cli(None, good, none), [Cause::Exit]);
        // Degraded output is an exit failure unless the workload caps it.
        assert_eq!(
            cli(Some(2), b"# degraded (gap=0.1)\na\tX\nb\tY\n", none),
            [Cause::Exit]
        );
        // Incomplete, non-injective, and outside V2.
        assert_eq!(cli(Some(0), b"a\tX\n", none), [Cause::Mapping]);
        assert_eq!(cli(Some(0), b"a\tX\nb\tX\n", none), [Cause::Mapping]);
        assert_eq!(cli(Some(0), b"a\tX\nb\tZ\n", none), [Cause::Mapping]);
        let other: &[u8] = b"a\tY\nb\tX\n";
        let drift = Reference {
            first: Some(good),
            golden: None,
        };
        assert_eq!(cli(Some(0), other, drift), [Cause::Drift]);
        let golden = Reference {
            first: None,
            golden: Some(good),
        };
        assert_eq!(cli(Some(0), other, golden), [Cause::Golden]);
        let both = Reference {
            first: Some(good),
            golden: Some(good),
        };
        assert_eq!(
            cli(Some(3), b"", both),
            [Cause::Exit, Cause::Mapping, Cause::Drift, Cause::Golden]
        );
        let grid = check_grid(Some(0), b"x", false, Reference::default());
        assert_eq!(grid, [Cause::Integrity]);
        tally.record(&grid);

        assert_eq!(tally.attempted, 11);
        assert_eq!(tally.failed, 10);
        let expect = [
            ("drift", 2),
            ("exit", 4),
            ("golden", 2),
            ("integrity", 1),
            ("mapping", 4),
        ];
        assert_eq!(tally.causes, BTreeMap::from(expect));
        assert!((tally.failed_frac() - 10.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn capped_workloads_accept_a_degraded_exit() {
        let inst = instance();
        let out = b"# degraded (gap=0.5)\na\tY\nb\tX\n";
        let (causes, f) = check_cli(Some(2), out, &inst, true, Reference::default());
        assert_eq!(causes, []);
        assert_eq!(f, 0.0);
        let (_, f) = check_cli(Some(0), b"a\tX\nb\tY\n", &inst, true, Reference::default());
        assert_eq!(f, 1.0);
    }

    #[test]
    fn golden_sections_and_grid_f_measure() {
        let text = "## fig12a_fmeasure.csv\n# t\n10,1\n## fig12a_anytime_fmeasure.csv\n\
                    # Fig12a'\n#events,A,B\n10,0.500,1.000\n20,—,0.000\n## fig12c_processed.csv\n";
        assert_eq!(section(text, "fig12a_fmeasure.csv"), Some("# t\n10,1\n"));
        assert_eq!(section(text, "fig12c_processed.csv"), Some(""));
        assert_eq!(section(text, "missing"), None);
        assert!((grid_f_measure(text.as_bytes()) - 0.5).abs() < 1e-12);
    }
}
