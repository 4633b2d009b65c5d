//! Correctness checks. Every cell runs under `catch_unwind`; it fails if
//! it panics (a deadlock is a panic too, once `MP_DEADLOCK_TIMEOUT_SECS`
//! expires), if any of its records says `passed: false`, or if the
//! digest of its records differs from the stored golden value.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

use harness::{Record, Stopwatch};

use crate::stats::fnv1a;

/// What a cell's digest covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Digest {
    /// The canonical record JSON: deterministic virtual times, so every
    /// field must repeat bit for bit.
    Full,
    /// Only the fields that name a native measurement (benchmark, mode,
    /// procs, threads, bytes, metric); its times are wall-clock.
    Identity,
}

/// The digest of one cell's records, taken over their sorted lines so
/// it does not depend on the order the records came back in.
pub fn cell_digest(records: &[Record], kind: Digest) -> u64 {
    let mut lines: Vec<String> = records
        .iter()
        .map(|r| match kind {
            Digest::Full => r.to_json(),
            Digest::Identity => format!(
                "{} {} {} {} {} {:?} {}",
                r.benchmark,
                r.mode.as_str(),
                r.machine,
                r.procs,
                r.threads,
                r.bytes,
                r.metric.unit()
            ),
        })
        .collect();
    lines.sort();
    fnv1a(lines.join("\n").as_bytes())
}

/// Stored digests, one `key<TAB>hex` line per cell.
pub struct Golden(BTreeMap<String, u64>);

impl Golden {
    /// Parses a golden file.
    pub fn parse(text: &str) -> Golden {
        Golden(
            text.lines()
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(|l| {
                    let (key, hex) = l.rsplit_once('\t').expect("golden line is key<TAB>digest");
                    let digest = u64::from_str_radix(hex, 16).expect("golden digest is hex");
                    (key.to_string(), digest)
                })
                .collect(),
        )
    }

    /// Renders digests in the format [`Golden::parse`] reads.
    pub fn render(digests: &BTreeMap<String, u64>) -> String {
        digests
            .iter()
            .map(|(k, d)| format!("{k}\t{d:016x}\n"))
            .collect()
    }

    /// The digest of the whole set: independent of the order cells ran in.
    pub fn set_digest(digests: &BTreeMap<String, u64>) -> u64 {
        fnv1a(Golden::render(digests).as_bytes())
    }

    /// The stored digests.
    pub fn digests(&self) -> &BTreeMap<String, u64> {
        &self.0
    }
}

/// Counts attempted and failed cells and keeps the digests seen.
pub struct Tally {
    /// Cells and checks attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// One line per failure, for the log.
    pub failures: Vec<String>,
    /// Digest of every cell run, by key (the latest run wins).
    pub seen: BTreeMap<String, u64>,
    /// Fastest wall seconds of every cell run, by key.
    pub fastest: BTreeMap<String, f64>,
    golden: Golden,
    bless: bool,
}

impl Tally {
    /// A tally checking against `golden`; with `bless`, digests are only
    /// collected (to write a new golden file), never compared.
    pub fn new(golden: Golden, bless: bool) -> Tally {
        Tally {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            seen: BTreeMap::new(),
            fastest: BTreeMap::new(),
            golden,
            bless,
        }
    }

    /// Counts one check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.to_string());
        }
    }

    /// Runs one cell: catches a panic and checks its records. Returns
    /// the cell's wall time, checks included, and, unless it panicked,
    /// its records.
    pub fn cell(
        &mut self,
        key: &str,
        kind: Digest,
        f: impl FnOnce() -> Vec<Record>,
    ) -> (f64, Option<Vec<Record>>) {
        let clock = Stopwatch::start();
        let records = catch_unwind(AssertUnwindSafe(f)).ok();
        let verdict = match &records {
            None => Err("panicked".to_string()),
            Some(records) => self.verdict(key, kind, records),
        };
        let secs = clock.elapsed_secs();
        let best = self.fastest.entry(key.to_string()).or_insert(secs);
        *best = best.min(secs);
        match verdict {
            Ok(()) => self.check(key, true),
            Err(why) => self.check(&format!("{key}: {why}"), false),
        }
        (secs, records)
    }

    /// Checks one cell's records and remembers their digest.
    fn verdict(&mut self, key: &str, kind: Digest, records: &[Record]) -> Result<(), String> {
        let digest = cell_digest(records, kind);
        self.seen.insert(key.to_string(), digest);
        let expected = self.golden.0.get(key).copied();
        if records.is_empty() {
            Err("no records".to_string())
        } else if let Some(r) = records.iter().find(|r| !r.passed) {
            Err(format!("{} reports passed: false", r.benchmark))
        } else if self.bless || expected == Some(digest) {
            Ok(())
        } else {
            Err(format!("digest {digest:016x}, golden {expected:016x?}"))
        }
    }

    /// After a pass: every golden cell must have run.
    pub fn check_complete(&mut self) {
        if self.bless {
            return;
        }
        let ran: BTreeSet<&String> = self.seen.keys().collect();
        let missing = self.golden.0.keys().filter(|k| !ran.contains(k)).count();
        self.check(&format!("{missing} golden cell(s) never ran"), missing == 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::{MetricKind, Mode, Stats, Suite};

    fn rec(value: f64) -> Record {
        Record {
            benchmark: "Bcast",
            suite: Suite::Imb,
            mode: Mode::Simulated,
            machine: "m",
            procs: 4,
            threads: 1,
            bytes: Some(1024),
            metric: MetricKind::TimeUs,
            value,
            stats: Stats::deterministic(value),
            passed: true,
        }
    }

    fn golden_for(key: &str, records: &[Record]) -> Golden {
        let mut d = BTreeMap::new();
        d.insert(key.to_string(), cell_digest(records, Digest::Full));
        Golden::parse(&Golden::render(&d))
    }

    #[test]
    fn a_single_perturbed_record_fails_its_digest() {
        let good = vec![rec(12.5), rec(40.0)];
        let mut tally = Tally::new(golden_for("k", &good), false);
        tally.cell("k", Digest::Full, || good.clone());
        assert_eq!((tally.attempted, tally.failed), (1, 0));

        // One unit in the last place the canonical JSON prints (1e-6),
        // on one field of one record.
        let mut bad = good.clone();
        bad[1].stats.t_max_us += 1e-6;
        tally.cell("k", Digest::Full, || bad);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(tally.failures[0].contains("digest"));
    }

    #[test]
    fn failed_records_panics_and_unknown_cells_count_as_failures() {
        let good = vec![rec(1.0)];
        let mut tally = Tally::new(golden_for("k", &good), false);
        let mut failing = good.clone();
        failing[0].passed = false;
        tally.cell("k", Digest::Full, || failing);
        tally.cell("k", Digest::Full, || panic!("injected"));
        tally.cell("other", Digest::Full, || good.clone());
        assert_eq!((tally.attempted, tally.failed), (3, 3));
    }

    #[test]
    fn digests_ignore_record_order_and_identity_ignores_times() {
        let a = vec![rec(1.0), rec(2.0)];
        let b = vec![rec(2.0), rec(1.0)];
        assert_eq!(cell_digest(&a, Digest::Full), cell_digest(&b, Digest::Full));
        assert_ne!(
            cell_digest(&[rec(1.0)], Digest::Full),
            cell_digest(&[rec(3.0)], Digest::Full)
        );
        assert_eq!(
            cell_digest(&[rec(1.0)], Digest::Identity),
            cell_digest(&[rec(3.0)], Digest::Identity)
        );
    }

    #[test]
    fn missing_golden_cells_fail_the_pass() {
        let good = vec![rec(1.0)];
        let mut tally = Tally::new(golden_for("k", &good), false);
        tally.check_complete();
        assert_eq!(tally.failed, 1);
    }
}
