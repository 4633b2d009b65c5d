//! Golden-record test for the virtual engine.
//!
//! Runs every registry workload under virtual time on the Dell Xeon
//! cluster model and compares the Debug-formatted records plus each
//! rank's final virtual clock (as `f64::to_bits` hex) against the
//! frozen text in `tests/golden/virtual_engine.txt`. The cells match
//! the campaign's virtual slice: the 7 HPCC components at 4 ranks with
//! `SuiteConfig::small`, and the 12 IMB benchmarks at
//! `max(min_procs, 4)` ranks, 4096 B, two timed repetitions.
//!
//! Any change to scheduling order, message pricing or record assembly
//! shows up here as a byte difference. When a change is deliberate, the
//! failure message prints the full actual text; paste it over the
//! fixture to re-bless.

use std::fmt::Write as _;

use harness::Runner;
use hpcc::suite::{Component, SuiteConfig};

const GOLDEN: &str = include_str!("golden/virtual_engine.txt");

fn cell(out: &mut String, name: &str, procs: usize, records: &str, clocks: &[simnet::Time]) {
    writeln!(out, "== {name} p={procs}").unwrap();
    writeln!(out, "records: {records}").unwrap();
    out.push_str("clocks:");
    for t in clocks {
        write!(out, " {:016x}", t.as_secs().to_bits()).unwrap();
    }
    out.push('\n');
}

fn render() -> String {
    let m = machines::systems::dell_xeon();
    let mut out = String::new();
    for c in Component::ALL {
        let p = 4;
        let (recs, clocks) =
            hpcc::virtual_run::run_virtual_components_clocked(&m, p, &SuiteConfig::small(p), &[c]);
        cell(&mut out, c.name(), p, &format!("{recs:?}"), &clocks);
    }
    for b in imb::Benchmark::ALL {
        let p = b.min_procs().max(4);
        let (rec, clocks) =
            imb::virtual_run::run_virtual_clocked(&m, b, p, 4096, &Runner::fixed(2));
        cell(&mut out, b.name(), p, &format!("{rec:?}"), &clocks);
    }
    out
}

#[test]
fn virtual_engine_matches_golden_records() {
    let actual = render();
    if actual != GOLDEN {
        let first = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "virtual engine output differs from tests/golden/virtual_engine.txt \
             (first difference at line {}). If the change is deliberate, replace \
             the fixture with this text:\n{actual}",
            first + 1
        );
    }
}
