//! High-rank golden-record test for the virtual engine.
//!
//! Runs the campaign's high-rank slice cells (PingPong, Barrier, Bcast
//! and Allreduce at 1 KiB, `Runner::fixed(1)`, on the exascale model) at
//! 2 048 cooperative ranks and compares the Debug-formatted records plus
//! a digest of the per-rank final virtual clocks against the frozen text
//! in `tests/golden/virtual_highrank.txt`.
//!
//! `tests/golden_virtual_engine.rs` runs 4-rank worlds, whose run queue
//! never holds more than a handful of ranks. Collectives at 2 048 ranks
//! keep long ready queues, so a slip in the scheduler's FIFO order at
//! scale changes the order messages reach the `simnet` timelines and
//! shows up here as a clock difference. Clocks are stored as the rank
//! count plus an FNV-1a-64 hash of their `f64::to_bits` values, which
//! keeps the fixture small. When a change is deliberate, the failure
//! message prints the full actual text; paste it over the fixture to
//! re-bless.

use std::fmt::Write as _;

use harness::Runner;
use imb::Benchmark;

const GOLDEN: &str = include_str!("golden/virtual_highrank.txt");

/// Ranks per cell.
const RANKS: usize = 2048;
/// Message size of the sized cells.
const BYTES: u64 = 1024;

/// FNV-1a-64 over the little-endian bytes of each clock's `f64` bits.
fn clock_digest(clocks: &[simnet::Time]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in clocks {
        for b in t.as_secs().to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn render() -> String {
    let m = machines::systems::exascale_cluster();
    let mut out = String::new();
    for b in [
        Benchmark::PingPong,
        Benchmark::Barrier,
        Benchmark::Bcast,
        Benchmark::Allreduce,
    ] {
        let bytes = if b.sized() { BYTES } else { 0 };
        let (rec, clocks) =
            imb::virtual_run::run_virtual_clocked(&m, b, RANKS, bytes, &Runner::fixed(1));
        writeln!(out, "== {} p={RANKS}", b.name()).unwrap();
        writeln!(out, "records: {rec:?}").unwrap();
        writeln!(
            out,
            "clocks: n={} fnv1a64={:016x}",
            clocks.len(),
            clock_digest(&clocks)
        )
        .unwrap();
    }
    out
}

#[test]
fn virtual_highrank_matches_golden_records() {
    let actual = render();
    if actual != GOLDEN {
        let first = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "high-rank virtual output differs from tests/golden/virtual_highrank.txt \
             (first difference at line {}). If the change is deliberate, replace \
             the fixture with this text:\n{actual}",
            first + 1
        );
    }
}
