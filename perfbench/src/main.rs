//! The repository benchmark. One closed-loop client: this process runs
//! a workload's fixed set of cells back to back, in an order permuted by
//! the seed, for `--seconds`, and prints the end-to-end metrics (with
//! `--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_sim|virtual_highrank|native_suite \
//!     --seed N --seconds S --trace 0|1 [--bless]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The process exits 1 when any correctness check fails. `--bless`
//! rewrites the workload's golden digests instead of checking them.
//! See `perfbench/README.md` for the workloads, metrics and checks.

mod check;
mod highrank;
mod native;
mod paper_sim;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use harness::{Mode, Stopwatch};

use check::{Golden, Tally};
use trace::Tracer;

/// Per-layer figures by metric name.
pub type Layer = BTreeMap<&'static str, f64>;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// A workload of the benchmark.
pub trait Bench: Sized {
    /// The workload's name on the command line.
    const NAME: &'static str;

    /// Builds what a pass needs (registry, machine models, seed-ordered
    /// cells) and runs the workload's untimed warm cell.
    fn setup(seed: u64, tally: &mut Tally) -> Self;

    /// Runs every cell once. With a tracer, calls are made under spans
    /// and per-layer figures go into `layer`.
    fn pass(&mut self, tally: &mut Tally, tracer: Option<&Tracer>, layer: &mut Layer);

    /// Traced-run measurements outside the pass.
    fn extras(&mut self, _tally: &mut Tally, _tracer: &Tracer, _layer: &mut Layer) {}

    /// Worker-pool threads per rank.
    fn pool_threads(&self) -> usize {
        1
    }
}

/// The key a cell's golden digest is stored under.
pub fn cell_key(
    workload: &str,
    mode: Mode,
    machine: &str,
    procs: usize,
    bytes: Option<u64>,
) -> String {
    let bytes = bytes.map_or_else(|| "-".to_string(), |b| b.to_string());
    format!("{workload}|{}|{machine}|{procs}|{bytes}", mode.as_str())
}

/// Every per-layer metric with its unit, in output order. A workload
/// that does not reach a layer reports 0 for its metrics.
const PER_LAYER: &[(&str, &str)] = &[
    ("harness.cells", "count"),
    ("harness.cell_p50_ms", "ms"),
    ("harness.cell_tail_ms", "ms"),
    ("harness.wrapper_s.pingpong", "s"),
    ("harness.wrapper_s.barrier", "s"),
    ("harness.wrapper_s.bcast", "s"),
    ("harness.wrapper_s.allreduce", "s"),
    ("harness.wrapper_share", "ratio"),
    ("mp.sched.self_s", "s"),
    ("mp.sched.messages", "count"),
    ("mp.sched.bytes", "B"),
    ("mp.sched.rounds", "count"),
    ("machines.cluster_new_s", "s"),
    ("simnet.replay_s", "s"),
    ("simnet.replay_msgs_per_s", "1/s"),
    ("hpcc.sim_s", "s"),
    ("simnet.p2p_calls", "count"),
    ("simnet.p2p_busy_s", "s"),
    ("simnet.p2p_share", "ratio"),
    ("simnet.p2p_late_over_early", "ratio"),
    ("mp.coop.self_s", "s"),
    ("mp.coop.scale_exp", "log2"),
    ("mp.coop.spawn_ranks_per_s", "1/s"),
    ("mp.coop.ring_switches_per_s", "1/s"),
    ("mp.coll.barrier_s", "s"),
    ("mp.coll.bcast_s", "s"),
    ("mp.coll.allreduce_s", "s"),
    ("mp.coll.pingpong_s", "s"),
    ("mp.pingpong_8b_us", "us"),
    ("mp.pingpong_1m_mbs", "MB/s"),
    ("mp.sendrecv_64k_us", "us"),
    ("mp.allreduce_64k_us", "us"),
    ("mp.alltoall_64k_us", "us"),
    ("imb.share", "ratio"),
    ("hpcc.hpl_s", "s"),
    ("hpcc.ptrans_s", "s"),
    ("hpcc.ra_s", "s"),
    ("hpcc.stream_s", "s"),
    ("hpcc.fft_s", "s"),
    ("hpcc.dgemm_s", "s"),
    ("hpcc.ring_s", "s"),
    ("hpcc.hpl_gflops", "Gflop/s"),
    ("hpcc.ptrans_gbs", "GB/s"),
    ("hpcc.gups", "GUP/s"),
    ("hpcc.gfft_gflops", "Gflop/s"),
    ("kernels.dgemm_rate", "Gflop/s"),
    ("kernels.fft_rate", "Gflop/s"),
    ("kernels.stream_triad_rate", "GB/s"),
    ("kernels.dgemm_flops", "flop"),
    ("kernels.fft_flops", "flop"),
    ("kernels.stream_bytes", "B"),
    ("kernels.dgemm.ops_per_byte", "flop/B"),
    ("kernels.fft.ops_per_byte", "flop/B"),
    ("kernels.stream_triad.ops_per_byte", "flop/B"),
    ("kernels.dgemm.roofline_frac", "ratio"),
    ("kernels.fft.roofline_frac", "ratio"),
    ("kernels.stream_triad.roofline_frac", "ratio"),
    ("smp.dgemm_t2_over_t1", "ratio"),
    ("smp.stream_t2_over_t1", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--bless" => args.bless = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

/// What a run measured.
struct Outcome {
    tally: Tally,
    metrics: Vec<(&'static str, f64, &'static str)>,
    pool_threads: usize,
}

/// Runs workload `B`: `SETUPS` set-ups back to back, then, untraced,
/// timed passes for `seconds` (at least one), which yield the
/// end-to-end metrics, or, traced, one untraced and one traced pass and
/// the workload's extras, which yield the per-layer metrics.
fn run<B: Bench>(args: &Args, process: &Stopwatch, golden: Golden) -> Outcome {
    let mut tally = Tally::new(golden, args.bless);
    let mut setups = Vec::new();
    let mut bench = None;
    for i in 0..SETUPS {
        let clock = Stopwatch::start();
        bench = Some(B::setup(args.seed, &mut tally));
        // The first set-up counts from process start.
        setups.push(if i == 0 {
            process.elapsed_secs()
        } else {
            clock.elapsed_secs()
        });
    }
    let mut bench = bench.expect("at least one set-up");
    let mut layer = Layer::new();
    let mut metrics = Vec::new();
    if args.trace {
        let clock = Stopwatch::start();
        bench.pass(&mut tally, None, &mut layer);
        let untraced = clock.elapsed_secs();
        let tracer = Tracer::start();
        let clock = Stopwatch::start();
        bench.pass(&mut tally, Some(&tracer), &mut layer);
        let traced = clock.elapsed_secs();
        bench.extras(&mut tally, &tracer, &mut layer);
        let spans = tracer.spans();
        harness_cells(&spans, &mut layer);
        layer.insert("trace.overhead_frac", traced / untraced - 1.0);
        for (name, t) in trace::by_name(&spans) {
            println!(
                "span {name}: {} calls, {:.6} s total, {:.6} s self",
                t.0, t.1, t.2
            );
        }
        write_spans(B::NAME, args.seed, &spans);
        for &(name, unit) in PER_LAYER {
            metrics.push((name, layer.get(name).copied().unwrap_or(0.0), unit));
        }
    } else {
        let mut walls = Vec::new();
        let measure = Stopwatch::start();
        loop {
            let clock = Stopwatch::start();
            bench.pass(&mut tally, None, &mut layer);
            walls.push(clock.elapsed_secs());
            if measure.elapsed_secs() >= args.seconds {
                break;
            }
        }
        // Host contention comes in phases of seconds that slow every
        // cell alike, so each cell counts at its fastest in the run.
        let wall: f64 = tally
            .fastest
            .iter()
            .filter(|(key, _)| !key.starts_with("warm "))
            .map(|(_, secs)| secs)
            .sum();
        println!(
            "passes: {}, median pass {} s ({walls:?} s)",
            walls.len(),
            stats::median(&walls)
        );
        let ok = (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64;
        println!("failed_frac = {} ratio", 1.0 - ok);
        metrics.push(("setup_s", stats::median(&setups), "s"));
        metrics.push(("wall_s", wall, "s"));
        metrics.push(("peak_rss_mb", peak_rss_mb(), "MB"));
        metrics.push(("pass_frac", ok, "ratio"));
    }
    println!("setups: {setups:?} s");
    tally.check_complete();
    Outcome {
        pool_threads: bench.pool_threads(),
        tally,
        metrics,
    }
}

/// `harness.cells`, `harness.cell_p50_ms` and `harness.cell_tail_ms`
/// from the traced pass's cell spans.
fn harness_cells(spans: &[trace::Span], layer: &mut Layer) {
    let ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "harness.cell" && !s.end.is_nan())
        .map(|s| (s.end - s.start) * 1e3)
        .collect();
    let tail = stats::tail(&ms);
    println!(
        "harness.cell_tail_ms is p{} over {} cells ({} beyond it)",
        tail.pct, tail.samples, tail.beyond
    );
    layer.insert("harness.cells", ms.len() as f64);
    layer.insert("harness.cell_p50_ms", stats::median(&ms));
    layer.insert("harness.cell_tail_ms", tail.value);
}

/// Writes the traced run's spans under `.bench_out/`.
fn write_spans(workload: &str, seed: u64, spans: &[trace::Span]) {
    let path = format!(".bench_out/spans-{workload}-{seed}.json");
    let written = std::fs::create_dir_all(".bench_out")
        .and_then(|()| std::fs::write(&path, trace::to_json(spans)));
    match written {
        Ok(()) => println!("spans: {} written to {path}", spans.len()),
        Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
    }
}

/// Peak resident set (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The revision of the checkout, if it is a git work tree.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.to_string()
        };
    };
    std::fs::read_to_string(format!(".git/{r}"))
        .ok()
        .or_else(|| {
            let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
            let line = packed.lines().find(|l| l.ends_with(r))?;
            Some(line.split_whitespace().next()?.to_string())
        })
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// `rustc -V` of the toolchain on `PATH` (or `$RUSTC`).
fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    std::process::Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// The provenance block printed with every result.
fn provenance(args: &Args, pool_threads: usize) -> String {
    let topo = smp::topo::detect();
    let key = smp::topo::host_key();
    let path = smp::tune::tune_file_path();
    let (tune_hash, tune_entry) = match std::fs::read(&path) {
        Ok(bytes) => {
            let text = String::from_utf8_lossy(&bytes);
            let entry = smp::tune::TuneTable::parse(&text)
                .ok()
                .and_then(|t| t.get(&key))
                .is_some();
            (format!("{:016x}", stats::fnv1a(&bytes)), entry)
        }
        Err(_) => ("missing".into(), false),
    };
    let mut out = String::from("{");
    let fields = [
        ("workload", args.workload.clone()),
        ("cpu", topo.model.clone()),
        ("nproc", topo.online_cpus.to_string()),
        ("git_rev", git_rev()),
        ("rustc", rustc_version()),
        ("tune_file", path.display().to_string()),
        ("tune_host_key", key.clone()),
        ("tune_entry_for_host", tune_entry.to_string()),
        ("tune_hash_fnv1a", tune_hash),
        ("pool_threads_per_rank", pool_threads.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
    ];
    for (i, (k, v)) in fields.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{k}\": \"{}\"", v.replace(['"', '\\'], "_"));
    }
    out.push('}');
    out
}

/// The result line: the JSON object the last line of output must hold.
fn result_line(tally: &Tally, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// The stored golden digests of each workload.
fn golden_text(workload: &str) -> &'static str {
    match workload {
        "paper_sim" => include_str!("../golden/paper_sim.txt"),
        "virtual_highrank" => include_str!("../golden/virtual_highrank.txt"),
        _ => include_str!("../golden/native_suite.txt"),
    }
}

fn main() {
    let process = Stopwatch::start();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload paper_sim|virtual_highrank|native_suite \
                 --seed N --seconds S --trace 0|1 [--bless]"
            );
            std::process::exit(2);
        }
    };
    // A deadlocked cell panics after this bound and counts as failed.
    std::env::set_var("MP_DEADLOCK_TIMEOUT_SECS", "60");
    let golden = Golden::parse(golden_text(&args.workload));
    let out = match args.workload.as_str() {
        "paper_sim" => run::<paper_sim::PaperSim>(&args, &process, golden),
        "virtual_highrank" => run::<highrank::HighRank>(&args, &process, golden),
        "native_suite" => run::<native::Native>(&args, &process, golden),
        w => {
            eprintln!("perfbench: unknown workload {w:?}");
            std::process::exit(2);
        }
    };
    if args.bless {
        let path = format!("perfbench/golden/{}.txt", args.workload);
        std::fs::write(&path, Golden::render(&out.tally.seen)).expect("write golden file");
        println!("blessed {} cell digests into {path}", out.tally.seen.len());
    }
    for f in &out.tally.failures {
        println!("FAILED: {f}");
    }
    println!(
        "cells: {} attempted, {} failed; record set digest {:016x}",
        out.tally.attempted,
        out.tally.failed,
        Golden::set_digest(&out.tally.seen)
    );
    for (name, value, unit) in &out.metrics {
        println!("{name} = {value} {unit}");
    }
    println!("provenance {}", provenance(&args, out.pool_threads));
    println!("{}", result_line(&out.tally, &out.metrics));
    if out.tally.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric list in BENCHMARK.json.
    fn listed(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..text[start..].find(']').expect("list end") + start];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at = entry
                        .find(&format!("\"{key}\": \""))
                        .expect("field present")
                        + key.len()
                        + 5;
                    entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn per_layer_metrics_match_benchmark_json() {
        let want: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), want);
    }

    #[test]
    fn end_to_end_metrics_match_benchmark_json() {
        let names: Vec<String> = listed("end_to_end").into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["setup_s", "wall_s", "peak_rss_mb", "pass_frac"]);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut tally = Tally::new(Golden::parse(""), true);
        tally.check("ok", true);
        let line = result_line(&tally, &[("wall_s", 1.25, "s"), ("bad", f64::NAN, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"bad\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn cell_keys_name_every_axis() {
        assert_eq!(
            cell_key("Bcast", Mode::Simulated, "NEC SX-8", 64, Some(1024)),
            "Bcast|simulated|NEC SX-8|64|1024"
        );
        assert_eq!(
            cell_key("G-HPL", Mode::Native, "host", 2, None),
            "G-HPL|native|host|2|-"
        );
    }
}
