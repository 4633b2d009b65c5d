//! `native_suite`: real execution on the host with the `local` backend
//! at 2 ranks, 1 pool thread each: the seven HPCC components through
//! `hpcc::suite::run_native_records` and five IMB cells through
//! `imb::run_native_with` with `Runner::standard`.
//!
//! This is the only workload where `hpcc::kernels`, `smp` and the
//! threaded `mp` transport (mailbox wakeups, rendezvous, payload copies)
//! do the work; it never reaches `simnet` or `mp::coop`. Its records
//! carry wall-clock times, so their digests cover identity fields only.
//!
//! The traced run splits the suite into its components and adds direct,
//! single-threaded calls into `hpcc::kernels` (with their own
//! correctness checks) and a 2-vs-1 pool-thread comparison for `smp`.

use harness::{Mode, Record, Runner, Stopwatch};
use hpcc::kernels::dgemm::{dgemm, dgemm_flops, dgemm_reference};
use hpcc::kernels::fft::{fft, fft_flops, Complex};
use hpcc::kernels::stream::{StreamArrays, StreamKernel};
use hpcc::suite::{Component, SuiteConfig};
use imb::Benchmark;
use simnet::units::{KIB, MIB};
use smp::AmbientGuard;

use crate::check::{Digest, Tally};
use crate::stats::{median, Rng};
use crate::trace::Tracer;
use crate::{Bench, Layer};

/// Rank threads.
const RANKS: usize = 2;
/// The IMB cells: benchmark and message bytes.
const IMB_CELLS: [(Benchmark, u64); 5] = [
    (Benchmark::PingPong, 8),
    (Benchmark::PingPong, MIB),
    (Benchmark::Sendrecv, 64 * KIB),
    (Benchmark::Allreduce, 64 * KIB),
    (Benchmark::Alltoall, 64 * KIB),
];
/// DGEMM order of the direct kernel calls.
const DGEMM_N: usize = 256;
/// FFT length of the direct kernel calls.
const FFT_N: usize = 1 << 16;
/// STREAM array length of the direct kernel calls (3 arrays of 32 MiB).
const STREAM_LEN: usize = 4 << 20;
/// Timed repetitions of each direct kernel call.
const KERNEL_REPS: usize = 9;

/// The suite configuration: `SuiteConfig::small` scaled up so each
/// component takes a measurable share of the pass.
pub fn suite_config() -> SuiteConfig {
    SuiteConfig {
        hpl_n: 1280,
        hpl_nb: 32,
        ptrans_n: 2048,
        ra_log2_size: 22,
        stream_len: 4_000_000,
        fft_log2_n: 20,
        dgemm_n: 768,
        ring_bytes: 4 << 20,
        hpl_2d: false,
    }
}

/// One cell: the whole HPCC suite, or one IMB benchmark at one size.
#[derive(Clone, Copy)]
enum Cell {
    Suite,
    Imb(Benchmark, u64),
}

impl Cell {
    fn key(self) -> String {
        match self {
            Cell::Suite => crate::cell_key("HPCC", Mode::Native, "host", RANKS, None),
            Cell::Imb(b, bytes) => {
                crate::cell_key(b.name(), Mode::Native, "host", RANKS, Some(bytes))
            }
        }
    }
}

/// The suite configuration and the seed-ordered cells.
pub struct Native {
    cfg: SuiteConfig,
    cells: Vec<Cell>,
    seed: u64,
}

impl Bench for Native {
    const NAME: &'static str = "native_suite";

    fn setup(seed: u64, tally: &mut Tally) -> Native {
        // One pool thread per rank: two ranks already fill two cores.
        smp::pool::set_process_threads(1);
        let mut cells = vec![Cell::Suite];
        cells.extend(IMB_CELLS.iter().map(|&(b, bytes)| Cell::Imb(b, bytes)));
        Rng::new(seed).shuffle(&mut cells);
        // Warm cell: the small suite and a short ping-pong.
        tally.cell("warm HPCC", Digest::Identity, || {
            hpcc::suite::run_native_records(RANKS, &SuiteConfig::small(RANKS))
        });
        tally.cell("warm PingPong", Digest::Identity, || {
            vec![imb::run_native_with(
                Benchmark::PingPong,
                RANKS,
                8,
                &Runner::smoke(),
            )]
        });
        Native {
            cfg: suite_config(),
            cells,
            seed,
        }
    }

    fn pool_threads(&self) -> usize {
        smp::pool::rank_threads(RANKS)
    }

    fn pass(&mut self, tally: &mut Tally, tracer: Option<&Tracer>, layer: &mut Layer) {
        let clock = Stopwatch::start();
        let mut imb_secs = 0.0;
        for &cell in &self.cells {
            let key = cell.key();
            let cfg = self.cfg;
            let (secs, records) = match (cell, tracer) {
                (Cell::Suite, None) => tally.cell(&key, Digest::Identity, || {
                    hpcc::suite::run_native_records(RANKS, &cfg)
                }),
                (Cell::Suite, Some(tr)) => tr.span("harness.cell", None, |id| {
                    tally.cell(&key, Digest::Identity, || split_suite(tr, id, &cfg))
                }),
                (Cell::Imb(b, bytes), _) => {
                    let run = || vec![imb::run_native_with(b, RANKS, bytes, &Runner::standard())];
                    match tracer {
                        None => tally.cell(&key, Digest::Identity, run),
                        Some(tr) => tr.span("harness.cell", None, |_| {
                            tally.cell(&key, Digest::Identity, run)
                        }),
                    }
                }
            };
            let (Some(records), Some(_)) = (records, tracer) else {
                continue;
            };
            match cell {
                Cell::Suite => suite_rates(&records, layer),
                Cell::Imb(b, bytes) => {
                    imb_secs += secs;
                    imb_metric(b, bytes, &records[0], layer);
                }
            }
        }
        if let Some(tr) = tracer {
            layer.insert("imb.share", imb_secs / clock.elapsed_secs());
            component_times(tr, layer);
        }
    }

    fn extras(&mut self, tally: &mut Tally, tr: &Tracer, layer: &mut Layer) {
        kernels(self.seed, tally, tr, layer);
    }
}

/// The suite as `run_records_on` runs it, one span per component on rank 0.
fn split_suite(tr: &Tracer, parent: usize, cfg: &SuiteConfig) -> Vec<Record> {
    let mut per_rank = mp::run(RANKS, |comm| {
        let mut records = Vec::new();
        for c in Component::ALL {
            let run = || hpcc::suite::run_component_on(comm, c, cfg);
            records.extend(if comm.rank() == 0 {
                tr.span(component_span(c), Some(parent), |_| run())
            } else {
                run()
            });
        }
        records
    });
    per_rank.swap_remove(0)
}

/// Span name of a component's wall time; its metric adds `_s`.
fn component_span(c: Component) -> &'static str {
    match c {
        Component::Hpl => "hpcc.hpl",
        Component::Ptrans => "hpcc.ptrans",
        Component::RandomAccess => "hpcc.ra",
        Component::Stream => "hpcc.stream",
        Component::Fft => "hpcc.fft",
        Component::Dgemm => "hpcc.dgemm",
        Component::RandomRing => "hpcc.ring",
    }
}

/// Per-component wall seconds from the traced pass's spans.
fn component_times(tr: &Tracer, layer: &mut Layer) {
    let spans = crate::trace::by_name(&tr.spans());
    for (c, metric) in Component::ALL.into_iter().zip([
        "hpcc.hpl_s",
        "hpcc.ptrans_s",
        "hpcc.ra_s",
        "hpcc.stream_s",
        "hpcc.fft_s",
        "hpcc.dgemm_s",
        "hpcc.ring_s",
    ]) {
        layer.insert(metric, spans.get(component_span(c)).map_or(0.0, |t| t.1));
    }
}

/// The suite's reported rates.
fn suite_rates(records: &[Record], layer: &mut Layer) {
    for r in records {
        let name = match r.benchmark {
            "G-HPL" => "hpcc.hpl_gflops",
            "G-PTRANS" => "hpcc.ptrans_gbs",
            "G-RandomAccess" => "hpcc.gups",
            "G-FFT" => "hpcc.gfft_gflops",
            _ => continue,
        };
        layer.insert(name, r.value);
    }
}

/// One IMB cell's figure: `t_min` in microseconds, or the ping-pong
/// bandwidth at 1 MiB.
fn imb_metric(b: Benchmark, bytes: u64, r: &Record, layer: &mut Layer) {
    let (name, value) = match (b, bytes) {
        (Benchmark::PingPong, 8) => ("mp.pingpong_8b_us", r.stats.t_min_us),
        (Benchmark::PingPong, _) => ("mp.pingpong_1m_mbs", r.value),
        (Benchmark::Sendrecv, _) => ("mp.sendrecv_64k_us", r.stats.t_min_us),
        (Benchmark::Allreduce, _) => ("mp.allreduce_64k_us", r.stats.t_min_us),
        _ => ("mp.alltoall_64k_us", r.stats.t_min_us),
    };
    layer.insert(name, value);
}

/// Median seconds of `KERNEL_REPS` timed calls of `f` on `state`
/// (`prep` resets it, untimed, before each).
fn time_reps<S>(state: &mut S, prep: impl Fn(&mut S), f: impl Fn(&mut S)) -> f64 {
    let times: Vec<f64> = (0..KERNEL_REPS)
        .map(|_| {
            prep(state);
            let clock = Stopwatch::start();
            f(state);
            clock.elapsed_secs()
        })
        .collect();
    median(&times)
}

/// Seconds per DGEMM call at `DGEMM_N` with `threads` pool threads.
fn dgemm_secs(a: &[f64], b: &[f64], threads: usize) -> f64 {
    let _pool = AmbientGuard::install(threads);
    let mut c = vec![0.0; DGEMM_N * DGEMM_N];
    time_reps(&mut c, |c| c.fill(0.0), |c| dgemm(DGEMM_N, a, b, c))
}

/// Seconds per triad sweep with `threads` pool threads, after checking
/// the canonical copy/scale/add/triad sequence.
fn triad_secs(tally: &mut Tally, threads: usize) -> f64 {
    let _pool = AmbientGuard::install(threads);
    let mut s = StreamArrays::new(STREAM_LEN);
    let mut triads = Vec::new();
    for _ in 0..KERNEL_REPS {
        for k in StreamKernel::ALL {
            let clock = Stopwatch::start();
            s.run(k);
            if k == StreamKernel::Triad {
                triads.push(clock.elapsed_secs());
            }
        }
    }
    let verdict = s.verify(KERNEL_REPS);
    tally.check(
        &format!("STREAM verify ({threads} threads): {verdict:?}"),
        verdict.is_ok(),
    );
    median(&triads)
}

/// Direct single-threaded kernel calls, checked against references, and
/// the 2-vs-1 pool-thread ratios.
fn kernels(seed: u64, tally: &mut Tally, tr: &Tracer, layer: &mut Layer) {
    let mut rng = Rng::new(seed);
    let mut matrix = |n: usize| (0..n * n).map(|_| rng.next_signed()).collect::<Vec<f64>>();

    // DGEMM against the reference at a small order.
    let (a, b) = (matrix(48), matrix(48));
    let (mut c, mut want) = (vec![0.0; 48 * 48], vec![0.0; 48 * 48]);
    dgemm(48, &a, &b, &mut c);
    dgemm_reference(48, &a, &b, &mut want);
    let err = c
        .iter()
        .zip(&want)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max);
    tally.check(
        &format!("dgemm vs dgemm_reference at n=48: max error {err:e}"),
        err < 1e-10,
    );

    let (a, b) = (matrix(DGEMM_N), matrix(DGEMM_N));
    let dgemm_t = tr.span("kernels.dgemm", None, |_| dgemm_secs(&a, &b, 1));
    let dgemm_rate = dgemm_flops(DGEMM_N) / dgemm_t / 1e9;

    // FFT: forward then inverse must return the input.
    let input: Vec<Complex> = (0..FFT_N)
        .map(|_| Complex::new(rng.next_signed(), rng.next_signed()))
        .collect();
    let mut data = input.clone();
    fft(&mut data, false);
    fft(&mut data, true);
    let err = data
        .iter()
        .zip(&input)
        .map(|(x, y)| {
            (x.re / FFT_N as f64 - y.re)
                .abs()
                .max((x.im / FFT_N as f64 - y.im).abs())
        })
        .fold(0.0, f64::max);
    tally.check(
        &format!("FFT round trip at n={FFT_N}: max error {err:e}"),
        err < 1e-9,
    );
    let fft_t = tr.span("kernels.fft", None, |_| {
        let _pool = AmbientGuard::install(1);
        time_reps(&mut data, |d| d.copy_from_slice(&input), |d| fft(d, false))
    });
    let fft_rate = fft_flops(FFT_N) / fft_t / 1e9;

    let triad_t = tr.span("kernels.stream_triad", None, |_| triad_secs(tally, 1));
    let triad_bytes = (24 * STREAM_LEN) as f64;
    let triad_gbs = triad_bytes / triad_t / 1e9;

    // Operations per byte of compulsory traffic, and the fraction of the
    // roofline (DGEMM rate as the compute roof, triad as the memory roof)
    // each kernel reaches.
    let dgemm_opb = dgemm_flops(DGEMM_N) / (3 * DGEMM_N * DGEMM_N * 8) as f64;
    let fft_opb = fft_flops(FFT_N) / (2 * FFT_N * 16) as f64;
    let triad_opb = 2.0 / 24.0;
    let roof = |opb: f64, gflops: f64| gflops / dgemm_rate.min(opb * triad_gbs);
    layer.insert("kernels.dgemm_rate", dgemm_rate);
    layer.insert("kernels.fft_rate", fft_rate);
    layer.insert("kernels.stream_triad_rate", triad_gbs);
    layer.insert("kernels.dgemm_flops", dgemm_flops(DGEMM_N));
    layer.insert("kernels.fft_flops", fft_flops(FFT_N));
    layer.insert("kernels.stream_bytes", triad_bytes);
    layer.insert("kernels.dgemm.ops_per_byte", dgemm_opb);
    layer.insert("kernels.fft.ops_per_byte", fft_opb);
    layer.insert("kernels.stream_triad.ops_per_byte", triad_opb);
    layer.insert("kernels.dgemm.roofline_frac", roof(dgemm_opb, dgemm_rate));
    layer.insert("kernels.fft.roofline_frac", roof(fft_opb, fft_rate));
    layer.insert(
        "kernels.stream_triad.roofline_frac",
        roof(triad_opb, triad_opb * triad_gbs),
    );
    println!(
        "kernels: dgemm n={DGEMM_N}, fft n={FFT_N}, triad arrays 3 x {} MiB; last-level cache {}",
        (STREAM_LEN * 8) >> 20,
        last_level_cache()
    );

    // smp: speed-up from a second pool thread (rate at 2 / rate at 1).
    let dgemm_t2 = tr.span("smp.dgemm_t2", None, |_| dgemm_secs(&a, &b, 2));
    let triad_t2 = tr.span("smp.stream_t2", None, |_| triad_secs(tally, 2));
    layer.insert("smp.dgemm_t2_over_t1", dgemm_t / dgemm_t2);
    layer.insert("smp.stream_t2_over_t1", triad_t / triad_t2);
}

/// The highest-level cache the kernel reports for CPU 0, e.g. `L3 32768K`.
fn last_level_cache() -> String {
    (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
            Some((
                read("level")?.trim().to_string(),
                read("size")?.trim().to_string(),
            ))
        })
        .max()
        .map_or_else(
            || "unknown".to_string(),
            |(level, size)| format!("L{level} {size}"),
        )
}
