//! Native execution of the IMB benchmarks on the `mp` runtime, following
//! IMB's measurement conventions via the shared [`harness::Runner`]:
//! warm-up, barrier-synchronised timed loop, per-rank average with
//! min/avg/max reported across ranks, and root rotation for rooted
//! collectives. Results come back as unified [`Record`]s.

use harness::{Mode, Record, Runner};
use mp::{Comm, Op};

use crate::benchmark::{record, Benchmark};

/// Runs one benchmark natively over a fresh `procs`-rank world with an
/// explicit iteration count.
pub fn run_native(benchmark: Benchmark, procs: usize, bytes: u64, iters: usize) -> Record {
    assert!(iters > 0, "need at least one iteration");
    run_native_with(benchmark, procs, bytes, &Runner::fixed(iters))
}

/// Runs one benchmark natively over a fresh `procs`-rank world, with the
/// iteration count chosen by `runner`'s repetition policy.
pub fn run_native_with(benchmark: Benchmark, procs: usize, bytes: u64, runner: &Runner) -> Record {
    assert!(
        procs >= benchmark.min_procs(),
        "{benchmark} needs more ranks"
    );
    let runner = *runner;
    let results = mp::run(procs, move |comm| {
        run_on_with(comm, benchmark, bytes, &runner)
    });
    results[0]
}

/// Runs one benchmark on an existing communicator with an explicit
/// iteration count. Collective across the communicator; every rank
/// returns the same record.
pub fn run_on(comm: &Comm, benchmark: Benchmark, bytes: u64, iters: usize) -> Record {
    assert!(iters > 0, "need at least one iteration");
    run_on_with(comm, benchmark, bytes, &Runner::fixed(iters))
}

/// Runs one benchmark on an existing communicator, with the iteration
/// count chosen by `runner`'s repetition policy (IMB's 1000/640/80/20
/// rule under [`Runner::standard`], scaled down under [`Runner::smoke`]).
pub fn run_on_with(comm: &Comm, benchmark: Benchmark, bytes: u64, runner: &Runner) -> Record {
    let iters = runner.repetitions(benchmark.sized().then_some(bytes));
    let mut state = BenchState::new(comm, benchmark, bytes);
    let per_call = runner.time_collective(comm, iters, |it| state.iterate(comm, it));
    let participated = state.participates(comm);
    let stats = Runner::rank_stats(comm, per_call, participated, iters);
    record(benchmark, Mode::Native, "host", comm.size(), bytes, stats)
}

/// Preallocated buffers + the per-iteration body for one benchmark.
pub(crate) struct BenchState {
    benchmark: Benchmark,
    bytes: usize,
    sbuf: Vec<u8>,
    rbuf: Vec<u8>,
    fsend: Vec<f64>,
    frecv: Vec<f64>,
    counts: Vec<usize>,
}

impl BenchState {
    pub(crate) fn new(comm: &Comm, benchmark: Benchmark, bytes: u64) -> BenchState {
        let n = comm.size();
        let bytes = bytes as usize;
        let words = bytes / 8;
        let (sbuf, rbuf, fsend, frecv, counts) = match benchmark {
            Benchmark::PingPong | Benchmark::PingPing => {
                (vec![1u8; bytes], vec![0u8; bytes], vec![], vec![], vec![])
            }
            Benchmark::Sendrecv | Benchmark::Exchange => {
                (vec![1u8; bytes], vec![0u8; bytes], vec![], vec![], vec![])
            }
            Benchmark::Barrier => (vec![], vec![], vec![], vec![], vec![]),
            Benchmark::Bcast => (vec![1u8; bytes], vec![], vec![], vec![], vec![]),
            Benchmark::Allgather | Benchmark::Allgatherv => (
                vec![1u8; bytes],
                vec![0u8; bytes * n],
                vec![],
                vec![],
                vec![bytes; n],
            ),
            Benchmark::Alltoall => (
                vec![1u8; bytes * n],
                vec![0u8; bytes * n],
                vec![],
                vec![],
                vec![],
            ),
            Benchmark::Reduce | Benchmark::Allreduce => (
                vec![],
                vec![],
                vec![0.5f64; words],
                vec![0.0f64; words],
                vec![],
            ),
            Benchmark::ReduceScatter => {
                // X bytes reduced, X/N scattered; distribute remainders.
                let counts: Vec<usize> = (0..n)
                    .map(|i| words / n + usize::from(i < words % n))
                    .collect();
                let mine = counts[comm.rank()];
                (
                    vec![],
                    vec![],
                    vec![0.5f64; words],
                    vec![0.0f64; mine],
                    counts,
                )
            }
        };
        BenchState {
            benchmark,
            bytes,
            sbuf,
            rbuf,
            fsend,
            frecv,
            counts,
        }
    }

    /// Whether this rank takes part (single-transfer benchmarks only use
    /// the first two ranks; everything else is communicator-wide).
    fn participates(&self, comm: &Comm) -> bool {
        match self.benchmark {
            Benchmark::PingPong | Benchmark::PingPing => comm.rank() < 2,
            _ => true,
        }
    }

    fn iterate(&mut self, comm: &Comm, iter: usize) {
        mp::block_on(self.iterate_async(comm, iter));
    }

    pub(crate) async fn iterate_async(&mut self, comm: &Comm, iter: usize) {
        let n = comm.size();
        let me = comm.rank();
        const TAG: mp::Tag = 40;
        match self.benchmark {
            // The transfer benchmarks move opaque `MPI_BYTE` buffers, so
            // they use the raw byte path: one payload copy on the send
            // side, ownership transfer on the receive side.
            Benchmark::PingPong => {
                if me == 0 {
                    comm.send_raw(&self.sbuf, 1, TAG);
                    comm.recv_raw_async(&mut self.rbuf, 1, TAG).await;
                } else if me == 1 {
                    comm.recv_raw_async(&mut self.rbuf, 0, TAG).await;
                    comm.send_raw(&self.sbuf, 0, TAG);
                }
            }
            Benchmark::PingPing => {
                if me < 2 {
                    let peer = 1 - me;
                    comm.send_raw(&self.sbuf, peer, TAG);
                    comm.recv_raw_async(&mut self.rbuf, peer, TAG).await;
                }
            }
            Benchmark::Sendrecv => {
                let right = (me + 1) % n;
                let left = (me + n - 1) % n;
                comm.send_raw(&self.sbuf, right, TAG);
                comm.recv_raw_async(&mut self.rbuf, left, TAG).await;
            }
            Benchmark::Exchange => {
                // IMB semantics: both receives are pre-posted before the
                // sends, so incoming payloads match the posted-receive
                // table directly instead of queueing.
                let right = (me + 1) % n;
                let left = (me + n - 1) % n;
                let from_left = comm.irecv(left, TAG);
                let from_right = comm.irecv(right, TAG);
                comm.isend(&self.sbuf, left, TAG);
                comm.isend(&self.sbuf, right, TAG);
                from_left.wait_async(comm, &mut self.rbuf).await;
                from_right.wait_async(comm, &mut self.rbuf).await;
            }
            Benchmark::Barrier => comm.barrier_async().await,
            Benchmark::Bcast => comm.bcast_async(&mut self.sbuf, iter % n).await,
            Benchmark::Allgather => comm.allgather_async(&self.sbuf, &mut self.rbuf).await,
            Benchmark::Allgatherv => {
                comm.allgatherv_async(&self.sbuf, &mut self.rbuf, &self.counts)
                    .await
            }
            Benchmark::Alltoall => comm.alltoall_async(&self.sbuf, &mut self.rbuf).await,
            Benchmark::Reduce => {
                let root = iter % n;
                let recv = (me == root).then_some(self.frecv.as_mut_slice());
                comm.reduce_async(&self.fsend, recv, root, Op::Sum).await;
            }
            Benchmark::Allreduce => {
                self.frecv.copy_from_slice(&self.fsend);
                comm.allreduce_async(&mut self.frecv, Op::Sum).await;
            }
            Benchmark::ReduceScatter => {
                comm.reduce_scatter_async(&self.fsend, &mut self.frecv, &self.counts, Op::Sum)
                    .await;
            }
        }
        let _ = self.bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::Benchmark;
    use harness::MetricKind;

    #[test]
    fn every_benchmark_runs_natively() {
        for b in Benchmark::ALL {
            let p = b.min_procs().max(4);
            let m = run_native(b, p, 4096, 3);
            assert!(m.t_max_us() > 0.0, "{b}: zero time");
            assert!(m.stats.is_ordered(), "{b}");
            assert_eq!(m.procs, p);
            assert_eq!(m.mode, Mode::Native);
            assert_eq!(m.benchmark, b.name());
            match b.metric() {
                MetricKind::BandwidthMBs => assert!(m.bandwidth_mbs().unwrap() > 0.0, "{b}"),
                _ => assert!(m.bandwidth_mbs().is_none(), "{b}"),
            }
        }
    }

    #[test]
    fn zero_byte_messages_work() {
        for b in [Benchmark::PingPong, Benchmark::Bcast, Benchmark::Alltoall] {
            let m = run_native(b, 2, 0, 2);
            assert!(m.t_max_us() >= 0.0);
        }
    }

    #[test]
    fn reduce_scatter_with_indivisible_sizes() {
        // 100 words over 3 ranks: counts 34/33/33.
        let m = run_native(Benchmark::ReduceScatter, 3, 800, 2);
        assert!(m.t_max_us() > 0.0);
    }

    #[test]
    fn barrier_ignores_message_size() {
        let m = run_native(Benchmark::Barrier, 4, 0, 5);
        assert!(m.t_max_us() > 0.0);
        assert_eq!(m.bytes, None);
    }

    #[test]
    fn pingpong_only_times_first_two_ranks() {
        let m = run_native(Benchmark::PingPong, 4, 1024, 3);
        assert!(m.t_min_us() > 0.0, "idle ranks must not drag the min to 0");
    }

    #[test]
    fn runner_policy_sets_the_iteration_count() {
        let m = run_native_with(Benchmark::Bcast, 2, 4 << 20, &Runner::smoke());
        assert_eq!(m.stats.repetitions, 3, "smoke rule at 4 MiB");
    }
}
