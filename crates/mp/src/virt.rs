//! Virtual-time execution: run any `mp` program on a *simulated* fabric.
//!
//! [`crate::run_virtual_coop`] runs the ranks as cooperative tasks, and
//! every message is priced by a [`VirtualNet`] (supplied by the
//! `machines` crate's models): sends advance the sender's virtual clock
//! by its overhead, receives advance the receiver's clock to the
//! message's simulated arrival, and compute phases are charged
//! explicitly via [`Comm::v_compute`]. The program's real data still
//! moves — results stay bit-identical to a native run — while
//! [`Comm::v_time`] reads the timeline of the modelled machine.
//!
//! This is a third execution mode alongside native timing and
//! schedule-replay simulation, and the integration tests use it to
//! cross-validate the other two: a benchmark *executed* under virtual
//! time must land near the price of its generated schedule.
//!
//! Determinism: the executor polls rank tasks off one FIFO run queue, so
//! the message order into the net's first-fit reservation timelines
//! (see `simnet::resource`) is fixed and per-rank clocks are
//! byte-identical run to run. A golden-record test pins them across
//! commits.

use simnet::schedule::P2pCost;
use simnet::Time;

use crate::comm::Comm;

/// A pricing model for virtual execution. Implemented by
/// `machines::SharedClusterNet` for the paper's machine models.
pub trait VirtualNet: Send + Sync {
    /// Prices one message of `bytes` from `src` to `dst` (global ranks),
    /// ready at `ready` on the sender's clock.
    fn p2p(&self, src: usize, dst: usize, bytes: u64, ready: Time) -> P2pCost;

    /// Prices `flops` floating-point operations on one rank at `eff`
    /// fraction of peak.
    fn compute(&self, flops: f64, eff: f64) -> Time;

    /// Prices a memory-streaming phase of `bytes` on one rank.
    fn stream(&self, bytes: f64) -> Time;
}

impl Comm {
    /// This rank's current virtual time. Zero outside virtual execution.
    pub fn v_time(&self) -> Time {
        self.world_virtual_clock()
    }

    /// Charges a compute phase of `flops` at `eff` fraction of peak to
    /// this rank's virtual clock. No-op outside virtual execution.
    pub fn v_compute(&self, flops: f64, eff: f64) {
        if let Some(net) = self.world_virtual_net() {
            let dt = net.compute(flops, eff);
            self.advance_virtual_clock(dt);
        }
    }

    /// Charges a memory-streaming phase of `bytes` to this rank's
    /// virtual clock. No-op outside virtual execution.
    pub fn v_stream(&self, bytes: f64) {
        if let Some(net) = self.world_virtual_net() {
            let dt = net.stream(bytes);
            self.advance_virtual_clock(dt);
        }
    }

    /// Synchronises this rank's virtual clock with a barrier: all ranks
    /// leave with the maximum clock. (A convenience for benchmark
    /// timing; the barrier itself is also priced as messages.) Virtual
    /// worlds are cooperative, so this is awaitable only.
    pub async fn v_sync_async(&self) -> Time {
        let mut t = [self.v_time().as_secs()];
        self.allreduce_async(&mut t, crate::reduce::Op::Max).await;
        let target = Time::from_secs(t[0]);
        self.set_virtual_clock_at_least(target);
        target
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::run_virtual_coop;
    use std::sync::Arc;

    /// A fixed-cost test net: latency 10 us, 1 GB/s, full overlap.
    pub(crate) struct TestNet;

    impl VirtualNet for TestNet {
        fn p2p(&self, _s: usize, _d: usize, bytes: u64, ready: Time) -> P2pCost {
            let dur = Time::from_us(10.0) + Time::from_secs(bytes as f64 / 1e9);
            P2pCost {
                sender_done: ready + Time::from_us(1.0),
                arrival: ready + dur,
            }
        }
        fn compute(&self, flops: f64, eff: f64) -> Time {
            Time::from_secs(flops / (1e9 * eff))
        }
        fn stream(&self, bytes: f64) -> Time {
            Time::from_secs(bytes / 1e9)
        }
    }

    #[test]
    fn ping_pong_accumulates_latency() {
        let iters = 5;
        let (_, clocks) = run_virtual_coop(2, Box::new(TestNet), move |comm| async move {
            let me = comm.rank();
            let buf = [0u8; 0];
            for _ in 0..iters {
                if me == 0 {
                    comm.send(&buf, 1, 1);
                    let mut r = [0u8; 0];
                    comm.recv_async(&mut r, 1, 1).await;
                } else {
                    let mut r = [0u8; 0];
                    comm.recv_async(&mut r, 0, 1).await;
                    comm.send(&buf, 0, 1);
                }
            }
        });
        // 2 messages x 10 us per iteration on the critical path.
        let expect = 2.0 * 10.0 * iters as f64;
        assert!(
            (clocks[0].as_us() - expect).abs() < 1e-6,
            "clock {} vs {expect}",
            clocks[0].as_us()
        );
    }

    #[test]
    fn results_match_native_execution() {
        // Virtual time must not change computed values.
        let native = crate::run(4, |comm| {
            let mut x = vec![comm.rank() as f64 + 1.0; 3];
            comm.allreduce(&mut x, crate::Op::Sum);
            x
        });
        let (virt, clocks) = run_virtual_coop(4, Box::new(TestNet), |comm| async move {
            let mut x = vec![comm.rank() as f64 + 1.0; 3];
            comm.allreduce_async(&mut x, crate::Op::Sum).await;
            x
        });
        assert_eq!(native, virt);
        assert!(
            clocks.iter().all(|c| c.as_us() > 0.0),
            "allreduce costs time"
        );
    }

    #[test]
    fn compute_charging_and_sync() {
        let (_, clocks) = run_virtual_coop(3, Box::new(TestNet), |comm| async move {
            if comm.rank() == 1 {
                comm.v_compute(5e9, 1.0); // 5 seconds
            }
            comm.v_sync_async().await;
        });
        for c in &clocks {
            assert!(c.as_secs() >= 5.0, "sync must propagate the slowest clock");
        }
    }

    #[test]
    fn outside_virtual_mode_clocks_are_zero() {
        crate::run(2, |comm| {
            assert_eq!(comm.v_time(), Time::ZERO);
            comm.v_compute(1e12, 1.0); // no-op
            assert_eq!(comm.v_time(), Time::ZERO);
        });
    }

    #[test]
    fn bandwidth_term_scales_with_bytes() {
        let run_bytes = |bytes: usize| -> f64 {
            let (_, clocks) = run_virtual_coop(2, Box::new(TestNet), move |comm| async move {
                if comm.rank() == 0 {
                    comm.send(&vec![1u8; bytes], 1, 2);
                } else {
                    let mut r = vec![0u8; bytes];
                    comm.recv_async(&mut r, 0, 2).await;
                }
            });
            clocks[1].as_us()
        };
        let t1 = run_bytes(1000);
        let t2 = run_bytes(1_000_000);
        assert!(t2 > t1 + 900.0, "1 MB adds ~1 ms: {t1} -> {t2}");
    }

    #[test]
    fn shared_net_instances_are_reusable() {
        // The Arc pattern machines uses: one net across several worlds.
        struct ArcNet(Arc<TestNet>);
        impl VirtualNet for ArcNet {
            fn p2p(&self, s: usize, d: usize, b: u64, r: Time) -> P2pCost {
                self.0.p2p(s, d, b, r)
            }
            fn compute(&self, f: f64, e: f64) -> Time {
                self.0.compute(f, e)
            }
            fn stream(&self, b: f64) -> Time {
                self.0.stream(b)
            }
        }
        let shared = Arc::new(TestNet);
        for _ in 0..3 {
            let net = Box::new(ArcNet(Arc::clone(&shared)));
            let (_, clocks) =
                run_virtual_coop(2, net, |comm| async move { comm.barrier_async().await });
            assert!(clocks[0].as_us() > 0.0);
        }
    }
}
