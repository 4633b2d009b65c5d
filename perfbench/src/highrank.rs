//! `virtual_highrank`: the high-rank virtual slice, the same cells as
//! `campaign`'s `highrank_records` at 8 192 cooperative ranks: PingPong,
//! Barrier, Bcast and Allreduce at 1 KiB, `Runner::fixed(1)`, on the
//! exascale model.
//!
//! This is where the O(P^2) wall shows. Its cost is `mp::coop`, the
//! mailbox and collectives, the `harness::Runner` wrapper collectives,
//! and on-demand first-fit pricing in `simnet::resource` through
//! `SharedClusterNet`: single messages priced one at a time against
//! timelines that keep growing, where `paper_sim` replays whole
//! schedules on a fresh fabric per cell.
//!
//! The traced run adds bare-collective worlds (the collective alone,
//! without the harness wrapper) under a counting, timing wrapper around
//! `SharedClusterNet`, so the slice's time splits into wrapper, `simnet`
//! pricing and `mp::coop` self time. Each wrapped world must produce
//! exactly the virtual clocks of the same world on the bare net.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use harness::{Mode, Registry, Runner, Stopwatch};
use machines::{systems, Machine, SharedClusterNet};
use mp::{Comm, Op, VirtualNet};
use simnet::schedule::P2pCost;
use simnet::Time;

use crate::check::{Digest, Tally};
use crate::trace::Tracer;
use crate::{Bench, Layer};

/// Cooperative ranks in the slice.
pub const RANKS: usize = 8192;
/// Message size of the sized cells.
const BYTES: u64 = 1024;
/// The slice's registry workloads and their bare collectives.
const CELLS: [(&str, Coll); 4] = [
    ("PingPong", Coll::PingPong),
    ("Barrier", Coll::Barrier),
    ("Bcast", Coll::Bcast),
    ("Allreduce", Coll::Allreduce),
];

/// The registry, the exascale model and the seed-ordered cells.
pub struct HighRank {
    reg: Registry,
    machine: Machine,
    order: Vec<usize>,
    /// Wall seconds of each registry cell in the last pass, by CELLS index.
    cell_secs: BTreeMap<usize, f64>,
}

impl Bench for HighRank {
    const NAME: &'static str = "virtual_highrank";

    fn setup(seed: u64, tally: &mut Tally) -> HighRank {
        let reg = hpcbench::registry();
        let machine = systems::exascale_cluster();
        let mut order: Vec<usize> = (0..CELLS.len()).collect();
        crate::stats::Rng::new(seed).shuffle(&mut order);
        let hr = HighRank {
            reg,
            machine,
            order,
            cell_secs: BTreeMap::new(),
        };
        // Warm cell: the barrier cell at 1 024 ranks.
        let w = hr.reg.get("Barrier").expect("registry entry");
        tally.cell("warm Barrier", Digest::Identity, || {
            w.run(
                Mode::Virtual,
                &Runner::fixed(1),
                Some(&hr.machine),
                1024,
                None,
            )
            .expect("admissible warm cell")
        });
        hr
    }

    fn pass(&mut self, tally: &mut Tally, tracer: Option<&Tracer>, _layer: &mut Layer) {
        for &i in &self.order {
            let name = CELLS[i].0;
            let w = self.reg.get(name).expect("registry entry");
            let bytes = w.meta.sized.then_some(BYTES);
            let key = crate::cell_key(name, Mode::Virtual, self.machine.name, RANKS, bytes);
            let run = || {
                w.run(
                    Mode::Virtual,
                    &Runner::fixed(1),
                    Some(&self.machine),
                    RANKS,
                    bytes,
                )
                .expect("admissible cell")
            };
            let (secs, _) = match tracer {
                None => tally.cell(&key, Digest::Full, run),
                Some(tr) => tr.span("harness.cell", None, |_| {
                    tally.cell(&key, Digest::Full, run)
                }),
            };
            self.cell_secs.insert(i, secs);
        }
    }

    fn extras(&mut self, tally: &mut Tally, tr: &Tracer, layer: &mut Layer) {
        let (mut wrapper, mut cells_total) = (0.0, 0.0);
        let (mut wrapped_wall, mut busy, mut calls) = (0.0, 0.0, 0usize);
        let (mut early, mut late) = (Vec::new(), Vec::new());
        let mut bare_barrier = 0.0;
        for (i, &(name, coll)) in CELLS.iter().enumerate() {
            let (bare, bare_clocks) = tr.span(coll.span(), None, |_| {
                bare_world(
                    coll,
                    RANKS,
                    Box::new(SharedClusterNet::new(&self.machine, RANKS)),
                )
            });
            let log = Arc::new(Mutex::new(Vec::new()));
            let net = CountingNet {
                inner: SharedClusterNet::new(&self.machine, RANKS),
                log: Arc::clone(&log),
            };
            let (wall, clocks) = bare_world(coll, RANKS, Box::new(net));
            tally.check(
                &format!("{name}: wrapped-net clocks equal bare-net clocks"),
                clocks == bare_clocks,
            );
            let per_call = std::mem::take(&mut *log.lock().expect("p2p log poisoned"));
            let decile = (per_call.len() / 10).max(1).min(per_call.len());
            early.extend_from_slice(&per_call[..decile]);
            late.extend_from_slice(&per_call[per_call.len() - decile..]);
            calls += per_call.len();
            busy += per_call.iter().sum::<f64>();
            wrapped_wall += wall;

            let cell = self.cell_secs.get(&i).copied().unwrap_or(0.0);
            cells_total += cell;
            wrapper += cell - bare;
            layer.insert(coll.wrapper_metric(), cell - bare);
            layer.insert(coll.span_metric(), bare);
            if coll == Coll::Barrier {
                bare_barrier = bare;
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let half = tr.span("mp.coll.barrier_half", None, |_| {
            bare_world(
                Coll::Barrier,
                RANKS / 2,
                Box::new(SharedClusterNet::new(&self.machine, RANKS / 2)),
            )
            .0
        });
        layer.insert("harness.wrapper_share", wrapper / cells_total);
        layer.insert("simnet.p2p_calls", calls as f64);
        layer.insert("simnet.p2p_busy_s", busy);
        layer.insert("simnet.p2p_share", busy / wrapped_wall);
        layer.insert("simnet.p2p_late_over_early", mean(&late) / mean(&early));
        layer.insert("mp.coop.self_s", wrapped_wall - busy);
        layer.insert("mp.coop.scale_exp", (bare_barrier / half).log2());

        let spawn = Stopwatch::start();
        mp::run_virtual_coop(RANKS, Box::new(FreeNet), |_comm| async {});
        layer.insert(
            "mp.coop.spawn_ranks_per_s",
            RANKS as f64 / spawn.elapsed_secs(),
        );
        let ring = Stopwatch::start();
        let (hops, _) = mp::run_virtual_coop(RANKS, Box::new(FreeNet), |comm| async move {
            token_ring(&comm).await
        });
        layer.insert(
            "mp.coop.ring_switches_per_s",
            RANKS as f64 / ring.elapsed_secs(),
        );
        tally.check(
            "token ring visits every rank once",
            hops[0] == RANKS as u64 - 1,
        );
    }
}

/// A bare collective of the slice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Coll {
    PingPong,
    Barrier,
    Bcast,
    Allreduce,
}

impl Coll {
    fn span(self) -> &'static str {
        self.span_metric().trim_end_matches("_s")
    }

    fn span_metric(self) -> &'static str {
        match self {
            Coll::PingPong => "mp.coll.pingpong_s",
            Coll::Barrier => "mp.coll.barrier_s",
            Coll::Bcast => "mp.coll.bcast_s",
            Coll::Allreduce => "mp.coll.allreduce_s",
        }
    }

    fn wrapper_metric(self) -> &'static str {
        match self {
            Coll::PingPong => "harness.wrapper_s.pingpong",
            Coll::Barrier => "harness.wrapper_s.barrier",
            Coll::Bcast => "harness.wrapper_s.bcast",
            Coll::Allreduce => "harness.wrapper_s.allreduce",
        }
    }
}

/// Runs the collective twice, as the registry cell's warm-up and timed
/// iteration under `Runner::fixed(1)` do (bcast from root 0 both
/// times), on `n` cooperative ranks, with none of the cell's clock
/// syncs or statistics. Returns the wall seconds and the final virtual
/// clocks.
fn bare_world(coll: Coll, n: usize, net: Box<dyn VirtualNet>) -> (f64, Vec<u64>) {
    let clock = Stopwatch::start();
    let (_, clocks) = mp::run_virtual_coop(n, net, |comm| async move {
        let words = BYTES as usize / 8;
        let mut bytes = vec![1u8; BYTES as usize];
        let mut floats = vec![0.5f64; words];
        for _ in 0..2 {
            match coll {
                Coll::PingPong => match comm.rank() {
                    0 => {
                        comm.send_raw(&bytes, 1, 40);
                        comm.recv_raw_async(&mut bytes, 1, 40).await;
                    }
                    1 => {
                        comm.recv_raw_async(&mut bytes, 0, 40).await;
                        comm.send_raw(&bytes, 0, 40);
                    }
                    _ => {}
                },
                Coll::Barrier => comm.barrier_async().await,
                Coll::Bcast => comm.bcast_async(&mut bytes, 0).await,
                Coll::Allreduce => comm.allreduce_async(&mut floats, Op::Sum).await,
            }
        }
    });
    let wall = clock.elapsed_secs();
    (wall, clocks.iter().map(|t| t.as_secs().to_bits()).collect())
}

/// Passes a token from rank 0 around the ring once; every receive
/// suspends its task, so the pass costs one context switch per rank.
/// Returns the hop count the token carried back to this rank.
async fn token_ring(comm: &Comm) -> u64 {
    let (me, n) = (comm.rank(), comm.size());
    let mut token = [0u64];
    if me == 0 {
        comm.send(&token, 1 % n, 7);
        comm.recv_async(&mut token, n - 1, 7).await;
        token[0]
    } else {
        comm.recv_async(&mut token, me - 1, 7).await;
        token[0] += 1;
        comm.send(&token, (me + 1) % n, 7);
        token[0]
    }
}

/// `SharedClusterNet` with every `p2p` call counted and timed; the
/// per-call seconds land in `log`, in call order.
struct CountingNet {
    inner: SharedClusterNet,
    log: Arc<Mutex<Vec<f64>>>,
}

impl VirtualNet for CountingNet {
    fn p2p(&self, src: usize, dst: usize, bytes: u64, ready: Time) -> P2pCost {
        let clock = Stopwatch::start();
        let cost = self.inner.p2p(src, dst, bytes, ready);
        let secs = clock.elapsed_secs();
        self.log.lock().expect("p2p log poisoned").push(secs);
        cost
    }

    fn compute(&self, flops: f64, eff: f64) -> Time {
        self.inner.compute(flops, eff)
    }

    fn stream(&self, bytes: f64) -> Time {
        self.inner.stream(bytes)
    }
}

/// A net that prices nothing, so a world's wall time is the
/// cooperative runtime's own.
struct FreeNet;

impl VirtualNet for FreeNet {
    fn p2p(&self, _src: usize, _dst: usize, _bytes: u64, ready: Time) -> P2pCost {
        P2pCost {
            sender_done: ready,
            arrival: ready,
        }
    }

    fn compute(&self, _flops: f64, _eff: f64) -> Time {
        Time::ZERO
    }

    fn stream(&self, _bytes: f64) -> Time {
        Time::ZERO
    }
}
