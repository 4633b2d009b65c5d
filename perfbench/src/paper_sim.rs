//! `paper_sim`: the simulated paper sweep, the path that regenerates the
//! paper's figures. The same cells as `campaign --no-figures
//! --max-procs 512`: every machine variant x powers of two up to 512
//! (plus the SX-8's 576 endpoint) x 1 MiB x all 19 registry workloads,
//! 1 113 records.
//!
//! Its cost is `mp::sched` schedule generation plus `simnet`/`machines`
//! replay; it never reaches the `mp` runtime, `mp::coop` or the kernels.
//! In the traced run each IMB cell is split into its public steps
//! (`ClusterSim::new`, `imb::sim::schedule_for`, `ClusterSim::run`
//! twice), and the split must reproduce the cell's `t_min_us` exactly.

use std::collections::BTreeMap;

use harness::{Mode, Registry, Runner, Suite};
use hpcc::suite::Component;
use imb::{Benchmark, Class};
use machines::{systems, ClusterSim, Machine};

use crate::check::{Digest, Tally};
use crate::trace::Tracer;
use crate::{Bench, Layer};

/// The sweep's largest rank count.
const MAX_PROCS: usize = 512;

/// One grid point of the sweep.
struct Cell {
    key: String,
    workload: usize,
    machine: usize,
    procs: usize,
    bytes: Option<u64>,
}

/// The registry, the machine variants and the seed-ordered cell list.
pub struct PaperSim {
    reg: Registry,
    machines: Vec<Machine>,
    cells: Vec<Cell>,
    runner: Runner,
    /// `t_min_us` of each IMB cell from the last untraced pass.
    t_min_us: BTreeMap<String, f64>,
}

/// The campaign's per-machine grid: powers of two from 2 up to
/// `min(max_cpus, 512)`, plus 576 on the 576-CPU SX-8.
fn grid(m: &Machine) -> Vec<usize> {
    let limit = m.max_cpus.min(MAX_PROCS);
    let mut g: Vec<usize> = std::iter::successors(Some(2), |p| Some(p * 2))
        .take_while(|&p| p <= limit)
        .collect();
    if m.max_cpus == 576 && limit >= 576 {
        g.push(576);
    }
    g
}

fn imb_benchmark(name: &str) -> Option<Benchmark> {
    Benchmark::ALL.into_iter().find(|b| b.name() == name)
}

fn hpcc_component(name: &str) -> Component {
    Component::ALL
        .into_iter()
        .find(|c| c.name() == name)
        .expect("every HPCC registry entry is a component")
}

impl Bench for PaperSim {
    const NAME: &'static str = "paper_sim";

    fn setup(seed: u64, tally: &mut Tally) -> PaperSim {
        let reg = hpcbench::registry();
        let machines = systems::all_variants();
        let mut cells = Vec::new();
        for (wi, w) in reg.iter().enumerate() {
            for (mi, m) in machines.iter().enumerate() {
                for p in grid(m) {
                    if !w.supports(Mode::Simulated) || !w.meta.admits(p, Mode::Simulated) {
                        continue;
                    }
                    let bytes = w.meta.sized.then_some(simnet::units::MIB);
                    cells.push(Cell {
                        key: crate::cell_key(w.meta.name, Mode::Simulated, m.name, p, bytes),
                        workload: wi,
                        machine: mi,
                        procs: p,
                        bytes,
                    });
                }
            }
        }
        crate::stats::Rng::new(seed).shuffle(&mut cells);
        let sim = PaperSim {
            reg,
            machines,
            cells,
            runner: Runner::standard(),
            t_min_us: BTreeMap::new(),
        };
        // Warm cell: one IMB and one HPCC simulation at 64 ranks.
        let m = &sim.machines[0];
        for name in ["Alltoall", "G-FFT"] {
            let w = sim.reg.get(name).expect("registry entry");
            tally.cell(&format!("warm {name}"), Digest::Identity, || {
                w.run(
                    Mode::Simulated,
                    &sim.runner,
                    Some(m),
                    64,
                    Some(simnet::units::MIB),
                )
                .expect("admissible warm cell")
            });
        }
        sim
    }

    fn pass(&mut self, tally: &mut Tally, tracer: Option<&Tracer>, layer: &mut Layer) {
        let w_of = |c: &Cell| self.reg.iter().nth(c.workload).expect("registry index");
        match tracer {
            None => {
                for c in &self.cells {
                    let w = w_of(c);
                    let m = &self.machines[c.machine];
                    let (_, records) = tally.cell(&c.key, Digest::Full, || {
                        w.run(Mode::Simulated, &self.runner, Some(m), c.procs, c.bytes)
                            .expect("the grid holds admissible cells only")
                    });
                    if let Some(r) = records.filter(|_| w.meta.suite == Suite::Imb) {
                        self.t_min_us.insert(c.key.clone(), r[0].stats.t_min_us);
                    }
                }
            }
            Some(tr) => {
                let (mut messages, mut bytes, mut rounds) = (0usize, 0u64, 0usize);
                for c in &self.cells {
                    let w = w_of(c);
                    let m = &self.machines[c.machine];
                    tr.span("harness.cell", None, |cell| {
                        if let Some(b) = imb_benchmark(w.meta.name) {
                            let t = split_imb(tr, cell, m, b, c.procs, c.bytes.unwrap_or(0));
                            messages += t.messages;
                            bytes += t.bytes;
                            rounds += t.rounds;
                            let untraced = self.t_min_us.get(&c.key).copied();
                            tally.check(
                                &format!(
                                    "{}: split replay {} us vs cell {untraced:?} us",
                                    c.key, t.t_us
                                ),
                                untraced.map(f64::to_bits) == Some(t.t_us.to_bits()),
                            );
                        } else {
                            let comp = hpcc_component(w.meta.name);
                            tally.cell(&c.key, Digest::Full, || {
                                tr.span("hpcc.sim", Some(cell), |_| {
                                    hpcc::sim::component_records(m, c.procs, comp)
                                })
                            });
                        }
                    });
                }
                let spans = crate::trace::by_name(&tr.spans());
                let self_s = |n: &str| spans.get(n).map_or(0.0, |t| t.2);
                let replay_s = self_s("simnet.replay");
                layer.insert("mp.sched.self_s", self_s("mp.sched"));
                layer.insert("mp.sched.messages", messages as f64);
                layer.insert("mp.sched.bytes", bytes as f64);
                layer.insert("mp.sched.rounds", rounds as f64);
                layer.insert("machines.cluster_new_s", self_s("machines.cluster_new"));
                layer.insert("simnet.replay_s", replay_s);
                // Each schedule is replayed twice (warm-up, then timed).
                layer.insert("simnet.replay_msgs_per_s", 2.0 * messages as f64 / replay_s);
                layer.insert("hpcc.sim_s", self_s("hpcc.sim"));
            }
        }
    }
}

/// What one split IMB cell replayed.
struct Split {
    t_us: f64,
    messages: usize,
    bytes: u64,
    rounds: usize,
}

/// `imb::sim::simulate`'s steps, each under its own span: build the
/// cluster, generate the schedule, replay it once to warm the
/// timelines, and once more for the steady-state time.
fn split_imb(
    tr: &Tracer,
    cell: usize,
    m: &Machine,
    b: Benchmark,
    procs: usize,
    bytes: u64,
) -> Split {
    let procs = if b.class() == Class::SingleTransfer {
        2
    } else {
        procs
    };
    let sim = tr.span("machines.cluster_new", Some(cell), |_| {
        ClusterSim::new(m, procs)
    });
    let schedule = tr.span("mp.sched", Some(cell), |_| {
        imb::sim::schedule_for(b, procs, bytes)
    });
    let warm = tr.span("simnet.replay", Some(cell), |_| sim.run(&schedule));
    let done = tr.span("simnet.replay", Some(cell), |_| sim.run(&schedule));
    Split {
        t_us: (done - warm).as_us(),
        messages: schedule.total_messages(),
        bytes: schedule.total_bytes(),
        rounds: schedule.num_rounds(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Golden;

    /// Runs the cells of seed `seed`'s order up to 8 ranks against the
    /// stored digests; returns the visiting order and the set digest.
    fn small_cells(seed: u64) -> (Vec<String>, u64, u64) {
        let mut tally = Tally::new(
            Golden::parse(include_str!("../golden/paper_sim.txt")),
            false,
        );
        let sim = PaperSim::setup(seed, &mut tally);
        let mut order = Vec::new();
        for c in sim.cells.iter().filter(|c| c.procs <= 8) {
            let w = sim.reg.iter().nth(c.workload).expect("registry index");
            let m = &sim.machines[c.machine];
            tally.cell(&c.key, Digest::Full, || {
                w.run(Mode::Simulated, &sim.runner, Some(m), c.procs, c.bytes)
                    .expect("admissible")
            });
            order.push(c.key.clone());
        }
        (order, Golden::set_digest(&tally.seen), tally.failed)
    }

    #[test]
    fn two_seeds_give_identical_digests() {
        let (order_a, digest_a, failed_a) = small_cells(1);
        let (order_b, digest_b, failed_b) = small_cells(2);
        assert!(order_a.len() > 100, "{} small cells", order_a.len());
        assert_ne!(order_a, order_b, "the seed permutes the cells");
        assert_eq!(
            digest_a, digest_b,
            "the record set does not depend on the order"
        );
        assert_eq!(
            (failed_a, failed_b),
            (0, 0),
            "every digest matches the stored one"
        );
    }

    #[test]
    fn the_grid_matches_the_campaign() {
        let mut tally = Tally::new(Golden::parse(""), true);
        let sim = PaperSim::setup(0, &mut tally);
        assert_eq!(sim.cells.len(), 1007, "cells of the 1 113-record sweep");
        let golden = Golden::parse(include_str!("../golden/paper_sim.txt"));
        assert!(sim
            .cells
            .iter()
            .all(|c| golden.digests().contains_key(&c.key)));
    }
}
