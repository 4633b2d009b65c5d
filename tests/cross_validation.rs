//! Cross-crate validation: the *native* benchmark executions (real data
//! movement on the `mp` runtime) move exactly the messages the schedule
//! generators predict, which is what makes pricing those schedules on
//! the machine models a faithful simulation of the benchmarks.

use simnet::Transfer;

fn sorted(mut t: Vec<Transfer>) -> Vec<Transfer> {
    t.sort_unstable();
    t
}

/// Every sized IMB benchmark's native execution matches its simulated
/// schedule, message for message.
#[test]
fn imb_native_traces_match_sim_schedules() {
    for bench in imb::Benchmark::ALL {
        let procs = 6usize.max(bench.min_procs());
        let bytes = 4096u64;
        let (_, trace) = mp::run_traced(procs, |comm| {
            imb::native::run_on(comm, bench, bytes, 1);
        });
        // The native run has one warm-up and one timed iteration.
        let sched_procs = match bench.class() {
            imb::Class::SingleTransfer => 2,
            _ => procs,
        };
        let one = imb::sim::schedule_for(bench, sched_procs, bytes);
        let mut expected = one.transfer_multiset();
        expected.extend(one.transfer_multiset());
        // Plus the barrier between warm-up and timed loop, plus the
        // result reduction (3 allreduces) — strip those by filtering the
        // exact multiset of the benchmark payload sizes instead.
        let expected = sorted(expected);
        let traced: Vec<Transfer> = trace
            .into_iter()
            .filter(|t| {
                expected
                    .binary_search_by(|e| (e.src, e.dst, e.bytes).cmp(&(t.src, t.dst, t.bytes)))
                    .is_ok()
            })
            .collect();
        if bench == imb::Benchmark::ReduceScatter {
            // The schedule now reproduces the native per-rank word split
            // (e.g. 86/86/85/... words) exactly, and the payload sizes
            // cannot collide with the 0-byte barrier or the 8-byte stat
            // reductions — so demand exact multiset equality.
            assert_eq!(
                sorted(traced),
                expected,
                "{bench}: native payload transfers must equal the schedule's multiset"
            );
            continue;
        }
        // Every expected transfer appears (the filter keeps only matching
        // shapes; counts must cover 2 iterations).
        assert!(
            traced.len() >= expected.len(),
            "{bench}: traced {} matching transfers, schedule expects {}",
            traced.len(),
            expected.len()
        );
    }
}

/// Rooted-collective rotation: a traced Bcast from each root matches the
/// root-parameterised generator.
#[test]
fn bcast_root_rotation_traces() {
    let n = 7;
    let len = 64usize;
    for root in 0..n {
        let (_, trace) = mp::run_traced(n, |comm| {
            let mut buf = vec![0.0f64; len];
            if comm.rank() == root {
                buf.iter_mut().enumerate().for_each(|(i, v)| *v = i as f64);
            }
            mp::coll::bcast::binomial(comm, &mut buf, root);
        });
        let sched = mp::sched::bcast::binomial(n, root, (len * 8) as u64);
        assert_eq!(sorted(trace), sched.transfer_multiset(), "root {root}");
    }
}

/// The allreduce dispatcher and its schedule mirror agree across the
/// short/long and power-of-two/odd boundary.
#[test]
fn allreduce_dispatch_agreement_across_shapes() {
    for n in [2usize, 3, 4, 6, 8] {
        for len in [8usize, 240, 6000] {
            let (_, trace) = mp::run_traced(n, |comm| {
                let mut buf = vec![1.0f64; len];
                comm.allreduce(&mut buf, mp::Op::Sum);
            });
            let sched = mp::sched::allreduce::auto(n, (len * 8) as u64, 8);
            assert_eq!(sorted(trace), sched.transfer_multiset(), "n={n} len={len}");
        }
    }
}

/// Simulated timings respect byte monotonicity for every benchmark on
/// every machine: more payload never finishes earlier.
#[test]
fn simulated_times_are_monotone_in_message_size() {
    for m in machines::systems::paper_systems() {
        for bench in imb::Benchmark::ALL {
            if !bench.sized() {
                continue;
            }
            let p = 8.min(m.max_cpus);
            let small = imb::sim::simulate(&m, bench, p, 1024).t_max_us();
            let large = imb::sim::simulate(&m, bench, p, 1 << 20).t_max_us();
            assert!(large > small, "{bench} on {}: {large} !> {small}", m.name);
        }
    }
}

/// Simulated collective times grow (weakly) with the processor count.
#[test]
fn simulated_times_grow_with_procs() {
    let m = machines::systems::dell_xeon();
    for bench in [
        imb::Benchmark::Allreduce,
        imb::Benchmark::Alltoall,
        imb::Benchmark::Allgather,
        imb::Benchmark::Bcast,
    ] {
        let t16 = imb::sim::simulate(&m, bench, 16, 1 << 20).t_max_us();
        let t128 = imb::sim::simulate(&m, bench, 128, 1 << 20).t_max_us();
        assert!(t128 > t16, "{bench}: {t128} !> {t16}");
    }
}

/// Three-mode agreement: the real benchmark code *executed* under
/// virtual time lands near the price of its generated schedule, for
/// every collective benchmark on two very different machines.
#[test]
fn virtual_execution_agrees_with_schedule_replay() {
    for machine in [
        machines::systems::nec_sx8(),
        machines::systems::cray_opteron(),
    ] {
        for bench in [
            imb::Benchmark::Allreduce,
            imb::Benchmark::Alltoall,
            imb::Benchmark::Allgather,
            imb::Benchmark::Bcast,
            imb::Benchmark::ReduceScatter,
        ] {
            let executed = imb::run_virtual(&machine, bench, 8, 1 << 18, 3).t_max_us();
            let replayed = imb::sim::simulate(&machine, bench, 8, 1 << 18).t_max_us();
            let ratio = executed / replayed;
            assert!(
                (0.4..2.5).contains(&ratio),
                "{bench} on {}: executed {executed} vs replayed {replayed}",
                machine.name
            );
        }
    }
}

/// Virtual execution preserves program semantics exactly: an HPCC PTRANS
/// run on a modelled machine still verifies its closed-form result.
#[test]
fn hpcc_verifies_under_virtual_execution() {
    let net = machines::SharedClusterNet::new(&machines::systems::dell_xeon(), 4);
    let (results, clocks) = mp::run_virtual_coop(4, Box::new(net), |comm| async move {
        hpcc::ptrans::run_async(&comm, &hpcc::ptrans::PtransConfig { n: 32 })
            .await
            .passed
    });
    assert!(
        results.iter().all(|&ok| ok),
        "PTRANS must verify under virtual time"
    );
    assert!(clocks.iter().any(|c| c.as_us() > 0.0));
}
