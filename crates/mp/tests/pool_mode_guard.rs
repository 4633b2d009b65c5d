//! Regression tests for the hybrid-SMP pool mode guard: worker-pool
//! sizing must follow the execution mode, and cooperative worlds
//! (virtual ones included) must never fan out (a 4096-rank coop world spawning even one
//! worker per rank would oversubscribe the host by three orders of
//! magnitude).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Serialises the tests that touch the process-wide thread override —
/// the test harness runs tests concurrently, and the override is global.
static PROCESS_OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Every rank of a 4096-rank cooperative world must observe an ambient
/// pool of exactly 1 — even under a process-wide `--threads`-style
/// override — so kernels called from coop tasks run inline and never
/// spawn.
#[test]
fn coop_world_pins_pool_to_one_at_4096_ranks() {
    let _lock = PROCESS_OVERRIDE_LOCK.lock().unwrap();
    smp::pool::set_process_threads(8);
    let violations = AtomicUsize::new(0);
    let sizes = mp::run_coop(4096, |comm| {
        let violations = &violations;
        async move {
            let size = smp::Pool::current().size();
            if size != 1 {
                violations.fetch_add(1, Ordering::Relaxed);
            }
            // Exercise a real pool region from inside the coop task: it
            // must run inline on the executor thread.
            let mut parts = [0u32; 3];
            smp::Pool::current().run_parts(&mut parts, |i, p| *p = i as u32);
            let _ = comm.rank();
            size
        }
    });
    smp::pool::set_process_threads(0);
    assert_eq!(violations.load(Ordering::Relaxed), 0);
    assert_eq!(sizes.len(), 4096);
    assert!(sizes.iter().all(|&s| s == 1));
}

/// Native ranks share the host cores evenly: with `n` ranks on a host
/// of `c` cores each rank gets `max(1, c / n)` workers (no
/// oversubscription when every rank's pool fans out at once).
#[test]
fn native_ranks_share_cores_evenly() {
    let _lock = PROCESS_OVERRIDE_LOCK.lock().unwrap();
    let cores = smp::topo::detect().online_cpus;
    for n in [1usize, 2, 4] {
        let sizes = mp::run(n, |comm| {
            let _ = comm.rank();
            smp::Pool::current().size()
        });
        for s in sizes {
            assert!(
                s >= 1 && s <= (cores / n).max(1).max(smp::tuned().threads),
                "n={n}: pool size {s} oversubscribes {cores} cores"
            );
        }
    }
}
