//! The SPMD runtime: one OS thread per rank, in-process message delivery.
//!
//! `mp::run(n, f)` is the moral equivalent of `mpirun -np n`: it spawns `n`
//! rank threads, hands each a world [`Comm`](crate::comm::Comm), runs `f`
//! to completion on every rank and returns the per-rank results in rank
//! order. Message delivery is eager (a send copies the payload into the
//! destination mailbox and completes immediately), mirroring MPI's eager
//! protocol for the message sizes the benchmarks use; this also makes
//! `sendrecv`-style exchange patterns trivially deadlock-free.
//!
//! Rank threads are spawned through [`std::thread::Builder`] with a
//! bounded per-rank stack (`MP_RANK_STACK_BYTES`, default 2 MiB), and a
//! failed spawn tears the world down with a clear "cannot spawn rank r of
//! n" panic instead of aborting the process. For rank counts beyond what
//! one host can thread (virtual sweeps at 16k–100k ranks), use the
//! cooperative scheduler in [`crate::coop`] instead.

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use simnet::Transfer;

use simnet::Time;

use crate::check::{self, Checked, Inspector, RunLog, Settings};
use crate::comm::Comm;
use crate::mailbox::Mailbox;
use crate::msg::Message;
use crate::virt::VirtualNet;

/// Default per-rank thread stack: far below the 8 MiB thread default —
/// rank bodies here are benchmark kernels, not deep recursions — so a
/// native world of a few thousand ranks does not exhaust address space.
const DEFAULT_RANK_STACK_BYTES: usize = 2 * 1024 * 1024;

#[cfg(test)]
thread_local! {
    /// Test-only override of the rank stack size, thread-local so a spawn
    /// failure can be provoked without an env var racing parallel tests
    /// (spawning happens on the calling thread, which owns this cell).
    static STACK_OVERRIDE: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Per-rank stack size for spawned rank threads, overridable via the
/// `MP_RANK_STACK_BYTES` environment variable (read per run, not cached,
/// for the same reason as `MP_DEADLOCK_TIMEOUT_SECS`). Unparsable values
/// fall back to the default.
fn rank_stack_bytes() -> usize {
    #[cfg(test)]
    if let Some(s) = STACK_OVERRIDE.with(std::cell::Cell::get) {
        return s;
    }
    std::env::var("MP_RANK_STACK_BYTES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_RANK_STACK_BYTES)
}

/// Extracts the human-readable message from a caught panic payload.
/// The one helper behind every join path (native, traced, checked,
/// cooperative), so no path drops the payload on the floor.
pub(crate) fn panic_message(e: &(dyn Any + Send)) -> &str {
    e.downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| e.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic>")
}

/// Start gate for rank threads: spawned threads park here until every
/// sibling spawned successfully. If any spawn fails, the gate aborts and
/// the already-spawned threads return without running the rank body —
/// otherwise rank 0 could block forever in a collective waiting for a
/// rank that never existed, turning a spawn error into a hang.
struct StartGate {
    state: Mutex<Option<bool>>,
    cv: Condvar,
}

impl StartGate {
    fn new() -> StartGate {
        StartGate {
            state: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn open(&self) {
        *self.state.lock() = Some(true);
        self.cv.notify_all();
    }

    fn abort(&self) {
        *self.state.lock() = Some(false);
        self.cv.notify_all();
    }

    /// Parks until the gate resolves; true means "run the rank body".
    fn wait(&self) -> bool {
        let mut st = self.state.lock();
        loop {
            if let Some(go) = *st {
                return go;
            }
            self.cv.wait(&mut st);
        }
    }
}

/// Panics with the uniform spawn-failure diagnostic (satellite bugfix:
/// previously an unchecked `scope.spawn` aborted the whole process).
fn spawn_failure(rank: usize, n: usize, stack: usize, err: &std::io::Error) -> ! {
    panic!(
        "mp: cannot spawn rank {rank} of {n}: {err} \
         (per-rank stack {stack} bytes; tune MP_RANK_STACK_BYTES)"
    );
}

/// Shared state of a running SPMD world.
pub(crate) struct World {
    pub n: usize,
    pub mailboxes: Vec<Mailbox>,
    /// World group (identity mapping), shared by every rank's world
    /// [`Comm`]: built once here instead of per rank, which at 65536
    /// ranks is the difference between one 512 KiB table and an O(n²)
    /// allocation storm.
    pub world_group: Arc<Vec<usize>>,
    /// Global rank -> local rank inverse of `world_group`.
    pub world_inverse: Arc<HashMap<usize, usize>>,
    /// When tracing, every point-to-point payload is recorded here as a
    /// (global src, global dst, bytes) transfer.
    pub trace: Option<Mutex<Vec<Transfer>>>,
    /// Collective object rendezvous (used by RMA window creation):
    /// key -> (shared object, fetches remaining before cleanup).
    #[allow(clippy::type_complexity)]
    pub rendezvous: Mutex<HashMap<u64, (Arc<dyn Any + Send + Sync>, usize)>>,
    pub rendezvous_cv: Condvar,
    /// Virtual-execution pricing model (None for native runs).
    pub virtual_net: Option<Box<dyn VirtualNet>>,
    /// Per-rank virtual clocks (empty for native runs).
    pub virtual_clocks: Vec<Mutex<Time>>,
    /// Instrumentation registry of a checked run (None otherwise).
    pub inspector: Option<Arc<Inspector>>,
    /// Schedule controller of a controlled cooperative run (None
    /// otherwise): consulted by the executor at ready-set picks and by
    /// mailboxes at wildcard matches. Thread-based engines ignore it —
    /// real parallelism has no enumerable schedule to control.
    pub controller: Option<Arc<dyn crate::coop::ScheduleController>>,
    /// Multi-process session handle: present when this world is one epoch
    /// of a cross-process world, consulted by [`World::deliver`] to route
    /// messages for ranks hosted by other processes over the transport.
    pub remote: Option<crate::transport::RemoteWorld>,
}

impl World {
    pub(crate) fn new(n: usize, traced: bool, inspector: Option<Arc<Inspector>>) -> World {
        World::new_controlled(n, traced, inspector, None)
    }

    pub(crate) fn new_controlled(
        n: usize,
        traced: bool,
        inspector: Option<Arc<Inspector>>,
        controller: Option<Arc<dyn crate::coop::ScheduleController>>,
    ) -> World {
        let world_group: Arc<Vec<usize>> = Arc::new((0..n).collect());
        let world_inverse: Arc<HashMap<usize, usize>> =
            Arc::new(world_group.iter().map(|&g| (g, g)).collect());
        World {
            n,
            mailboxes: (0..n)
                .map(|rank| {
                    Mailbox::with_instrumentation(rank, inspector.clone(), controller.clone())
                })
                .collect(),
            world_group,
            world_inverse,
            trace: traced.then(|| Mutex::new(Vec::new())),
            rendezvous: Mutex::new(HashMap::new()),
            rendezvous_cv: Condvar::new(),
            virtual_net: None,
            virtual_clocks: Vec::new(),
            inspector,
            controller,
            remote: None,
        }
    }

    /// Delivers `msg` to global rank `dst`, recording it if tracing.
    /// Under a multi-process session, a message for a rank hosted by
    /// another process is framed and sent over the transport instead of
    /// pushed into a local mailbox — the one point where residency is
    /// decided, so everything above (collectives, rendezvous fallback,
    /// instrumentation) is transport-agnostic by construction.
    pub fn deliver(&self, dst: usize, msg: Message) {
        if let Some(remote) = &self.remote {
            if !remote.resident(dst) {
                remote.send_data(dst, &msg);
                return;
            }
        }
        if let Some(trace) = &self.trace {
            trace.lock().push(Transfer {
                src: msg.src,
                dst,
                bytes: msg.data.len() as u64,
            });
        }
        self.mailboxes[dst].push(msg);
    }

    /// Rendezvous attempt for a large typed send: if rank `dst` has a
    /// matching posted receive with a right-sized buffer, encode `words`
    /// directly into it and complete the transfer (one copy end to end).
    /// Returns false — and performs nothing — when no such receive is
    /// posted; the caller falls back to the eager path.
    pub fn rendezvous_words<T: crate::datatype::Word>(
        &self,
        src: usize,
        dst: usize,
        full_tag: u64,
        words: &[T],
    ) -> bool {
        if let Some(remote) = &self.remote {
            if !remote.resident(dst) {
                // No visibility into a remote mailbox's posted receives;
                // the caller falls back to the eager (framed) path.
                return false;
            }
        }
        if !self.mailboxes[dst].rendezvous_send(src, full_tag, words, None) {
            return false;
        }
        if let Some(insp) = &self.inspector {
            insp.record(
                src,
                crate::check::Event::Send {
                    dst,
                    comm: (full_tag >> 32) as u32,
                    tag: (full_tag & 0xFFFF_FFFF) as u32,
                    bytes: words.len() * T::SIZE,
                },
            );
        }
        if let Some(trace) = &self.trace {
            trace.lock().push(Transfer {
                src,
                dst,
                bytes: (words.len() * T::SIZE) as u64,
            });
        }
        true
    }
}

/// Runs `f` as an SPMD program over `n` ranks and returns the per-rank
/// results in rank order.
///
/// Panics if any rank panics (the panic is propagated with its message).
///
/// Under a multi-process session
/// ([`transport::init_from_env`](crate::transport::init_from_env) found a
/// backend), `n` must equal the launcher-fixed world size, the ranks
/// resident in this process run here while the rest run in their own
/// processes, and only the *resident* ranks' results come back (in
/// ascending rank order) — every process of the world must make the same
/// `run` calls in the same order.
///
/// # Examples
///
/// ```
/// let sums = mp::run(4, |comm| {
///     let mut x = [comm.rank() as u64];
///     comm.allreduce(&mut x, mp::Op::Sum);
///     x[0]
/// });
/// assert_eq!(sums, vec![6, 6, 6, 6]);
/// ```
pub fn run<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Comm) -> R + Send + Sync,
{
    // A multi-process session reroutes delivery through its transport;
    // it takes precedence over scoped checking (the session runs its own
    // cross-process detector).
    if let Some(sess) = crate::transport::session() {
        return crate::transport::run_multiproc(&sess, n, f);
    }
    // An ambient check configuration (installed on *this* thread via
    // `check::install_scoped`) reroutes the run through the instrumented
    // path: deadlocks are diagnosed, the run log goes to the sink, and
    // rank panics still propagate like the plain path's.
    if let Some(scoped) = check::scoped() {
        let Checked {
            results,
            panics,
            log,
        } = run_checked_inner(n, scoped.settings.clone(), &f);
        let deadlock = log.deadlock.clone();
        (scoped.sink)(log);
        if let Some(d) = deadlock {
            panic!("{}{d}", check::POISON_MARK);
        }
        if let Some((rank, msg)) = panics.first() {
            panic!("rank {rank} panicked: {msg}");
        }
        return results.expect("no deadlock, no panics, so every rank completed");
    }
    run_inner(n, false, f).0
}

/// Like [`run`], but records every point-to-point message. Returns the
/// per-rank results and the trace as a list of (src, dst, bytes)
/// transfers. The ranks are real threads, so the order of the trace
/// varies run to run: compare traces as multisets (sort them first).
/// Used to cross-validate the real collective implementations, under
/// real thread interleavings, against their schedule generators.
pub fn run_traced<R, F>(n: usize, f: F) -> (Vec<R>, Vec<Transfer>)
where
    R: Send,
    F: Fn(&Comm) -> R + Send + Sync,
{
    crate::transport::assert_no_session("run_traced");
    let (results, trace) = run_inner(n, true, f);
    (results, trace.expect("tracing was enabled"))
}

fn run_inner<R, F>(n: usize, traced: bool, f: F) -> (Vec<R>, Option<Vec<Transfer>>)
where
    R: Send,
    F: Fn(&Comm) -> R + Send + Sync,
{
    assert!(n > 0, "an SPMD world needs at least one rank");
    let world = Arc::new(World::new(n, traced, None));
    let f = &f;
    let gate = StartGate::new();
    let stack = rank_stack_bytes();
    let results: Vec<R> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for rank in 0..n {
            let world = Arc::clone(&world);
            let gate = &gate;
            let spawned = std::thread::Builder::new()
                .name(format!("mp-rank-{rank}"))
                .stack_size(stack)
                .spawn_scoped(scope, move || {
                    if !gate.wait() {
                        return None;
                    }
                    // Hybrid SMP: each native rank's kernels may fan out
                    // over an even share of the host's cores.
                    let _pool = smp::AmbientGuard::install(smp::pool::rank_threads(n));
                    let comm = Comm::world(world, rank);
                    Some(f(&comm))
                });
            match spawned {
                Ok(h) => handles.push(h),
                Err(e) => {
                    gate.abort();
                    for h in handles {
                        let _ = h.join();
                    }
                    spawn_failure(rank, n, stack, &e);
                }
            }
        }
        gate.open();
        handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| match h.join() {
                Ok(Some(r)) => r,
                Ok(None) => unreachable!("the gate opened, so every spawn succeeded"),
                Err(e) => panic!("rank {rank} panicked: {}", panic_message(&*e)),
            })
            .collect()
    });
    let trace = Arc::try_unwrap(world)
        .ok()
        .expect("all rank threads joined")
        .trace
        .map(Mutex::into_inner);
    (results, trace)
}

/// Spawns one rank thread per entry of `ranks` against `world` (whose
/// size may exceed `ranks.len()` — the multi-process runtime hosts only
/// the resident subset of a larger world), joins them, and returns their
/// results in `ranks` order. `world_size` is the *full* world size,
/// which sizes each rank's SMP worker share exactly as a single-process
/// run of that world would — a parity requirement, not a nicety: the
/// `threads` field of emitted records must not depend on how ranks were
/// packed into processes.
pub(crate) fn spawn_rank_threads<R, F>(
    world: &Arc<World>,
    ranks: &[usize],
    world_size: usize,
    f: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(usize, &Comm) -> R + Send + Sync,
{
    let f = &f;
    let gate = StartGate::new();
    let stack = rank_stack_bytes();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(ranks.len());
        for &rank in ranks {
            let world = Arc::clone(world);
            let gate = &gate;
            let spawned = std::thread::Builder::new()
                .name(format!("mp-rank-{rank}"))
                .stack_size(stack)
                .spawn_scoped(scope, move || {
                    if !gate.wait() {
                        return None;
                    }
                    let _pool = smp::AmbientGuard::install(smp::pool::rank_threads(world_size));
                    let comm = Comm::world(world, rank);
                    Some(f(rank, &comm))
                });
            match spawned {
                Ok(h) => handles.push(h),
                Err(e) => {
                    gate.abort();
                    for h in handles {
                        let _ = h.join();
                    }
                    spawn_failure(rank, world_size, stack, &e);
                }
            }
        }
        gate.open();
        handles
            .into_iter()
            .zip(ranks)
            .map(|(h, &rank)| match h.join() {
                Ok(Some(r)) => r,
                Ok(None) => unreachable!("the gate opened, so every spawn succeeded"),
                Err(e) => panic!("rank {rank} panicked: {}", panic_message(&*e)),
            })
            .collect()
    })
}

/// The instrumented run path behind [`crate::check::run_checked`] (and,
/// via a scoped install, [`run`]): an [`Inspector`] is attached to the
/// world, every rank runs under `catch_unwind`, and a detector thread
/// polls wait states — when activity is stable across several polls with
/// every unfinished rank parked, it diagnoses the deadlock and poisons
/// the run, unwinding the blocked ranks with the diagnosis.
pub(crate) fn run_checked_inner<R, F>(n: usize, settings: Settings, f: &F) -> Checked<R>
where
    R: Send,
    F: Fn(&Comm) -> R + Send + Sync,
{
    use std::sync::atomic::{AtomicBool, Ordering};

    assert!(n > 0, "an SPMD world needs at least one rank");
    crate::transport::assert_no_session("run_checked");
    let seed = settings.seed;
    let inspector = Arc::new(Inspector::new(n, settings));
    let world = Arc::new(World::new(n, false, Some(Arc::clone(&inspector))));
    let done = AtomicBool::new(false);
    let gate = StartGate::new();
    let stack = rank_stack_bytes();
    let outcomes: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
        let det_world = Arc::clone(&world);
        let det_insp = Arc::clone(&inspector);
        let det_done = &done;
        std::thread::Builder::new()
            .name("mp-check-detector".to_string())
            .spawn_scoped(scope, move || {
                // Require several consecutive polls with no wait-state
                // transitions and every unfinished rank parked before
                // diagnosing: a notified-but-unscheduled thread looks blocked
                // for one poll, never for three.
                let mut last_activity = det_insp.activity();
                let mut stable = 0u32;
                while !det_done.load(Ordering::Acquire) {
                    det_insp.poll_sleep();
                    if det_done.load(Ordering::Acquire) {
                        break;
                    }
                    let activity = det_insp.activity();
                    if activity == last_activity && det_insp.all_unfinished_waiting() {
                        stable += 1;
                    } else {
                        stable = 0;
                    }
                    last_activity = activity;
                    if stable >= 3 {
                        match crate::check::diagnose(&det_world, &det_insp) {
                            Some(diagnosis) => {
                                det_insp.set_poison(diagnosis);
                                break;
                            }
                            // A wake was in flight after all; start over.
                            None => stable = 0,
                        }
                    }
                }
            })
            .unwrap_or_else(|e| panic!("mp: cannot spawn the deadlock detector: {e}"));
        let mut handles = Vec::with_capacity(n);
        for rank in 0..n {
            let world = Arc::clone(&world);
            let insp = Arc::clone(&inspector);
            let gate = &gate;
            let spawned = std::thread::Builder::new()
                .name(format!("mp-rank-{rank}"))
                .stack_size(stack)
                .spawn_scoped(scope, move || {
                    if !gate.wait() {
                        return None;
                    }
                    let _pool = smp::AmbientGuard::install(smp::pool::rank_threads(n));
                    let comm = Comm::world(world, rank);
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&comm)));
                    insp.finish(rank);
                    Some(out)
                });
            match spawned {
                Ok(h) => handles.push(h),
                Err(e) => {
                    gate.abort();
                    for h in handles {
                        let _ = h.join();
                    }
                    // Release the detector before unwinding, or the scope
                    // join on it would hang the panic forever.
                    done.store(true, Ordering::Release);
                    spawn_failure(rank, n, stack, &e);
                }
            }
        }
        gate.open();
        let outcomes: Vec<_> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("rank bodies are caught, joins cannot fail")
                    .expect("the gate opened, so every spawn succeeded")
            })
            .collect();
        done.store(true, Ordering::Release);
        outcomes
    });
    let world = Arc::try_unwrap(world)
        .ok()
        .expect("all rank threads joined");
    let mut leftover = Vec::new();
    for mb in &world.mailboxes {
        leftover.extend(mb.inventory());
    }
    let (events, dropped) = inspector.drain_events();
    let deadlock = inspector.poisoned();
    let mut results = Vec::with_capacity(n);
    let mut panics = Vec::new();
    let mut complete = true;
    for (rank, out) in outcomes.into_iter().enumerate() {
        match out {
            Ok(r) => results.push(r),
            Err(e) => {
                complete = false;
                let msg = panic_message(&*e);
                // Poison unwinds are the detector's doing, not the
                // program's; the deadlock diagnosis already carries them.
                if !msg.starts_with(crate::check::POISON_MARK) {
                    panics.push((rank, msg.to_string()));
                }
            }
        }
    }
    Checked {
        results: complete.then_some(results),
        panics,
        log: RunLog {
            n,
            seed,
            events,
            dropped,
            leftover,
            deadlock,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_rank_order() {
        let out = run(8, |comm| comm.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn single_rank_world() {
        let out = run(1, |comm| {
            assert_eq!(comm.size(), 1);
            assert_eq!(comm.rank(), 0);
            "ok"
        });
        assert_eq!(out, vec!["ok"]);
    }

    #[test]
    #[should_panic(expected = "rank 2 panicked: boom")]
    fn rank_panic_propagates() {
        run(4, |comm| {
            if comm.rank() == 2 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn traced_run_records_messages() {
        let (_, trace) = run_traced(2, |comm| {
            if comm.rank() == 0 {
                comm.send(&[1.0f64, 2.0], 1, 7);
            } else {
                let mut buf = [0.0f64; 2];
                comm.recv(&mut buf, 0, 7);
            }
        });
        assert_eq!(trace.len(), 1);
        assert_eq!(
            trace[0],
            Transfer {
                src: 0,
                dst: 1,
                bytes: 16
            }
        );
    }

    /// Satellite regression: a failed rank spawn must fail cleanly with
    /// the rank named, not abort the process (old `scope.spawn`) or hang
    /// already-spawned siblings (they park behind the start gate). An
    /// absurd stack request makes the *first* spawn fail deterministically.
    #[test]
    #[should_panic(expected = "mp: cannot spawn rank 0 of 4")]
    fn spawn_failure_names_the_rank() {
        STACK_OVERRIDE.with(|c| c.set(Some(usize::MAX)));
        let restore = scopeguard();
        let _ = &restore;
        run(4, |comm| comm.rank());
    }

    /// Clears the stack override even when the test unwinds.
    fn scopeguard() -> impl Drop {
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                STACK_OVERRIDE.with(|c| c.set(None));
            }
        }
        Restore
    }
}
