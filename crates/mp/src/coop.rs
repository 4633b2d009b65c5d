//! Cooperative rank scheduler: ranks as resumable tasks, not OS threads.
//!
//! Host limits (pid_max, vm.max_map_count, per-thread stacks) cap the
//! thread-per-rank runtime at a few thousand ranks; the paper-scale
//! virtual sweeps need 16k–100k. The cooperative executor ([`run_coop`],
//! [`run_virtual_coop`], [`run_checked_coop`], [`run_controlled_coop`])
//! runs each rank body as an `async` future, polled on the caller's
//! thread; every blocking receive ([`Mailbox::wait_ticket`](crate::mailbox)
//! and friends) becomes a yield point. One OS thread hosts the whole
//! world, so a 100k-rank virtual run is just 100k boxed futures.
//!
//! It is also the only virtual-time engine. Ranks are polled off one
//! deterministic FIFO run queue, so messages reach the `simnet`
//! first-fit reservation timelines in the same order on every run; those
//! timelines are order-dependent under contention, so schedule
//! determinism is what buys byte-identical virtual clocks. The
//! workspace's golden-record tests pin records and per-rank clocks of
//! every registry workload at 4 ranks (`tests/golden_virtual_engine.rs`)
//! and of the high-rank slice at 2 048 ranks, where the run queue grows
//! long (`tests/golden_virtual_highrank.rs`).
//!
//! Task states (see DESIGN.md "Cooperative scheduler"): *queued* (rank id
//! in the run queue), *running* (being polled), *blocked* (pending on a
//! receive, waker parked in the hand-off slot), *finished*. A blocked
//! rank is woken by the sender that fills its hand-off slot; wakes push
//! the rank id back onto the FIFO queue. Deadlock detection is
//! *instant* — an empty queue with unfinished ranks is definitive, no
//! wall-clock timeout needed — and composes with `mp::check`'s wait
//! edges: a checked cooperative run calls [`check::diagnose`] at the
//! stall and unwinds the blocked tasks with the cycle diagnosis.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use parking_lot::Mutex;
use simnet::Time;

use crate::check::{self, Checked, Event, RunLog, Settings};
use crate::comm::Comm;
use crate::runtime::{panic_message, World};
use crate::virt::VirtualNet;

thread_local! {
    /// True while this thread is polling a cooperative task.
    static IN_COOP: Cell<bool> = const { Cell::new(false) };
    /// Ambient exploration configuration (see [`install_explore`]).
    static EXPLORE: RefCell<Option<ScopedExplore>> = const { RefCell::new(None) };
}

// ---------------------------------------------------------------------
// Schedule controllers: every engine choice as an enumerable decision
// ---------------------------------------------------------------------

/// One matchable lane at a wildcard-receive choice point, in arrival
/// order (`seq` is the global arrival stamp of the lane front).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WildcardCandidate {
    /// Global source rank of the candidate lane.
    pub src: usize,
    /// Communicator id of the lane.
    pub comm: u32,
    /// In-communicator tag of the lane.
    pub tag: u32,
    /// Arrival stamp of the lane front (the message that would match).
    pub seq: u64,
}

/// A scheduling decision procedure for cooperative runs.
///
/// The cooperative engine has exactly two sources of schedule freedom:
/// which ready rank to poll next, and which queued lane a wildcard
/// receive matches when several hold messages. A controller is consulted
/// at both — each call is an enumerable choice point, which is the
/// substrate the `mpcheck` DPOR explorer drives. The engine's default
/// behaviour (no controller installed) is index 0 at every choice, i.e.
/// exactly [`FifoController`]; parity tests pin that equivalence.
///
/// The `note_*` hooks let a controller attribute communication effects
/// (sends, receive matches, posted receives) to scheduling steps without
/// a second instrumentation layer; default implementations ignore them.
pub trait ScheduleController: Send + Sync {
    /// Picks the next rank to poll from `ready` (engine FIFO order).
    /// Called only when `ready.len() >= 2`. Returns an index into `ready`.
    fn pick_ready(&self, ready: &[usize]) -> usize;

    /// Picks which candidate lane a wildcard receive on `rank` matches.
    /// `candidates` is sorted oldest-arrival-first and has length >= 2.
    /// Returns an index into `candidates`.
    fn pick_wildcard(&self, rank: usize, candidates: &[WildcardCandidate]) -> usize;

    /// Called immediately before `rank` is polled (every step, whether
    /// the pick was a real choice or forced).
    fn note_step(&self, rank: usize) {
        let _ = rank;
    }

    /// Called for every instrumentation event recorded on `rank`'s ring.
    fn note_event(&self, rank: usize, event: &Event) {
        let _ = (rank, event);
    }

    /// Called when `rank` registers a posted receive — a visible effect
    /// on its mailbox even before any message matches it.
    fn note_touch(&self, rank: usize) {
        let _ = rank;
    }

    /// Called when a new controlled world of `n` ranks starts.
    fn note_world(&self, n: usize) {
        let _ = n;
    }
}

/// The trivial controller: index 0 at every choice point, reproducing
/// the engine's FIFO ready order and oldest-arrival wildcard matching
/// byte for byte. Exists so parity tests can pin "controlled run with
/// FIFO controller == uncontrolled run".
pub struct FifoController;

impl ScheduleController for FifoController {
    fn pick_ready(&self, _ready: &[usize]) -> usize {
        0
    }

    fn pick_wildcard(&self, _rank: usize, _candidates: &[WildcardCandidate]) -> usize {
        0
    }
}

/// Ambient exploration configuration: while installed on a thread (see
/// [`install_explore`]), every cooperative run started from that thread
/// ([`run_coop`], [`run_virtual_coop`]) is instrumented, its scheduling
/// decisions are routed through `controller`, and its [`RunLog`] reaches
/// `sink` *before* any deadlock or rank panic propagates — so a schedule
/// explorer always sees what happened, even on failing schedules.
#[derive(Clone)]
pub struct ScopedExplore {
    /// Decides every ready-set pick and wildcard match of the run.
    pub controller: Arc<dyn ScheduleController>,
    /// Instrumentation settings. Perturbation is forced off: a controlled
    /// schedule subsumes (and supersedes) random perturbation.
    pub settings: Settings,
    /// Receives the log of every controlled run, on the installing
    /// thread, before failures propagate.
    pub sink: Arc<dyn Fn(RunLog) + Send + Sync>,
}

/// Installs `explore` on the current thread until the returned guard
/// drops. Cooperative runs started while installed run controlled; see
/// [`ScopedExplore`].
pub fn install_explore(explore: ScopedExplore) -> ExploreGuard {
    EXPLORE.with(|e| *e.borrow_mut() = Some(explore));
    ExploreGuard { _private: () }
}

/// Uninstalls the thread's ambient exploration configuration on drop.
pub struct ExploreGuard {
    _private: (),
}

impl Drop for ExploreGuard {
    fn drop(&mut self) {
        EXPLORE.with(|e| *e.borrow_mut() = None);
    }
}

fn explore_scoped() -> Option<ScopedExplore> {
    EXPLORE.with(|e| e.borrow().clone())
}

/// Whether the current thread is inside a cooperative task poll.
pub(crate) fn in_coop() -> bool {
    IN_COOP.with(Cell::get)
}

/// RAII: marks the current thread as polling a cooperative task. Also
/// pins the ambient worker pool to size 1 for the duration: a
/// cooperative world hosts up to 65k ranks on one OS thread, and a
/// kernel fanning out per rank would oversubscribe the host by orders
/// of magnitude (see `smp::pool`).
struct CoopGuard {
    prev: bool,
    _pool: smp::AmbientGuard,
}

impl CoopGuard {
    fn enter() -> CoopGuard {
        CoopGuard {
            prev: IN_COOP.with(|c| c.replace(true)),
            _pool: smp::AmbientGuard::serial(),
        }
    }
}

impl Drop for CoopGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_COOP.with(|c| c.set(prev));
    }
}

/// FIFO run queue of rank ids, shared by wakers and the engine draining
/// it. Pushes coalesce: a rank already enqueued is not enqueued twice,
/// and a finished rank is never enqueued again. Every operation on the
/// uncontrolled path is O(1): the cost of a context switch does not
/// grow with the number of queued ranks.
struct RunQueue {
    state: Mutex<QueueState>,
}

/// Where a rank stands with respect to the run queue.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Slot {
    Idle,
    Queued,
    Finished,
}

struct QueueState {
    /// Ranks in wake order. An entry whose rank finished after it was
    /// enqueued (a stale self-wake) is skipped when it reaches the front.
    queue: VecDeque<usize>,
    slot: Vec<Slot>,
    /// Entries read by FIFO pops: the cost the queue's regression test
    /// pins (one read per entry, however long the queue).
    touched: u64,
}

impl RunQueue {
    fn new(n: usize) -> Arc<RunQueue> {
        Arc::new(RunQueue {
            state: Mutex::new(QueueState {
                queue: VecDeque::with_capacity(n),
                slot: vec![Slot::Idle; n],
                touched: 0,
            }),
        })
    }

    fn push(&self, rank: usize) {
        let mut st = self.state.lock();
        if st.slot[rank] == Slot::Idle {
            st.slot[rank] = Slot::Queued;
            st.queue.push_back(rank);
        }
    }

    /// Marks `rank` finished: a queued entry for it turns stale, and
    /// later wakes are ignored.
    fn finish(&self, rank: usize) {
        self.state.lock().slot[rank] = Slot::Finished;
    }

    /// Pops the next unfinished rank to poll. With no controller — or
    /// fewer than two candidates — this is FIFO; otherwise stale entries
    /// are dropped first so the controller only ever chooses among live
    /// tasks.
    fn pop(&self, ctl: Option<&Arc<dyn ScheduleController>>) -> Option<usize> {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        if let Some(ctl) = ctl {
            let slot = &st.slot;
            st.queue.retain(|&r| slot[r] == Slot::Queued);
            if st.queue.len() >= 2 {
                let ready = st.queue.make_contiguous();
                let pick = ctl.pick_ready(ready);
                assert!(
                    pick < ready.len(),
                    "controller ready pick {pick} out of range (ready set of {})",
                    ready.len()
                );
                let rank = st.queue.remove(pick).expect("pick checked in range");
                st.slot[rank] = Slot::Idle;
                return Some(rank);
            }
        }
        while let Some(rank) = st.queue.pop_front() {
            st.touched += 1;
            if st.slot[rank] == Slot::Queued {
                st.slot[rank] = Slot::Idle;
                return Some(rank);
            }
        }
        None
    }
}

/// Waker of one rank task: waking pushes the rank onto the run queue.
struct TaskWaker {
    queue: Arc<RunQueue>,
    rank: usize,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.queue.push(self.rank);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.queue.push(self.rank);
    }
}

/// Drives a future that must complete without yielding: the bridge that
/// lets one source of truth (the `*_async` bodies) serve the synchronous
/// API. On rank threads every receive blocks the thread and completes
/// synchronously, so the future is ready after a single poll. Inside a
/// cooperative task this would park the whole executor, so it panics
/// with a pointer at the async API instead.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    assert!(
        !in_coop(),
        "mp: blocking call inside a cooperative task; use the async (*_async) API"
    );
    let mut fut = std::pin::pin!(fut);
    let mut cx = Context::from_waker(Waker::noop());
    match fut.as_mut().poll(&mut cx) {
        Poll::Ready(r) => r,
        Poll::Pending => unreachable!(
            "mp: future pended outside the cooperative executor; blocking receives \
             complete synchronously on rank threads"
        ),
    }
}

/// Formats the instant-stall diagnosis of an uninstrumented cooperative
/// run: which ranks are blocked and what unmatched traffic the world
/// still holds.
fn stall_message(world: &World, blocked: &[usize]) -> String {
    use std::fmt::Write;
    let mut msg = format!(
        "mp: deadlock: {} rank(s) blocked in receives with no runnable rank (ranks ",
        blocked.len()
    );
    for (i, r) in blocked.iter().take(8).enumerate() {
        if i > 0 {
            msg.push_str(", ");
        }
        let _ = write!(msg, "{r}");
    }
    if blocked.len() > 8 {
        msg.push_str(", ...");
    }
    msg.push(')');
    let mut lanes = Vec::new();
    for mb in &world.mailboxes {
        lanes.extend(mb.inventory());
    }
    if !lanes.is_empty() {
        let queued: usize = lanes.iter().map(|l| l.queued).sum();
        let _ = write!(msg, "; {queued} unmatched message(s) queued:");
        for lane in lanes {
            msg.push_str("\n  ");
            msg.push_str(&lane.to_string());
        }
    }
    msg
}

/// The cooperative executor: polls every rank task to completion on the
/// calling thread, FIFO over the shared run queue. Returns per-rank
/// results (`None` for panicked ranks) and the non-poison panics.
///
/// Uninstrumented worlds panic immediately on the first rank panic or
/// stall; instrumented worlds (world.inspector set) record panics, run
/// the remaining ranks on, and on a stall diagnose + poison-drain the
/// blocked tasks so the run log carries the deadlock.
fn execute<R, F, Fut>(world: &Arc<World>, f: &F) -> (Vec<Option<R>>, Vec<(usize, String)>)
where
    F: Fn(Comm) -> Fut,
    Fut: Future<Output = R>,
{
    let n = world.n;
    let insp = world.inspector.clone();
    let ctl = world.controller.clone();
    let results: RefCell<Vec<Option<R>>> = RefCell::new((0..n).map(|_| None).collect());
    let mut tasks: Vec<Option<Pin<Box<dyn Future<Output = ()> + '_>>>> = (0..n)
        .map(|rank| {
            let fut = f(Comm::world(Arc::clone(world), rank));
            let results = &results;
            let task: Pin<Box<dyn Future<Output = ()> + '_>> = Box::pin(async move {
                let r = fut.await;
                results.borrow_mut()[rank] = Some(r);
            });
            Some(task)
        })
        .collect();
    let queue = RunQueue::new(n);
    for rank in 0..n {
        queue.push(rank);
    }
    let wakers: Vec<Waker> = (0..n)
        .map(|rank| {
            Waker::from(Arc::new(TaskWaker {
                queue: Arc::clone(&queue),
                rank,
            }))
        })
        .collect();

    let mut remaining = n;
    let mut panics: Vec<(usize, String)> = Vec::new();
    let mut poisoned_drain = false;
    loop {
        // Controller choices are suppressed during the poison drain: the
        // drained polls only unwind, so their order is not a schedule
        // decision an explorer should enumerate.
        let step_ctl = if poisoned_drain { None } else { ctl.as_ref() };
        while let Some(rank) = queue.pop(step_ctl) {
            let task = tasks[rank]
                .as_mut()
                .expect("the run queue holds only unfinished ranks");
            if let Some(ctl) = step_ctl {
                ctl.note_step(rank);
            }
            let mut cx = Context::from_waker(&wakers[rank]);
            let polled = {
                let _in = CoopGuard::enter();
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    task.as_mut().poll(&mut cx)
                }))
            };
            match polled {
                Ok(Poll::Pending) => {}
                Ok(Poll::Ready(())) => {
                    tasks[rank] = None;
                    queue.finish(rank);
                    remaining -= 1;
                    if let Some(insp) = &insp {
                        insp.finish(rank);
                    }
                }
                Err(e) => {
                    tasks[rank] = None;
                    queue.finish(rank);
                    remaining -= 1;
                    let msg = panic_message(&*e).to_string();
                    match &insp {
                        None => panic!("rank {rank} panicked: {msg}"),
                        Some(insp) => {
                            insp.finish(rank);
                            if !msg.starts_with(check::POISON_MARK) {
                                panics.push((rank, msg));
                            }
                        }
                    }
                }
            }
        }
        if remaining == 0 || poisoned_drain {
            break;
        }
        // The queue is empty with unfinished ranks: on a single-threaded
        // executor that is a definitive deadlock (wakes happen during
        // polls; none are in flight).
        let blocked: Vec<usize> = (0..n).filter(|&r| tasks[r].is_some()).collect();
        match &insp {
            None => panic!("{}", stall_message(world, &blocked)),
            Some(insp) => match check::diagnose(world, insp) {
                Some(diagnosis) => {
                    insp.set_poison(diagnosis);
                    // Re-run every blocked task once: each receive future
                    // notices the poison and unwinds with the diagnosis.
                    for &r in &blocked {
                        queue.push(r);
                    }
                    poisoned_drain = true;
                }
                None => panic!("{}", stall_message(world, &blocked)),
            },
        }
    }
    drop(tasks);
    (results.into_inner(), panics)
}

/// Runs `f` as an SPMD program over `n` cooperative rank tasks on the
/// calling thread and returns per-rank results in rank order. The
/// cooperative mirror of [`crate::run`]: `f` receives an owned world
/// [`Comm`] and returns a future (write `move |comm| async move { .. }`).
/// Panics if any rank panics or the world deadlocks (detected instantly,
/// no timeout).
pub fn run_coop<R, F, Fut>(n: usize, f: F) -> Vec<R>
where
    F: Fn(Comm) -> Fut,
    Fut: Future<Output = R>,
{
    assert!(n > 0, "an SPMD world needs at least one rank");
    crate::transport::assert_no_session("run_coop");
    if let Some(explore) = explore_scoped() {
        let (results, _) = run_explored(n, &explore, None, &f);
        return results
            .into_iter()
            .map(|r| r.expect("no deadlock, no panics, so every rank completed"))
            .collect();
    }
    let world = Arc::new(World::new(n, false, None));
    let (results, _) = execute(&world, &f);
    results
        .into_iter()
        .map(|r| r.expect("uninstrumented cooperative runs panic on rank failure"))
        .collect()
}

/// One controlled, instrumented cooperative world: the ambient-explore
/// path behind [`run_coop`] and [`run_virtual_coop`]. The run log
/// reaches the sink *before* any deadlock or rank panic propagates, so
/// an explorer sees what happened even on failing schedules.
fn run_explored<R, F, Fut>(
    n: usize,
    explore: &ScopedExplore,
    net: Option<Box<dyn VirtualNet>>,
    f: &F,
) -> (Vec<Option<R>>, Vec<Time>)
where
    F: Fn(Comm) -> Fut,
    Fut: Future<Output = R>,
{
    let mut settings = explore.settings.clone();
    settings.perturb = false;
    let seed = settings.seed;
    explore.controller.note_world(n);
    let inspector = Arc::new(check::Inspector::new_observed(
        n,
        settings,
        Some(Arc::clone(&explore.controller)),
    ));
    let mut world = World::new_controlled(
        n,
        false,
        Some(Arc::clone(&inspector)),
        Some(Arc::clone(&explore.controller)),
    );
    if let Some(net) = net {
        world.virtual_net = Some(net);
        world.virtual_clocks = (0..n).map(|_| Mutex::new(Time::ZERO)).collect();
    }
    let world = Arc::new(world);
    let (results, panics) = execute(&world, f);
    let world = Arc::try_unwrap(world)
        .ok()
        .expect("all rank tasks completed");
    let mut leftover = Vec::new();
    for mb in &world.mailboxes {
        leftover.extend(mb.inventory());
    }
    let (events, dropped) = inspector.drain_events();
    let deadlock = inspector.poisoned();
    (explore.sink)(RunLog {
        n,
        seed,
        events,
        dropped,
        leftover,
        deadlock: deadlock.clone(),
    });
    if let Some(d) = deadlock {
        panic!("{}{d}", check::POISON_MARK);
    }
    if let Some((rank, msg)) = panics.first() {
        panic!("rank {rank} panicked: {msg}");
    }
    let clocks = world
        .virtual_clocks
        .into_iter()
        .map(Mutex::into_inner)
        .collect();
    (results, clocks)
}

/// Virtual-time execution: runs `f` over `n` rank tasks with every
/// message priced by `net`, and returns the per-rank results and final
/// virtual clocks. Deterministic: the FIFO schedule fixes the order in
/// which messages hit the simulated resource timelines, so clocks are
/// byte-identical run to run.
pub fn run_virtual_coop<R, F, Fut>(n: usize, net: Box<dyn VirtualNet>, f: F) -> (Vec<R>, Vec<Time>)
where
    F: Fn(Comm) -> Fut,
    Fut: Future<Output = R>,
{
    assert!(n > 0, "an SPMD world needs at least one rank");
    crate::transport::assert_no_session("run_virtual_coop");
    if let Some(explore) = explore_scoped() {
        let (results, clocks) = run_explored(n, &explore, Some(net), &f);
        let results = results
            .into_iter()
            .map(|r| r.expect("no deadlock, no panics, so every rank completed"))
            .collect();
        return (results, clocks);
    }
    let mut world = World::new(n, false, None);
    world.virtual_net = Some(net);
    world.virtual_clocks = (0..n).map(|_| Mutex::new(Time::ZERO)).collect();
    let world = Arc::new(world);
    let (results, _) = execute(&world, &f);
    let world = Arc::try_unwrap(world)
        .ok()
        .expect("all rank tasks completed");
    let clocks = world
        .virtual_clocks
        .into_iter()
        .map(Mutex::into_inner)
        .collect();
    let results = results
        .into_iter()
        .map(|r| r.expect("uninstrumented cooperative runs panic on rank failure"))
        .collect();
    (results, clocks)
}

/// Cooperative mirror of the instrumented (checked) run path: rank
/// panics are collected rather than propagated, and a deadlock is
/// diagnosed at the instant of the stall — no detector thread, no poll
/// interval — then poison-drained so the [`RunLog`] carries the cycle.
pub fn run_checked_coop<R, F, Fut>(n: usize, settings: Settings, f: F) -> Checked<R>
where
    F: Fn(Comm) -> Fut,
    Fut: Future<Output = R>,
{
    assert!(n > 0, "an SPMD world needs at least one rank");
    crate::transport::assert_no_session("run_checked_coop");
    let seed = settings.seed;
    let inspector = Arc::new(check::Inspector::new(n, settings));
    let world = Arc::new(World::new(n, false, Some(Arc::clone(&inspector))));
    let (results, panics) = execute(&world, &f);
    let world = Arc::try_unwrap(world)
        .ok()
        .expect("all rank tasks completed");
    let mut leftover = Vec::new();
    for mb in &world.mailboxes {
        leftover.extend(mb.inventory());
    }
    let (events, dropped) = inspector.drain_events();
    let deadlock = inspector.poisoned();
    let complete = results.iter().all(Option::is_some);
    Checked {
        results: complete.then(|| {
            results
                .into_iter()
                .map(|r| r.expect("checked above"))
                .collect()
        }),
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

/// Like [`run_checked_coop`], but with every scheduling decision made by
/// `controller`: the direct entry point of the schedule explorer. Rank
/// panics are collected and deadlocks diagnosed into the log rather than
/// propagated; perturbation is forced off (a controlled schedule subsumes
/// it).
pub fn run_controlled_coop<R, F, Fut>(
    n: usize,
    settings: Settings,
    controller: Arc<dyn ScheduleController>,
    f: F,
) -> Checked<R>
where
    F: Fn(Comm) -> Fut,
    Fut: Future<Output = R>,
{
    assert!(n > 0, "an SPMD world needs at least one rank");
    crate::transport::assert_no_session("run_controlled_coop");
    let mut settings = settings;
    settings.perturb = false;
    let seed = settings.seed;
    controller.note_world(n);
    let inspector = Arc::new(check::Inspector::new_observed(
        n,
        settings,
        Some(Arc::clone(&controller)),
    ));
    let world = Arc::new(World::new_controlled(
        n,
        false,
        Some(Arc::clone(&inspector)),
        Some(controller),
    ));
    let (results, panics) = execute(&world, &f);
    let world = Arc::try_unwrap(world)
        .ok()
        .expect("all rank tasks completed");
    let mut leftover = Vec::new();
    for mb in &world.mailboxes {
        leftover.extend(mb.inventory());
    }
    let (events, dropped) = inspector.drain_events();
    let deadlock = inspector.poisoned();
    let complete = results.iter().all(Option::is_some);
    Checked {
        results: complete.then(|| {
            results
                .into_iter()
                .map(|r| r.expect("checked above"))
                .collect()
        }),
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
    use crate::virt::tests::TestNet;
    use simnet::schedule::P2pCost;

    #[test]
    fn coop_results_come_back_in_rank_order() {
        let out = run_coop(8, |comm| async move { comm.rank() * 10 });
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn coop_ring_passes_messages() {
        let n = 5;
        let out = run_coop(n, move |comm| async move {
            let me = comm.rank();
            comm.send(&[me as u64], (me + 1) % n, 1);
            let mut buf = [0u64; 1];
            comm.recv_async(&mut buf, (me + n - 1) % n, 1).await;
            buf[0]
        });
        let expect: Vec<u64> = (0..n).map(|r| ((r + n - 1) % n) as u64).collect();
        assert_eq!(out, expect);
    }

    /// Zero-cost pricing: every message arrives the instant it is sent.
    struct FreeNet;

    impl VirtualNet for FreeNet {
        fn p2p(&self, _s: usize, _d: usize, _bytes: u64, ready: Time) -> P2pCost {
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

    /// Runs `f`, which must panic, and returns the panic message.
    fn panic_text(f: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the run must panic");
        panic_message(&*err).to_string()
    }

    #[test]
    fn coop_rank_panic_propagates() {
        let body = |comm: Comm| async move {
            if comm.rank() == 2 {
                panic!("boom");
            }
        };
        let plain = panic_text(|| {
            run_coop(4, body);
        });
        assert!(plain.contains("rank 2 panicked: boom"), "{plain}");
        let virt = panic_text(|| {
            run_virtual_coop(4, Box::new(FreeNet), body);
        });
        assert!(virt.contains("rank 2 panicked: boom"), "{virt}");
    }

    #[test]
    fn coop_deadlock_is_detected_instantly() {
        // Both ranks receive, nobody sends: with threads this waits out
        // a 20 s timeout; the executor sees the empty run queue at once.
        let body = |comm: Comm| async move {
            let mut b = [0u8; 1];
            let from = comm.rank() ^ 1;
            comm.recv_async(&mut b, from, 1).await;
        };
        let plain = panic_text(|| {
            run_coop(2, body);
        });
        assert!(plain.contains("mp: deadlock: 2 rank(s) blocked"), "{plain}");
        let virt = panic_text(|| {
            run_virtual_coop(2, Box::new(FreeNet), body);
        });
        assert!(virt.contains("mp: deadlock: 2 rank(s) blocked"), "{virt}");
    }

    #[test]
    #[should_panic(expected = "blocking call inside a cooperative task")]
    fn blocking_collective_inside_coop_is_rejected() {
        run_coop(2, |comm| async move {
            comm.barrier();
        });
    }

    /// Tentpole parity pin: a run driven by the trivial [`FifoController`]
    /// must be byte-identical to the uncontrolled default — same results
    /// and same virtual clocks (clocks are schedule-order-sensitive, so
    /// equality here means the interleaving itself was identical).
    #[test]
    fn fifo_controller_is_byte_identical_to_default() {
        async fn body(comm: Comm) -> Vec<f64> {
            let mut x = vec![comm.rank() as f64 + 1.0; 3];
            comm.allreduce_async(&mut x, crate::reduce::Op::Sum).await;
            comm.v_sync_async().await;
            x
        }
        let (r_plain, c_plain) = run_virtual_coop(4, Box::new(TestNet), body);
        let logs: Arc<Mutex<Vec<RunLog>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_logs = Arc::clone(&logs);
        let guard = install_explore(ScopedExplore {
            controller: Arc::new(FifoController),
            settings: Settings::default(),
            sink: Arc::new(move |log| sink_logs.lock().push(log)),
        });
        let (r_ctl, c_ctl) = run_virtual_coop(4, Box::new(TestNet), body);
        drop(guard);
        assert_eq!(r_plain, r_ctl);
        assert_eq!(
            c_plain, c_ctl,
            "FIFO-controlled clocks must be byte-identical"
        );
        let logs = logs.lock();
        assert_eq!(
            logs.len(),
            1,
            "the controlled run hands its log to the sink"
        );
        assert!(logs[0].deadlock.is_none());
    }

    /// A controller's wildcard pick really selects the matched message:
    /// picking the *newest* candidate must reverse the arrival order the
    /// default (oldest-first) discipline would have produced.
    #[test]
    fn controller_wildcard_pick_selects_the_match() {
        struct NewestWins;
        impl ScheduleController for NewestWins {
            fn pick_ready(&self, _ready: &[usize]) -> usize {
                0
            }
            fn pick_wildcard(&self, _rank: usize, candidates: &[WildcardCandidate]) -> usize {
                candidates.len() - 1
            }
        }
        let run = |ctl: Arc<dyn ScheduleController>| {
            let checked = run_controlled_coop(3, Settings::default(), ctl, |comm| async move {
                match comm.rank() {
                    0 => {
                        // Pin both senders' arrivals before the wildcard
                        // receives so two candidate lanes are queued.
                        let mut sync = [0u8; 1];
                        comm.recv_async(&mut sync, 1, 99).await;
                        comm.recv_async(&mut sync, 2, 99).await;
                        let (_, a, _) = comm.recv_any_async::<u64>(None, Some(1)).await;
                        let (_, b, _) = comm.recv_any_async::<u64>(None, Some(1)).await;
                        vec![a, b]
                    }
                    me => {
                        comm.send(&[me as u64], 0, 1);
                        comm.send(&[1u8], 0, 99);
                        Vec::new()
                    }
                }
            });
            checked.results.expect("clean program")[0].clone()
        };
        let oldest = run(Arc::new(FifoController));
        let newest = run(Arc::new(NewestWins));
        assert_eq!(oldest, vec![1, 2], "default matches in arrival order");
        assert_eq!(newest, vec![2, 1], "controller reversed the match order");
    }

    #[test]
    fn checked_coop_names_a_recv_cycle() {
        // Satellite: the deadlock detector still names the recv cycle
        // when the cycling ranks are cooperative tasks, not threads.
        let checked = run_checked_coop(2, Settings::default(), |comm| async move {
            let mut b = [0u8; 1];
            let from = comm.rank() ^ 1;
            comm.recv_async(&mut b, from, 1).await;
        });
        assert!(checked.results.is_none());
        let deadlock = checked.log.deadlock.expect("stall must be diagnosed");
        let cycle = deadlock.cycle.as_ref().expect("a 0 -> 1 -> 0 recv cycle");
        assert_eq!(cycle.len(), 2, "cycle: {cycle:?}");
        assert!(checked.panics.is_empty(), "poison unwinds are not panics");
    }

    /// The run queue's cost as a count, not a wall-clock bound: draining
    /// a 65 536-entry queue in which every third rank finished while
    /// enqueued reads each entry exactly once, returns the live ranks in
    /// FIFO order and never returns a finished rank. A per-pop scan of
    /// the queue would read ~n²/2 entries.
    #[test]
    fn run_queue_drain_is_fifo_and_linear() {
        let n = 65_536;
        let finished = |r: usize| r % 3 == 1;
        let q = RunQueue::new(n);
        for r in 0..n {
            q.push(r);
        }
        for r in (0..n).filter(|&r| finished(r)) {
            q.finish(r);
        }
        q.push(1); // a wake after finishing is ignored
        let drained: Vec<usize> = std::iter::from_fn(|| q.pop(None)).collect();
        let live: Vec<usize> = (0..n).filter(|&r| !finished(r)).collect();
        assert_eq!(drained, live, "live ranks in FIFO order, no finished rank");
        let st = q.state.lock();
        assert_eq!(st.touched, n as u64, "entries touched == entries popped");
    }

    /// A controller is offered only unfinished ranks, in FIFO order.
    #[test]
    fn controller_never_sees_finished_ranks() {
        struct PickLast(Mutex<Vec<Vec<usize>>>);
        impl ScheduleController for PickLast {
            fn pick_ready(&self, ready: &[usize]) -> usize {
                self.0.lock().push(ready.to_vec());
                ready.len() - 1
            }
            fn pick_wildcard(&self, _rank: usize, _candidates: &[WildcardCandidate]) -> usize {
                0
            }
        }
        let q = RunQueue::new(5);
        for r in 0..5 {
            q.push(r);
        }
        q.finish(1);
        q.finish(4);
        let last = Arc::new(PickLast(Mutex::new(Vec::new())));
        let ctl: Arc<dyn ScheduleController> = Arc::clone(&last) as _;
        let picks: Vec<usize> = std::iter::from_fn(|| q.pop(Some(&ctl))).collect();
        assert_eq!(picks, vec![3, 2, 0]);
        assert_eq!(*last.0.lock(), vec![vec![0, 2, 3], vec![0, 2]]);
    }

    #[test]
    fn coop_barrier_at_4096_ranks() {
        // High-rank smoke: ~4096 * 12 messages, one thread, no spawns.
        run_coop(4096, |comm| async move {
            comm.barrier_async().await;
        });
    }

    #[test]
    #[ignore = "release-scale: 65536 ranks, ~1M messages; run with --ignored --release"]
    fn coop_barrier_at_65536_ranks() {
        run_coop(65536, |comm| async move {
            comm.barrier_async().await;
        });
    }
}
