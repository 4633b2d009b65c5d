//! Per-rank incoming-message queues with MPI-style (source, tag) matching.
//!
//! The mailbox is *indexed*: messages live in per-`(source, comm, tag)`
//! lanes (hash-addressed, FIFO within a lane — MPI's non-overtaking
//! guarantee by construction) and every message carries a global arrival
//! sequence number, so wildcard receives fall back to a scan over lane
//! fronts in true arrival order. Blocked receivers register in a
//! posted-receive table; a matching send hands its message directly to the
//! oldest matching posted receive and wakes *that receiver only* (each
//! posted receive owns its condvar), replacing the previous linear rescans
//! of one shared queue under `notify_all` thundering-herd wakeups.
//!
//! Posted receives may also carry a destination byte buffer sized to the
//! expected message: a large send that finds such a posted receive encodes
//! its payload straight into that buffer — the rendezvous fast path (see
//! [`rendezvous_send`](Mailbox::rendezvous_send)).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::check::{Event, Inspector, LaneInfo, WaitOn};
use crate::coop::{ScheduleController, WildcardCandidate};
use crate::datatype::Word;
use crate::msg::{Match, Message};
use crate::payload::Payload;

/// Wake interval of instrumented waits: short enough that a detector
/// poison is noticed promptly, long enough to stay off the hot path.
const INSTRUMENTED_WAIT_SLICE: Duration = Duration::from_millis(25);

/// Default for how long a blocking receive waits before declaring a
/// deadlock: generous in production builds, short under `cfg(test)` so a
/// deadlocked test fails in seconds instead of hanging CI for five
/// minutes per rank.
#[cfg(not(test))]
const DEFAULT_DEADLOCK_TIMEOUT_SECS: u64 = 300;
#[cfg(test)]
const DEFAULT_DEADLOCK_TIMEOUT_SECS: u64 = 20;

/// How long a blocking receive waits before declaring a deadlock.
///
/// A correct SPMD program never waits this long for an in-process message;
/// the timeout converts silent hangs into actionable panics. Overridable
/// via the `MP_DEADLOCK_TIMEOUT_SECS` environment variable, which is read
/// on *every* wait (not cached into a process-wide static): tests and
/// long-running drivers may legitimately adjust the timeout between runs,
/// and a stale first-read value would silently win. Unparsable values
/// fall back to the default.
pub(crate) fn deadlock_timeout() -> Duration {
    let secs = std::env::var("MP_DEADLOCK_TIMEOUT_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_DEADLOCK_TIMEOUT_SECS);
    Duration::from_secs(secs)
}

/// Lane address: (global source rank, packed comm id + tag).
type LaneKey = (usize, u64);

/// A queued message stamped with its global arrival order.
pub(crate) struct Arrived {
    seq: u64,
    msg: Message,
}

/// Hand-off cell owned by one posted receive. The sender fills it while
/// holding the mailbox lock and wakes exactly this receiver.
pub(crate) struct Handoff {
    state: Mutex<HandoffState>,
    ready: Condvar,
}

#[derive(Default)]
struct HandoffState {
    /// The matched message, once a sender delivers it.
    arrived: Option<Arrived>,
    /// A rendezvous buffer returned unused (the message arrived through
    /// the eager path instead); the receiver recycles it.
    spare: Option<Vec<u8>>,
    /// Waker of a cooperative task blocked on this slot; the sender
    /// takes and fires it on fill.
    waker: Option<Waker>,
}

impl Handoff {
    fn new() -> Arc<Handoff> {
        Arc::new(Handoff {
            state: Mutex::new(HandoffState::default()),
            ready: Condvar::new(),
        })
    }

    /// Whether a sender has filled this slot (the deadlock detector
    /// probes this to rule out a wake already in flight).
    pub(crate) fn has_arrived(&self) -> bool {
        self.state.lock().arrived.is_some()
    }
}

/// One entry in the posted-receive table.
struct PostedRecv {
    id: u64,
    filter: Match,
    /// Rendezvous destination: a buffer of exactly the expected encoded
    /// size that a matching large send writes into directly.
    buf: Option<Vec<u8>>,
    slot: Arc<Handoff>,
}

#[derive(Default)]
struct Inner {
    /// Per-(source, comm+tag) FIFO lanes of unexpected messages.
    lanes: HashMap<LaneKey, VecDeque<Arrived>>,
    /// Global arrival counter (stamps wildcard ordering).
    seq: u64,
    /// Queued message count across all lanes.
    queued: usize,
    /// Posted receives in posting order (the MPI matching order).
    posted: Vec<PostedRecv>,
    next_posted_id: u64,
}

impl Inner {
    /// Removes and returns the oldest queued message matching `filter`,
    /// together with the number of distinct nonempty lanes that matched:
    /// O(1) lane pop for exact filters (candidates = 1), arrival-ordered
    /// scan over lane fronts for wildcards. A wildcard match with two or
    /// more candidate lanes depended on arrival order — the race the
    /// trace lint flags, and the choice point a schedule controller
    /// (`ctl` = controller + receiving rank) enumerates instead of
    /// always taking the oldest.
    fn take_queued(
        &mut self,
        filter: Match,
        ctl: Option<(&Arc<dyn ScheduleController>, usize)>,
    ) -> Option<(Arrived, u32)> {
        let (key, candidates): (LaneKey, u32) = if filter.is_exact() {
            let src = filter.src.expect("exact filter");
            let tag = filter.tag.expect("exact filter");
            let key = (src, crate::msg::pack_tag(filter.comm_id, tag));
            if !self.lanes.contains_key(&key) {
                return None;
            }
            (key, 1)
        } else if let Some((ctl, rank)) = ctl {
            // Controlled wildcard: materialise every matching lane front
            // in arrival order and let the controller pick. Index 0 (the
            // oldest) reproduces the default engine behaviour.
            let mut fronts: Vec<(u64, LaneKey)> = Vec::new();
            for ((src, full_tag), q) in &self.lanes {
                let Some(front) = q.front() else { continue };
                if !filter.accepts_parts(*src, *full_tag) {
                    continue;
                }
                fronts.push((front.seq, (*src, *full_tag)));
            }
            if fronts.is_empty() {
                return None;
            }
            fronts.sort_unstable_by_key(|&(seq, _)| seq);
            let idx = if fronts.len() >= 2 {
                let cands: Vec<WildcardCandidate> = fronts
                    .iter()
                    .map(|&(seq, (src, full_tag))| WildcardCandidate {
                        src,
                        comm: (full_tag >> 32) as u32,
                        tag: (full_tag & 0xFFFF_FFFF) as u32,
                        seq,
                    })
                    .collect();
                let pick = ctl.pick_wildcard(rank, &cands);
                assert!(
                    pick < cands.len(),
                    "controller wildcard pick {pick} out of range ({} candidates)",
                    cands.len()
                );
                pick
            } else {
                0
            };
            (fronts[idx].1, fronts.len() as u32)
        } else {
            // Wildcard: the oldest matching message overall is the oldest
            // among matching lanes' fronts (lanes are FIFO).
            let mut candidates = 0u32;
            let mut best: Option<(LaneKey, u64)> = None;
            for ((src, full_tag), q) in &self.lanes {
                let Some(front) = q.front() else { continue };
                if !filter.accepts_parts(*src, *full_tag) {
                    continue;
                }
                candidates += 1;
                let older = match best {
                    None => true,
                    Some((_, seq)) => front.seq < seq,
                };
                if older {
                    best = Some(((*src, *full_tag), front.seq));
                }
            }
            (best?.0, candidates)
        };
        match self.lanes.entry(key) {
            Entry::Occupied(mut lane) => {
                let arrived = lane.get_mut().pop_front()?;
                if lane.get().is_empty() {
                    lane.remove();
                }
                self.queued -= 1;
                Some((arrived, candidates))
            }
            Entry::Vacant(_) => None,
        }
    }

    /// Reinserts a previously-matched message at the front of its lane;
    /// its original arrival stamp keeps wildcard ordering exact. Only
    /// valid for a message that was the oldest match of its filter (which
    /// every [`take_queued`](Inner::take_queued)/hand-off result is).
    fn requeue_front(&mut self, arrived: Arrived) {
        let key = (arrived.msg.src, arrived.msg.full_tag);
        self.lanes.entry(key).or_default().push_front(arrived);
        self.queued += 1;
    }

    /// Registers a posted receive and returns its table id.
    fn register(&mut self, filter: Match, buf: Option<Vec<u8>>, slot: Arc<Handoff>) -> u64 {
        let id = self.next_posted_id;
        self.next_posted_id += 1;
        self.posted.push(PostedRecv {
            id,
            filter,
            buf,
            slot,
        });
        id
    }

    /// Removes a posted receive by id; false if a sender already matched
    /// (and therefore filled) it.
    fn deregister(&mut self, id: u64) -> bool {
        match self.posted.iter().position(|p| p.id == id) {
            Some(idx) => {
                self.posted.remove(idx);
                true
            }
            None => false,
        }
    }

    /// Delivers `arrived` to the oldest matching posted receive, if any.
    /// Must be called before lane insertion so posted receives match in
    /// MPI order. Fills the hand-off (returning any unused rendezvous
    /// buffer with it) and wakes exactly that receiver.
    fn try_handoff(&mut self, arrived: Arrived) -> Result<(), Arrived> {
        let Some(idx) = self
            .posted
            .iter()
            .position(|p| p.filter.accepts(&arrived.msg))
        else {
            return Err(arrived);
        };
        let p = self.posted.remove(idx);
        let mut st = p.slot.state.lock();
        st.arrived = Some(arrived);
        st.spare = p.buf;
        let waker = st.waker.take();
        drop(st);
        if let Some(w) = waker {
            w.wake();
        }
        p.slot.ready.notify_one();
        Ok(())
    }

    fn enqueue(&mut self, msg: Message) {
        self.seq += 1;
        let arrived = Arrived { seq: self.seq, msg };
        if let Err(arrived) = self.try_handoff(arrived) {
            let key = (arrived.msg.src, arrived.msg.full_tag);
            self.lanes.entry(key).or_default().push_back(arrived);
            self.queued += 1;
        }
    }
}

/// A rank's incoming-message queue (see the module docs).
pub(crate) struct Mailbox {
    inner: Mutex<Inner>,
    /// The owning rank (0 for standalone test mailboxes).
    rank: usize,
    /// Instrumentation registry of a checked run, if any.
    inspector: Option<Arc<Inspector>>,
    /// Schedule controller of a controlled run, if any: picks wildcard
    /// matches and learns about posted receives.
    controller: Option<Arc<dyn ScheduleController>>,
}

/// A registered nonblocking receive: either the message was already
/// queued (taken immediately, arrival stamp kept so cancellation can
/// restore it exactly, candidate-lane count alongside), or a table entry
/// now waits for it. Opaque to callers; resolve with
/// [`Mailbox::complete`] or [`Mailbox::cancel`].
pub(crate) enum PostedHandle {
    Ready(Arrived, u32),
    Pending(Ticket),
}

/// Claim ticket for a pending posted receive.
pub(crate) struct Ticket {
    id: u64,
    slot: Arc<Handoff>,
}

impl Mailbox {
    /// A standalone uninstrumented mailbox (unit tests).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn new() -> Mailbox {
        Mailbox::with_instrumentation(0, None, None)
    }

    /// A mailbox owned by `rank`, instrumented when `inspector` is set
    /// and schedule-controlled when `controller` is set.
    pub fn with_instrumentation(
        rank: usize,
        inspector: Option<Arc<Inspector>>,
        controller: Option<Arc<dyn ScheduleController>>,
    ) -> Mailbox {
        Mailbox {
            inner: Mutex::new(Inner::default()),
            rank,
            inspector,
            controller,
        }
    }

    /// The controller choice-point context of this mailbox, if any.
    fn ctl(&self) -> Option<(&Arc<dyn ScheduleController>, usize)> {
        self.controller.as_ref().map(|c| (c, self.rank))
    }

    /// Tells the controller this rank registered a posted receive — a
    /// mailbox effect a schedule explorer must treat as a dependency
    /// even before any message matches it.
    fn note_touch(&self) {
        if let Some(ctl) = &self.controller {
            ctl.note_touch(self.rank);
        }
    }

    /// The queued-but-unmatched messages per lane (deadlock diagnoses and
    /// the finalize leftover inventory), in deterministic order.
    pub fn inventory(&self) -> Vec<LaneInfo> {
        let inner = self.inner.lock();
        let mut out: Vec<LaneInfo> = inner
            .lanes
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|((src, full_tag), q)| LaneInfo {
                dst: self.rank,
                src: *src,
                comm: (full_tag >> 32) as u32,
                tag: (full_tag & 0xFFFF_FFFF) as u32,
                queued: q.len(),
                bytes: q.iter().map(|a| a.msg.data.len()).sum(),
            })
            .collect();
        out.sort_by_key(|l| (l.src, l.comm, l.tag));
        out
    }

    /// Records a matched receive into the event ring, if instrumented.
    fn record_recv(&self, arrived: &Arrived, filter: Match, candidates: u32) {
        if let Some(insp) = &self.inspector {
            insp.record(
                self.rank,
                Event::Recv {
                    src: arrived.msg.src,
                    comm: (arrived.msg.full_tag >> 32) as u32,
                    tag: (arrived.msg.full_tag & 0xFFFF_FFFF) as u32,
                    bytes: arrived.msg.data.len(),
                    wildcard: !filter.is_exact(),
                    candidates,
                },
            );
        }
    }

    /// Delivers a message (called from the sending rank's thread): direct
    /// hand-off to the oldest matching posted receive, else lane-enqueue.
    pub fn push(&self, msg: Message) {
        self.inner.lock().enqueue(msg);
    }

    /// Rendezvous fast path for large typed sends: if the oldest posted
    /// receive matching `(src, full_tag)` carries a destination buffer of
    /// exactly `words.len() * T::SIZE` bytes, encode `words` straight into
    /// it — one copy, no intermediate allocation — and wake that receiver.
    /// Returns false (and performs nothing) when no such posted receive
    /// exists; the caller then falls back to the eager path.
    ///
    /// Ordering safety: a matching posted receive exists only if no queued
    /// message matched its filter at post time, and any later matching
    /// arrival would itself have been handed to it — so the table entry
    /// found here cannot be overtaking queued traffic.
    pub fn rendezvous_send<T: Word>(
        &self,
        src: usize,
        full_tag: u64,
        words: &[T],
        arrival: Option<simnet::Time>,
    ) -> bool {
        let bytes = words.len() * T::SIZE;
        let mut inner = self.inner.lock();
        // The *oldest* matching entry is the one MPI matching would pick;
        // if it cannot take a rendezvous delivery we must not skip past it.
        let Some(idx) = inner
            .posted
            .iter()
            .position(|p| p.filter.accepts_parts(src, full_tag))
        else {
            return false;
        };
        if inner.posted[idx].buf.as_ref().map(Vec::len) != Some(bytes) {
            return false;
        }
        let p = inner.posted.remove(idx);
        let mut buf = p.buf.expect("checked above");
        T::encode_slice(words, &mut buf);
        inner.seq += 1;
        let arrived = Arrived {
            seq: inner.seq,
            msg: Message {
                src,
                full_tag,
                data: Payload::from_vec(buf),
                arrival,
            },
        };
        let mut st = p.slot.state.lock();
        st.arrived = Some(arrived);
        let waker = st.waker.take();
        drop(st);
        if let Some(w) = waker {
            w.wake();
        }
        p.slot.ready.notify_one();
        true
    }

    /// Registers a nonblocking receive: takes an already-queued match
    /// immediately, otherwise enters the posted-receive table so a future
    /// send (including a rendezvous send, when the caller supplies `buf`)
    /// can complete it before the receiver waits.
    pub fn post(&self, filter: Match, buf: Option<Vec<u8>>) -> PostedHandle {
        let mut inner = self.inner.lock();
        if let Some((arrived, candidates)) = inner.take_queued(filter, self.ctl()) {
            return PostedHandle::Ready(arrived, candidates);
        }
        let slot = Handoff::new();
        let id = inner.register(filter, buf, Arc::clone(&slot));
        drop(inner);
        self.note_touch();
        PostedHandle::Pending(Ticket { id, slot })
    }

    /// Cancels a posted receive. Any message it already matched is put
    /// back at the front of its lane with its original arrival stamp, as
    /// if the receive had never been posted.
    pub fn cancel(&self, handle: PostedHandle) {
        match handle {
            PostedHandle::Ready(arrived, _) => self.inner.lock().requeue_front(arrived),
            PostedHandle::Pending(ticket) => self.cancel_ticket(ticket),
        }
    }

    /// Blocks until the posted receive behind `ticket` is matched.
    /// `filter` is only used for wait registration and the deadlock
    /// diagnostic.
    ///
    /// Instrumented runs publish a wait edge first, then park in short
    /// slices, checking the detector's poison flag on every wake: a
    /// diagnosed deadlock unwinds this rank with the diagnosis instead of
    /// waiting out the wall-clock timeout, which is demoted to a backstop.
    pub fn wait_ticket(&self, ticket: Ticket, filter: Match) -> (Message, Option<Vec<u8>>) {
        assert!(
            !crate::coop::in_coop(),
            "mp: synchronous receive inside a cooperative task; use the async receive API"
        );
        let Ticket { id, slot } = ticket;
        if let Some(insp) = &self.inspector {
            insp.begin_wait(
                self.rank,
                WaitOn::Recv {
                    comm: filter.comm_id,
                    src: filter.src,
                    tag: filter.tag,
                },
                Some(Arc::clone(&slot)),
            );
        }
        let mut waited = Duration::ZERO;
        let mut st = slot.state.lock();
        loop {
            if let Some(arrived) = st.arrived.take() {
                let spare = st.spare.take();
                drop(st);
                if let Some(insp) = &self.inspector {
                    insp.end_wait(self.rank);
                }
                // A handed-off message is the only candidate by
                // construction: had another queued message matched the
                // filter, it would have been taken at post time.
                self.record_recv(&arrived, filter, 1);
                return (arrived.msg, spare);
            }
            if let Some(insp) = &self.inspector {
                if let Some(diagnosis) = insp.poisoned() {
                    drop(st);
                    self.inner.lock().deregister(id);
                    panic!("{}{diagnosis}", crate::check::POISON_MARK);
                }
            }
            let timeout = deadlock_timeout();
            let slice = if self.inspector.is_some() {
                INSTRUMENTED_WAIT_SLICE.min(timeout)
            } else {
                timeout
            };
            if slot.ready.wait_for(&mut st, slice).timed_out() {
                waited += slice;
                if waited < timeout {
                    continue;
                }
                drop(st);
                let mut inner = self.inner.lock();
                if inner.deregister(id) {
                    // Still unmatched after the timeout: declare deadlock.
                    let queued = inner.queued;
                    drop(inner);
                    let mut lanes = String::new();
                    for lane in self.inventory() {
                        lanes.push_str("\n  ");
                        lanes.push_str(&lane.to_string());
                    }
                    panic!(
                        "mp: rank {} waited {}s for a message matching {filter:?}; \
                         likely deadlock ({} unmatched messages queued{}{}). Tune via \
                         MP_DEADLOCK_TIMEOUT_SECS.",
                        self.rank,
                        timeout.as_secs(),
                        queued,
                        if lanes.is_empty() { "" } else { ":" },
                        lanes,
                    );
                }
                // A sender matched us concurrently with the timeout; the
                // fill happened under the mailbox lock we just held, so
                // the hand-off is complete.
                drop(inner);
                st = slot.state.lock();
            }
        }
    }

    /// Removes and returns the oldest message matching `filter`, waiting
    /// until one arrives; also posts `buf` as a rendezvous destination
    /// while waiting (see [`rendezvous_send`](Mailbox::rendezvous_send)).
    /// Returns the message and, if the rendezvous buffer went unused, the
    /// buffer itself for recycling. On a rank thread the wait parks the
    /// thread; inside a cooperative task it is a yield point.
    pub async fn recv_posting_async(
        &self,
        filter: Match,
        buf: Option<Vec<u8>>,
    ) -> (Message, Option<Vec<u8>>) {
        let mut inner = self.inner.lock();
        if let Some((arrived, candidates)) = inner.take_queued(filter, self.ctl()) {
            drop(inner);
            self.record_recv(&arrived, filter, candidates);
            return (arrived.msg, buf);
        }
        let slot = Handoff::new();
        let id = inner.register(filter, buf, Arc::clone(&slot));
        drop(inner);
        self.note_touch();
        let ticket = Ticket { id, slot };
        if crate::coop::in_coop() {
            TicketWait::new(self, ticket, filter).await
        } else {
            self.wait_ticket(ticket, filter)
        }
    }

    /// Removes and returns the oldest message matching `filter`, waiting
    /// until one arrives. FIFO per (source, tag) pair (non-overtaking);
    /// wildcard filters match in global arrival order.
    pub async fn recv_async(&self, filter: Match) -> Message {
        self.recv_posting_async(filter, None).await.0
    }

    /// Blocking [`recv_async`](Mailbox::recv_async), for thread-based
    /// unit tests.
    #[cfg(test)]
    pub fn recv(&self, filter: Match) -> Message {
        crate::coop::block_on(self.recv_async(filter))
    }

    /// Blocking [`recv_posting_async`](Mailbox::recv_posting_async), for
    /// thread-based unit tests.
    #[cfg(test)]
    pub fn recv_posting(&self, filter: Match, buf: Option<Vec<u8>>) -> (Message, Option<Vec<u8>>) {
        crate::coop::block_on(self.recv_posting_async(filter, buf))
    }

    /// Resolves a posted receive: immediate for an already-matched one,
    /// waiting until a sender matches it otherwise.
    pub async fn complete_async(
        &self,
        handle: PostedHandle,
        filter: Match,
    ) -> (Message, Option<Vec<u8>>) {
        match handle {
            PostedHandle::Ready(arrived, candidates) => {
                self.record_recv(&arrived, filter, candidates);
                (arrived.msg, None)
            }
            PostedHandle::Pending(ticket) => {
                if crate::coop::in_coop() {
                    TicketWait::new(self, ticket, filter).await
                } else {
                    self.wait_ticket(ticket, filter)
                }
            }
        }
    }

    /// Cancels a pending posted receive. If a sender matched it in the
    /// meantime, the message is put back at the front of its lane (its
    /// original arrival stamp preserved), exactly as if it had never been
    /// matched.
    pub fn cancel_ticket(&self, ticket: Ticket) {
        let Ticket { id, slot } = ticket;
        let mut inner = self.inner.lock();
        if inner.deregister(id) {
            return;
        }
        let mut st = slot.state.lock();
        if let Some(arrived) = st.arrived.take() {
            drop(st);
            inner.requeue_front(arrived);
        }
    }

    /// Non-blocking variant: removes the oldest matching message if present.
    /// Exercised by tests and kept for `iprobe`-style extensions.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn try_recv(&self, filter: Match) -> Option<Message> {
        let taken = self.inner.lock().take_queued(filter, self.ctl());
        taken.map(|(arrived, candidates)| {
            self.record_recv(&arrived, filter, candidates);
            arrived.msg
        })
    }

    /// Number of queued (unmatched) messages.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn pending(&self) -> usize {
        self.inner.lock().queued
    }
}

/// The cooperative executor's blocking point: a future that resolves
/// when the posted receive behind `ticket` is matched. Each poll checks
/// the detector poison first and publishes the wait edge *before*
/// probing the slot (the same lock order `check::diagnose` uses —
/// rank-state, then slot — so the two can never deadlock each other),
/// then either takes the arrival or parks its waker in the slot.
/// Dropping an unresolved wait cancels the posting, requeueing any
/// message it had already matched.
struct TicketWait<'a> {
    mailbox: &'a Mailbox,
    ticket: Option<Ticket>,
    filter: Match,
    registered_wait: bool,
}

impl<'a> TicketWait<'a> {
    fn new(mailbox: &'a Mailbox, ticket: Ticket, filter: Match) -> TicketWait<'a> {
        TicketWait {
            mailbox,
            ticket: Some(ticket),
            filter,
            registered_wait: false,
        }
    }
}

impl Future for TicketWait<'_> {
    type Output = (Message, Option<Vec<u8>>);

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        if let Some(insp) = &this.mailbox.inspector {
            if let Some(diagnosis) = insp.poisoned() {
                let Ticket { id, .. } = this.ticket.take().expect("polled after completion");
                this.mailbox.inner.lock().deregister(id);
                panic!("{}{diagnosis}", crate::check::POISON_MARK);
            }
            if !this.registered_wait {
                let ticket = this.ticket.as_ref().expect("polled after completion");
                insp.begin_wait(
                    this.mailbox.rank,
                    WaitOn::Recv {
                        comm: this.filter.comm_id,
                        src: this.filter.src,
                        tag: this.filter.tag,
                    },
                    Some(Arc::clone(&ticket.slot)),
                );
                this.registered_wait = true;
            }
        }
        let ticket = this.ticket.as_ref().expect("polled after completion");
        let mut st = ticket.slot.state.lock();
        if let Some(arrived) = st.arrived.take() {
            let spare = st.spare.take();
            drop(st);
            if this.registered_wait {
                if let Some(insp) = &this.mailbox.inspector {
                    insp.end_wait(this.mailbox.rank);
                }
            }
            // Hand-offs have exactly one candidate by construction (see
            // wait_ticket).
            this.mailbox.record_recv(&arrived, this.filter, 1);
            this.ticket = None;
            return Poll::Ready((arrived.msg, spare));
        }
        st.waker = Some(cx.waker().clone());
        drop(st);
        Poll::Pending
    }
}

impl Drop for TicketWait<'_> {
    fn drop(&mut self) {
        if let Some(ticket) = self.ticket.take() {
            if self.registered_wait {
                if let Some(insp) = &self.mailbox.inspector {
                    insp.end_wait(self.mailbox.rank);
                }
            }
            self.mailbox.cancel_ticket(ticket);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::pack_tag;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn msg(src: usize, tag: u32, data: Vec<u8>) -> Message {
        Message {
            src,
            full_tag: pack_tag(0, tag),
            data: Payload::from_vec(data),
            arrival: None,
        }
    }

    fn exact(src: usize, tag: u32) -> Match {
        Match {
            comm_id: 0,
            src: Some(src),
            tag: Some(tag),
        }
    }

    fn any() -> Match {
        Match {
            comm_id: 0,
            src: None,
            tag: None,
        }
    }

    #[test]
    fn fifo_within_matching_pair() {
        let mb = Mailbox::new();
        mb.push(msg(1, 5, vec![1]));
        mb.push(msg(1, 5, vec![2]));
        assert_eq!(mb.recv(exact(1, 5)).data.as_slice(), &[1]);
        assert_eq!(mb.recv(exact(1, 5)).data.as_slice(), &[2]);
    }

    #[test]
    fn matching_skips_non_matching_messages() {
        let mb = Mailbox::new();
        mb.push(msg(2, 9, vec![9]));
        mb.push(msg(1, 5, vec![5]));
        assert_eq!(mb.recv(exact(1, 5)).data.as_slice(), &[5]);
        assert_eq!(mb.pending(), 1);
        assert_eq!(mb.recv(exact(2, 9)).data.as_slice(), &[9]);
    }

    #[test]
    fn try_recv_returns_none_when_empty() {
        let mb = Mailbox::new();
        assert!(mb.try_recv(exact(0, 0)).is_none());
        mb.push(msg(0, 0, vec![]));
        assert!(mb.try_recv(exact(0, 0)).is_some());
    }

    #[test]
    fn blocking_recv_wakes_on_push() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let t = std::thread::spawn(move || mb2.recv(exact(3, 1)).data.into_vec());
        std::thread::sleep(Duration::from_millis(20));
        mb.push(msg(3, 1, vec![42]));
        assert_eq!(t.join().unwrap(), vec![42]);
    }

    #[test]
    fn deadlock_timeout_tracks_env_changes() {
        // Regression: the timeout used to be read once into a process-wide
        // OnceLock, so the *second* override below was silently ignored.
        let original = std::env::var("MP_DEADLOCK_TIMEOUT_SECS").ok();
        std::env::set_var("MP_DEADLOCK_TIMEOUT_SECS", "123");
        assert_eq!(super::deadlock_timeout().as_secs(), 123);
        std::env::set_var("MP_DEADLOCK_TIMEOUT_SECS", "77");
        assert_eq!(super::deadlock_timeout().as_secs(), 77);
        std::env::remove_var("MP_DEADLOCK_TIMEOUT_SECS");
        assert_eq!(super::deadlock_timeout().as_secs(), 20, "cfg(test) default");
        match original {
            Some(v) => std::env::set_var("MP_DEADLOCK_TIMEOUT_SECS", v),
            None => std::env::remove_var("MP_DEADLOCK_TIMEOUT_SECS"),
        }
    }

    #[test]
    fn wildcard_candidates_counted_for_race_detection() {
        use crate::check::{Event, Inspector, Settings};
        let insp = Arc::new(Inspector::new(1, Settings::default()));
        let mb = Mailbox::with_instrumentation(0, Some(Arc::clone(&insp)), None);
        mb.push(msg(1, 5, vec![1]));
        mb.push(msg(2, 6, vec![2]));
        assert_eq!(mb.recv(any()).src, 1, "oldest arrival wins");
        assert_eq!(mb.recv(any()).src, 2);
        let (events, _) = insp.drain_events();
        assert!(
            matches!(
                events[0][0],
                Event::Recv {
                    wildcard: true,
                    candidates: 2,
                    ..
                }
            ),
            "first wildcard receive had two candidate lanes: {:?}",
            events[0][0]
        );
        assert!(matches!(
            events[0][1],
            Event::Recv {
                wildcard: true,
                candidates: 1,
                ..
            }
        ));
    }

    #[test]
    fn wildcard_receive_takes_first_arrival() {
        let mb = Mailbox::new();
        mb.push(msg(7, 3, vec![7]));
        mb.push(msg(8, 4, vec![8]));
        assert_eq!(mb.recv(any()).src, 7);
        assert_eq!(mb.recv(any()).src, 8);
    }

    #[test]
    fn wildcard_arrival_order_across_lanes() {
        let mb = Mailbox::new();
        // Interleave three lanes; wildcard receives must replay exactly
        // the arrival order regardless of lane hashing.
        let order = [(4, 1), (2, 9), (4, 1), (9, 9), (2, 9), (4, 2)];
        for (i, (src, tag)) in order.iter().enumerate() {
            mb.push(msg(*src, *tag, vec![i as u8]));
        }
        for (i, (src, tag)) in order.iter().enumerate() {
            let m = mb.recv(any());
            assert_eq!(m.src, *src);
            assert_eq!((m.full_tag & 0xFFFF_FFFF) as u32, *tag);
            assert_eq!(m.data.as_slice(), &[i as u8]);
        }
    }

    #[test]
    fn posted_receive_gets_direct_handoff() {
        let mb = Mailbox::new();
        let PostedHandle::Pending(ticket) = mb.post(exact(1, 7), None) else {
            panic!("nothing queued yet");
        };
        mb.push(msg(1, 7, vec![3]));
        assert_eq!(mb.pending(), 0, "message must go to the posted receive");
        let (m, spare) = mb.wait_ticket(ticket, exact(1, 7));
        assert_eq!(m.data.as_slice(), &[3]);
        assert!(spare.is_none());
    }

    #[test]
    fn post_takes_already_queued_message() {
        let mb = Mailbox::new();
        mb.push(msg(1, 7, vec![4]));
        match mb.post(exact(1, 7), None) {
            PostedHandle::Ready(a, candidates) => {
                assert_eq!(a.msg.data.as_slice(), &[4]);
                assert_eq!(candidates, 1);
            }
            PostedHandle::Pending(_) => panic!("should match the queued message"),
        }
    }

    #[test]
    fn cancelling_a_ready_posted_receive_restores_order() {
        let mb = Mailbox::new();
        mb.push(msg(1, 7, vec![1]));
        mb.push(msg(1, 7, vec![2]));
        let handle = mb.post(exact(1, 7), None);
        assert!(matches!(handle, PostedHandle::Ready(..)));
        mb.cancel(handle);
        assert_eq!(mb.recv(exact(1, 7)).data.as_slice(), &[1]);
        assert_eq!(mb.recv(exact(1, 7)).data.as_slice(), &[2]);
    }

    #[test]
    fn posted_receives_match_in_posting_order() {
        let mb = Mailbox::new();
        let PostedHandle::Pending(t1) = mb.post(exact(1, 7), None) else {
            panic!()
        };
        let PostedHandle::Pending(t2) = mb.post(exact(1, 7), None) else {
            panic!()
        };
        mb.push(msg(1, 7, vec![1]));
        mb.push(msg(1, 7, vec![2]));
        assert_eq!(mb.wait_ticket(t1, exact(1, 7)).0.data.as_slice(), &[1]);
        assert_eq!(mb.wait_ticket(t2, exact(1, 7)).0.data.as_slice(), &[2]);
    }

    #[test]
    fn cancelled_posted_receive_requeues_its_message() {
        let mb = Mailbox::new();
        let PostedHandle::Pending(ticket) = mb.post(any(), None) else {
            panic!()
        };
        mb.push(msg(5, 1, vec![10]));
        mb.push(msg(5, 1, vec![11]));
        assert_eq!(mb.pending(), 1, "first message went to the posted receive");
        mb.cancel_ticket(ticket);
        assert_eq!(mb.pending(), 2);
        // Order restored: the handed-off message is back at the front.
        assert_eq!(mb.recv(exact(5, 1)).data.as_slice(), &[10]);
        assert_eq!(mb.recv(exact(5, 1)).data.as_slice(), &[11]);
    }

    #[test]
    fn rendezvous_send_fills_posted_buffer() {
        let mb = Mailbox::new();
        let PostedHandle::Pending(ticket) = mb.post(exact(2, 4), Some(vec![0u8; 8])) else {
            panic!()
        };
        let words = [0x0102_0304_0506_0708u64];
        assert!(mb.rendezvous_send(2, pack_tag(0, 4), &words, None));
        let (m, spare) = mb.wait_ticket(ticket, exact(2, 4));
        assert!(spare.is_none(), "buffer was consumed by the rendezvous");
        assert_eq!(m.data.as_slice(), &[8, 7, 6, 5, 4, 3, 2, 1]);
    }

    #[test]
    fn rendezvous_send_refuses_without_matching_posted_buffer() {
        let mb = Mailbox::new();
        // No posted receive at all.
        assert!(!mb.rendezvous_send(2, pack_tag(0, 4), &[1u64], None));
        // Posted receive without a buffer.
        let PostedHandle::Pending(t1) = mb.post(exact(2, 4), None) else {
            panic!()
        };
        assert!(!mb.rendezvous_send(2, pack_tag(0, 4), &[1u64], None));
        // Eager delivery still reaches it, returning no spare.
        mb.push(msg(2, 4, vec![1]));
        let (m, spare) = mb.wait_ticket(t1, exact(2, 4));
        assert_eq!(m.data.as_slice(), &[1]);
        assert!(spare.is_none());
        // Posted buffer of the wrong size: rendezvous declines.
        let PostedHandle::Pending(t2) = mb.post(exact(2, 4), Some(vec![0u8; 4])) else {
            panic!()
        };
        assert!(!mb.rendezvous_send(2, pack_tag(0, 4), &[1u64], None));
        mb.push(msg(2, 4, vec![9; 8]));
        let (m, spare) = mb.wait_ticket(t2, exact(2, 4));
        assert_eq!(m.data.len(), 8);
        assert_eq!(spare, Some(vec![0u8; 4]), "unused buffer comes back");
    }

    #[test]
    fn eager_delivery_returns_spare_rendezvous_buffer() {
        let mb = Mailbox::new();
        let (m, spare) = {
            let mb = &mb;
            std::thread::scope(|s| {
                let h = s.spawn(move || mb.recv_posting(exact(1, 2), Some(vec![0u8; 16])));
                std::thread::sleep(Duration::from_millis(20));
                mb.push(msg(1, 2, vec![5; 4]));
                h.join().unwrap()
            })
        };
        assert_eq!(m.data.as_slice(), &[5; 4]);
        assert_eq!(spare, Some(vec![0u8; 16]));
    }

    /// Reference model: the legacy single linear-scan queue the indexed
    /// mailbox replaced. Matching takes the first (oldest) message in
    /// arrival order satisfying the filter.
    #[derive(Default)]
    struct LinearModel {
        queue: Vec<(usize, u64, Vec<u8>)>,
    }

    impl LinearModel {
        fn push(&mut self, src: usize, tag: u32, data: Vec<u8>) {
            self.queue.push((src, pack_tag(0, tag), data));
        }
        fn try_recv(&mut self, filter: Match) -> Option<(usize, u64, Vec<u8>)> {
            let pos = self
                .queue
                .iter()
                .position(|(src, full_tag, _)| filter.accepts_parts(*src, *full_tag))?;
            Some(self.queue.remove(pos))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The indexed mailbox is observationally equivalent to the legacy
        /// linear scan: same matched envelope and payload for every
        /// interleaving of pushes with exact, half-wildcard and full
        /// wildcard receives — FIFO per (src, tag), non-overtaking,
        /// wildcard receives in global arrival order.
        #[test]
        fn indexed_mailbox_matches_linear_scan_semantics(
            ops in prop::collection::vec((0u8..6, 0usize..3, 0u32..3), 1..120),
        ) {
            let mb = Mailbox::new();
            let mut model = LinearModel::default();
            let mut payload = 0u8;
            for (kind, src, tag) in ops {
                match kind {
                    // Push: both sides enqueue the same message.
                    0..=2 => {
                        payload = payload.wrapping_add(1);
                        mb.push(msg(src, tag, vec![payload]));
                        model.push(src, tag, vec![payload]);
                    }
                    // Exact receive.
                    3 => {
                        let f = exact(src, tag);
                        let got = mb.try_recv(f);
                        let want = model.try_recv(f);
                        prop_assert_eq!(got.is_some(), want.is_some());
                        if let (Some(g), Some(w)) = (got, want) {
                            prop_assert_eq!(g.src, w.0);
                            prop_assert_eq!(g.full_tag, w.1);
                            prop_assert_eq!(g.data.as_slice(), &w.2[..]);
                        }
                    }
                    // Wildcard source (tag pinned).
                    4 => {
                        let f = Match { comm_id: 0, src: None, tag: Some(tag) };
                        let got = mb.try_recv(f);
                        let want = model.try_recv(f);
                        prop_assert_eq!(got.is_some(), want.is_some());
                        if let (Some(g), Some(w)) = (got, want) {
                            prop_assert_eq!(g.src, w.0);
                            prop_assert_eq!(g.full_tag, w.1);
                            prop_assert_eq!(g.data.as_slice(), &w.2[..]);
                        }
                    }
                    // Full wildcard.
                    _ => {
                        let got = mb.try_recv(any());
                        let want = model.try_recv(any());
                        prop_assert_eq!(got.is_some(), want.is_some());
                        if let (Some(g), Some(w)) = (got, want) {
                            prop_assert_eq!(g.src, w.0);
                            prop_assert_eq!(g.full_tag, w.1);
                            prop_assert_eq!(g.data.as_slice(), &w.2[..]);
                        }
                    }
                }
            }
            // Drain both completely; remainders must agree.
            loop {
                let got = mb.try_recv(any());
                let want = model.try_recv(any());
                prop_assert_eq!(got.is_some(), want.is_some());
                match (got, want) {
                    (Some(g), Some(w)) => {
                        prop_assert_eq!(g.src, w.0);
                        prop_assert_eq!(g.full_tag, w.1);
                        prop_assert_eq!(g.data.as_slice(), &w.2[..]);
                    }
                    _ => break,
                }
            }
        }
    }
}
