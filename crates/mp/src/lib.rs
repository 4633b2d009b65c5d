//! `mp` — a thread-based SPMD message-passing runtime ("mini-MPI").
//!
//! The HPCC and IMB benchmark suites are MPI programs; this crate supplies
//! the message-passing substrate they run on in this workspace. One OS
//! thread per rank, eager in-process message delivery with MPI matching
//! semantics (source + tag, non-overtaking), communicators with
//! `split`/`dup`, and the full family of collective operations in the
//! classical algorithm variants (binomial, recursive doubling/halving,
//! ring, pairwise, Bruck, Rabenseifner).
//!
//! Virtual-time execution — real programs priced by a machine model
//! ([`VirtualNet`]) — runs on one engine, the cooperative executor
//! ([`run_virtual_coop`]): every rank is an `async` task polled on the
//! caller's thread, so virtual worlds reach tens of thousands of ranks
//! and their clocks are deterministic.
//!
//! # Quickstart
//!
//! ```
//! let totals = mp::run(4, |comm| {
//!     let mut x = [comm.rank() as u64 + 1];
//!     comm.allreduce(&mut x, mp::Op::Sum);
//!     x[0]
//! });
//! assert_eq!(totals, vec![10, 10, 10, 10]);
//! ```
//!
//! Every collective algorithm has a mirror *schedule generator* in
//! [`sched`] that emits its exact per-round communication pattern as a
//! [`simnet::Schedule`]; the fabric simulator replays those schedules
//! against the paper's machine models, and tests assert that traced real
//! executions ([`run_traced`]) move exactly the messages the generators
//! predict.

mod api;
pub mod check;
pub mod coll;
mod comm;
mod coop;
pub mod datatype;
mod mailbox;
mod msg;
mod payload;
pub mod reduce;
pub mod rma;
mod runtime;
pub mod sched;
pub mod transport;
pub mod virt;

pub use comm::{Comm, RecvHandle};
pub use coop::{
    block_on, install_explore, run_checked_coop, run_controlled_coop, run_coop, run_virtual_coop,
    ExploreGuard, FifoController, ScheduleController, ScopedExplore, WildcardCandidate,
};
pub use datatype::Word;
pub use msg::{Tag, MAX_USER_TAG};
pub use reduce::{Numeric, Op};
pub use rma::Window;
pub use runtime::{run, run_traced};
pub use transport::{Backend, Proc};
pub use virt::VirtualNet;
