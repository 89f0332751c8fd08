//! A threaded message-passing runtime: the NCCL-equivalent substrate.
//!
//! The sequential functions in this crate ([`crate::linear_all_to_all`]
//! etc.) compute collectives over all ranks at once — convenient for
//! tests, but nothing like how a real cluster executes. This module
//! runs every simulated rank on its **own OS thread** with only
//! point-to-point channels between them (MPMC channels), and
//! implements the collectives as each rank's local program — exactly
//! the structure of Algorithm 1 and Algorithm 3 in the paper:
//!
//! * [`Communicator::ialltoall_v`] — the one All-to-All: ragged (one
//!   buffer per destination, any lengths), non-blocking (it returns a
//!   [`CommHandle`]), over either [`AllToAllAlgo`]: the linear
//!   send/recv loop, or 2DH's intra-node then inter-node hops
//!   (Figure 15), with each rank only ever touching its own buffers. A
//!   fixed-size exchange is the uniform-count case, and a blocking one
//!   is issue plus [`CommHandle::wait`] ([`Communicator::all_to_all_v`]
//!   is that shorthand for the linear route);
//! * ring [`Communicator::all_gather`] and
//!   [`Communicator::all_reduce_sum`].
//!
//! Every operation returns `Result<_, CommError>` instead of
//! panicking, so rank programs can surface failures (and the
//! `check-sched` deterministic scheduler can inject them) without
//! unwinding across threads.
//!
//! The transport is pluggable: production runs use MPMC channels via
//! [`run_threaded`] (or [`run_threaded_with`] for a reliable or traced
//! run); under `feature = "check-sched"` the same `Communicator` can
//! instead be backed by the adversarial deterministic scheduler in
//! [`crate::sched`].
//!
//! # Rank workers
//!
//! Rank threads outlive the call that uses them, as a real job's
//! ranks outlive each step. A process-wide set of parked **rank
//! workers** serves every [`run_threaded_with`] call: a call checks out
//! one idle worker per rank (spawning a new one only when none is idle),
//! hands each its rank job — build the rank's [`Communicator`], run
//! the program — and blocks until every rank has reported, then parks
//! the workers again. A launch therefore costs two channel hand-offs
//! per rank instead of a thread spawn and join. Checked-out workers
//! belong to one call, so concurrent callers and a `run_threaded`
//! nested inside a rank program never wait on each other's workers;
//! the set grows to the peak number of ranks running at once.
//!
//! Each job runs under `catch_unwind`, so a panicking program (or the
//! communicator's join-time mailbox audit) never kills its worker: the
//! panic is reported, and the caller re-raises it once all ranks have
//! reported. Jobs borrow the caller's program and buffers, so the
//! caller never returns or unwinds before every report is in; if a
//! report can no longer arrive, the process aborts instead. A program
//! that changes thread-local state must restore it — the next job on
//! the same worker sees it (`tutel_rt`'s scoped setters do this, even
//! on unwind).
//!
//! # Reliability layer
//!
//! [`RunOpts::reliable`] arms an optional end-to-end reliability
//! protocol on top of the same collectives, used by the conformance
//! harness to prove graceful degradation under injected faults
//! ([`crate::fault::FaultPlan`]):
//!
//! * every data send is kept in a per-collective **retransmit log**;
//! * a receiver whose wait exceeds the [`RetryPolicy`] timeout sends a
//!   `Retry` request to the expected source and backs off
//!   exponentially; the source re-serves the payload from its log;
//! * receivers **dedupe** data messages by `(src, tag)` (tags are
//!   never reused within a run), so duplicated or late-plus-
//!   retransmitted deliveries collapse to one;
//! * each collective ends with an **ack phase**: a rank announces
//!   completion to every peer and waits for all peers' announcements,
//!   serving retry requests meanwhile — so a sender stays reachable
//!   until every receiver has recovered;
//! * exhausted retries surface [`CommError::Timeout`] — never a hang
//!   (every wait is bounded) and never a corrupted tensor (a failed
//!   collective returns no buffer at all and drains its mailbox).
//!
//! When no reliability config is armed, none of this state exists and
//! the hot path is exactly the plain channel send/recv.
//!
//! Unit tests assert bit-equality against the sequential reference
//! implementations.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use tutel_obs::trace::{FlowKind, TraceHub, Tracer, TRACK_COMM};
use tutel_obs::Telemetry;
use tutel_simgpu::Topology;

use crate::error::CommError;
use crate::fault::{FaultAction, FaultPlan};
use crate::AllToAllAlgo;

/// Message class on the wire. Control traffic (`Retry`, `Ack`) exists
/// only under the reliability layer and is handled inline by the
/// reliable receive loop — it is never parked in the mailbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MsgKind {
    /// Collective payload.
    Data,
    /// "Re-send me your message under `tag`" (payload empty).
    Retry,
    /// "I have completed the current collective" (payload empty).
    Ack,
}

impl MsgKind {
    /// The trace-layer class of this message.
    fn flow_kind(self) -> FlowKind {
        match self {
            MsgKind::Data => FlowKind::Data,
            MsgKind::Retry => FlowKind::Retry,
            MsgKind::Ack => FlowKind::Ack,
        }
    }
}

/// A tagged point-to-point message. `seq` numbers the transmission
/// attempt for `(src → dst, tag, kind)` — `0` for the first physical
/// send, incrementing for duplicates and retransmits — so the causal
/// tracer can bind every wire transmission to exactly one receive
/// even when the reliability layer re-sends. It is `0` (and unused)
/// when tracing is disabled.
struct Message {
    src: usize,
    tag: u64,
    kind: MsgKind,
    seq: u32,
    payload: Vec<f32>,
}

/// Timeout/retry schedule for the reliability layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Initial wait before the first retry request.
    pub timeout: Duration,
    /// Retry requests per receive before giving up with
    /// [`CommError::Timeout`]. `0` means fail on the first timeout.
    pub max_retries: u32,
    /// Multiplier applied to the wait after each timeout
    /// (exponential backoff).
    pub backoff: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: Duration::from_millis(50),
            max_retries: 3,
            backoff: 2,
        }
    }
}

/// The reliability layer's settings ([`RunOpts::reliable`]).
#[derive(Clone, Default)]
pub struct ReliableConfig {
    /// Timeout/retry schedule.
    pub policy: RetryPolicy,
    /// Optional fault injection applied to data sends.
    pub plan: Option<FaultPlan>,
    /// Sink for `comm.retry.*` counters and gauges (shared across
    /// ranks; pass [`Telemetry::disabled`] to opt out).
    pub telemetry: Telemetry,
}

/// Mutable reliability bookkeeping (interior-mutable so `send` can
/// stay `&self`).
#[derive(Default)]
struct RelState {
    /// Retransmit log for the current collective: `(peer, tag)` →
    /// payload. Cleared when the ack phase completes — after which no
    /// peer can still request a retry for this collective (its retry
    /// requests order before its ack on the same FIFO channel).
    log: HashMap<(usize, u64), Vec<f32>>,
    /// Data identities already accepted, for dedupe. Kept for the
    /// communicator's lifetime: tags are monotone per pair, so the set
    /// grows with total traffic, bounded by the run length.
    seen: HashSet<(usize, u64)>,
    /// `(peer, epoch)` acknowledgements received. Epoch-tagged so a
    /// fast peer's ack for collective `k+1` (which FIFO ordering
    /// guarantees arrives after its ack for `k`) can never satisfy the
    /// wait for collective `k`.
    acks: HashSet<(usize, u64)>,
    /// Sends held back by [`FaultAction::Delay`], flushed (late) at
    /// the start of the ack phase. The transmission number was
    /// assigned (and the flow edge stamped) at logical send time, so
    /// the trace shows the whole in-flight window.
    delayed: Vec<(usize, u64, u32, Vec<f32>)>,
    /// Completed-collective count; the tag under which this rank's
    /// acks are sent.
    epoch: u64,
}

/// The armed reliability layer of one communicator.
struct Reliability {
    policy: RetryPolicy,
    plan: Option<FaultPlan>,
    obs: Telemetry,
    state: RefCell<RelState>,
}

/// The `comm.retry.*` counter names the reliability layer maintains;
/// the ack phase mirrors each as a gauge of the same name.
const RETRY_COUNTERS: &[&str] = &[
    "comm.retry.requests",
    "comm.retry.retransmits",
    "comm.retry.timeouts",
    "comm.retry.dup_discards",
    "comm.retry.injected_drops",
    "comm.retry.injected_dups",
    "comm.retry.injected_delays",
];

/// The wire under a [`Communicator`]: real channels for production
/// runs, or the deterministic scheduler when model checking.
enum Endpoint {
    /// One MPMC channel per rank plus a shared barrier.
    Channel {
        senders: Vec<Sender<Message>>,
        receiver: Receiver<Message>,
        barrier: Arc<Barrier>,
    },
    /// Scheduler-mediated transport (see [`crate::sched`]).
    #[cfg(feature = "check-sched")]
    Sched(Arc<crate::sched::SchedNet>),
}

/// One rank's endpoint in a [`run_threaded`] run: point-to-point
/// sends/receives plus the collectives built on them.
///
/// Not `Clone`: exactly one communicator exists per rank per run.
/// When dropped at the end of a healthy run, it audits that its
/// mailbox is empty — a parked message at join means some collective
/// sent under a tag nobody consumed.
pub struct Communicator {
    rank: usize,
    topology: Topology,
    endpoint: Endpoint,
    /// Out-of-order arrivals parked until requested, keyed by
    /// `(src, tag)`. Entries are removed as soon as they drain so the
    /// map stays empty across healthy collectives.
    mailbox: HashMap<(usize, u64), Vec<Vec<f32>>>,
    /// Monotone per-collective tag so concurrent collectives on the
    /// same communicator pair never mix messages.
    next_tag: u64,
    /// Set once any operation errored; disables the drop-time mailbox
    /// audit (a failed run legitimately strands messages).
    poisoned: Cell<bool>,
    /// Armed by [`RunOpts::reliable`]; `None` keeps the plain
    /// fast path (and is always `None` on the sched endpoint, whose
    /// delivery faults live in the scheduler itself).
    reliability: Option<Reliability>,
    /// Causal tracer for this rank; disabled (one branch per call, no
    /// clock or allocation) unless the run was started via a traced
    /// runner with a [`TraceHub`].
    tracer: Tracer,
    /// Transmission-attempt counters per `(peer, tag, kind)`, backing
    /// the `seq` stamp on [`Message`]. Only touched when the tracer is
    /// enabled.
    send_seqs: RefCell<HashMap<(usize, u64, u8), u32>>,
    /// Total `f32` elements this rank has physically transmitted as
    /// collective payload (`Data` messages only; duplicates and
    /// retransmits count each wire copy). Serving layers read this to
    /// attribute per-step All-to-All volume without touching the hot
    /// path — it is a plain counter bump on an already-owned cell.
    sent_elems: Cell<u64>,
}

impl Communicator {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total ranks.
    pub fn world_size(&self) -> usize {
        self.topology.world_size()
    }

    /// The cluster topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Builds a scheduler-backed communicator for one rank of a
    /// [`crate::sched::run_sched`] run.
    #[cfg(feature = "check-sched")]
    pub(crate) fn with_sched(
        rank: usize,
        topology: Topology,
        net: Arc<crate::sched::SchedNet>,
    ) -> Self {
        Communicator {
            rank,
            topology,
            endpoint: Endpoint::Sched(net),
            mailbox: HashMap::new(),
            next_tag: 0,
            poisoned: Cell::new(false),
            reliability: None,
            tracer: Tracer::disabled(),
            send_seqs: RefCell::new(HashMap::new()),
            sent_elems: Cell::new(0),
        }
    }

    /// Total `f32` elements transmitted on the wire as collective
    /// payload so far (control traffic excluded). Monotone within a
    /// run; the serve engine samples it around each micro-batch step
    /// to report per-step communication volume.
    pub fn sent_payload_elems(&self) -> u64 {
        self.sent_elems.get()
    }

    /// This rank's causal tracer (disabled unless the run was started
    /// through a traced runner). Layers above the communicator — the
    /// overlap engine, the harness — record their own tracks on it so
    /// all of a rank's activity shares one timeline.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Messages currently parked in the mailbox: nonzero after a
    /// collective means a send was never matched by a recv.
    pub fn parked_messages(&self) -> usize {
        self.mailbox.values().map(Vec::len).sum()
    }

    /// Discards parked messages (the `check-sched` harness reports
    /// them itself and must suppress the drop-time audit).
    #[cfg(feature = "check-sched")]
    pub(crate) fn clear_mailbox(&mut self) {
        self.mailbox.clear();
    }

    fn fail<T>(&self, err: CommError) -> Result<T, CommError> {
        self.poisoned.set(true);
        Err(err)
    }

    /// Sends `payload` to `peer` under `tag`.
    ///
    /// Under the reliability layer the payload is first recorded in
    /// the retransmit log, then the [`FaultPlan`] (if any) decides how
    /// the wire transmission happens; a dropped or delayed first
    /// transmission is still recoverable from the log.
    ///
    /// # Errors
    ///
    /// [`CommError::PeerOutOfRange`] for a bad `peer`;
    /// [`CommError::Disconnected`] if the run has been torn down.
    pub fn send(&self, peer: usize, tag: u64, payload: Vec<f32>) -> Result<(), CommError> {
        if peer >= self.world_size() {
            return self.fail(CommError::PeerOutOfRange {
                peer,
                world: self.world_size(),
            });
        }
        let Some(rel) = &self.reliability else {
            return self.send_raw(peer, tag, MsgKind::Data, payload);
        };
        rel.state
            .borrow_mut()
            .log
            .insert((peer, tag), payload.clone());
        let action = match rel.plan {
            Some(plan) => plan.action(self.rank, peer, tag),
            None => FaultAction::Deliver,
        };
        match action {
            FaultAction::Deliver => self.send_raw(peer, tag, MsgKind::Data, payload),
            FaultAction::Drop => {
                // Withhold the first transmission; the peer recovers
                // it from the log via a Retry request.
                rel.obs.add_counter("comm.retry.injected_drops", 1);
                Ok(())
            }
            FaultAction::Duplicate => {
                rel.obs.add_counter("comm.retry.injected_dups", 1);
                self.send_raw(peer, tag, MsgKind::Data, payload.clone())?;
                self.send_raw(peer, tag, MsgKind::Data, payload)
            }
            FaultAction::Delay(_) => {
                rel.obs.add_counter("comm.retry.injected_delays", 1);
                // The sender logically transmits *now*; only the wire
                // delivers late. Stamping the flow send here (and
                // reusing the seq at the flush) puts the full in-flight
                // time on this edge, so the analyzer can attribute the
                // delivery latency to this rank.
                let seq = self.next_seq(peer, tag, MsgKind::Data);
                self.tracer
                    .flow_send(peer, tag, seq, FlowKind::Data, payload.len() as u64 * 4);
                rel.state
                    .borrow_mut()
                    .delayed
                    .push((peer, tag, seq, payload));
                Ok(())
            }
        }
    }

    /// Transmits directly on the endpoint, bypassing the fault plan
    /// and retransmit log — used for control traffic and retransmits.
    /// (The sched endpoint carries no `kind`: reliability is never
    /// armed there, so only `Data` ever reaches it.)
    fn send_raw(
        &self,
        peer: usize,
        tag: u64,
        kind: MsgKind,
        payload: Vec<f32>,
    ) -> Result<(), CommError> {
        let seq = self.next_seq(peer, tag, kind);
        // Stamped before the wire hands the message over, so a flow
        // edge's send timestamp always precedes its receive.
        self.tracer
            .flow_send(peer, tag, seq, kind.flow_kind(), payload.len() as u64 * 4);
        self.send_wire(peer, tag, kind, seq, payload)
    }

    /// The physical handover under an already-assigned (and already
    /// flow-stamped) transmission number — the tail of [`send_raw`],
    /// called directly when flushing delayed sends whose flow edge was
    /// stamped at logical send time.
    fn send_wire(
        &self,
        peer: usize,
        tag: u64,
        kind: MsgKind,
        seq: u32,
        payload: Vec<f32>,
    ) -> Result<(), CommError> {
        if kind == MsgKind::Data {
            self.sent_elems
                .set(self.sent_elems.get() + payload.len() as u64);
        }
        match &self.endpoint {
            Endpoint::Channel { senders, .. } => {
                let msg = Message {
                    src: self.rank,
                    tag,
                    kind,
                    seq,
                    payload,
                };
                match senders[peer].send(msg) {
                    Ok(()) => Ok(()),
                    Err(_) => self.fail(CommError::Disconnected { rank: self.rank }),
                }
            }
            #[cfg(feature = "check-sched")]
            Endpoint::Sched(net) => match net.send(self.rank, peer, tag, payload) {
                Ok(()) => Ok(()),
                Err(e) => self.fail(e),
            },
        }
    }

    /// Next transmission-attempt number for `(peer, tag, kind)` —
    /// always `0` when tracing is off, so untraced runs never touch
    /// the counter map.
    fn next_seq(&self, peer: usize, tag: u64, kind: MsgKind) -> u32 {
        if !self.tracer.is_enabled() {
            return 0;
        }
        let mut seqs = self.send_seqs.borrow_mut();
        let slot = seqs.entry((peer, tag, kind as u8)).or_insert(0);
        let seq = *slot;
        *slot += 1;
        seq
    }

    /// Blocks for the next raw arrival, whatever its source or tag.
    fn recv_any(&mut self) -> Result<Message, CommError> {
        match &mut self.endpoint {
            Endpoint::Channel { receiver, .. } => match receiver.recv() {
                Ok(m) => Ok(m),
                Err(_) => {
                    self.poisoned.set(true);
                    Err(CommError::Disconnected { rank: self.rank })
                }
            },
            #[cfg(feature = "check-sched")]
            Endpoint::Sched(net) => match net.recv(self.rank) {
                Ok((src, tag, payload)) => Ok(Message {
                    src,
                    tag,
                    kind: MsgKind::Data,
                    seq: 0,
                    payload,
                }),
                Err(e) => {
                    self.poisoned.set(true);
                    Err(e)
                }
            },
        }
    }

    /// Pops a parked message for `(src, tag)` if one is waiting.
    fn take_parked(&mut self, src: usize, tag: u64) -> Option<Vec<f32>> {
        let queue = self.mailbox.get_mut(&(src, tag))?;
        // Queues are created non-empty and removed when drained, so a
        // present entry always yields a message.
        let payload = queue.remove(0);
        if queue.is_empty() {
            self.mailbox.remove(&(src, tag));
        }
        Some(payload)
    }

    /// Receives the next message from `src` under `tag`, parking any
    /// other arrivals. Under the reliability layer the wait is bounded
    /// by the [`RetryPolicy`] and retry requests are issued on
    /// timeout.
    ///
    /// # Errors
    ///
    /// [`CommError::Disconnected`] if a peer exited mid-collective;
    /// [`CommError::Deadlock`] under the deterministic scheduler;
    /// [`CommError::Timeout`] when an armed retry budget is exhausted.
    pub fn recv(&mut self, src: usize, tag: u64) -> Result<Vec<f32>, CommError> {
        if let Some(payload) = self.take_parked(src, tag) {
            return Ok(payload);
        }
        if self.reliability.is_some() {
            return self.recv_reliable(src, tag);
        }
        loop {
            let msg = self.recv_any()?;
            self.tracer
                .flow_recv(msg.src, msg.tag, msg.seq, msg.kind.flow_kind(), true);
            if msg.src == src && msg.tag == tag {
                return Ok(msg.payload);
            }
            self.mailbox
                .entry((msg.src, msg.tag))
                .or_default()
                .push(msg.payload);
        }
    }

    /// Blocks up to `timeout` for the next raw arrival; `Ok(None)` on
    /// timeout. Channel endpoint only in practice (the sched endpoint
    /// has no clock and falls back to its own blocking recv).
    fn recv_any_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, CommError> {
        match &mut self.endpoint {
            Endpoint::Channel { receiver, .. } => match receiver.recv_timeout(timeout) {
                Ok(m) => Ok(Some(m)),
                Err(RecvTimeoutError::Timeout) => Ok(None),
                Err(RecvTimeoutError::Disconnected) => {
                    self.poisoned.set(true);
                    Err(CommError::Disconnected { rank: self.rank })
                }
            },
            #[cfg(feature = "check-sched")]
            Endpoint::Sched(net) => match net.recv(self.rank) {
                Ok((src, tag, payload)) => Ok(Some(Message {
                    src,
                    tag,
                    kind: MsgKind::Data,
                    seq: 0,
                    payload,
                })),
                Err(e) => {
                    self.poisoned.set(true);
                    Err(e)
                }
            },
        }
    }

    /// Returns the next raw arrival if one is already queued, without
    /// blocking. The sched endpoint always reports `None`: its
    /// deliveries only happen at quiescence, so polling can make no
    /// progress there — handle waits fall back to the blocking path,
    /// which the scheduler mediates deterministically.
    fn try_recv_any(&mut self) -> Option<Message> {
        match &mut self.endpoint {
            Endpoint::Channel { receiver, .. } => receiver.try_recv(),
            #[cfg(feature = "check-sched")]
            Endpoint::Sched(_) => None,
        }
    }

    /// Drains every arrival already queued on the endpoint into the
    /// mailbox without blocking. Under the reliability layer, control
    /// traffic (`Retry`/`Ack`) is handled inline and data is deduped —
    /// exactly as the blocking receive loop would.
    fn drain_incoming(&mut self) -> Result<(), CommError> {
        while let Some(msg) = self.try_recv_any() {
            if self.reliability.is_some() {
                self.handle_reliable_arrival(msg, None)?;
            } else {
                self.tracer
                    .flow_recv(msg.src, msg.tag, msg.seq, msg.kind.flow_kind(), true);
                self.mailbox
                    .entry((msg.src, msg.tag))
                    .or_default()
                    .push(msg.payload);
            }
        }
        Ok(())
    }

    /// Processes one arrival under the reliability layer: dedupes and
    /// parks data (returning it instead if it matches `want`), serves
    /// `Retry` requests from the retransmit log, and records acks.
    fn handle_reliable_arrival(
        &mut self,
        msg: Message,
        want: Option<(usize, u64)>,
    ) -> Result<Option<Vec<f32>>, CommError> {
        let Some(rel) = &self.reliability else {
            return Ok(None);
        };
        match msg.kind {
            MsgKind::Data => {
                let fresh = rel.state.borrow_mut().seen.insert((msg.src, msg.tag));
                // `accepted: false` marks the duplicate edge: a
                // retransmit that raced the original (or an injected
                // duplicate) still binds to its own send, so the
                // timeline shows the redundant transmission.
                self.tracer
                    .flow_recv(msg.src, msg.tag, msg.seq, FlowKind::Data, fresh);
                if !fresh {
                    // A duplicate or a retransmit that raced the
                    // original (or a delayed copy we already
                    // recovered): drop it.
                    rel.obs.add_counter("comm.retry.dup_discards", 1);
                    return Ok(None);
                }
                if want == Some((msg.src, msg.tag)) {
                    return Ok(Some(msg.payload));
                }
                self.mailbox
                    .entry((msg.src, msg.tag))
                    .or_default()
                    .push(msg.payload);
                Ok(None)
            }
            MsgKind::Retry => {
                // The peer timed out waiting for our `msg.tag`; serve
                // it from the log. An unknown tag means we have not
                // sent it yet — ignore; the regular send (or the
                // peer's next retry) will satisfy it.
                self.tracer
                    .flow_recv(msg.src, msg.tag, msg.seq, FlowKind::Retry, true);
                let logged = rel.state.borrow().log.get(&(msg.src, msg.tag)).cloned();
                if let Some(payload) = logged {
                    rel.obs.add_counter("comm.retry.retransmits", 1);
                    self.tracer.instant(TRACK_COMM, "retransmit");
                    // send_raw bumps the Data seq, so the retransmit
                    // becomes a flow edge distinct from the original.
                    self.send_raw(msg.src, msg.tag, MsgKind::Data, payload)?;
                }
                Ok(None)
            }
            MsgKind::Ack => {
                self.tracer
                    .flow_recv(msg.src, msg.tag, msg.seq, FlowKind::Ack, true);
                rel.state.borrow_mut().acks.insert((msg.src, msg.tag));
                Ok(None)
            }
        }
    }

    /// The bounded receive loop used when reliability is armed.
    fn recv_reliable(&mut self, src: usize, tag: u64) -> Result<Vec<f32>, CommError> {
        let policy = match &self.reliability {
            Some(rel) => rel.policy,
            // recv() dispatches here only when armed.
            None => RetryPolicy::default(),
        };
        let mut wait = policy.timeout;
        let mut attempts: u32 = 0;
        loop {
            // A retransmit may have been parked while other traffic
            // was being serviced.
            if let Some(payload) = self.take_parked(src, tag) {
                return Ok(payload);
            }
            match self.recv_any_timeout(wait)? {
                Some(msg) => {
                    if let Some(payload) = self.handle_reliable_arrival(msg, Some((src, tag)))? {
                        return Ok(payload);
                    }
                }
                None => {
                    attempts += 1;
                    if attempts > policy.max_retries {
                        if let Some(rel) = &self.reliability {
                            rel.obs.add_counter("comm.retry.timeouts", 1);
                        }
                        // A failed collective must not strand parked
                        // messages: drain them so the join-time audit
                        // sees a clean (if poisoned) mailbox.
                        self.mailbox.clear();
                        return self.fail(CommError::Timeout {
                            rank: self.rank,
                            peer: src,
                            tag,
                            attempts,
                        });
                    }
                    if let Some(rel) = &self.reliability {
                        rel.obs.add_counter("comm.retry.requests", 1);
                    }
                    self.send_raw(src, tag, MsgKind::Retry, Vec::new())?;
                    wait = wait.saturating_mul(policy.backoff.max(1));
                }
            }
        }
    }

    /// Closes a collective under the reliability layer: flushes
    /// delayed sends, announces completion to every peer, and waits
    /// for every peer's announcement while serving their retry
    /// requests — so this rank stays reachable until all receivers
    /// have recovered. Drops the `finished` tags from the retransmit
    /// log afterwards (FIFO ordering puts a peer's last possible retry
    /// before its ack) and mirrors the `comm.retry.*` counters as
    /// gauges. Only the finished tags are dropped — with non-blocking
    /// handles, another collective's sends may already be logged and
    /// must stay recoverable until *its* epilogue runs.
    fn collective_epilogue(&mut self, finished: &[u64]) -> Result<(), CommError> {
        if self.reliability.is_none() {
            return Ok(());
        }
        let _span = self.tracer.span(TRACK_COMM, "ack_phase");
        let delayed: Vec<(usize, u64, u32, Vec<f32>)> = match &self.reliability {
            Some(rel) => rel.state.borrow_mut().delayed.drain(..).collect(),
            None => Vec::new(),
        };
        for (peer, tag, seq, payload) in delayed {
            self.send_wire(peer, tag, MsgKind::Data, seq, payload)?;
        }
        let (policy, epoch) = match &self.reliability {
            Some(rel) => (rel.policy, rel.state.borrow().epoch),
            None => return Ok(()),
        };
        let n = self.world_size();
        if n > 1 {
            for peer in 0..n {
                if peer != self.rank {
                    self.send_raw(peer, epoch, MsgKind::Ack, Vec::new())?;
                }
            }
            let mut wait = policy.timeout;
            let mut attempts: u32 = 0;
            loop {
                let missing = match &self.reliability {
                    Some(rel) => {
                        let st = rel.state.borrow();
                        (0..n).find(|p| *p != self.rank && !st.acks.contains(&(*p, epoch)))
                    }
                    None => None,
                };
                let Some(peer) = missing else { break };
                match self.recv_any_timeout(wait)? {
                    Some(msg) => {
                        self.handle_reliable_arrival(msg, None)?;
                    }
                    None => {
                        // Acks ride the raw channel (never faulted),
                        // so a missing ack means the peer died or
                        // failed — keep the wait bounded.
                        attempts += 1;
                        if attempts > policy.max_retries {
                            if let Some(rel) = &self.reliability {
                                rel.obs.add_counter("comm.retry.timeouts", 1);
                            }
                            self.mailbox.clear();
                            return self.fail(CommError::Timeout {
                                rank: self.rank,
                                peer,
                                tag: 0,
                                attempts,
                            });
                        }
                        wait = wait.saturating_mul(policy.backoff.max(1));
                    }
                }
            }
        }
        if let Some(rel) = &self.reliability {
            let mut st = rel.state.borrow_mut();
            st.log.retain(|(_, t), _| !finished.contains(t));
            st.acks.retain(|(_, e)| *e > epoch);
            st.epoch += 1;
            drop(st);
            for name in RETRY_COUNTERS {
                let v = rel.obs.counter_value(name).unwrap_or(0);
                rel.obs.set_gauge(name, v as f64);
            }
        }
        Ok(())
    }

    /// Blocks until every rank reaches the same barrier call.
    ///
    /// # Errors
    ///
    /// [`CommError::Deadlock`] under the deterministic scheduler when
    /// the barrier can never trip; infallible on the channel endpoint.
    pub fn barrier(&self) -> Result<(), CommError> {
        match &self.endpoint {
            Endpoint::Channel { barrier, .. } => {
                barrier.wait();
                Ok(())
            }
            #[cfg(feature = "check-sched")]
            Endpoint::Sched(net) => match net.barrier(self.rank) {
                Ok(()) => Ok(()),
                Err(e) => self.fail(e),
            },
        }
    }

    fn fresh_tag(&mut self) -> u64 {
        self.next_tag += 1;
        self.next_tag
    }

    fn require_divisible(&self, len: usize, chunks: usize) -> Result<usize, CommError> {
        if chunks == 0 || !len.is_multiple_of(chunks) {
            self.poisoned.set(true);
            return Err(CommError::Indivisible { len, chunks });
        }
        Ok(len / chunks)
    }

    /// Non-blocking ragged All-to-All: the runtime's one All-to-All.
    ///
    /// `sends[d]` is this rank's buffer for rank `d`, of any length
    /// (empty included). [`CommHandle::wait`] returns one buffer per
    /// source rank: entry `s` is exactly what rank `s` passed as its
    /// `sends[self.rank()]`. Peers' lengths ride the messages, so no
    /// count pre-exchange is needed. A fixed-size exchange is the
    /// uniform-count case.
    ///
    /// * [`AllToAllAlgo::Linear`] (Algorithm 1) sends every buffer
    ///   straight to its destination at issue.
    /// * [`AllToAllAlgo::TwoDh`] (Algorithm 3, Figure 15) sends the
    ///   intra-node hop at issue: each same-node peer gets one message
    ///   holding the buffers bound for its local rank on every node.
    ///   Once the last intra-node message lands, `poll`/`wait` promote
    ///   the handle to the inter-node hop: one message per remote node
    ///   with this node's buffers for that node's same-local-rank peer.
    ///   Both tags are allocated here, so every rank's tag counter
    ///   advances by the same amount at issue, whenever its poll
    ///   observes the promotion.
    ///
    /// A 2DH message concatenates several buffers, so it starts with an
    /// in-band header of their lengths encoded as f32 — exact below
    /// 2^24 elements per buffer, far above any routed bin this
    /// simulator produces. Both routes deliver every buffer verbatim:
    /// the results are bitwise identical.
    ///
    /// # Errors
    ///
    /// [`CommError::Indivisible`] if `sends.len()` is not the world
    /// size, plus any transport error during issue.
    pub fn ialltoall_v(
        &mut self,
        sends: Vec<Vec<f32>>,
        algo: AllToAllAlgo,
    ) -> Result<CommHandle, CommError> {
        let _span = self.tracer.span(TRACK_COMM, "ialltoall_v.issue");
        let n = self.world_size();
        if sends.len() != n {
            return self.fail(CommError::Indivisible {
                len: sends.len(),
                chunks: n,
            });
        }
        let me = self.rank;
        let mut out = vec![Vec::new(); n];
        let mut handle = match algo {
            AllToAllAlgo::Linear => {
                let tag = self.fresh_tag();
                for (peer, buf) in sends.into_iter().enumerate() {
                    if peer == me {
                        out[me] = buf;
                    } else {
                        self.send(peer, tag, buf)?;
                    }
                }
                CommHandle {
                    algo,
                    tags: vec![tag],
                    pending: (0..n).filter(|&s| s != me).map(|s| (s, tag)).collect(),
                    out,
                    relay: None,
                }
            }
            AllToAllAlgo::TwoDh => {
                let m = self.topology.gpus_per_node();
                let node = self.topology.node_of(me);
                let local = self.topology.local_rank(me);
                let tag_intra = self.fresh_tag();
                let tag_inter = self.fresh_tag();
                // Bucket by destination local rank (rank d is local
                // rank d % m); a bucket's buffers are in node order.
                let mut relay: Vec<Vec<Vec<f32>>> = vec![Vec::new(); m];
                for (dst, buf) in sends.into_iter().enumerate() {
                    relay[dst % m].push(buf);
                }
                for (dst_local, bucket) in relay.iter_mut().enumerate() {
                    if dst_local != local {
                        self.send(node * m + dst_local, tag_intra, pack(bucket))?;
                        *bucket = Vec::new();
                    }
                }
                CommHandle {
                    algo,
                    tags: vec![tag_intra, tag_inter],
                    pending: (0..m)
                        .filter(|&l| l != local)
                        .map(|l| (node * m + l, tag_intra))
                        .collect(),
                    out,
                    relay: Some(relay),
                }
            }
        };
        // Early arrivals may already be parked (a faster peer's sends
        // land before we issue), and degenerate topologies can promote
        // at once; absorb before handing the handle back.
        handle.absorb(self)?;
        Ok(handle)
    }

    /// Splits a flat `(W, chunk)` buffer into the sends of a
    /// uniform-count [`Communicator::ialltoall_v`]: chunk `d` for rank
    /// `d`. Concatenating the received buffers restores the layout.
    ///
    /// # Errors
    ///
    /// [`CommError::Indivisible`] if `buf.len()` is not a multiple of
    /// the world size.
    pub fn uniform_sends(&self, buf: &[f32]) -> Result<Vec<Vec<f32>>, CommError> {
        let n = self.world_size();
        let chunk = self.require_divisible(buf.len(), n)?;
        Ok((0..n)
            .map(|d| buf[d * chunk..(d + 1) * chunk].to_vec())
            .collect())
    }

    /// Blocking linear [`Communicator::ialltoall_v`]: issue, then
    /// [`CommHandle::wait`].
    ///
    /// # Errors
    ///
    /// As [`Communicator::ialltoall_v`] and [`CommHandle::wait`].
    pub fn all_to_all_v(&mut self, sends: &[Vec<f32>]) -> Result<Vec<Vec<f32>>, CommError> {
        let _span = self.tracer.span(TRACK_COMM, "all_to_all_v");
        self.ialltoall_v(sends.to_vec(), AllToAllAlgo::Linear)?
            .wait(self)
    }

    /// Ring all-gather: returns the concatenation of every rank's
    /// `input` in rank order (layout `(W, shard)`), moving one shard
    /// per ring step.
    ///
    /// # Errors
    ///
    /// Propagates any transport error.
    pub fn all_gather(&mut self, input: &[f32]) -> Result<Vec<f32>, CommError> {
        let _span = self.tracer.span(TRACK_COMM, "all_gather");
        let n = self.world_size();
        let shard = input.len();
        let tag = self.fresh_tag();
        let mut out = vec![0.0f32; n * shard];
        out[self.rank * shard..(self.rank + 1) * shard].copy_from_slice(input);
        let next = (self.rank + 1) % n;
        let prev = (self.rank + n - 1) % n;
        // At step s, forward the shard that originated at rank - s.
        let mut carry = input.to_vec();
        for s in 0..n.saturating_sub(1) {
            self.send(next, tag + s as u64 * 0x10000, carry)?;
            carry = self.recv(prev, tag + s as u64 * 0x10000)?;
            let origin = (self.rank + n - 1 - s) % n;
            out[origin * shard..(origin + 1) * shard].copy_from_slice(&carry);
        }
        let tags: Vec<u64> = (0..n.saturating_sub(1))
            .map(|s| tag + s as u64 * 0x10000)
            .collect();
        self.collective_epilogue(&tags)?;
        Ok(out)
    }

    /// Ring all-reduce (sum): reduce-scatter pass followed by an
    /// all-gather pass over the `(W, shard)` split, each moving
    /// `input.len()/n` per step.
    ///
    /// # Errors
    ///
    /// [`CommError::Indivisible`] if `input.len()` is not divisible by
    /// the world size, plus any transport error.
    pub fn all_reduce_sum(&mut self, input: &[f32]) -> Result<Vec<f32>, CommError> {
        let _span = self.tracer.span(TRACK_COMM, "all_reduce_sum");
        let n = self.world_size();
        if n == 1 {
            return Ok(input.to_vec());
        }
        let shard = self.require_divisible(input.len(), n)?;
        let next = (self.rank + 1) % n;
        let prev = (self.rank + n - 1) % n;
        let mut buf = input.to_vec();
        let tag = self.fresh_tag();
        // Reduce-scatter: after n−1 steps, rank r owns the full sum of
        // shard (r+1) mod n.
        for s in 0..n - 1 {
            let send_idx = (self.rank + n - s) % n;
            let recv_idx = (self.rank + n - 1 - s) % n;
            self.send(
                next,
                tag + s as u64 * 0x10000,
                buf[send_idx * shard..(send_idx + 1) * shard].to_vec(),
            )?;
            let payload = self.recv(prev, tag + s as u64 * 0x10000)?;
            for (o, v) in buf[recv_idx * shard..(recv_idx + 1) * shard]
                .iter_mut()
                .zip(payload)
            {
                *o += v;
            }
        }
        // All-gather the reduced shards around the ring.
        let tag_ag = self.fresh_tag();
        for s in 0..n - 1 {
            let send_idx = (self.rank + 1 + n - s) % n;
            let recv_idx = (self.rank + n - s) % n;
            self.send(
                next,
                tag_ag + s as u64 * 0x10000,
                buf[send_idx * shard..(send_idx + 1) * shard].to_vec(),
            )?;
            let payload = self.recv(prev, tag_ag + s as u64 * 0x10000)?;
            buf[recv_idx * shard..(recv_idx + 1) * shard].copy_from_slice(&payload);
        }
        let tags: Vec<u64> = (0..n - 1)
            .flat_map(|s| [tag + s as u64 * 0x10000, tag_ag + s as u64 * 0x10000])
            .collect();
        self.collective_epilogue(&tags)?;
        Ok(buf)
    }
}

/// Concatenates `segs` behind an in-band header of their lengths (a
/// 2DH hop message; see [`Communicator::ialltoall_v`]).
fn pack(segs: &[Vec<f32>]) -> Vec<f32> {
    let mut buf = Vec::with_capacity(segs.len() + segs.iter().map(Vec::len).sum::<usize>());
    buf.extend(segs.iter().map(|s| s.len() as f32));
    for s in segs {
        buf.extend_from_slice(s);
    }
    buf
}

/// Splits a [`pack`]ed message of `nseg` segments.
fn unpack(buf: &[f32], nseg: usize) -> Vec<Vec<f32>> {
    let mut at = nseg;
    buf[..nseg]
        .iter()
        .map(|&len| {
            let seg = buf[at..at + len as usize].to_vec();
            at += len as usize;
            seg
        })
        .collect()
}

/// An in-flight All-to-All issued by [`Communicator::ialltoall_v`].
///
/// The handle owns the collective's receive state; pass the same
/// communicator it was issued on back into [`CommHandle::poll`] to
/// make non-blocking progress and [`CommHandle::wait`] to block for
/// completion. The first hop's sends were issued eagerly at creation
/// (2DH's second hop departs on promotion), so peers can complete
/// their receives as long as this rank keeps polling or waits.
///
/// Under the reliability layer, the closing ack/epoch exchange runs
/// in `wait` only — never in `poll` — so every rank executes its
/// epilogues in identical program order (the epoch counters stay in
/// lockstep exactly when ranks wait their handles in the same order,
/// which deterministic rank programs do by construction).
///
/// A handle must be drained with `wait` before the communicator is
/// dropped, even on error paths: an abandoned handle strands its
/// peers' messages in the mailbox and the join-time audit will panic.
pub struct CommHandle {
    algo: AllToAllAlgo,
    /// Every tag this collective sends under (one per hop); the
    /// epilogue in `wait` retires exactly these from the retransmit
    /// log.
    tags: Vec<u64>,
    /// `(src, tag)` messages the current hop still waits for.
    pending: Vec<(usize, u64)>,
    /// Received buffers, indexed by source rank.
    out: Vec<Vec<f32>>,
    /// 2DH until the inter-node hop departs: `relay[l][d]` is local
    /// rank `l`'s buffer for node `d`'s rank with this local index.
    relay: Option<Vec<Vec<Vec<f32>>>>,
}

impl CommHandle {
    /// Whether every buffer has arrived. A complete handle's `wait`
    /// returns without blocking on data (the reliability epilogue, if
    /// armed, still runs there).
    pub fn is_complete(&self) -> bool {
        self.pending.is_empty() && self.relay.is_none()
    }

    /// Makes non-blocking progress: drains arrivals already queued on
    /// the endpoint, absorbs the messages this collective was waiting
    /// for, and promotes a finished 2DH intra-node hop. Returns
    /// [`Self::is_complete`].
    ///
    /// # Errors
    ///
    /// Propagates transport errors from draining or from issuing the
    /// 2DH inter-node hop.
    pub fn poll(&mut self, comm: &mut Communicator) -> Result<bool, CommError> {
        comm.drain_incoming()?;
        self.absorb(comm)?;
        Ok(self.is_complete())
    }

    /// Blocks until the collective completes, closes it (the
    /// reliability epilogue runs under this handle's tags), and
    /// returns one buffer per source rank.
    ///
    /// # Errors
    ///
    /// [`CommError::Disconnected`] if a peer exited mid-collective;
    /// [`CommError::Deadlock`] under the deterministic scheduler;
    /// [`CommError::Timeout`] when an armed retry budget is exhausted.
    pub fn wait(mut self, comm: &mut Communicator) -> Result<Vec<Vec<f32>>, CommError> {
        let _span = comm.tracer.span(TRACK_COMM, "ialltoall_v.wait");
        loop {
            // absorb promotes a finished intra-node hop, so an empty
            // pending list afterwards means the collective is done.
            self.absorb(comm)?;
            let Some(&(src, tag)) = self.pending.first() else {
                break;
            };
            let payload = comm.recv(src, tag)?;
            self.pending.remove(0);
            self.accept(comm, src, payload);
        }
        comm.collective_epilogue(&self.tags)?;
        Ok(self.out)
    }

    /// Files a message received from `src` for the current hop.
    fn accept(&mut self, comm: &Communicator, src: usize, payload: Vec<f32>) {
        let m = comm.topology.gpus_per_node();
        match (self.algo, &mut self.relay) {
            (AllToAllAlgo::Linear, _) => self.out[src] = payload,
            (AllToAllAlgo::TwoDh, Some(relay)) => {
                relay[src % m] = unpack(&payload, comm.topology.nnodes());
            }
            (AllToAllAlgo::TwoDh, None) => {
                let first = src - src % m;
                for (l, seg) in unpack(&payload, m).into_iter().enumerate() {
                    self.out[first + l] = seg;
                }
            }
        }
    }

    /// Absorbs every already-parked message this handle is waiting
    /// for and promotes a finished 2DH intra-node hop (re-absorbing:
    /// inter-node messages from faster peers may already be parked).
    /// Never blocks and never runs the epilogue.
    fn absorb(&mut self, comm: &mut Communicator) -> Result<(), CommError> {
        loop {
            while let Some(i) = self
                .pending
                .iter()
                .position(|key| comm.mailbox.contains_key(key))
            {
                let (src, tag) = self.pending.remove(i);
                // position() found a parked message under this key, so
                // the take always yields.
                if let Some(payload) = comm.take_parked(src, tag) {
                    self.accept(comm, src, payload);
                }
            }
            if !self.promote(comm)? {
                return Ok(());
            }
        }
    }

    /// Sends the 2DH inter-node hop once the last intra-node message
    /// has landed: each remote node gets this node's buffers for it,
    /// in source local-rank order. Returns whether it promoted.
    fn promote(&mut self, comm: &mut Communicator) -> Result<bool, CommError> {
        if !self.pending.is_empty() {
            return Ok(false);
        }
        let Some(relay) = self.relay.take() else {
            return Ok(false);
        };
        let m = comm.topology.gpus_per_node();
        let nnodes = comm.topology.nnodes();
        let node = comm.topology.node_of(comm.rank);
        let local = comm.topology.local_rank(comm.rank);
        let tag = self.tags[1];
        let mut by_node: Vec<Vec<Vec<f32>>> = (0..nnodes).map(|_| Vec::with_capacity(m)).collect();
        for bucket in relay {
            for (dst_node, buf) in bucket.into_iter().enumerate() {
                by_node[dst_node].push(buf);
            }
        }
        for (dst_node, bufs) in by_node.into_iter().enumerate() {
            if dst_node == node {
                for (l, buf) in bufs.into_iter().enumerate() {
                    self.out[node * m + l] = buf;
                }
            } else {
                comm.send(dst_node * m + local, tag, pack(&bufs))?;
            }
        }
        self.pending = (0..nnodes)
            .filter(|&d| d != node)
            .map(|d| (d * m + local, tag))
            .collect();
        // The moment the handle moves from the intra-node to the
        // inter-node hop — visible on the timeline between the two
        // tag families' flow edges.
        comm.tracer.instant(TRACK_COMM, "2dh.promote");
        Ok(true)
    }
}

impl Drop for Communicator {
    fn drop(&mut self) {
        // Mailbox audit at join: a healthy run consumes every message
        // it was sent. Skipped when the run already failed (poisoned
        // or panicking) — stranded messages are expected then.
        if !std::thread::panicking() && !self.poisoned.get() && !self.mailbox.is_empty() {
            let detail: Vec<String> = self
                .mailbox
                .iter()
                .map(|((src, tag), q)| format!("{} from rank {src} under tag {tag}", q.len()))
                .collect();
            // check:allow(no_panic, join-time audit must abort the rank on leaked messages)
            panic!(
                "rank {}: mailbox not empty at join: {}",
                self.rank,
                detail.join(", ")
            );
        }
    }
}

/// Runs `program` once per rank, each on its own parked rank worker
/// thread with its own [`Communicator`], and returns the per-rank
/// results in rank order. Shorthand for [`run_threaded_with`] with
/// default [`RunOpts`]: no reliability layer, no tracing.
///
/// # Example
///
/// ```
/// use tutel_comm::runtime::run_threaded;
/// use tutel_comm::AllToAllAlgo;
/// use tutel_simgpu::Topology;
///
/// let results = run_threaded(Topology::new(2, 2), |mut comm| {
///     let rank = comm.rank() as f32;
///     let handle = comm.ialltoall_v(vec![vec![rank]; 4], AllToAllAlgo::TwoDh).unwrap();
///     handle.wait(&mut comm).unwrap()
/// });
/// // Rank 0 received one buffer from each rank.
/// assert_eq!(results[0], vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
/// ```
///
/// # Panics
///
/// As [`run_threaded_with`].
pub fn run_threaded<F, R>(topology: Topology, program: F) -> Vec<R>
where
    F: Fn(Communicator) -> R + Send + Sync,
    R: Send,
{
    run_threaded_with(topology, RunOpts::default(), program)
}

/// The two choices a [`run_threaded_with`] launch makes.
#[derive(Clone, Default)]
pub struct RunOpts<'a> {
    /// Arms the reliability layer on every rank: sends are logged for
    /// retransmission, receives time out and retry with backoff per
    /// the policy, each collective ends with an acknowledgement phase,
    /// and an optional [`FaultPlan`] injects seeded, replayable faults
    /// into data transmissions.
    ///
    /// Fault-free, a reliable run produces bitwise the same collective
    /// results as an unreliable one; with a recoverable plan (and a
    /// nonzero retry budget) it still does — that is the graceful-
    /// degradation property the conformance harness asserts.
    /// Unrecoverable plans surface [`CommError::Timeout`] within the
    /// policy's bounded wait instead of hanging.
    pub reliable: Option<ReliableConfig>,
    /// Arms each rank's communicator with a [`Tracer`] from this hub,
    /// so every collective records comm-track spans and
    /// `(src, dst, tag, seq)`-stamped flow edges on the hub's shared
    /// timebase — retransmits, duplicate discards and the ack phase
    /// included. After the run, merge and export via
    /// [`TraceHub::export_rank_jsonls`] or [`TraceHub::merged`].
    pub trace: Option<&'a TraceHub>,
}

/// A rank job as a parked worker receives it. The job catches its
/// program's panic and reports it, so calling one never unwinds.
type RankJob = Box<dyn FnOnce() + Send + 'static>;

/// Parked rank workers, each reachable through its job channel.
/// Process-wide and shared by every caller: a call checks out the
/// workers it needs and returns them once all of its ranks have
/// reported, so concurrent and nested calls never share a worker and
/// the set grows to the peak number of ranks running at once.
static IDLE_RANK_WORKERS: Mutex<Vec<Sender<RankJob>>> = Mutex::new(Vec::new());

fn idle_rank_workers() -> MutexGuard<'static, Vec<Sender<RankJob>>> {
    // The guarded list is never left half-updated, so a poisoned lock
    // is still a valid list.
    IDLE_RANK_WORKERS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Checks out `n` workers: idle ones first, newly spawned ones for
/// the rest.
fn checkout_rank_workers(n: usize) -> Vec<Sender<RankJob>> {
    let mut workers = {
        let mut idle = idle_rank_workers();
        let keep = idle.len().saturating_sub(n);
        idle.split_off(keep)
    };
    while workers.len() < n {
        let (jobs, inbox) = unbounded::<RankJob>();
        std::thread::Builder::new()
            .name("tutel-rank".into())
            // A worker runs jobs until its channel closes, which the
            // process-wide list never does.
            .spawn(move || {
                while let Ok(job) = inbox.recv() {
                    job();
                }
            })
            // check:allow(no_panic, thread spawn failure before any job is dispatched; same contract as std::thread::spawn)
            .expect("failed to spawn a rank worker thread");
        workers.push(jobs);
    }
    workers
}

/// Ends the process: a rank's report can no longer arrive, and
/// returning or unwinding would free data its job may still borrow.
fn abort_lost_rank(what: &str) -> ! {
    eprintln!("tutel-comm: {what}; aborting because a rank job may still borrow the caller's data");
    std::process::abort()
}

/// Runs `program` once per rank under `opts`, each rank on its own
/// parked rank worker thread with its own [`Communicator`], and
/// returns the per-rank results in rank order.
///
/// Workers are reused across calls (see the module docs): a call
/// spawns threads only while the process has fewer idle workers than
/// ranks. The call blocks until every rank has finished.
///
/// # Panics
///
/// Panics if any rank's program panics: once every rank has finished,
/// the lowest such rank's payload is re-raised on the caller's thread,
/// and its worker stays usable. Panics if a needed worker thread
/// cannot be spawned. Aborts the process if a rank can never report
/// (its worker is gone), since returning would free data that rank
/// may still borrow.
pub fn run_threaded_with<F, R>(topology: Topology, opts: RunOpts<'_>, program: F) -> Vec<R>
where
    F: Fn(Communicator) -> R + Send + Sync,
    R: Send,
{
    let RunOpts {
        reliable: cfg,
        trace: hub,
    } = opts;
    let n = topology.world_size();
    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (s, r) = unbounded();
        senders.push(s);
        receivers.push(r);
    }
    let barrier = Arc::new(Barrier::new(n));
    let program = &program;
    let senders = &senders;
    let cfg = &cfg;
    // Checked out before any job is dispatched, so a spawn failure
    // unwinds with nothing borrowed.
    let workers = checkout_rank_workers(n);
    let (report, reports) = unbounded::<(usize, std::thread::Result<R>)>();
    for (rank, (worker, receiver)) in workers.iter().zip(receivers).enumerate() {
        let barrier = Arc::clone(&barrier);
        let report = report.clone();
        let job = move || {
            let out = catch_unwind(AssertUnwindSafe(|| {
                let comm = Communicator {
                    rank,
                    topology,
                    endpoint: Endpoint::Channel {
                        senders: senders.clone(),
                        receiver,
                        barrier,
                    },
                    mailbox: HashMap::new(),
                    next_tag: 0,
                    poisoned: Cell::new(false),
                    reliability: cfg.as_ref().map(|c| Reliability {
                        policy: c.policy,
                        plan: c.plan,
                        obs: c.telemetry.clone(),
                        state: RefCell::new(RelState::default()),
                    }),
                    tracer: match hub {
                        Some(h) => h.tracer(rank),
                        None => Tracer::disabled(),
                    },
                    send_seqs: RefCell::new(HashMap::new()),
                    sent_elems: Cell::new(0),
                };
                program(comm)
            }));
            // The last use of anything the caller lends: the caller
            // holds `reports` open until all `n` reports are in, so this
            // send cannot fail.
            let _ = report.send((rank, out));
        };
        let job: Box<dyn FnOnce() + Send + '_> = Box::new(job);
        // The job's report is its last access to borrowed data
        // (`report` itself is an owned, reference-counted handle).
        // SAFETY: erasing the lifetime is sound because this call does
        // not return or unwind until every dispatched job has reported;
        // a report that can never arrive aborts the process instead.
        let job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, RankJob>(job) };
        if worker.send(job).is_err() {
            abort_lost_rank("a rank worker exited");
        }
    }
    drop(report);
    let mut outs: Vec<Option<std::thread::Result<R>>> = (0..n).map(|_| None).collect();
    for _ in 0..n {
        match reports.recv() {
            Ok((rank, out)) => outs[rank] = Some(out),
            Err(_) => abort_lost_rank("a rank job was dropped without reporting"),
        }
    }
    idle_rank_workers().extend(workers);
    outs.into_iter()
        .flatten()
        .map(|out| out.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{linear_all_to_all, ragged_all_to_all, two_dh_all_to_all, RankBuffers};
    use tutel_obs::trace::TraceHub;

    fn labeled(n: usize, chunk: usize) -> RankBuffers {
        (0..n)
            .map(|s| (0..n * chunk).map(|i| (s * n * chunk + i) as f32).collect())
            .collect()
    }

    /// A fixed-size exchange of a flat `(W, chunk)` buffer: the
    /// uniform-count case of `ialltoall_v`, flattened back in source
    /// order — the layout of the sequential oracles.
    fn exchange(comm: &mut Communicator, input: &[f32], algo: AllToAllAlgo) -> Vec<f32> {
        let sends = comm.uniform_sends(input).unwrap();
        ialltoall_v(comm, sends, algo).unwrap().concat()
    }

    fn ialltoall_v(
        comm: &mut Communicator,
        sends: Vec<Vec<f32>>,
        algo: AllToAllAlgo,
    ) -> Result<Vec<Vec<f32>>, CommError> {
        comm.ialltoall_v(sends, algo)?.wait(comm)
    }

    /// The acceptance topologies: single rank, one node, one GPU per
    /// node, and both axes at once.
    const TOPOLOGIES: [(usize, usize); 6] = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 4), (2, 3)];

    #[test]
    fn uniform_exchange_matches_sequential_oracles() {
        for (nnodes, gpn) in TOPOLOGIES {
            let topo = Topology::new(nnodes, gpn);
            let bufs = labeled(topo.world_size(), 3);
            let bufs_ref = &bufs;
            for (algo, expect) in [
                (AllToAllAlgo::Linear, linear_all_to_all(&bufs)),
                (AllToAllAlgo::TwoDh, two_dh_all_to_all(&bufs, &topo)),
            ] {
                let got = run_threaded(topo, |mut comm| {
                    let rank = comm.rank();
                    exchange(&mut comm, &bufs_ref[rank], algo)
                });
                assert_eq!(got, expect, "{algo:?} at {nnodes}x{gpn}");
            }
        }
    }

    /// Ragged per-destination buffers: rank `r` sends `r*n + d` copies
    /// of a labeled value to rank `d`, so every (src, dst) length is
    /// distinct and several are zero.
    fn ragged_sends(n: usize, rank: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|d| vec![(rank * 100 + d) as f32; (rank * n + d) % 7])
            .collect()
    }

    #[test]
    fn all_to_all_v_delivers_ragged_buffers() {
        let n = 6;
        let topo = Topology::new(2, 3);
        let got = run_threaded(topo, |mut comm| {
            comm.all_to_all_v(&ragged_sends(n, comm.rank())).unwrap()
        });
        let sends: Vec<_> = (0..n).map(|r| ragged_sends(n, r)).collect();
        assert_eq!(got, ragged_all_to_all(&sends));
    }

    #[test]
    fn ragged_2dh_matches_ragged_linear() {
        for (nnodes, gpn) in TOPOLOGIES {
            let topo = Topology::new(nnodes, gpn);
            let n = topo.world_size();
            let got = run_threaded(topo, |mut comm| {
                let sends = ragged_sends(n, comm.rank());
                let lin = ialltoall_v(&mut comm, sends.clone(), AllToAllAlgo::Linear).unwrap();
                let hier = ialltoall_v(&mut comm, sends, AllToAllAlgo::TwoDh).unwrap();
                assert_eq!(lin, hier, "2DH route diverged from linear");
                lin
            });
            let sends: Vec<_> = (0..n).map(|r| ragged_sends(n, r)).collect();
            assert_eq!(got, ragged_all_to_all(&sends), "{nnodes}x{gpn}");
        }
    }

    #[test]
    fn ialltoall_v_rejects_wrong_send_count() {
        let topo = Topology::single_node(2);
        let got = run_threaded(topo, |mut comm| {
            comm.all_to_all_v(&[vec![1.0]]).is_err()
                && comm.ialltoall_v(Vec::new(), AllToAllAlgo::TwoDh).is_err()
        });
        assert!(got.into_iter().all(|b| b));
    }

    #[test]
    fn threaded_all_gather() {
        let topo = Topology::new(2, 2);
        let got = run_threaded(topo, |mut comm| {
            let mine = vec![comm.rank() as f32 * 10.0, comm.rank() as f32 * 10.0 + 1.0];
            comm.all_gather(&mine).unwrap()
        });
        let expect: Vec<f32> = vec![0.0, 1.0, 10.0, 11.0, 20.0, 21.0, 30.0, 31.0];
        for r in got {
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn threaded_all_reduce_sum() {
        let topo = Topology::new(1, 4);
        let got = run_threaded(topo, |mut comm| {
            let mine: Vec<f32> = (0..8).map(|i| (comm.rank() * 8 + i) as f32).collect();
            comm.all_reduce_sum(&mine).unwrap()
        });
        // Sum over ranks of (r*8 + i) = 4i + 48.
        let expect: Vec<f32> = (0..8).map(|i| 4.0 * i as f32 + 48.0).collect();
        for r in got {
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn sent_payload_elems_counts_data_volume() {
        // Linear: a 4-rank exchange sends chunk-sized payloads to the
        // 3 peers (the self-chunk is a local move, not a wire send).
        // 2DH at 2x2: one intra-node message (2 chunks + a 2-entry
        // header) and one inter-node message (2 chunks + a 2-entry
        // header).
        let topo = Topology::new(2, 2);
        let chunk = 5;
        let bufs = labeled(4, chunk);
        let bufs_ref = &bufs;
        for (algo, per_rank) in [
            (AllToAllAlgo::Linear, 3 * chunk as u64),
            (AllToAllAlgo::TwoDh, 2 * (2 * chunk as u64 + 2)),
        ] {
            let counts = run_threaded(topo, |mut comm| {
                assert_eq!(comm.sent_payload_elems(), 0);
                let rank = comm.rank();
                exchange(&mut comm, &bufs_ref[rank], algo);
                comm.sent_payload_elems()
            });
            assert_eq!(counts, vec![per_rank; 4], "{algo:?}");
        }
    }

    #[test]
    fn back_to_back_collectives_do_not_cross_talk() {
        // Two exchanges in a row with different data: tags must keep
        // them separate even though ranks proceed at different speeds.
        let topo = Topology::new(2, 2);
        let a = labeled(4, 2);
        let b: RankBuffers = a
            .iter()
            .map(|r| r.iter().map(|v| v + 1000.0).collect())
            .collect();
        let (ea, eb) = (linear_all_to_all(&a), linear_all_to_all(&b));
        let (ra, rb) = (&a, &b);
        let got = run_threaded(topo, |mut comm| {
            let rank = comm.rank();
            let first = exchange(&mut comm, &ra[rank], AllToAllAlgo::Linear);
            let second = exchange(&mut comm, &rb[rank], AllToAllAlgo::TwoDh);
            (first, second)
        });
        for (rank, (first, second)) in got.into_iter().enumerate() {
            assert_eq!(first, ea[rank]);
            assert_eq!(second, eb[rank]);
        }
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        let topo = Topology::new(1, 4);
        let counter_ref = &counter;
        run_threaded(topo, |comm| {
            counter_ref.fetch_add(1, Ordering::SeqCst);
            comm.barrier().unwrap();
            // After the barrier every rank must observe all increments.
            assert_eq!(counter_ref.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn single_rank_degenerate_cases() {
        let topo = Topology::single_node(1);
        let got = run_threaded(topo, |mut comm| {
            let a = exchange(&mut comm, &[1.0, 2.0], AllToAllAlgo::Linear);
            let b = comm.all_reduce_sum(&[3.0]).unwrap();
            let c = comm.all_gather(&[4.0]).unwrap();
            (a, b, c)
        });
        assert_eq!(got[0], (vec![1.0, 2.0], vec![3.0], vec![4.0]));
    }

    #[test]
    fn indivisible_buffer_is_a_typed_error() {
        let topo = Topology::new(1, 2);
        let got = run_threaded(topo, |mut comm| {
            let err = Err(CommError::Indivisible { len: 3, chunks: 2 });
            assert_eq!(comm.uniform_sends(&[1.0, 2.0, 3.0]), err);
            comm.all_reduce_sum(&[1.0, 2.0, 3.0])
        });
        for r in got {
            assert_eq!(r, Err(CommError::Indivisible { len: 3, chunks: 2 }));
        }
    }

    #[test]
    fn send_to_bad_peer_is_a_typed_error() {
        let topo = Topology::single_node(1);
        let got = run_threaded(topo, |comm| comm.send(5, 0, vec![1.0]));
        assert_eq!(got[0], Err(CommError::PeerOutOfRange { peer: 5, world: 1 }));
    }

    #[test]
    fn mailbox_drains_to_empty_after_out_of_order_arrivals() {
        // Rank 1 sends two tags before rank 0 asks for either; rank
        // 0's selective recv parks one, then drains it — the mailbox
        // entry must be removed, not left as an empty Vec.
        let topo = Topology::new(1, 2);
        let got = run_threaded(topo, |mut comm| {
            if comm.rank() == 1 {
                comm.send(0, 7, vec![7.0]).unwrap();
                comm.send(0, 8, vec![8.0]).unwrap();
                0
            } else {
                let b = comm.recv(1, 8).unwrap();
                let a = comm.recv(1, 7).unwrap();
                assert_eq!((a, b), (vec![7.0], vec![8.0]));
                comm.parked_messages()
            }
        });
        assert_eq!(got[0], 0, "drained mailbox entry was not removed");
    }

    #[test]
    fn leaked_mailbox_message_panics_at_join() {
        let topo = Topology::new(1, 2);
        let result = std::panic::catch_unwind(|| {
            run_threaded(topo, |mut comm| {
                if comm.rank() == 1 {
                    // Tag 42 is never consumed; tag 1 unblocks rank 0.
                    comm.send(0, 42, vec![1.0]).unwrap();
                    comm.send(0, 1, vec![2.0]).unwrap();
                } else {
                    comm.recv(1, 1).unwrap();
                }
            })
        });
        let payload = result.expect_err("leak must panic at join");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("mailbox not empty"), "got: {msg}");
    }

    #[test]
    fn rank_panic_reraises_and_reused_workers_stay_correct() {
        let topo = Topology::new(2, 2);
        let result = std::panic::catch_unwind(|| {
            run_threaded(topo, |comm| {
                if comm.rank() == 2 {
                    panic!("rank 2 fails on purpose");
                }
                comm.rank()
            })
        });
        let payload = result.expect_err("a rank panic must reach the caller");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "rank 2 fails on purpose");

        // The worker that ran rank 2 survived and is back in the idle
        // set; the next calls may land on it.
        let bufs = labeled(4, 3);
        let expect = linear_all_to_all(&bufs);
        let bufs_ref = &bufs;
        for _ in 0..8 {
            let got = run_threaded(topo, |mut comm| {
                let rank = comm.rank();
                exchange(&mut comm, &bufs_ref[rank], AllToAllAlgo::Linear)
            });
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn ranks_run_on_parked_rank_workers() {
        let names = run_threaded(Topology::new(1, 3), |_comm| {
            std::thread::current().name().map(str::to_owned)
        });
        assert!(
            names.iter().all(|n| n.as_deref() == Some("tutel-rank")),
            "{names:?}"
        );
    }

    #[test]
    fn concurrent_callers_get_their_own_results() {
        let topo = Topology::new(2, 2);
        std::thread::scope(|scope| {
            for caller in 0..4usize {
                scope.spawn(move || {
                    for iter in 0..50usize {
                        let bufs: RankBuffers = labeled(4, 2)
                            .into_iter()
                            .map(|b| {
                                b.into_iter()
                                    .map(|v| v + (caller * 1000 + iter) as f32)
                                    .collect()
                            })
                            .collect();
                        let expect = linear_all_to_all(&bufs);
                        let bufs_ref = &bufs;
                        let got = run_threaded(topo, |mut comm| {
                            let rank = comm.rank();
                            exchange(&mut comm, &bufs_ref[rank], AllToAllAlgo::Linear)
                        });
                        assert_eq!(got, expect, "caller {caller} iteration {iter}");
                    }
                });
            }
        });
    }

    #[test]
    fn nested_run_threaded_inside_a_rank_completes() {
        let outer = run_threaded(Topology::new(1, 2), |mut comm| {
            let base = 10.0 * comm.rank() as f32;
            let inner = run_threaded(Topology::new(1, 2), |mut inner| {
                let mine = [base + inner.rank() as f32; 2];
                exchange(&mut inner, &mine, AllToAllAlgo::Linear)
            });
            let mine = [comm.rank() as f32; 2];
            let exchanged = exchange(&mut comm, &mine, AllToAllAlgo::Linear);
            (inner, exchanged)
        });
        for (rank, (inner, exchanged)) in outer.iter().enumerate() {
            let base = 10.0 * rank as f32;
            assert_eq!(inner, &vec![vec![base, base + 1.0], vec![base, base + 1.0]]);
            assert_eq!(exchanged, &vec![0.0, 1.0]);
        }
    }

    use crate::fault::FaultPlan;
    use tutel_obs::Telemetry;

    fn fast_policy(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            timeout: Duration::from_millis(20),
            max_retries,
            backoff: 2,
        }
    }

    fn reliable(cfg: ReliableConfig) -> RunOpts<'static> {
        RunOpts {
            reliable: Some(cfg),
            trace: None,
        }
    }

    fn injected(telemetry: &Telemetry) -> u64 {
        ["drops", "dups", "delays"]
            .iter()
            .map(|k| {
                telemetry
                    .counter_value(&format!("comm.retry.injected_{k}"))
                    .unwrap_or(0)
            })
            .sum()
    }

    /// Every collective once: both All-to-All routes on uniform and on
    /// ragged (some empty) buffers, then the two rings.
    fn every_collective(mut comm: Communicator, bufs: &RankBuffers) -> Vec<Vec<Vec<f32>>> {
        let rank = comm.rank();
        let n = comm.world_size();
        let mut out = Vec::new();
        for algo in AllToAllAlgo::ALL {
            out.push(vec![exchange(&mut comm, &bufs[rank], algo)]);
            out.push(ialltoall_v(&mut comm, ragged_sends(n, rank), algo).unwrap());
        }
        out.push(vec![comm.all_gather(&bufs[rank]).unwrap()]);
        out.push(vec![comm.all_reduce_sum(&bufs[rank]).unwrap()]);
        assert_eq!(comm.parked_messages(), 0);
        out
    }

    #[test]
    fn reliable_without_faults_matches_plain_run() {
        let topo = Topology::new(2, 2);
        let bufs = labeled(4, 3);
        let program = |comm: Communicator| every_collective(comm, &bufs);
        let plain = run_threaded(topo, program);
        let rel = run_threaded_with(topo, reliable(ReliableConfig::default()), program);
        assert_eq!(plain, rel);
    }

    #[test]
    fn injected_faults_recover_to_identical_results() {
        // Drops/dups/delays on uniform and ragged (including empty)
        // payloads, over both routes, must recover to the bitwise
        // fault-free result.
        let topo = Topology::new(2, 2);
        let bufs = labeled(4, 3);
        let program = |comm: Communicator| every_collective(comm, &bufs);
        let plain = run_threaded(topo, program);
        let telemetry = Telemetry::enabled();
        let cfg = ReliableConfig {
            policy: fast_policy(6),
            plan: Some(
                FaultPlan::new(0xFA17)
                    .with_drops(20)
                    .with_duplicates(20)
                    .with_delays(20, 2),
            ),
            telemetry: telemetry.clone(),
        };
        let rel = run_threaded_with(topo, reliable(cfg), program);
        assert_eq!(plain, rel, "faulted run diverged from plain run");
        assert!(
            injected(&telemetry) > 0,
            "plan injected nothing — test is vacuous"
        );
        assert_eq!(
            telemetry.counter_value("comm.retry.timeouts").unwrap_or(0),
            0,
            "recoverable plan must not exhaust any retry budget"
        );
        // The ack phase mirrors counters as gauges of the same name.
        assert!(telemetry.gauge_value("comm.retry.injected_drops").is_some());
    }

    #[test]
    fn injected_faults_recover_ragged_exchanges() {
        // The dropless serve path rides these: a second seed over the
        // ragged exchanges alone, on both routes.
        let topo = Topology::new(2, 2);
        let program = |mut comm: Communicator| {
            let sends = ragged_sends(4, comm.rank());
            let a = ialltoall_v(&mut comm, sends.clone(), AllToAllAlgo::Linear).unwrap();
            let b = ialltoall_v(&mut comm, sends, AllToAllAlgo::TwoDh).unwrap();
            (a, b)
        };
        let plain = run_threaded(topo, program);
        let telemetry = Telemetry::enabled();
        let cfg = ReliableConfig {
            policy: fast_policy(6),
            plan: Some(
                FaultPlan::new(0xD0D0)
                    .with_drops(20)
                    .with_duplicates(20)
                    .with_delays(20, 2),
            ),
            telemetry: telemetry.clone(),
        };
        let rel = run_threaded_with(topo, reliable(cfg), program);
        assert_eq!(plain, rel, "faulted ragged run diverged");
        assert!(
            injected(&telemetry) > 0,
            "plan injected nothing — test is vacuous"
        );
    }

    #[test]
    fn exhausted_retries_fail_with_typed_timeout_and_no_leak() {
        for algo in AllToAllAlgo::ALL {
            let topo = Topology::new(1, 2);
            let telemetry = Telemetry::enabled();
            let cfg = ReliableConfig {
                policy: fast_policy(0),
                plan: Some(FaultPlan::new(9).with_drops(100)),
                telemetry: telemetry.clone(),
            };
            let started = std::time::Instant::now();
            let got = run_threaded_with(topo, reliable(cfg), |mut comm| {
                let mine = vec![vec![comm.rank() as f32]; 2];
                let r = ialltoall_v(&mut comm, mine, algo);
                (r, comm.parked_messages())
            });
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "clean failure must be bounded by the timeout, not a hang"
            );
            for (rank, (result, parked)) in got.into_iter().enumerate() {
                match result {
                    Err(CommError::Timeout { attempts, .. }) => assert_eq!(attempts, 1),
                    other => panic!("{algo:?} rank {rank}: expected Timeout, got {other:?}"),
                }
                assert_eq!(parked, 0, "rank {rank}: failed collective leaked mailbox");
            }
            assert!(telemetry.counter_value("comm.retry.timeouts").unwrap_or(0) >= 2);
        }
    }

    #[test]
    fn duplicates_are_discarded_by_receiver_dedupe() {
        let topo = Topology::new(1, 2);
        let bufs = labeled(2, 4);
        let bufs_ref = &bufs;
        let program = |mut comm: Communicator| {
            let rank = comm.rank();
            exchange(&mut comm, &bufs_ref[rank], AllToAllAlgo::Linear)
        };
        let plain = run_threaded(topo, program);
        let telemetry = Telemetry::enabled();
        let cfg = ReliableConfig {
            policy: fast_policy(4),
            plan: Some(FaultPlan::new(4).with_duplicates(100)),
            telemetry: telemetry.clone(),
        };
        let rel = run_threaded_with(topo, reliable(cfg), program);
        assert_eq!(plain, rel);
        assert!(
            telemetry
                .counter_value("comm.retry.dup_discards")
                .unwrap_or(0)
                > 0,
            "100% duplication must exercise the dedupe path"
        );
    }

    #[test]
    fn polled_linear_handle_matches_sequential_oracle() {
        let topo = Topology::new(2, 3);
        let bufs = labeled(6, 4);
        let bufs_ref = &bufs;
        let got = run_threaded(topo, |mut comm| {
            let sends = bufs_ref[comm.rank()]
                .chunks(4)
                .map(<[f32]>::to_vec)
                .collect();
            let mut h = comm.ialltoall_v(sends, AllToAllAlgo::Linear).unwrap();
            // A few polls are legal at any point before the wait.
            let _ = h.poll(&mut comm).unwrap();
            let _ = h.poll(&mut comm).unwrap();
            let out = h.wait(&mut comm).unwrap();
            assert_eq!(comm.parked_messages(), 0);
            out.concat()
        });
        assert_eq!(got, linear_all_to_all(&bufs));
    }

    #[test]
    fn polled_2dh_handle_matches_sequential_oracle() {
        let topo = Topology::new(2, 4);
        let bufs = labeled(8, 2);
        let bufs_ref = &bufs;
        let got = run_threaded(topo, |mut comm| {
            let sends = bufs_ref[comm.rank()]
                .chunks(2)
                .map(<[f32]>::to_vec)
                .collect();
            let mut h = comm.ialltoall_v(sends, AllToAllAlgo::TwoDh).unwrap();
            while !h.poll(&mut comm).unwrap() {
                std::thread::yield_now();
            }
            assert!(h.is_complete());
            let out = h.wait(&mut comm).unwrap();
            assert_eq!(comm.parked_messages(), 0);
            out.concat()
        });
        assert_eq!(got, two_dh_all_to_all(&bufs, &topo));
    }

    #[test]
    fn overlapped_handles_do_not_cross_talk() {
        // Two collectives in flight at once, drained in issue order,
        // with a third blocking collective afterwards on the same
        // communicator: payloads must not mix and the mailbox must be
        // clean at join.
        let topo = Topology::new(2, 2);
        let n = topo.world_size();
        let sends: Vec<_> = (0..n).map(|r| ragged_sends(n, r)).collect();
        let expect = ragged_all_to_all(&sends);
        let got = run_threaded(topo, |mut comm| {
            let rank = comm.rank();
            let b_in: Vec<Vec<f32>> = sends[rank]
                .iter()
                .map(|b| b.iter().map(|v| v + 0.5).collect())
                .collect();
            let mut ha = comm
                .ialltoall_v(sends[rank].clone(), AllToAllAlgo::Linear)
                .unwrap();
            let mut hb = comm.ialltoall_v(b_in, AllToAllAlgo::TwoDh).unwrap();
            let _ = hb.poll(&mut comm).unwrap();
            let _ = ha.poll(&mut comm).unwrap();
            let a = ha.wait(&mut comm).unwrap();
            let b = hb.wait(&mut comm).unwrap();
            let c = comm.all_to_all_v(&sends[rank]).unwrap();
            assert_eq!(comm.parked_messages(), 0);
            (a, b, c)
        });
        for (rank, (a, b, c)) in got.into_iter().enumerate() {
            let shifted: Vec<Vec<f32>> = expect[rank]
                .iter()
                .map(|b| b.iter().map(|v| v + 0.5).collect())
                .collect();
            assert_eq!(a, expect[rank], "rank {rank}: first handle");
            assert_eq!(b, shifted, "rank {rank}: second handle");
            assert_eq!(c, expect[rank], "rank {rank}: trailing blocking op");
        }
    }

    #[test]
    fn reliable_handles_recover_with_second_handle_in_flight() {
        // The overlap regression the tag-selective epilogue exists
        // for: handle B's sends are logged before handle A's epilogue
        // runs, so A's epilogue must not erase B's retransmit entries
        // — a peer that lost B's data recovers it by retry after A
        // closed.
        let topo = Topology::new(2, 2);
        let bufs = labeled(4, 3);
        let bufs_ref = &bufs;
        let program = |mut comm: Communicator| {
            let sends = comm.uniform_sends(&bufs_ref[comm.rank()]).unwrap();
            let ha = comm
                .ialltoall_v(sends.clone(), AllToAllAlgo::Linear)
                .unwrap();
            let hb = comm.ialltoall_v(sends, AllToAllAlgo::TwoDh).unwrap();
            let a = ha.wait(&mut comm).unwrap();
            let b = hb.wait(&mut comm).unwrap();
            assert_eq!(comm.parked_messages(), 0);
            (a, b)
        };
        let plain = run_threaded(topo, program);
        let telemetry = Telemetry::enabled();
        let cfg = ReliableConfig {
            policy: fast_policy(6),
            plan: Some(
                FaultPlan::new(0x0B5E)
                    .with_drops(30)
                    .with_duplicates(20)
                    .with_delays(20, 2),
            ),
            telemetry: telemetry.clone(),
        };
        let rel = run_threaded_with(topo, reliable(cfg), program);
        assert_eq!(plain, rel, "faulted overlapped run diverged");
        assert!(
            injected(&telemetry) > 0,
            "plan injected nothing — test is vacuous"
        );
        assert_eq!(
            telemetry.counter_value("comm.retry.timeouts").unwrap_or(0),
            0,
            "recoverable plan must not exhaust any retry budget"
        );
    }

    #[test]
    fn reliable_2dh_handle_matches_sequential_oracle() {
        let topo = Topology::new(2, 2);
        let bufs = labeled(4, 3);
        let bufs_ref = &bufs;
        let cfg = ReliableConfig {
            policy: fast_policy(6),
            plan: Some(FaultPlan::new(0x2D).with_drops(25).with_delays(25, 2)),
            telemetry: Telemetry::enabled(),
        };
        let got = run_threaded_with(topo, reliable(cfg), |mut comm| {
            let rank = comm.rank();
            exchange(&mut comm, &bufs_ref[rank], AllToAllAlgo::TwoDh)
        });
        assert_eq!(got, two_dh_all_to_all(&bufs, &topo));
    }

    fn traced(hub: &TraceHub, cfg: Option<ReliableConfig>) -> RunOpts<'_> {
        RunOpts {
            reliable: cfg,
            trace: Some(hub),
        }
    }

    #[test]
    fn traced_exchange_binds_every_send_to_a_recv() {
        let topo = Topology::new(2, 2);
        let bufs = labeled(4, 2);
        let bufs_ref = &bufs;
        let hub = TraceHub::new(4);
        let got = run_threaded_with(topo, traced(&hub, None), |mut comm| {
            let rank = comm.rank();
            exchange(&mut comm, &bufs_ref[rank], AllToAllAlgo::Linear)
        });
        assert_eq!(got, linear_all_to_all(&bufs));
        let merged = hub.merged();
        let inv = merged.check_invariants().expect("clean traced run");
        // 4 ranks each send to 3 peers, exactly once.
        assert_eq!(inv.edges, 12);
        assert_eq!(inv.cross_rank_edges, 12);
        assert_eq!(inv.retry_edges, 0);
        // An issue and a wait span per rank (plus nothing else on an
        // unreliable run — no ack phase).
        assert_eq!(inv.spans, 8);
        for edge in merged.flow_edges() {
            assert!(edge.accepted, "clean run must accept every edge");
            assert!(edge.latency_us() >= 0.0);
            assert_eq!(edge.seq, 0, "single transmission per identity");
        }
    }

    #[test]
    fn traced_2dh_handle_records_promotion_instant() {
        let topo = Topology::new(2, 2);
        let bufs = labeled(4, 2);
        let bufs_ref = &bufs;
        let hub = TraceHub::new(4);
        run_threaded_with(topo, traced(&hub, None), |mut comm| {
            let rank = comm.rank();
            exchange(&mut comm, &bufs_ref[rank], AllToAllAlgo::TwoDh)
        });
        let merged = hub.merged();
        merged.check_invariants().expect("clean traced run");
        for rank in &merged.ranks {
            let promoted = rank.events.iter().any(|e| {
                matches!(e, tutel_obs::TraceEvent::Instant { name, .. } if name == "2dh.promote")
            });
            assert!(promoted, "rank {} never promoted phases", rank.rank);
        }
    }

    #[test]
    fn traced_duplicates_become_distinct_rejected_edges() {
        let topo = Topology::new(1, 2);
        let bufs = labeled(2, 4);
        let bufs_ref = &bufs;
        let hub = TraceHub::new(2);
        let cfg = ReliableConfig {
            policy: fast_policy(4),
            plan: Some(FaultPlan::new(4).with_duplicates(100)),
            telemetry: Telemetry::disabled(),
        };
        let got = run_threaded_with(topo, traced(&hub, Some(cfg)), |mut comm| {
            let rank = comm.rank();
            exchange(&mut comm, &bufs_ref[rank], AllToAllAlgo::Linear)
        });
        assert_eq!(got, linear_all_to_all(&bufs));
        let merged = hub.merged();
        merged.check_invariants().expect("duplicated traced run");
        let edges = merged.flow_edges();
        let dup_rejected = edges
            .iter()
            .filter(|e| e.kind == FlowKind::Data && !e.accepted)
            .count();
        // Each rank's one data send was transmitted twice: the second
        // copy must appear as its own (seq 1) edge, marked rejected.
        assert_eq!(dup_rejected, 2);
        assert!(edges.iter().any(|e| e.kind == FlowKind::Data && e.seq == 1));
    }

    #[test]
    fn traced_delays_keep_the_logical_send_stamp() {
        let topo = Topology::new(1, 2);
        let bufs = labeled(2, 4);
        let bufs_ref = &bufs;
        let hub = TraceHub::new(2);
        let cfg = ReliableConfig {
            // A generous timeout so no retry fires: the delayed copy
            // itself (flushed at rank 1's ack phase) is the accepted
            // delivery.
            policy: RetryPolicy {
                timeout: Duration::from_millis(500),
                max_retries: 2,
                backoff: 2,
            },
            plan: Some(FaultPlan::new(4).with_delays(100, 1).only_from(1)),
            telemetry: Telemetry::disabled(),
        };
        let got = run_threaded_with(topo, traced(&hub, Some(cfg)), |mut comm| {
            let rank = comm.rank();
            exchange(&mut comm, &bufs_ref[rank], AllToAllAlgo::Linear)
        });
        assert_eq!(got, linear_all_to_all(&bufs));
        let merged = hub.merged();
        // The flush reuses the seq assigned at logical send time, so
        // the delayed copy still binds exactly one send/recv pair.
        merged.check_invariants().expect("delayed traced run");
        let delayed: Vec<_> = merged
            .flow_edges()
            .into_iter()
            .filter(|e| e.kind == FlowKind::Data && e.src == 1)
            .collect();
        assert_eq!(delayed.len(), 1);
        assert!(delayed[0].accepted);
        assert_eq!(delayed[0].seq, 0);
        // The edge spans the whole in-flight window: stamped when
        // rank 1 logically sent, received after the (late) flush.
        assert!(delayed[0].latency_us() >= 0.0);
    }

    #[test]
    fn untraced_runs_never_touch_seq_counters() {
        let topo = Topology::new(1, 2);
        let counts = run_threaded(topo, |mut comm| {
            let mine = [comm.rank() as f32; 2];
            exchange(&mut comm, &mine, AllToAllAlgo::Linear);
            comm.send_seqs.borrow().len()
        });
        assert_eq!(counts, vec![0, 0]);
    }
}
