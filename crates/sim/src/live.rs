//! The one round body: every backend — this crate's lockstep
//! [`crate::Simulation`], and `meba-engine`'s discrete-event, threaded and
//! TCP backends — executes protocol rounds through [`run_live_round`], so
//! inbox partitioning, word/byte/link accounting and send-edge fault
//! application exist in exactly one place.
//!
//! A backend supplies a [`Transport`] (how copies move) and decides when
//! each process runs a round; everything that happens *inside* a round
//! is here.

use crate::actor::{Dest, Envelope, Message, RoundCtx};
use crate::faults::{Link, LinkFate, LinkPolicy};
use crate::metrics::Metrics;
use crate::round::Round;
use crate::runner::AnyActor;
use meba_crypto::ProcessId;
use std::collections::BTreeMap;

/// A message in flight, tagged with its authenticated sender and the
/// round it was sent in. The round tag is what makes the synchronous
/// abstraction portable: every backend delivers a message to the round
/// *after* its `sent_round`, however the bytes actually moved.
pub struct Delivery<M> {
    /// Link-level sender.
    pub from: ProcessId,
    /// Round the message was sent in.
    pub sent_round: u64,
    /// The payload.
    pub msg: M,
}

/// One process's view of the network: [`run_live_round`] is generic over
/// this trait, and each backend (lockstep mailboxes, crossbeam channels,
/// TCP mesh, discrete-event queue) supplies its own implementation.
///
/// Implementations carry copies; *all* word/byte accounting, link-fault
/// application, and round bookkeeping happen in [`run_live_round`], once,
/// above this trait.
pub trait Transport<M: Message> {
    /// Sends `msg` to `to`, tagged with `sent_round`. Self-sends
    /// (`to == me`) must loop back like any other delivery. May block
    /// under backpressure; may silently drop if the peer is gone (the run
    /// is over for that peer).
    fn send(&mut self, to: ProcessId, sent_round: u64, msg: &M);

    /// Moves every delivery that has arrived so far into `out`,
    /// preserving arrival order.
    fn drain(&mut self, out: &mut Vec<Delivery<M>>);

    /// Whether `d`, drained during its own `sent_round`, is admitted into
    /// that same round instead of the next. Only the lockstep simulator's
    /// rushing adversary says yes (a correct sender's copy to a corrupt
    /// recipient); every other backend keeps this default.
    fn rushed(&self, _d: &Delivery<M>) -> bool {
        false
    }

    /// Tears down the directed link to `to` (TCP: closes the socket so
    /// the reconnect path runs). In-memory backends have nothing to tear
    /// down.
    fn sever(&mut self, _to: ProcessId) {}

    /// Full local teardown at a crash: the process lost its volatile
    /// state; a socket backend severs every peer link so peers observe
    /// resets. The round body separately discards buffered deliveries.
    fn crash(&mut self) {}

    /// Times a send blocked on a full link so far (folded into the
    /// cluster report's backpressure counter at the end of the run).
    fn backpressure(&self) -> u64 {
        0
    }

    /// Releases the transport at the end of the run (TCP: shuts the mesh
    /// down on the owning thread).
    fn finish(self)
    where
        Self: Sized,
    {
    }
}

/// Per-process round-loop state that persists across rounds: deliveries
/// received early (for a later round) and fault-delayed outbound
/// messages keyed by their transmit round.
pub struct RoundState<M: Message> {
    buffer: Vec<Delivery<M>>,
    pending: BTreeMap<u64, Vec<(ProcessId, u64, M)>>,
    // Scratch storage reused across rounds so the steady-state round
    // body allocates nothing: this round's inbox, the kept-for-later
    // deliveries, and the distinct-sender marks of `ready_senders`
    // (generation-stamped so clearing is a counter bump).
    inbox_scratch: Vec<Envelope<M>>,
    keep_scratch: Vec<Delivery<M>>,
    seen_gen: u64,
    seen_mark: Vec<u64>,
}

impl<M: Message> RoundState<M> {
    /// Empty state, as at process start (and after a crash).
    pub fn new() -> Self {
        RoundState {
            buffer: Vec::new(),
            pending: BTreeMap::new(),
            inbox_scratch: Vec::new(),
            keep_scratch: Vec::new(),
            seen_gen: 0,
            seen_mark: Vec::new(),
        }
    }

    /// Forgets everything a crash loses: buffered deliveries and pending
    /// fault-delayed sends.
    pub fn clear(&mut self) {
        self.buffer.clear();
        self.pending.clear();
        self.inbox_scratch.clear();
        self.keep_scratch.clear();
    }

    /// A dead round: drains the transport and drops everything that
    /// arrived, unadmitted and uncounted.
    pub fn discard_inbound(&mut self, transport: &mut dyn Transport<M>) {
        transport.drain(&mut self.buffer);
        self.buffer.clear();
    }

    /// How many distinct senders (including `me` itself) have already
    /// produced the information that makes `round` ready: deliveries
    /// buffered with `sent_round + 1 ≥ round`, i.e. traffic from the
    /// immediately preceding round or later. `me` always counts — a
    /// process trivially holds its own prior-round state, whether or not
    /// a self-delivery happens to sit in the buffer. This is the quorum
    /// test of the engine's event-driven quorum-or-timeout driver —
    /// reaching its quorum here means the process holds everything
    /// quorum logic can use from round `round - 1`, so it may advance
    /// early. Because `sent_round ≥ round` traffic also counts, the same
    /// test doubles as *catch-up*: a process that fell behind (timeout
    /// backoff, a long GC pause on a paced backend) and holds a quorum's
    /// worth of later-round traffic fast-forwards instead of crawling
    /// timer by timer.
    ///
    /// Drains the transport into the persistent buffer as a side effect;
    /// nothing is admitted or discarded (admission stays inside
    /// [`run_live_round`], so calling this never changes what a later
    /// round execution observes — only *when* it runs).
    pub fn ready_senders(
        &mut self,
        me: ProcessId,
        round: u64,
        transport: &mut dyn Transport<M>,
    ) -> usize {
        transport.drain(&mut self.buffer);
        if self.buffer.is_empty() {
            return 1; // `me` always counts
        }
        self.seen_gen += 1;
        let gen = self.seen_gen;
        self.mark(me, gen);
        let mut count = 1usize;
        for idx in 0..self.buffer.len() {
            let d = &self.buffer[idx];
            if d.sent_round + 1 >= round {
                let from = d.from;
                if self.mark(from, gen) {
                    count += 1;
                }
            }
        }
        count
    }

    /// Stamps `p` with `gen`; true when `p` was not yet stamped.
    fn mark(&mut self, p: ProcessId, gen: u64) -> bool {
        let idx = p.index();
        if idx >= self.seen_mark.len() {
            self.seen_mark.resize(idx + 1, 0);
        }
        if self.seen_mark[idx] == gen {
            false
        } else {
            self.seen_mark[idx] = gen;
            true
        }
    }
}

impl<M: Message> Default for RoundState<M> {
    fn default() -> Self {
        Self::new()
    }
}

/// Executes one *live* round for `actor` over `transport`:
///
/// 1. transmit fault-delayed messages whose release round arrived (they
///    keep their original `sent_round`, so the recipient sees them past
///    the synchrony bound);
/// 2. drain the transport and partition deliveries by
///    `sent_round < round` (or [`Transport::rushed`]) into this round's
///    inbox, recording per-link deliveries;
/// 3. step the actor;
/// 4. dispatch its outbox: self-delivery is process memory (no policy, no
///    per-link stats, no word accounting); every remote copy is judged by
///    `policy` and recorded (words, constituent sigs, bytes, per-link
///    sent/dropped/delayed) whether or not it is ultimately transmitted.
///
/// Returns the round's [`LiveRoundOutcome`]: `actor.done()` after the
/// step plus how many admitted deliveries had already missed their
/// intended round. This function is the one implementation of the round
/// body for every backend, and the one place that records per-copy
/// words and per-link stats.
#[allow(clippy::too_many_arguments)]
pub fn run_live_round<M: Message>(
    actor: &mut dyn AnyActor<Msg = M>,
    transport: &mut dyn Transport<M>,
    state: &mut RoundState<M>,
    policy: &mut Option<Box<dyn LinkPolicy>>,
    round: u64,
    n: usize,
    sender_correct: bool,
    metrics: &mut Metrics,
) -> LiveRoundOutcome {
    let me = actor.id();
    let i = me.index();

    if !state.pending.is_empty() {
        if let Some(due) = state.pending.remove(&round) {
            for (to, sent_round, msg) in due {
                transport.send(to, sent_round, &msg);
            }
        }
    }

    transport.drain(&mut state.buffer);
    let mut inbox = std::mem::take(&mut state.inbox_scratch);
    let mut keep = std::mem::take(&mut state.keep_scratch);
    inbox.clear();
    keep.clear();
    let mut late_admitted = 0u64;
    for d in state.buffer.drain(..) {
        if d.sent_round < round || transport.rushed(&d) {
            if d.from != me {
                metrics.link_mut(d.from, me).delivered += 1;
                // A round-`r` message belongs in round `r + 1`;
                // admission later than that means the local round
                // counter outpaced this link (mis-estimated δ, schedule
                // drift, a pre-GST delay, or a fault-delayed send —
                // indistinguishable locally).
                if d.sent_round + 1 < round {
                    late_admitted += 1;
                }
            }
            inbox.push(Envelope { from: d.from, msg: d.msg });
        } else {
            keep.push(d);
        }
    }
    // Keep both allocations alive: the drained buffer becomes the next
    // round's keep scratch and vice versa.
    std::mem::swap(&mut state.buffer, &mut keep);
    state.keep_scratch = keep;

    let mut ctx = RoundCtx::new(Round(round), me, n, &inbox);
    actor.on_round(&mut ctx);
    let outbox = ctx.take_outbox();
    for (dest, msg) in outbox {
        let words = msg.words().max(1);
        let sigs = msg.constituent_sigs();
        let bytes = msg.wire_bytes();
        let component = msg.component();
        let session = msg.session();
        let targets = match dest {
            Dest::To(p) if p.index() < n => p.index()..p.index() + 1,
            Dest::To(_) => 0..0,
            Dest::All => 0..n,
        };
        for target in targets {
            if target == i {
                // Self-delivery: process memory, not a link — no policy,
                // no per-link stats, no word accounting.
                transport.send(me, round, &msg);
                continue;
            }
            let to = ProcessId(target as u32);
            let fate = match policy {
                Some(p) => p.fate(Link { from: me, to }, round),
                None => LinkFate::Deliver,
            };
            metrics.record(me, sender_correct, component, session, round, words, sigs, bytes);
            let stats = metrics.link_mut(me, to);
            stats.sent += 1;
            stats.bytes += bytes;
            match fate {
                LinkFate::Deliver => transport.send(to, round, &msg),
                LinkFate::Drop => stats.dropped += 1,
                LinkFate::DelayRounds(k) => {
                    stats.delayed += 1;
                    state.pending.entry(round + k).or_default().push((to, round, msg.clone()));
                }
                LinkFate::Sever => {
                    stats.dropped += 1;
                    transport.sever(to);
                }
            }
        }
    }
    // Return the inbox's allocation for the next round (its envelopes
    // were only borrowed by the actor through `RoundCtx`).
    inbox.clear();
    state.inbox_scratch = inbox;
    LiveRoundOutcome { done: actor.done(), late_admitted }
}

/// What one [`run_live_round`] execution observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LiveRoundOutcome {
    /// `actor.done()` after the step.
    pub done: bool,
    /// Remote deliveries admitted this round that had already missed
    /// their intended round (`sent_round + 1 < round`) — the local
    /// evidence of a δ-estimate outpacing the network that the
    /// event-driven backends feed into timeout backoff.
    pub late_admitted: u64,
}
