//! Tracing from outside the program: an actor wrapper that times each
//! step and counts what crosses it, and a timed journal storage.
//!
//! [`Traced`] re-hosts the inner actor's [`RoundCtx`] the way
//! `ServiceReplica::on_round` hosts its log: a fresh context over the
//! same inbox, then the inner outbox forwarded through `send` /
//! `broadcast` in order. The runtime therefore sees exactly the messages
//! it would see without the wrapper.

use crate::measure::{thread_cpu, Rng, Samples};
use meba_crypto::ProcessId;
use meba_journal::Storage;
use meba_sim::{Actor, AnyActor, Dest, Message, Round, RoundCtx};
use std::io;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Outbound messages each traced actor keeps for the codec replay.
const SAMPLE_PER_ACTOR: usize = 8;

/// What one actor's steps cost and carried.
#[derive(Clone, Debug)]
pub struct StepStats<M> {
    pub steps: u64,
    /// Steps with an empty inbox that also sent nothing.
    pub idle_steps: u64,
    /// Inbox entries handed to the actor.
    pub deliveries: u64,
    /// Outbox entries (a broadcast is one message).
    pub msgs_out: u64,
    /// Copies put on links (a broadcast is `n - 1` copies).
    pub copies_out: u64,
    /// Words over all copies, as the runtimes count them.
    pub words_out: u64,
    /// Constituent signatures in delivered messages.
    pub sigs_in: u64,
    /// Messages and words (over copies) tagged by the fallback protocols.
    pub fallback_msgs: u64,
    pub fallback_words: u64,
    /// Total time inside the inner `on_round`.
    pub step_ns: u64,
    /// Total CPU time of the stepping thread inside the inner `on_round`
    /// (only with [`Traced::with_cpu_clock`]).
    pub step_cpu_ns: u64,
    /// Durations of the steps that were not idle.
    pub busy_ns: Vec<u32>,
    /// A reservoir sample of outbound messages.
    pub sample: Vec<M>,
    seen: u64,
    rng: Rng,
}

impl<M> StepStats<M> {
    fn new(id: ProcessId) -> Self {
        StepStats {
            steps: 0,
            idle_steps: 0,
            deliveries: 0,
            msgs_out: 0,
            copies_out: 0,
            words_out: 0,
            sigs_in: 0,
            fallback_msgs: 0,
            fallback_words: 0,
            step_ns: 0,
            step_cpu_ns: 0,
            busy_ns: Vec::new(),
            sample: Vec::new(),
            seen: 0,
            rng: Rng::new(0x7ace ^ u64::from(id.0)),
        }
    }
}

/// Sums of [`StepStats`] over a set of actors.
#[derive(Clone, Debug, Default)]
pub struct LayerTotals {
    pub steps: u64,
    pub idle_steps: u64,
    pub deliveries: u64,
    pub msgs_out: u64,
    pub copies_out: u64,
    pub words_out: u64,
    pub sigs_in: u64,
    pub fallback_msgs: u64,
    pub fallback_words: u64,
    pub step_ns: u64,
    pub step_cpu_ns: u64,
    pub busy_ns: Samples,
}

impl LayerTotals {
    pub fn add<M>(&mut self, s: &StepStats<M>) {
        self.steps += s.steps;
        self.idle_steps += s.idle_steps;
        self.deliveries += s.deliveries;
        self.msgs_out += s.msgs_out;
        self.copies_out += s.copies_out;
        self.words_out += s.words_out;
        self.sigs_in += s.sigs_in;
        self.fallback_msgs += s.fallback_msgs;
        self.fallback_words += s.fallback_words;
        self.step_ns += s.step_ns;
        self.step_cpu_ns += s.step_cpu_ns;
        for &ns in &s.busy_ns {
            self.busy_ns.push(f64::from(ns));
        }
    }
}

/// Times and counts every step of the wrapped actor.
pub struct Traced<M: Message> {
    inner: Box<dyn AnyActor<Msg = M>>,
    stats: StepStats<M>,
    cpu_clock: bool,
}

impl<M: Message> Traced<M> {
    pub fn new(inner: Box<dyn AnyActor<Msg = M>>) -> Self {
        let stats = StepStats::new(inner.id());
        Traced { inner, stats, cpu_clock: false }
    }

    /// Also reads the thread's CPU clock around each step, for runtimes
    /// whose steps block on I/O (a syscall per read, so not for the DES).
    pub fn with_cpu_clock(inner: Box<dyn AnyActor<Msg = M>>) -> Self {
        Traced { cpu_clock: true, ..Self::new(inner) }
    }

    /// The wrapped actor, for the downcast-based decision helpers.
    pub fn inner(&self) -> &dyn AnyActor<Msg = M> {
        self.inner.as_ref()
    }

    pub fn stats(&self) -> &StepStats<M> {
        &self.stats
    }

    fn keep_sample(&mut self, msg: &M) {
        let s = &mut self.stats;
        s.seen += 1;
        if s.sample.len() < SAMPLE_PER_ACTOR {
            s.sample.push(msg.clone());
        } else {
            let j = s.rng.below(s.seen) as usize;
            if j < SAMPLE_PER_ACTOR {
                s.sample[j] = msg.clone();
            }
        }
    }
}

impl<M: Message> Actor for Traced<M> {
    type Msg = M;

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, M>) {
        let n = ctx.n() as u64;
        let me = ctx.me();
        let inbox = ctx.inbox();
        let mut inner = RoundCtx::new(ctx.round(), ctx.me(), ctx.n(), inbox);
        let cpu0 = self.cpu_clock.then(thread_cpu);
        let t0 = Instant::now();
        self.inner.on_round(&mut inner);
        let ns = t0.elapsed().as_nanos() as u64;
        if let Some(cpu0) = cpu0 {
            self.stats.step_cpu_ns += (thread_cpu() - cpu0).as_nanos() as u64;
        }
        let out = inner.take_outbox();

        let s = &mut self.stats;
        s.steps += 1;
        s.step_ns += ns;
        s.deliveries += inbox.len() as u64;
        s.sigs_in += inbox.iter().map(|e| e.msg.constituent_sigs()).sum::<u64>();
        if inbox.is_empty() && out.is_empty() {
            s.idle_steps += 1;
        } else {
            s.busy_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
        }
        for (dest, msg) in &out {
            // Counted as the runtimes count them: one copy per link, none
            // for the self-delivery, and at least one word per copy.
            let copies = match dest {
                Dest::To(p) => u64::from(*p != me),
                Dest::All => n - 1,
            };
            let words = copies * msg.words().max(1);
            let s = &mut self.stats;
            s.msgs_out += 1;
            s.copies_out += copies;
            s.words_out += words;
            if matches!(msg.component(), "fallback" | "dolev-strong") {
                s.fallback_msgs += 1;
                s.fallback_words += words;
            }
            self.keep_sample(msg);
        }
        for (dest, msg) in out {
            match dest {
                Dest::To(p) => ctx.send(p, msg),
                Dest::All => ctx.broadcast(msg),
            }
        }
    }

    fn done(&self) -> bool {
        self.inner.done()
    }

    fn refused_equivocations(&self) -> u64 {
        self.inner.refused_equivocations()
    }

    fn on_rejoin(&mut self, round: Round) {
        self.inner.on_rejoin(round);
    }
}

/// Peels a [`Traced`] layer off `a`, if there is one.
pub fn untraced<M: Message>(a: &dyn AnyActor<Msg = M>) -> &dyn AnyActor<Msg = M> {
    match a.as_any().downcast_ref::<Traced<M>>() {
        Some(t) => t.inner(),
        None => a,
    }
}

/// Append and sync timings of one or more journals.
#[derive(Clone, Debug, Default)]
pub struct JournalTrace {
    pub append_ns: Samples,
    pub sync_us: Samples,
    pub bytes: u64,
}

pub type SharedJournalTrace = Arc<Mutex<JournalTrace>>;

/// A [`Storage`] that times each append and sync of the storage it wraps.
pub struct TimedStorage {
    inner: Box<dyn Storage>,
    trace: SharedJournalTrace,
}

impl TimedStorage {
    pub fn new(inner: Box<dyn Storage>, trace: SharedJournalTrace) -> Self {
        TimedStorage { inner, trace }
    }
}

impl Storage for TimedStorage {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let t0 = Instant::now();
        let r = self.inner.append(bytes);
        let ns = t0.elapsed().as_nanos() as f64;
        let mut t = self.trace.lock().expect("journal trace lock poisoned");
        t.append_ns.push(ns);
        t.bytes += bytes.len() as u64;
        r
    }

    fn sync(&mut self) -> io::Result<()> {
        let t0 = Instant::now();
        let r = self.inner.sync();
        let us = t0.elapsed().as_nanos() as f64 / 1e3;
        self.trace.lock().expect("journal trace lock poisoned").sync_us.push(us);
        r
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.inner.read_all()
    }

    fn reset(&mut self) -> io::Result<()> {
        self.inner.reset()
    }
}
