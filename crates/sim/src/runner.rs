//! The lockstep simulation loop.
//!
//! One [`Simulation`] drives `n` actors through synchronous rounds:
//! messages sent in round `r` are delivered to correct processes in round
//! `r + 1` (`δ = 1` round). Byzantine actors are scheduled *after* correct
//! actors within a round and receive correct processes' round-`r`
//! messages already in round `r` — the standard rushing adversary.
//!
//! Every round of every actor runs through [`run_live_round`], the round
//! body the other backends share; the simulator only contributes the
//! wave schedule and an in-memory [`Transport`] whose one special rule is
//! rushing.
//!
//! Determinism: actors are stepped in identity order within each wave, and
//! nothing in the loop consults ambient randomness, so a run is a pure
//! function of the actors' initial states.

use crate::actor::{Actor, Message};
use crate::live::{run_live_round, Delivery, RoundState, Transport};
use crate::metrics::Metrics;
use crate::round::Round;
use crate::trace::{Trace, TraceEvent};
use meba_crypto::ProcessId;
use std::any::Any;
use std::error::Error;
use std::fmt;

/// Error returned when a run does not complete.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RunError {
    /// The round budget was exhausted before every correct actor reported
    /// [`Actor::done`].
    ExceededMaxRounds {
        /// Budget that was exceeded.
        max_rounds: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::ExceededMaxRounds { max_rounds } => {
                write!(f, "correct actors not done within {max_rounds} rounds")
            }
        }
    }
}

impl Error for RunError {}

/// A boxed actor with runtime downcasting support.
pub trait AnyActor: Actor {
    /// Upcasts to [`Any`] for post-run inspection.
    fn as_any(&self) -> &dyn Any;
}

impl<T: Actor + Any> AnyActor for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Builder for a [`Simulation`].
pub struct SimBuilder<M: Message> {
    actors: Vec<Box<dyn AnyActor<Msg = M>>>,
    corrupt: Vec<bool>,
    crash_at: Vec<Option<u64>>,
    trace_capacity: Option<usize>,
}

impl<M: Message> fmt::Debug for SimBuilder<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimBuilder").field("n", &self.actors.len()).finish_non_exhaustive()
    }
}

impl<M: Message> SimBuilder<M> {
    /// Starts a builder for a system of the given actors.
    ///
    /// Actors must be supplied in identity order `p0, p1, …` (validated by
    /// [`SimBuilder::build`]).
    pub fn new(actors: Vec<Box<dyn AnyActor<Msg = M>>>) -> Self {
        let n = actors.len();
        SimBuilder {
            actors,
            corrupt: vec![false; n],
            crash_at: vec![None; n],
            trace_capacity: None,
        }
    }

    /// Marks `id` as Byzantine: its traffic is excluded from protocol
    /// complexity and it is scheduled in the rushing wave.
    pub fn corrupt(mut self, id: ProcessId) -> Self {
        self.corrupt[id.index()] = true;
        self
    }

    /// Records up to `capacity` message-delivery events for post-run
    /// inspection (see [`crate::trace::Trace`]). Off by default.
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Crashes `id` at the start of `round`: the actor runs the honest
    /// protocol **with honest scheduling** until then, and is silenced by
    /// the network from `round` on — it runs no more rounds and whatever
    /// reaches it is discarded. This models the adaptive adversary
    /// corrupting a process mid-run by crashing it — unlike wrapping a
    /// Byzantine actor, the pre-crash behaviour is exactly a correct
    /// process's (it is not rushed).
    ///
    /// Words the process sends before its crash round count toward
    /// correct-process complexity (it *was* correct when it sent them);
    /// the process is excluded from termination detection.
    pub fn crash_at(mut self, id: ProcessId, round: u64) -> Self {
        self.crash_at[id.index()] = Some(round);
        self
    }

    /// Finishes the builder.
    ///
    /// # Panics
    ///
    /// Panics if the actors' ids are not exactly `p0..p(n-1)` in order —
    /// that is a harness bug, not a runtime condition.
    pub fn build(self) -> Simulation<M> {
        let n = self.actors.len();
        assert!(n > 0, "simulation needs at least one actor");
        for (i, a) in self.actors.iter().enumerate() {
            assert_eq!(a.id().index(), i, "actor {i} has id {}", a.id());
        }
        Simulation {
            actors: self.actors,
            corrupt: self.corrupt,
            crash_at: self.crash_at,
            states: (0..n).map(|_| RoundState::new()).collect(),
            mailboxes: (0..n).map(|_| Vec::new()).collect(),
            round: Round(0),
            metrics: Metrics::default(),
            trace: self.trace_capacity.map(Trace::with_capacity),
        }
    }
}

/// A deterministic lockstep simulation of `n` processes.
pub struct Simulation<M: Message> {
    actors: Vec<Box<dyn AnyActor<Msg = M>>>,
    corrupt: Vec<bool>,
    crash_at: Vec<Option<u64>>,
    states: Vec<RoundState<M>>,
    /// Copies sent to each process and not yet drained by it.
    mailboxes: Vec<Vec<Delivery<M>>>,
    round: Round,
    metrics: Metrics,
    trace: Option<Trace>,
}

impl<M: Message> fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("n", &self.actors.len())
            .field("round", &self.round)
            .finish_non_exhaustive()
    }
}

/// One process's end of the simulator's in-memory network. A copy lands
/// in its recipient's mailbox at once; the round body's `sent_round`
/// partition then holds it for the next round — except a correct
/// sender's copy to a corrupt recipient, which the corrupt recipient's
/// wave-2 execution admits in the same round (rushing).
struct Lockstep<'a, M> {
    me: ProcessId,
    mailboxes: &'a mut [Vec<Delivery<M>>],
    corrupt: &'a [bool],
    trace: Option<&'a mut Trace>,
}

impl<M: Message> Transport<M> for Lockstep<'_, M> {
    fn send(&mut self, to: ProcessId, sent_round: u64, msg: &M) {
        if to != self.me {
            if let Some(trace) = self.trace.as_deref_mut() {
                trace.record(TraceEvent {
                    round: sent_round,
                    from: self.me,
                    to,
                    component: msg.component().to_string(),
                    words: msg.words().max(1),
                    sender_correct: !self.corrupt[self.me.index()],
                });
            }
        }
        self.mailboxes[to.index()].push(Delivery { from: self.me, sent_round, msg: msg.clone() });
    }

    fn drain(&mut self, out: &mut Vec<Delivery<M>>) {
        out.append(&mut self.mailboxes[self.me.index()]);
    }

    fn rushed(&self, d: &Delivery<M>) -> bool {
        self.corrupt[self.me.index()] && !self.corrupt[d.from.index()]
    }
}

impl<M: Message> Simulation<M> {
    /// System size.
    pub fn n(&self) -> usize {
        self.actors.len()
    }

    /// The round about to be executed.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The event trace, if enabled via [`SimBuilder::trace`].
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Whether `id` was marked Byzantine.
    pub fn is_corrupt(&self, id: ProcessId) -> bool {
        self.corrupt[id.index()]
    }

    /// Immutable view of an actor, for post-run inspection.
    ///
    /// # Examples
    ///
    /// Downcast to the concrete protocol type:
    ///
    /// ```ignore
    /// let bb: &BbProcess<u64> = sim.actor(ProcessId(0)).as_any().downcast_ref().unwrap();
    /// ```
    pub fn actor(&self, id: ProcessId) -> &dyn AnyActor<Msg = M> {
        self.actors[id.index()].as_ref()
    }

    /// Executes a single synchronous round: wave 1 runs the correct
    /// actors, wave 2 the corrupt ones, each in identity order. Running
    /// corrupt actors last is what lets them rush.
    pub fn step(&mut self) {
        let n = self.actors.len();
        let round = self.round.as_u64();
        for wave_corrupt in [false, true] {
            for i in (0..n).filter(|&i| self.corrupt[i] == wave_corrupt) {
                let mut port = Lockstep {
                    me: ProcessId(i as u32),
                    mailboxes: &mut self.mailboxes,
                    corrupt: &self.corrupt,
                    trace: self.trace.as_mut(),
                };
                if self.crash_at[i].is_some_and(|r| round >= r) {
                    // Network-level crash: silent from its crash round.
                    self.states[i].discard_inbound(&mut port);
                    continue;
                }
                run_live_round(
                    self.actors[i].as_mut(),
                    &mut port,
                    &mut self.states[i],
                    &mut None,
                    round,
                    n,
                    !wave_corrupt,
                    &mut self.metrics,
                );
            }
        }
        self.round = Round(round + 1);
        self.metrics.rounds = round + 1;
    }

    /// Runs until every **correct** actor reports done, or the budget runs
    /// out.
    ///
    /// # Errors
    ///
    /// [`RunError::ExceededMaxRounds`] if correct actors are not all done
    /// within `max_rounds` — in a correct protocol under a valid adversary
    /// this indicates a termination bug.
    pub fn run_until_done(&mut self, max_rounds: u64) -> Result<(), RunError> {
        for _ in 0..max_rounds {
            if self.correct_done() {
                return Ok(());
            }
            self.step();
        }
        if self.correct_done() {
            Ok(())
        } else {
            Err(RunError::ExceededMaxRounds { max_rounds })
        }
    }

    /// Runs exactly `rounds` rounds.
    pub fn run_rounds(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Whether all correct actors report done (crash-scheduled actors are
    /// excluded: they count as faulty).
    pub fn correct_done(&self) -> bool {
        self.actors
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.corrupt[*i] && self.crash_at[*i].is_none())
            .all(|(_, a)| a.done())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::RoundCtx;

    #[derive(Clone, Debug)]
    enum Ping {
        Hello(u64),
    }
    impl Message for Ping {
        fn words(&self) -> u64 {
            2
        }
        fn constituent_sigs(&self) -> u64 {
            1
        }
        fn component(&self) -> &'static str {
            "ping"
        }
    }

    /// Broadcasts once in round 0, then records everything it hears.
    struct Chatter {
        id: ProcessId,
        heard: Vec<(ProcessId, u64)>,
        rounds_seen: u64,
    }

    impl Actor for Chatter {
        type Msg = Ping;
        fn id(&self) -> ProcessId {
            self.id
        }
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Ping>) {
            self.rounds_seen += 1;
            if ctx.round() == Round(0) {
                ctx.broadcast(Ping::Hello(self.id.0 as u64));
            }
            for e in ctx.inbox() {
                let Ping::Hello(v) = e.msg;
                self.heard.push((e.from, v));
            }
        }
        fn done(&self) -> bool {
            self.heard.len() >= 3
        }
    }

    fn chatters(n: usize) -> Vec<Box<dyn AnyActor<Msg = Ping>>> {
        (0..n)
            .map(|i| {
                Box::new(Chatter { id: ProcessId(i as u32), heard: vec![], rounds_seen: 0 })
                    as Box<dyn AnyActor<Msg = Ping>>
            })
            .collect()
    }

    #[test]
    fn broadcast_delivers_next_round_to_everyone() {
        let mut sim = SimBuilder::new(chatters(3)).build();
        sim.step();
        sim.step();
        for i in 0..3u32 {
            let c: &Chatter = sim.actor(ProcessId(i)).as_any().downcast_ref().unwrap();
            assert_eq!(c.heard.len(), 3, "p{i} should hear all 3 broadcasts (incl. self)");
        }
    }

    #[test]
    fn words_exclude_self_delivery() {
        let mut sim = SimBuilder::new(chatters(3)).build();
        sim.step();
        // 3 broadcasts × 2 remote recipients × 2 words.
        assert_eq!(sim.metrics().correct.words, 12);
        assert_eq!(sim.metrics().correct.messages, 6);
        assert_eq!(sim.metrics().correct.constituent_sigs, 6);
        assert_eq!(sim.metrics().by_component["ping"].words, 12);
    }

    #[test]
    fn corrupt_words_counted_separately() {
        let mut sim = SimBuilder::new(chatters(3)).corrupt(ProcessId(1)).build();
        sim.step();
        assert_eq!(sim.metrics().correct.words, 8); // 2 correct broadcasters × 2 × 2
        assert_eq!(sim.metrics().byzantine.words, 4);
    }

    #[test]
    fn run_until_done_stops_early() {
        let mut sim = SimBuilder::new(chatters(3)).build();
        sim.run_until_done(100).unwrap();
        assert_eq!(sim.round(), Round(2));
    }

    #[test]
    fn run_until_done_errors_on_stall() {
        // One actor can never hear 3 messages in a 1-process system.
        let mut sim = SimBuilder::new(chatters(1)).build();
        let err = sim.run_until_done(5).unwrap_err();
        assert_eq!(err, RunError::ExceededMaxRounds { max_rounds: 5 });
    }

    /// A Byzantine echoer that, under rushing, can echo a correct
    /// process's round-r message already in round r.
    struct RushEcho {
        id: ProcessId,
        echoed_at: Option<u64>,
    }
    impl Actor for RushEcho {
        type Msg = Ping;
        fn id(&self) -> ProcessId {
            self.id
        }
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Ping>) {
            if self.echoed_at.is_none() && !ctx.inbox().is_empty() {
                self.echoed_at = Some(ctx.round().as_u64());
            }
        }
    }

    #[test]
    fn rushing_delivers_in_round() {
        let actors: Vec<Box<dyn AnyActor<Msg = Ping>>> = vec![
            Box::new(Chatter { id: ProcessId(0), heard: vec![], rounds_seen: 0 }),
            Box::new(RushEcho { id: ProcessId(1), echoed_at: None }),
        ];
        let mut sim = SimBuilder::new(actors).corrupt(ProcessId(1)).build();
        sim.step();
        let e: &RushEcho = sim.actor(ProcessId(1)).as_any().downcast_ref().unwrap();
        assert_eq!(e.echoed_at, Some(0), "rushing adversary sees round-0 traffic in round 0");
    }

    #[test]
    fn rushed_messages_not_redelivered() {
        let actors: Vec<Box<dyn AnyActor<Msg = Ping>>> = vec![
            Box::new(Chatter { id: ProcessId(0), heard: vec![], rounds_seen: 0 }),
            Box::new(Chatter { id: ProcessId(1), heard: vec![], rounds_seen: 0 }),
        ];
        let mut sim = SimBuilder::new(actors).corrupt(ProcessId(1)).build();
        sim.step();
        sim.step();
        sim.step();
        let byz: &Chatter = sim.actor(ProcessId(1)).as_any().downcast_ref().unwrap();
        // p1 hears p0's broadcast once (rushed, round 0) and its own once
        // (self-delivery, round 1) — no duplicates.
        assert_eq!(byz.heard.len(), 2);
    }

    #[test]
    #[should_panic(expected = "actor 0 has id")]
    fn build_validates_ids() {
        let actors: Vec<Box<dyn AnyActor<Msg = Ping>>> =
            vec![Box::new(RushEcho { id: ProcessId(5), echoed_at: None })];
        let _ = SimBuilder::new(actors).build();
    }
}
