//! `bb-quiet` and `bb-fallback`: adaptive Byzantine broadcast from p0 on
//! the discrete-event backend.

use crate::measure::{process_cpu, Rng, Samples};
use crate::traced::{untraced, LayerTotals, Traced};
use crate::{check_traced_words, probes, ratio, Layers, Rep, SETUP_REPEATS};
use meba_core::{Decision, LockstepAdapter, SubProtocol};
use meba_crypto::{trusted_setup, ProcessId, WireCodec};
use meba_engine::{run_des_cluster, DesConfig};
use meba_sim::{Actor, AnyActor, Round, RoundCtx};
use meba_testkit::{bb_actors, corrupt_ids, round_budget, BbM, BbProc, Fault};
use std::time::{Duration, Instant};

/// Keys of the testkit's BB actors (`bb_actors` runs this setup).
const BB_KEY_SEED: u64 = 0x5eed;

pub struct BbWorkload {
    faults: Vec<Fault>,
    value: u64,
    des_seed: u64,
    /// Correct-process words of the discrete-event reference run.
    reference_words: u64,
}

impl BbWorkload {
    /// Failure-free BB at n = 1025: the silent-phase best case.
    pub fn quiet(seed: u64) -> Self {
        Self::new(vec![Fault::None; 1025], seed, 16_384)
    }

    /// BB at n = 129 with p1..p64 silent (f = t): the quadratic fallback.
    pub fn fallback(seed: u64) -> Self {
        let mut faults = vec![Fault::None; 129];
        for f in &mut faults[1..=64] {
            *f = Fault::Idle;
        }
        Self::new(faults, seed, 506_018)
    }

    fn new(faults: Vec<Fault>, seed: u64, reference_words: u64) -> Self {
        let mut rng = Rng::new(seed);
        BbWorkload { faults, value: rng.next_u64(), des_seed: rng.next_u64(), reference_words }
    }

    fn n(&self) -> usize {
        self.faults.len()
    }

    pub fn rep(&self, traced: bool) -> Rep {
        let mut setup_s = Samples::default();
        let mut actors = Vec::new();
        for _ in 0..SETUP_REPEATS {
            let setup = Instant::now();
            actors = bb_actors(0, self.value, &self.faults)
                .into_iter()
                .map(|a| {
                    let a: Box<dyn AnyActor<Msg = BbM>> =
                        if traced { Box::new(Traced::new(a)) } else { a };
                    Box::new(Watch::new(a)) as Box<dyn AnyActor<Msg = BbM>>
                })
                .collect();
            setup_s.push(setup.elapsed().as_secs_f64());
        }
        let config = DesConfig {
            seed: self.des_seed,
            corrupt: corrupt_ids(&self.faults),
            max_rounds: round_budget(self.n()),
            ..DesConfig::default()
        };

        let cpu0 = process_cpu();
        let start = Instant::now();
        let report = run_des_cluster(actors, None, config).expect("valid DES config");
        let run = start.elapsed();
        let cpu_s = (process_cpu() - cpu0).as_secs_f64();

        let mut rep = Rep::new(setup_s, run.as_secs_f64(), cpu_s);
        rep.words = report.metrics.correct.words;
        rep.bytes = report.metrics.correct.bytes;
        rep.messages = report.metrics.correct.messages;
        rep.rounds = report.rounds;
        let mut decisions = Vec::new();
        let mut totals = LayerTotals::default();
        let mut sample = Vec::new();
        for (i, a) in report.actors.iter().enumerate() {
            let w: &Watch = a.as_any().downcast_ref().expect("every actor is watched");
            if let Some(t) = w.inner.as_any().downcast_ref::<Traced<BbM>>() {
                totals.add(t.stats());
                sample.extend(t.stats().sample.iter().cloned());
            }
            if self.faults[i].is_byzantine() {
                continue;
            }
            rep.attempted += 1;
            let decision = decision(w.inner.as_ref());
            if decision != Some(Decision::Value(self.value)) {
                rep.failed += 1;
            }
            decisions.push(decision);
            if let Some((round, at)) = w.decided {
                rep.commit_rounds.push(round as f64);
                rep.commit_ms.push(at.saturating_duration_since(start).as_secs_f64() * 1e3);
            }
            if let Some(round) = w.done_round {
                rep.read_rounds.push(round as f64);
            }
        }
        rep.ops_done = rep.attempted - rep.failed;
        rep.fingerprint = format!("{decisions:?}");
        if !report.completed || rep.words != self.reference_words {
            eprintln!(
                "check failed: completed = {}, words = {} (reference {})",
                report.completed, rep.words, self.reference_words
            );
            rep.failed = rep.attempted;
        }
        if traced {
            rep.layers = Some(self.layers(&totals, &sample, run));
            check_traced_words(&mut rep, totals.words_out);
        }
        rep
    }

    fn layers(&self, totals: &LayerTotals, sample: &[BbM], run: Duration) -> Layers {
        let mut l = Layers::default();
        let self_ns = run.as_nanos() as f64 - totals.step_ns as f64;
        l.engine("engine", self_ns, totals);
        l.actor("core", totals);
        l.set("fallback.msgs_out", totals.fallback_msgs as f64);
        l.set("fallback.words_out", totals.fallback_words as f64);
        l.set("fallback.word_share", ratio(totals.fallback_words as f64, totals.words_out as f64));
        let (pki, keys) = trusted_setup(self.n(), BB_KEY_SEED);
        let preimages: Vec<Vec<u8>> = sample.iter().map(WireCodec::to_wire_bytes).collect();
        probes::crypto(&mut l, &pki, &keys, &preimages);
        probes::codec(&mut l, sample);
        l
    }
}

/// The decision of a BB actor, looking through a [`Traced`] layer.
fn decision(a: &dyn AnyActor<Msg = BbM>) -> Option<Decision<u64>> {
    let adapter: &LockstepAdapter<BbProc> = untraced(a).as_any().downcast_ref()?;
    adapter.inner().output()
}

fn decided_at(a: &dyn AnyActor<Msg = BbM>) -> Option<u64> {
    let adapter: &LockstepAdapter<BbProc> = untraced(a).as_any().downcast_ref()?;
    adapter.inner().decided_at()
}

/// The broadcast's observer: notes, for each process, the round and
/// wall instant at which it decided and the round it terminated.
struct Watch {
    inner: Box<dyn AnyActor<Msg = BbM>>,
    decided: Option<(u64, Instant)>,
    done_round: Option<u64>,
}

impl Watch {
    fn new(inner: Box<dyn AnyActor<Msg = BbM>>) -> Self {
        Watch { inner, decided: None, done_round: None }
    }
}

impl Actor for Watch {
    type Msg = BbM;

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, BbM>) {
        self.inner.on_round(ctx);
        if self.decided.is_none() {
            if let Some(step) = decided_at(self.inner.as_ref()) {
                self.decided = Some((step, Instant::now()));
            }
        }
        if self.done_round.is_none() && self.inner.done() {
            self.done_round = Some(ctx.round().as_u64() + 1);
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
