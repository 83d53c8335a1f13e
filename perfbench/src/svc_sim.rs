//! `svc-sim`: nine service replicas on the lockstep simulator under an
//! open-loop load in virtual time.

use crate::measure::{process_cpu, Samples};
use crate::svc::{self, Deployment, Planned};
use crate::traced::{JournalTrace, SharedJournalTrace, Traced};
use crate::{check_traced_words, Layers, Rep, SETUP_REPEATS};
use meba_crypto::ProcessId;
use meba_journal::{MemBuffer, MemStorage};
use meba_service::{BatchPolicy, ReadMode, ServiceConfig, ServicePort, ServiceReply};
use meba_sim::{Actor, AnyActor, Round, RoundCtx, SimBuilder};
use meba_testkit::ServiceM;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const N: usize = 9;
const WINDOW: u64 = 4;
/// Offered load: ops per round, for this many rounds.
const OPS_PER_ROUND: usize = 2;
const ARRIVAL_ROUNDS: usize = 8_000;
/// Confirmed reads, in percent of ops.
const READ_SHARE_PCT: u64 = 10;
/// Admission bound per port: one full batch. The default (64) refuses
/// about 12% of this load, since a port fills for a whole proposer turn
/// while the window is full.
const QUEUE_CAPACITY: usize = 256;
/// Slots the log runs: enough for the last arrivals to commit.
const TOTAL_SLOTS: u64 = 250;

pub struct SvcSim {
    plan: Arc<Vec<Planned>>,
    /// Values written per key, for checking reads.
    written: BTreeMap<u64, BTreeSet<u64>>,
}

impl SvcSim {
    pub fn new(seed: u64) -> Self {
        let plan = svc::plan(seed, OPS_PER_ROUND * ARRIVAL_ROUNDS, N, READ_SHARE_PCT);
        let mut written: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
        for p in &plan {
            if let Planned::Write(op) = p {
                written.entry(op.key).or_default().insert(op.value);
            }
        }
        SvcSim { plan: Arc::new(plan), written }
    }

    fn deployment() -> Deployment {
        let service = ServiceConfig {
            total_slots: TOTAL_SLOTS,
            window: WINDOW,
            batch: BatchPolicy::default(),
            queue_capacity: QUEUE_CAPACITY,
        };
        Deployment::new(N, service)
    }

    pub fn rep(&self, traced: bool) -> Rep {
        let mut setup_s = Samples::default();
        let mut built = None;
        for _ in 0..SETUP_REPEATS {
            let setup = Instant::now();
            let d = Self::deployment();
            let trace: Option<SharedJournalTrace> =
                traced.then(|| Arc::new(Mutex::new(JournalTrace::default())));
            let buffers: Vec<MemBuffer> = (0..N).map(|_| MemBuffer::new()).collect();
            let actors: Vec<Box<dyn AnyActor<Msg = ServiceM>>> = (0..N)
                .map(|i| {
                    let port = ServicePort::new(d.service.queue_capacity);
                    let storage =
                        svc::timed(Box::new(MemStorage::new(buffers[i].clone())), trace.as_ref());
                    let replica =
                        d.replica(i, port.clone(), storage, traced.then_some(Traced::new));
                    Box::new(Load::new(replica, port, &self.plan, i, traced)) as _
                })
                .collect();
            let sim = SimBuilder::new(actors).build();
            setup_s.push(setup.elapsed().as_secs_f64());
            built = Some((d, trace, buffers, sim));
        }
        let (d, trace, buffers, mut sim) = built.expect("at least one set-up");

        let max_rounds = TOTAL_SLOTS * 64 + ARRIVAL_ROUNDS as u64;
        let cpu0 = process_cpu();
        let start = Instant::now();
        let finished = sim.run_until_done(max_rounds).is_ok();
        let run = start.elapsed();
        let cpu_s = (process_cpu() - cpu0).as_secs_f64();

        let mut rep = Rep::new(setup_s, run.as_secs_f64(), cpu_s);
        let m = sim.metrics();
        rep.words = m.correct.words;
        rep.bytes = m.correct.bytes;
        rep.messages = m.correct.messages;
        rep.rounds = sim.round().as_u64();
        let loads: Vec<&Load> = (0..N)
            .map(|i| sim.actor(ProcessId(i as u32)).as_any().downcast_ref().expect("load wrapper"))
            .collect();
        let mut writes = Vec::new();
        for l in &loads {
            rep.attempted += l.mine.len() as u64;
            rep.failed += l.refused + (l.mine.len() - l.cursor) as u64;
            rep.failed += (l.pending_writes.len()
                + l.pending_reads.values().map(VecDeque::len).sum::<usize>())
                as u64;
            rep.failed += l.bad_reads;
            // A read returns a value some write put under its key (or none).
            rep.failed += l
                .read_values
                .iter()
                .filter(|(key, value)| {
                    value.is_some_and(|v| !self.written.get(key).is_some_and(|s| s.contains(&v)))
                })
                .count() as u64;
            rep.ops_done += l.acked;
            rep.commit_rounds.extend(&l.commit_rounds);
            rep.commit_ms.extend(&l.commit_ms);
            rep.read_rounds.extend(&l.read_rounds);
            writes.extend(l.mine.iter().filter_map(|&k| match self.plan[k] {
                Planned::Write(op) => Some(op),
                Planned::Read { .. } => None,
            }));
        }
        let inner: Vec<&dyn AnyActor<Msg = ServiceM>> =
            loads.iter().map(|l| l.inner.as_ref()).collect();
        let journals: Vec<_> = buffers
            .iter()
            .map(|b| svc::journal_records(Box::new(MemStorage::new(b.clone()))).unwrap_or_default())
            .collect();
        match svc::check(&inner, &writes, &journals) {
            Ok(fingerprint) if finished => rep.fingerprint = fingerprint,
            outcome => {
                eprintln!("check failed: finished = {finished}, {outcome:?}");
                rep.failed = rep.attempted;
            }
        }
        if let Some(trace) = trace {
            let mut l = Layers::default();
            let journal = trace.lock().expect("journal trace lock poisoned").clone();
            let totals = svc::service_layers(&mut l, &d, &inner, &journal);
            let mut submit_ns = Samples::default();
            let mut read_ns = Samples::default();
            let mut loadgen_ns = 0.0;
            for ld in &loads {
                submit_ns.extend(&ld.submit_ns);
                read_ns.extend(&ld.read_ns);
                loadgen_ns += ld.own_ns;
            }
            l.set("service.port_submit_ns", submit_ns.median());
            l.set("service.port_read_ns", read_ns.median());
            let self_ns = run.as_nanos() as f64 - totals.step_ns as f64 - loadgen_ns;
            l.engine("sim", self_ns, &totals);
            check_traced_words(&mut rep, totals.words_out);
            rep.layers = Some(l);
        }
        rep
    }
}

/// The open-loop client of one replica: submits each op of its port in
/// the op's due round, and times commits and reads from that round.
struct Load {
    inner: Box<dyn AnyActor<Msg = ServiceM>>,
    port: Arc<ServicePort>,
    plan: Arc<Vec<Planned>>,
    /// Plan indices of this port's ops, in due order.
    mine: Vec<usize>,
    cursor: usize,
    pending_writes: BTreeMap<(u64, u64), (u64, Instant)>,
    pending_reads: BTreeMap<(u64, u64), VecDeque<(u64, Instant)>>,
    /// `(key, value)` of every answered read.
    read_values: Vec<(u64, Option<u64>)>,
    refused: u64,
    acked: u64,
    bad_reads: u64,
    commit_rounds: Samples,
    commit_ms: Samples,
    read_rounds: Samples,
    /// Timing of the load generator itself (traced runs only).
    traced: bool,
    own_ns: f64,
    submit_ns: Samples,
    read_ns: Samples,
}

impl Load {
    fn new(
        inner: Box<dyn AnyActor<Msg = ServiceM>>,
        port: Arc<ServicePort>,
        plan: &Arc<Vec<Planned>>,
        me: usize,
        traced: bool,
    ) -> Self {
        let mine = (me..plan.len()).step_by(N).collect();
        Load {
            inner,
            port,
            plan: plan.clone(),
            mine,
            cursor: 0,
            pending_writes: BTreeMap::new(),
            pending_reads: BTreeMap::new(),
            read_values: Vec::new(),
            refused: 0,
            acked: 0,
            bad_reads: 0,
            commit_rounds: Samples::default(),
            commit_ms: Samples::default(),
            read_rounds: Samples::default(),
            traced,
            own_ns: 0.0,
            submit_ns: Samples::default(),
            read_ns: Samples::default(),
        }
    }

    fn submit_due(&mut self, round: u64) {
        while let Some(&k) = self.mine.get(self.cursor) {
            if (k / OPS_PER_ROUND) as u64 > round {
                break;
            }
            self.cursor += 1;
            let now = Instant::now();
            let accepted = match self.plan[k] {
                Planned::Write(op) => {
                    let ok = self.port.submit(op).is_ok();
                    if self.traced {
                        self.submit_ns.push(now.elapsed().as_nanos() as f64);
                    }
                    if ok {
                        self.pending_writes.insert((op.client, op.seq), (round, now));
                    }
                    ok
                }
                Planned::Read { client, key } => {
                    let ok = self.port.read(client, key, ReadMode::Confirmed).is_ok();
                    if self.traced {
                        self.read_ns.push(now.elapsed().as_nanos() as f64);
                    }
                    if ok {
                        self.pending_reads
                            .entry((client, key))
                            .or_default()
                            .push_back((round, now));
                    }
                    ok
                }
            };
            if !accepted {
                self.refused += 1;
            }
        }
    }

    fn collect(&mut self, round: u64) {
        let now = Instant::now();
        for ev in self.port.drain_events() {
            match ev {
                ServiceReply::Committed { client, seq, .. } => {
                    if let Some((due, at)) = self.pending_writes.remove(&(client, seq)) {
                        self.acked += 1;
                        self.commit_rounds.push((round - due) as f64);
                        self.commit_ms.push(now.duration_since(at).as_secs_f64() * 1e3);
                    }
                }
                ServiceReply::ReadResult { client, key, value, .. } => {
                    let queue = self.pending_reads.entry((client, key)).or_default();
                    match queue.pop_front() {
                        Some((due, _)) => {
                            self.acked += 1;
                            self.read_rounds.push((round - due) as f64);
                            self.read_values.push((key, value));
                        }
                        None => self.bad_reads += 1,
                    }
                }
                _ => {}
            }
        }
    }
}

impl Actor for Load {
    type Msg = ServiceM;

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, ServiceM>) {
        let round = ctx.round().as_u64();
        let t0 = Instant::now();
        self.submit_due(round);
        let t1 = Instant::now();
        self.inner.on_round(ctx);
        let t2 = Instant::now();
        self.collect(round);
        if self.traced {
            self.own_ns += ((t1 - t0) + t2.elapsed()).as_nanos() as f64;
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
