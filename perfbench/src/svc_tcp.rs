//! `svc-tcp`: three service replicas over loopback TCP, journaling to
//! real files with fsync, under an open-loop write load in wall time from
//! one client connection.

use crate::measure::{process_cpu, Samples};
use crate::svc::{self, Deployment, Planned};
use crate::traced::{untraced, JournalTrace, SharedJournalTrace, Traced};
use crate::{ratio, Layers, Rep, SETUP_REPEATS};
use meba_core::SystemConfig;
use meba_crypto::{ProcessId, WireCodec};
use meba_fallback::RecursiveBaFactory;
use meba_journal::FileStorage;
use meba_service::{
    service_config_digest, Batch, BatchPolicy, ClientHello, ClientRequest, Op, ServiceClient,
    ServiceConfig, ServiceGateway, ServicePort, ServiceReply, SERVICE_VERSION,
};
use meba_sim::{Actor, AnyActor, Round, RoundCtx};
use meba_smr::ReplicatedLog;
use meba_testkit::{service_replica, ServiceM};
use meba_wire::frame::{read_frame, write_frame};
use meba_wire::{run_tcp_cluster, TcpClusterConfig};
use std::collections::BTreeMap;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

const N: usize = 3;
const WINDOW: u64 = 4;
const QUEUE_CAPACITY: usize = 256;
const DELTA: Duration = Duration::from_millis(20);
/// Offered load: writes per second, for this long.
const OPS_PER_SECOND: u64 = 250;
const LOAD_SECONDS: u64 = 4;
/// Rounds the log keeps running after the last arrival, so the last
/// arrivals commit.
const DRAIN_ROUNDS: u64 = 240;
/// The single client's id: the plan's writing client of port 0.
const CLIENT: u64 = svc::write_client(0);

pub struct SvcTcp {
    plan: Vec<Planned>,
}

impl SvcTcp {
    pub fn new(seed: u64) -> Self {
        let ops = (OPS_PER_SECOND * LOAD_SECONDS) as usize;
        SvcTcp { plan: svc::plan(seed, ops, 1, 0) }
    }

    /// The deployment, its log sized to run through the load and the drain.
    fn deployment() -> Deployment {
        let service = ServiceConfig {
            total_slots: 1,
            window: WINDOW,
            batch: BatchPolicy::default(),
            queue_capacity: QUEUE_CAPACITY,
        };
        let mut d = Deployment::new(N, service);
        let factory = RecursiveBaFactory::new(d.cfg, d.keys[0].clone(), d.pki.clone());
        let stride = ReplicatedLog::<Batch, _>::slot_rounds(&d.cfg, &factory).div_ceil(WINDOW);
        let rounds = LOAD_SECONDS * 1_000 / DELTA.as_millis() as u64 + DRAIN_ROUNDS;
        d.service.total_slots = rounds.div_ceil(stride);
        d
    }

    pub fn rep(&self, traced: bool) -> Rep {
        let work = work_dir();
        let mut setup_s = Samples::default();
        let mut built = None;
        for attempt in 0..SETUP_REPEATS {
            // Tear down the previous attempt's gateway and files first.
            drop(built.take());
            let setup = Instant::now();
            built = Some(Setup::new(&work.join(attempt.to_string()), traced));
            setup_s.push(setup.elapsed().as_secs_f64());
        }
        let setup = built.expect("at least one set-up");
        let rep = self.run(setup, setup_s);
        let _ = std::fs::remove_dir_all(&work);
        rep
    }

    fn run(&self, setup: Setup, setup_s: Samples) -> Rep {
        let Setup { d, trace, paths, gateway, actors, first_round, round_starts } = setup;
        let config = TcpClusterConfig {
            cluster: cluster_config(d.service.total_slots),
            ..TcpClusterConfig::default()
        };
        let cpu0 = process_cpu();
        let (report, load) = std::thread::scope(|s| {
            let cluster = s.spawn(|| run_tcp_cluster(actors, &d.cfg, config));
            let load = self.drive(gateway.addr(), &d.cfg, &first_round, || cluster.is_finished());
            (cluster.join().expect("cluster thread"), load)
        });
        let cpu_s = (process_cpu() - cpu0).as_secs_f64();
        gateway.stop();
        let report = report.expect("mesh establishes on loopback");
        let t0 = *first_round.get().expect("the cluster ran");
        let run_s = load.end.expect("the load ran").duration_since(t0).as_secs_f64();

        let mut rep = Rep::new(setup_s, run_s, cpu_s);
        let m = &report.report.metrics;
        rep.words = m.correct.words;
        rep.bytes = m.correct.bytes;
        rep.messages = m.correct.messages;
        rep.rounds = report.report.rounds;
        rep.overruns = report.report.overruns;
        rep.attempted = self.plan.len() as u64;
        rep.failed = rep.attempted - load.acked.len() as u64;
        rep.ops_done = load.acked.len() as u64;

        // Rounds are read off replica 0's round clock.
        let starts = round_starts.lock().expect("round clock lock poisoned").clone();
        let round_at = |t: Instant| starts.partition_point(|s| *s <= t).saturating_sub(1) as f64;
        let clocks: Vec<&Clock> = report
            .report
            .actors
            .iter()
            .map(|a| a.as_any().downcast_ref().expect("clocked replica"))
            .collect();
        for (&seq, &(slot, at)) in &load.acked {
            let due = load.due[seq as usize];
            rep.commit_ms.push(at.duration_since(due).as_secs_f64() * 1e3);
            rep.commit_rounds.push(round_at(at) - round_at(due));
            // Visible to a read at every replica once the last one applied
            // the op's slot.
            let everywhere = clocks.iter().filter_map(|c| c.applied_round.get(slot as usize)).max();
            if let Some(&r) =
                everywhere.filter(|_| clocks.iter().all(|c| c.applied_round.len() > slot as usize))
            {
                rep.read_rounds.push(r as f64 - round_at(due));
            }
        }

        let inner: Vec<&dyn AnyActor<Msg = ServiceM>> =
            clocks.iter().map(|c| c.inner.as_ref()).collect();
        let journals: Vec<_> = paths
            .iter()
            .map(|p| {
                FileStorage::open(p)
                    .and_then(|s| svc::journal_records(Box::new(s)))
                    .unwrap_or_default()
            })
            .collect();
        let writes: Vec<_> = self
            .plan
            .iter()
            .filter_map(|p| match p {
                Planned::Write(op) => Some(*op),
                Planned::Read { .. } => None,
            })
            .collect();
        let healthy = report.report.completed
            && report.report.aborted.is_none()
            && report.frames_dropped == 0
            && report.decode_errors == 0;
        match svc::check(&inner, &writes, &journals) {
            Ok(fingerprint) if healthy => rep.fingerprint = fingerprint,
            outcome => {
                eprintln!("check failed: healthy = {healthy}, {outcome:?}");
                rep.failed = rep.attempted;
            }
        }

        if let Some(trace) = trace {
            let mut l = Layers::default();
            let journal = trace.lock().expect("journal trace lock poisoned").clone();
            let totals = svc::service_layers(&mut l, &d, &inner, &journal);
            let non_step = cpu_s - totals.step_cpu_ns as f64 / 1e9;
            l.engine("engine", non_step * 1e9, &totals);
            l.set("engine.overruns", report.report.overruns as f64);
            l.set("engine.escalations", report.report.escalations.len() as f64);
            l.set("wire.frames", report.frames_sent as f64);
            l.set("wire.socket_bytes", report.socket_bytes as f64);
            l.set("wire.frames_per_round", ratio(report.frames_sent as f64, rep.rounds as f64));
            l.set("wire.bytes_per_word", ratio(report.socket_bytes as f64, rep.words as f64));
            l.set("wire.frames_dropped", report.frames_dropped as f64);
            l.set("wire.reconnects", report.reconnects as f64);
            l.set("wire.backpressure", report.report.backpressure as f64);
            l.set("wire.non_step_cpu_s", non_step);
            l.set("service.client_submit_us", client_submit_us(&d.cfg).median());
            l.set("loadgen.late_p99_ms", load.late_ms.quantile(0.99));
            rep.layers = Some(l);
        }
        rep
    }

    /// The open-loop client: writes submit `k` at `t0 + k / rate`, where
    /// `t0` is the cluster's first round, without waiting for replies (a
    /// reader thread collects them), then waits for the remaining acks
    /// until the cluster has stopped.
    fn drive(
        &self,
        addr: SocketAddr,
        cfg: &SystemConfig,
        first_round: &OnceLock<Instant>,
        cluster_done: impl Fn() -> bool,
    ) -> LoadOutcome {
        let mut stream = connect(addr, CLIENT, cfg).expect("client handshake");
        let replies: Mutex<Vec<(ServiceReply, Instant)>> = Mutex::new(Vec::new());
        let t0 = loop {
            match first_round.get() {
                Some(t0) => break *t0,
                // The mesh never came up: nothing to drive.
                None if cluster_done() => return LoadOutcome::default(),
                None => std::thread::sleep(Duration::from_micros(200)),
            }
        };
        let interval = Duration::from_secs(1) / OPS_PER_SECOND as u32;
        let due: Vec<Instant> = (0..self.plan.len()).map(|k| t0 + interval * k as u32).collect();
        let mut late_ms = Samples::default();
        std::thread::scope(|s| {
            let mut reader = stream.try_clone().expect("clone the client socket");
            let replies = &replies;
            s.spawn(move || {
                let mut buf = Vec::new();
                while read_frame(&mut reader, &mut buf).is_ok() {
                    let Ok(reply) = ServiceReply::from_wire_bytes(&buf) else { break };
                    replies.lock().expect("reply log lock poisoned").push((reply, Instant::now()));
                }
            });
            for (k, planned) in self.plan.iter().enumerate() {
                let Planned::Write(op) = planned else { continue };
                std::thread::sleep(due[k].saturating_duration_since(Instant::now()));
                late_ms.push(Instant::now().duration_since(due[k]).as_secs_f64() * 1e3);
                let req = ClientRequest::Submit { op: *op };
                if let Err(e) = write_frame(&mut stream, &req.to_wire_bytes()) {
                    eprintln!("submit {k} failed: {e}");
                    break;
                }
            }
            // Acks still in the gateway when the cluster stops get a grace
            // period to arrive.
            let mut grace = Duration::from_millis(500);
            let committed = |r: &[(ServiceReply, Instant)]| {
                r.iter().filter(|(r, _)| matches!(r, ServiceReply::Committed { .. })).count()
            };
            while committed(&replies.lock().expect("reply log lock poisoned")) < self.plan.len()
                && !grace.is_zero()
            {
                std::thread::sleep(Duration::from_millis(5));
                if cluster_done() {
                    grace = grace.saturating_sub(Duration::from_millis(5));
                }
            }
            let _ = stream.shutdown(Shutdown::Both);
        });
        let mut acked = BTreeMap::new();
        for (reply, at) in replies.into_inner().expect("reply log lock poisoned") {
            if let ServiceReply::Committed { client: CLIENT, seq, slot, .. } = reply {
                acked.entry(seq).or_insert((slot, at));
            }
        }
        let end = acked.values().map(|&(_, at)| at).max().unwrap_or_else(Instant::now);
        LoadOutcome { due, acked, late_ms, end: Some(end) }
    }
}

/// Opens a client connection and completes the hello handshake.
fn connect(addr: SocketAddr, client: u64, cfg: &SystemConfig) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let hello =
        ClientHello { version: SERVICE_VERSION, client, config_digest: service_config_digest(cfg) };
    write_frame(&mut stream, &hello.to_wire_bytes()).map_err(std::io::Error::other)?;
    let mut buf = Vec::new();
    read_frame(&mut stream, &mut buf).map_err(std::io::Error::other)?;
    match ServiceReply::from_wire_bytes(&buf) {
        Ok(ServiceReply::HelloOk { .. }) => Ok(stream),
        _ => Err(std::io::Error::other("handshake rejected")),
    }
}

/// Times blocking [`ServiceClient::submit`] round trips against a gateway
/// of its own, whose port no replica drains.
fn client_submit_us(cfg: &SystemConfig) -> Samples {
    const CALLS: u64 = 12;
    let port = ServicePort::new(CALLS as usize);
    let gateway = ServiceGateway::spawn("127.0.0.1:0", cfg, ProcessId(0), port)
        .expect("bind the probe gateway on loopback");
    let mut client = ServiceClient::connect(gateway.addr(), 2, cfg).expect("probe handshake");
    let mut us = Samples::default();
    for seq in 0..CALLS {
        let t0 = Instant::now();
        let reply =
            client.submit(Op { client: 2, seq, key: seq, value: seq }).expect("probe submit");
        assert!(matches!(reply, ServiceReply::Accepted { .. }), "probe port has room");
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    drop(client);
    gateway.stop();
    us
}

fn cluster_config(total_slots: u64) -> meba_engine::ClusterConfig {
    meba_engine::ClusterConfig {
        delta: DELTA,
        max_rounds: total_slots * 200,
        ..meba_engine::ClusterConfig::default()
    }
}

#[derive(Default)]
struct LoadOutcome {
    due: Vec<Instant>,
    /// Acked writes: seq → (slot, when the ack arrived). A write refused
    /// `Overloaded` is never acked.
    acked: BTreeMap<u64, (u64, Instant)>,
    late_ms: Samples,
    /// When the last ack arrived.
    end: Option<Instant>,
}

/// Everything a run needs before its first round.
struct Setup {
    d: Deployment,
    trace: Option<SharedJournalTrace>,
    paths: Vec<PathBuf>,
    gateway: ServiceGateway,
    actors: Vec<Box<dyn AnyActor<Msg = ServiceM>>>,
    first_round: Arc<OnceLock<Instant>>,
    round_starts: Arc<Mutex<Vec<Instant>>>,
}

impl Setup {
    fn new(dir: &Path, traced: bool) -> Self {
        std::fs::create_dir_all(dir).expect("create the journal directory");
        let d = SvcTcp::deployment();
        let trace: Option<SharedJournalTrace> =
            traced.then(|| Arc::new(Mutex::new(JournalTrace::default())));
        let first_round = Arc::new(OnceLock::new());
        let round_starts = Arc::new(Mutex::new(Vec::new()));
        let paths: Vec<PathBuf> = (0..N).map(|i| dir.join(format!("replica-{i}.wal"))).collect();
        let ports: Vec<_> = (0..N).map(|_| ServicePort::new(QUEUE_CAPACITY)).collect();
        let actors = (0..N)
            .map(|i| {
                let file = FileStorage::open(&paths[i]).expect("open the journal file");
                let storage = svc::timed(Box::new(file), trace.as_ref());
                let replica = d.replica(
                    i,
                    ports[i].clone(),
                    storage,
                    traced.then_some(Traced::with_cpu_clock),
                );
                let clock = (i == 0).then(|| (first_round.clone(), round_starts.clone()));
                Box::new(Clock { inner: replica, clock, applied_round: Vec::new() }) as _
            })
            .collect();
        let gateway = ServiceGateway::spawn("127.0.0.1:0", &d.cfg, ProcessId(0), ports[0].clone())
            .expect("bind the gateway on loopback");
        Setup { d, trace, paths, gateway, actors, first_round, round_starts }
    }
}

/// When the first round started, and when each round started.
type RoundClock = (Arc<OnceLock<Instant>>, Arc<Mutex<Vec<Instant>>>);

/// Notes the wall instant each round starts (on replica 0) and the round
/// by which each slot was applied (on every replica).
struct Clock {
    inner: Box<dyn AnyActor<Msg = ServiceM>>,
    clock: Option<RoundClock>,
    /// `applied_round[s]`: the round after which slot `s` was applied.
    applied_round: Vec<u64>,
}

impl Actor for Clock {
    type Msg = ServiceM;

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, ServiceM>) {
        if let Some((first, starts)) = &self.clock {
            let now = Instant::now();
            first.get_or_init(|| now);
            starts.lock().expect("round clock lock poisoned").push(now);
        }
        self.inner.on_round(ctx);
        let applied = service_replica(untraced(self.inner.as_ref())).applied_slots() as usize;
        while self.applied_round.len() < applied {
            self.applied_round.push(ctx.round().as_u64());
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

/// Where the journals of one run live: inside the build directory.
fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"), PathBuf::from);
    target.join("perfbench-work").join(std::process::id().to_string())
}
