//! What the two service workloads share: the deployment, the replica
//! builder, the seeded load plan and the output checks.

use crate::measure::Rng;
use crate::traced::{
    untraced, JournalTrace, LayerTotals, SharedJournalTrace, TimedStorage, Traced,
};
use crate::{probes, ratio, Layers};
use meba_core::SystemConfig;
use meba_crypto::{trusted_setup, Pki, ProcessId, SecretKey, WireCodec};
use meba_fallback::RecursiveBaFactory;
use meba_journal::{Journal, Record, Storage};
use meba_service::{Batch, Op, ServiceConfig, ServicePort, ServiceReplica};
use meba_sim::AnyActor;
use meba_testkit::{service_replica, ServiceM};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::sync::Arc;

/// Seed of the deployment's signing keys.
const KEY_SEED: u64 = 0xf00d;
/// Session of the deployment's system configuration.
const SESSION: u64 = 0x5e7;
/// Keys the load writes to.
const KEY_SPACE: u64 = 512;

/// How a traced run wraps a replica ([`Traced::new`] or
/// [`Traced::with_cpu_clock`]).
pub type TraceWrap = fn(Box<dyn AnyActor<Msg = ServiceM>>) -> Traced<ServiceM>;

/// A service deployment: configuration, keys and sizing.
pub struct Deployment {
    pub cfg: SystemConfig,
    pub pki: Pki,
    pub keys: Vec<SecretKey>,
    pub service: ServiceConfig,
}

impl Deployment {
    pub fn new(n: usize, service: ServiceConfig) -> Self {
        let cfg = SystemConfig::new(n, SESSION).expect("odd n >= 3");
        let (pki, keys) = trusted_setup(n, KEY_SEED);
        Deployment { cfg, pki, keys, service }
    }

    /// Replica `i` journaling to `storage`, behind `trace` (a [`Traced`]
    /// constructor) when there is one.
    pub fn replica(
        &self,
        i: usize,
        port: Arc<ServicePort>,
        storage: Box<dyn Storage>,
        trace: Option<TraceWrap>,
    ) -> Box<dyn AnyActor<Msg = ServiceM>> {
        let key = self.keys[i].clone();
        let factory = RecursiveBaFactory::new(self.cfg, key.clone(), self.pki.clone());
        let journal = Journal::new(storage, Journal::DEFAULT_SYNC_EVERY);
        let replica = Box::new(ServiceReplica::new(
            self.cfg,
            ProcessId(i as u32),
            key,
            self.pki.clone(),
            factory,
            self.service,
            port,
            Some(journal),
        ));
        match trace {
            Some(wrap) => Box::new(wrap(replica)),
            None => replica,
        }
    }
}

/// `storage`, timed into `trace` when there is one.
pub fn timed(storage: Box<dyn Storage>, trace: Option<&SharedJournalTrace>) -> Box<dyn Storage> {
    match trace {
        Some(t) => Box::new(TimedStorage::new(storage, t.clone())),
        None => storage,
    }
}

/// One planned client operation.
#[derive(Clone, Copy, Debug)]
pub enum Planned {
    Write(Op),
    /// A confirmed read of `key` by `client`.
    Read {
        client: u64,
        key: u64,
    },
}

/// Seeded op stream: keys and values of the writes, and which earlier
/// write each read looks at. Op `k` goes to port `k mod ports`; each port
/// has its own writing client and its own reading client.
pub fn plan(seed: u64, ops: usize, ports: usize, read_share_pct: u64) -> Vec<Planned> {
    let mut rng = Rng::new(seed ^ 0x10ad);
    let mut written: Vec<u64> = Vec::new();
    let mut seqs = vec![0u64; ports];
    (0..ops)
        .map(|k| {
            let port = k % ports;
            if !written.is_empty() && rng.below(100) < read_share_pct {
                let key = written[rng.below(written.len() as u64) as usize];
                Planned::Read { client: read_client(port), key }
            } else {
                let key = rng.below(KEY_SPACE);
                written.push(key);
                let seq = seqs[port];
                seqs[port] += 1;
                Planned::Write(Op { client: write_client(port), seq, key, value: rng.next_u64() })
            }
        })
        .collect()
}

pub const fn write_client(port: usize) -> u64 {
    port as u64 + 1
}

pub fn read_client(port: usize) -> u64 {
    port as u64 + 1_001
}

/// Checks the replicas' outputs against the writes offered and the
/// journals they wrote. Returns the first violation found.
pub fn check(
    actors: &[&dyn AnyActor<Msg = ServiceM>],
    writes: &[Op],
    journals: &[Vec<Record>],
) -> Result<String, String> {
    let replicas: Vec<_> = actors.iter().map(|a| service_replica(untraced(*a))).collect();
    let first = replicas[0];
    let slots = first.log().total_slots();
    for (i, r) in replicas.iter().enumerate() {
        if r.applied_slots() != slots {
            return Err(format!("replica {i} applied {} of {slots} slots", r.applied_slots()));
        }
        for slot in 0..slots {
            if r.applied_value(slot) != first.applied_value(slot) {
                return Err(format!("replica {i} applied a different value at slot {slot}"));
            }
        }
        if r.kv() != first.kv() {
            return Err(format!("replica {i} holds a different key-value state"));
        }
        let stats = r.stats();
        if stats.ops_deduped != 0 || stats.applied_conflicts != 0 {
            return Err(format!(
                "replica {i}: {} duplicate commits, {} conflicts",
                stats.ops_deduped, stats.applied_conflicts
            ));
        }
        for op in writes {
            if r.committed_at(op.client, op.seq) != first.committed_at(op.client, op.seq) {
                return Err(format!("replica {i} placed op {}/{} elsewhere", op.client, op.seq));
            }
        }
    }
    // Exactly once: every write appears in exactly one applied batch.
    let mut seen = BTreeSet::new();
    for slot in 0..slots {
        let bytes = first.applied_value(slot).unwrap_or_default();
        if bytes.is_empty() {
            continue;
        }
        let batch =
            Batch::from_wire_bytes(bytes).map_err(|_| format!("slot {slot} undecodable"))?;
        for op in batch.ops() {
            if !seen.insert((op.client, op.seq)) {
                return Err(format!("op {}/{} applied twice", op.client, op.seq));
            }
        }
    }
    for (i, records) in journals.iter().enumerate() {
        let mut bound: BTreeMap<u64, &Vec<u8>> = BTreeMap::new();
        for rec in records {
            if let Record::Proposed { slot, value } = rec {
                if bound.insert(*slot, value).is_some_and(|v| v != value) {
                    return Err(format!("journal {i} bound slot {slot} to two values"));
                }
            }
        }
    }
    // The fingerprint of what the service decided, for the transparency
    // self-test.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for slot in 0..slots {
        for &b in first.applied_value(slot).unwrap_or_default() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    Ok(format!("{h:016x}"))
}

/// Replays journal `storage` into its records.
pub fn journal_records(storage: Box<dyn Storage>) -> io::Result<Vec<Record>> {
    Ok(Journal::new(storage, Journal::DEFAULT_SYNC_EVERY).replay()?.records)
}

/// The service, journal, crypto and codec layers of a traced run.
pub fn service_layers(
    l: &mut Layers,
    d: &Deployment,
    actors: &[&dyn AnyActor<Msg = ServiceM>],
    journal: &JournalTrace,
) -> LayerTotals {
    let mut totals = LayerTotals::default();
    let mut sample = Vec::new();
    let (mut batches, mut batched) = (0, 0);
    for a in actors {
        let t: &Traced<ServiceM> = a.as_any().downcast_ref().expect("traced replica");
        totals.add(t.stats());
        sample.extend(t.stats().sample.iter().cloned());
        let stats = service_replica(t.inner()).stats();
        batches += stats.batches_proposed;
        batched += stats.batched_ops;
    }
    l.actor("service", &totals);
    l.set("service.batches", batches as f64);
    l.set("service.ops_per_batch", ratio(batched as f64, batches as f64));
    l.set("journal.appends", journal.append_ns.len() as f64);
    l.set("journal.append_p50_ns", journal.append_ns.quantile(0.5));
    l.set("journal.append_p99_ns", journal.append_ns.quantile(0.99));
    l.set("journal.syncs", journal.sync_us.len() as f64);
    l.set("journal.sync_p50_us", journal.sync_us.quantile(0.5));
    l.set("journal.sync_p99_us", journal.sync_us.quantile(0.99));
    l.set("journal.bytes", journal.bytes as f64);
    let preimages: Vec<Vec<u8>> = sample.iter().map(WireCodec::to_wire_bytes).collect();
    probes::crypto(l, &d.pki, &d.keys, &preimages);
    probes::codec(l, &sample);
    totals
}
