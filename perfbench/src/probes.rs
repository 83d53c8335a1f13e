//! Layer probes replayed outside the run: the crypto calls on the
//! workload's own keys, and the codec and framing over a sample of the
//! traced run's own outbound messages.

use crate::Layers;
use meba_crypto::{Encoder, Pki, SecretKey, WireCodec};
use meba_wire::frame::{read_frame, write_frame};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall-clock budget of each probe loop.
const PROBE_BUDGET: Duration = Duration::from_millis(40);

/// Mean nanoseconds per call of `f`, repeated over `items` until the
/// probe budget is spent (at least one full pass).
fn ns_per_call<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let t0 = Instant::now();
    let mut calls = 0u64;
    loop {
        for it in items {
            f(it);
        }
        calls += items.len() as u64;
        if t0.elapsed() >= PROBE_BUDGET {
            break;
        }
    }
    t0.elapsed().as_nanos() as f64 / calls as f64
}

/// Times `sign`, `verify`, `combine` and `verify_threshold` with the
/// workload's keys over `preimages`; certificates take the `n - t` quorum.
pub fn crypto(layers: &mut Layers, pki: &Pki, keys: &[SecretKey], preimages: &[Vec<u8>]) {
    let n = keys.len();
    let k = n - (n - 1) / 2;
    let preimages: Vec<&[u8]> = preimages.iter().take(64).map(Vec::as_slice).collect();
    if preimages.is_empty() {
        return;
    }
    let signer = &keys[0];
    let sigs: Vec<_> = preimages.iter().map(|m| (*m, signer.sign(m))).collect();
    layers.set(
        "crypto.sign_ns",
        ns_per_call(&preimages, |m| {
            black_box(signer.sign(m));
        }),
    );
    layers.set(
        "crypto.verify_ns",
        ns_per_call(&sigs, |(m, s)| assert!(pki.verify(m, s).is_ok(), "own signature verifies")),
    );
    let msg = preimages[0];
    let shares: Vec<_> = keys.iter().take(k).map(|key| key.sign(msg)).collect();
    let qc = pki.combine(k, msg, &shares).expect("k distinct shares combine");
    layers.set(
        "crypto.combine_ns",
        ns_per_call(&[()], |()| {
            assert!(pki.combine(k, msg, &shares).is_ok(), "own shares combine");
        }),
    );
    layers.set(
        "crypto.verify_threshold_ns",
        ns_per_call(&[()], |()| {
            assert!(pki.verify_threshold(msg, &qc).is_ok(), "own certificate verifies")
        }),
    );
}

/// Times canonical encode, decode and frame write+read over `sample`.
pub fn codec<M: WireCodec>(layers: &mut Layers, sample: &[M]) {
    if sample.is_empty() {
        return;
    }
    let bytes: Vec<Vec<u8>> = sample.iter().map(WireCodec::to_wire_bytes).collect();
    let total: usize = bytes.iter().map(Vec::len).sum();
    layers.set("codec.bytes_per_msg", total as f64 / bytes.len() as f64);
    let mut enc = Encoder::new();
    layers.set(
        "codec.encode_ns",
        ns_per_call(sample, |m| {
            enc.clear();
            m.encode_wire_into(&mut enc);
            black_box(enc.len());
        }),
    );
    layers.set(
        "codec.decode_ns",
        ns_per_call(&bytes, |b| {
            black_box(M::from_wire_bytes(b).expect("own encoding decodes"));
        }),
    );
    let mut wire = Vec::new();
    let mut payload = Vec::new();
    layers.set(
        "codec.frame_ns",
        ns_per_call(&bytes, |b| {
            wire.clear();
            write_frame(&mut wire, b).expect("frame fits");
            read_frame(&mut wire.as_slice(), &mut payload).expect("frame reads back");
            black_box(payload.len());
        }),
    );
}
