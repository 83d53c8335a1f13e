//! In-memory [`Transport`]: bounded crossbeam channels as authenticated
//! links — the engine instantiation behind `meba_net::run_cluster`.

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use meba_crypto::ProcessId;
use meba_sim::{Delivery, Message, Transport};

/// One process's endpoint of a full mesh of bounded channels. A full
/// link blocks the sender (counted as backpressure) instead of
/// ballooning memory; a disconnected link (the peer already stopped)
/// loses the message, which is fine: the run is over for that peer.
pub struct ChannelTransport<M: Message> {
    me: ProcessId,
    rx: Receiver<Delivery<M>>,
    txs: Vec<Sender<Delivery<M>>>,
    backpressure: u64,
}

/// Builds a full mesh of bounded channels for `n` processes; element `i`
/// of the result is process `i`'s transport (it holds its own receiver
/// and a sender to every process, itself included).
pub fn channel_mesh<M: Message>(n: usize, capacity: usize) -> Vec<ChannelTransport<M>> {
    let mut txs: Vec<Sender<Delivery<M>>> = Vec::with_capacity(n);
    let mut rxs: Vec<Receiver<Delivery<M>>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = bounded(capacity.max(1));
        txs.push(tx);
        rxs.push(rx);
    }
    rxs.into_iter()
        .enumerate()
        .map(|(i, rx)| ChannelTransport {
            me: ProcessId(i as u32),
            rx,
            txs: txs.clone(),
            backpressure: 0,
        })
        .collect()
}

impl<M: Message> Transport<M> for ChannelTransport<M> {
    fn send(&mut self, to: ProcessId, sent_round: u64, msg: &M) {
        let delivery = Delivery { from: self.me, sent_round, msg: msg.clone() };
        match self.txs[to.index()].try_send(delivery) {
            Ok(()) => {}
            Err(TrySendError::Full(delivery)) => {
                self.backpressure += 1;
                let _ = self.txs[to.index()].send(delivery);
            }
            Err(TrySendError::Disconnected(_)) => {}
        }
    }

    fn drain(&mut self, out: &mut Vec<Delivery<M>>) {
        out.extend(self.rx.try_iter());
    }

    fn backpressure(&self) -> u64 {
        self.backpressure
    }
}
