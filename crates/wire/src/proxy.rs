//! Socket-edge fault injection.
//!
//! The TCP runtime judges every outbound frame at the sender's edge — the
//! last point before bytes hit the socket — with the same
//! [`LinkPolicy`] every backend takes (`ClusterConfig::link_policy`).
//! [`LinkFate::Sever`] is the fate only sockets can act out: the frame is
//! lost and the connection torn down, so the writer must re-dial and
//! re-handshake, exercising the reconnect path that in-memory backends
//! (which count a sever as a plain drop) cannot model. [`SeverAt`]
//! schedules one such reset.

use meba_sim::faults::{Link, LinkFate, LinkPolicy};

/// Severs one directed link in one specific round, delegating every
/// other decision to an inner policy. Deterministic by construction.
pub struct SeverAt {
    link: Link,
    round: u64,
    inner: Box<dyn LinkPolicy>,
}

impl SeverAt {
    /// Severs `link` for frames sent in `round`; all other traffic is
    /// judged by `inner`.
    pub fn new(link: Link, round: u64, inner: Box<dyn LinkPolicy>) -> Self {
        SeverAt { link, round, inner }
    }

    /// Severs `link` in `round` and delivers everything else.
    pub fn otherwise_deliver(link: Link, round: u64) -> Self {
        SeverAt::new(link, round, Box::new(meba_sim::faults::ReliableLinks))
    }
}

impl LinkPolicy for SeverAt {
    fn fate(&mut self, link: Link, round: u64) -> LinkFate {
        if link == self.link && round == self.round {
            LinkFate::Sever
        } else {
            self.inner.fate(link, round)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meba_crypto::ProcessId;

    #[test]
    fn sever_at_fires_once_per_link_round() {
        let link = Link { from: ProcessId(0), to: ProcessId(2) };
        let other = Link { from: ProcessId(0), to: ProcessId(1) };
        let mut p = SeverAt::otherwise_deliver(link, 5);
        assert_eq!(p.fate(link, 4), LinkFate::Deliver);
        assert_eq!(p.fate(link, 5), LinkFate::Sever);
        assert_eq!(p.fate(other, 5), LinkFate::Deliver);
        assert_eq!(p.fate(link, 6), LinkFate::Deliver);
    }
}
