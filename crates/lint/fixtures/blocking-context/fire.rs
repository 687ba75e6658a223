//! Fires `blocking-context` in both of its contexts. Analyzed under the
//! cluster crate scope, where `Governor::reserve` is a governor root.
//!
//! A held lock: a blocking receive executed while the mailbox lock is
//! held. The sender that would satisfy the receive needs the same lock to
//! enqueue, so the rank stalls itself.
//!
//! A governor root: reservation math that drains a credit channel with a
//! *blocking* receive behind a helper. Reservation runs under the governor
//! lock on every transfer — it must compute, never park the thread.

pub struct Mailbox {
    queue: Mutex<Vec<u8>>,
}

impl Mailbox {
    /// Holds the queue lock across `recv`: the peer delivering the reply
    /// must take `queue` to enqueue it — self-deadlock.
    pub fn deliver(&self, peer: &Endpoint) {
        let q = self.queue.lock();
        let msg = peer.recv();
        q.push(msg);
    }
}

pub struct Governor {
    credits: std::sync::mpsc::Receiver<u64>,
    rate: f64,
}

impl Governor {
    pub fn reserve(&self, bytes: usize) -> u64 {
        let credit = self.drain_credit();
        (bytes as f64 / self.rate) as u64 + credit
    }

    fn drain_credit(&self) -> u64 {
        match self.credits.recv() {
            Ok(v) => v,
            Err(_) => 0,
        }
    }
}
