//! Clean twin for `blocking-context`: the mailbox guard is released —
//! explicitly via `drop`, or by an inner scope — before any blocking call,
//! and the governor drains its credit channel nonblockingly, so
//! reservation stays pure math over whatever credits have arrived. Must
//! produce no findings from any rule.

pub struct Mailbox {
    queue: Mutex<Vec<u8>>,
}

impl Mailbox {
    /// Explicit `drop(guard)` ends the held extent before the receive.
    pub fn deliver(&self, peer: &Endpoint) {
        let q = self.queue.lock();
        let backlog = q.len();
        drop(q);
        let msg = peer.recv();
        self.store(backlog, msg);
    }

    /// An inner scope bounds the guard; the receive happens outside it.
    pub fn drain(&self, peer: &Endpoint) {
        {
            let q = self.queue.lock();
            q.clear();
        }
        let msg = peer.recv();
        self.store(0, msg);
    }

    fn store(&self, _backlog: usize, _msg: u8) {}
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
        let mut total = 0;
        while let Ok(v) = self.credits.try_recv() {
            total += v;
        }
        total
    }
}
