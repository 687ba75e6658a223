//! Clean: the same mailbox loop timed against a governor-owned virtual
//! clock, and the same worker join. The single remaining wall-clock read
//! sits at the clock seam and carries a sanction pragma, as does the join —
//! the rule stays quiet and both sites show up in the effects inventory as
//! sanctioned.

pub struct Router {
    virtual_ns: u64,
    worker: Option<std::thread::JoinHandle<u64>>,
}

impl Router {
    pub fn recv(&mut self) -> u64 {
        let waited = self.poll_backoff();
        self.virtual_ns += waited;
        waited
    }

    fn poll_backoff(&self) -> u64 {
        // lint: sanction(wall-clock): governor-owned clock seam; the DES
        // scheduler swaps this read for virtual time. audited 2026-08.
        let t0 = std::time::Instant::now();
        t0.elapsed().as_nanos() as u64
    }

    pub fn send(&mut self) -> u64 {
        self.drain_worker()
    }

    fn drain_worker(&mut self) -> u64 {
        match self.worker.take() {
            // lint: sanction(blocks): teardown join of the flush worker;
            // the DES scheduler parks the rank task instead. audited 2026-08.
            Some(handle) => handle.join().unwrap_or(0),
            None => 0,
        }
    }
}
