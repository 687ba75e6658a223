//! Fire, two cases on one rank path. A mailbox receive loop whose poll
//! backoff reads the wall clock two calls deep — exactly the hidden
//! dependency virtual time cannot replace. And a send that joins a worker
//! thread with no sanction pragma: plain blocking is allowed on the rank
//! path only where the site says why (it becomes a scheduler yield point).

pub struct Router {
    last_wait_ns: u64,
    worker: Option<std::thread::JoinHandle<u64>>,
}

impl Router {
    pub fn recv(&mut self) -> u64 {
        let waited = self.poll_backoff();
        self.last_wait_ns = waited;
        waited
    }

    fn poll_backoff(&self) -> u64 {
        let t0 = std::time::Instant::now();
        spin_once();
        t0.elapsed().as_nanos() as u64
    }

    pub fn send(&mut self) -> u64 {
        self.drain_worker()
    }

    fn drain_worker(&mut self) -> u64 {
        match self.worker.take() {
            Some(handle) => handle.join().unwrap_or(0),
            None => 0,
        }
    }
}

fn spin_once() {}
