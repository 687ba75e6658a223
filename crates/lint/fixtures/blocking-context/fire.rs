//! Fires `blocking-context`. Analyzed under the cluster crate scope, where
//! `Governor::reserve` is a governor root: reservation math that drains a
//! credit channel with a *blocking* receive behind a helper. Reservation
//! runs under the governor lock on every transfer — it must compute, never
//! park the thread.

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
