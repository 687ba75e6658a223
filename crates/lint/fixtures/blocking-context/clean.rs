//! Clean twin for `blocking-context`: the governor drains its credit
//! channel nonblockingly, so reservation stays pure math over whatever
//! credits have arrived. Must produce no findings from any rule.

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
