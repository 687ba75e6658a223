//! What the benchmark reads from the operating system: peak memory,
//! context switches, core count, and the one-suite-at-a-time lock.

use std::fs;
use std::io::Write;
use std::path::PathBuf;

/// Where the benchmark writes: span files and the run lock.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Voluntary context switches of this process so far, over all its threads,
/// living and joined (`ru_nvcsw`). `/proc/self/status` counts only the main
/// thread, and the rank threads are gone by the time anyone could read
/// their own files, so this asks `getrusage`.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn voluntary_ctx_switches() -> Option<u64> {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs.
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        longs: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    /// Index of `ru_nvcsw` among the longs (after maxrss, ixrss, idrss,
    /// isrss, minflt, majflt, nswap, inblock, oublock, msgsnd, msgrcv,
    /// nsignals).
    const NVCSW: usize = 12;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        longs: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value with the size and layout of
    // the C library's `struct rusage` on this target (144 bytes, all
    // 8-byte fields), which is all `getrusage` requires of its argument.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    (rc == 0).then(|| usage.longs[NVCSW].max(0) as u64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn voluntary_ctx_switches() -> Option<u64> {
    None
}

/// Pin this process, and every thread it starts from now on, to one of the
/// CPUs it may run on; returns that CPU. The DES backend runs one rank at a
/// time, so a second CPU adds nothing but migrations: with the kernel free
/// to spread rank threads over two CPUs every workload is 13–60 % slower
/// and its pass times spread four times wider (see the README). One CPU is
/// also what a universe gets when a campaign keeps every core busy.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    /// `cpu_set_t`: 1,024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    // The highest allowed CPU: CPU 0 tends to take the interrupts.
    let (word, bits) = allowed.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly the size passed, and the
    // call only reads it.
    (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0)
        .then_some(word * 64 + bit)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Held for the life of a suite: a second benchmark process started on the
/// same checkout while this one runs refuses to start, because two
/// workloads timing each other's noise measure nothing.
pub struct RunLock {
    path: PathBuf,
}

impl RunLock {
    pub fn acquire() -> Result<RunLock, String> {
        let dir = out_dir();
        fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join("benchmark.lock");
        for _ in 0..2 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    // Best effort: an unreadable pid only makes the lock
                    // look live to the next process.
                    let _ = write!(file, "{}", std::process::id());
                    return Ok(RunLock { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let owner = fs::read_to_string(&path).unwrap_or_default();
                    // Live only if that pid is still this program: a pid
                    // can be reused after the owner was killed.
                    let mine = fs::read_to_string("/proc/self/comm").unwrap_or_default();
                    let live = owner.trim().parse::<u32>().is_ok_and(|pid| {
                        fs::read_to_string(format!("/proc/{pid}/comm")).is_ok_and(|c| c == mine)
                    });
                    if live {
                        return Err(format!(
                            "another benchmark run (pid {}) holds {}; refusing to run two workloads at once",
                            owner.trim(),
                            path.display()
                        ));
                    }
                    // The owner is gone (killed mid-run): take the lock over.
                    let _ = fs::remove_file(&path);
                }
                Err(e) => return Err(format!("cannot create {}: {e}", path.display())),
            }
        }
        Err(format!("could not take {}", path.display()))
    }
}

impl Drop for RunLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mib().is_some_and(|m| m > 0.1));
        assert!(nproc() >= 1);
        let before = voluntary_ctx_switches().expect("getrusage");
        std::thread::spawn(|| std::thread::sleep(std::time::Duration::from_millis(5)))
            .join()
            .expect("sleeper");
        let after = voluntary_ctx_switches().expect("getrusage");
        assert!(after > before, "{before} -> {after}");
    }

    #[test]
    fn pinning_leaves_one_cpu_and_threads_inherit_it() {
        let allowed = |pid_path: &str| {
            let status = fs::read_to_string(pid_path).expect("status");
            let line = status
                .lines()
                .find(|l| l.starts_with("Cpus_allowed_list:"))
                .expect("Cpus_allowed_list")
                .to_owned();
            line.split_whitespace().nth(1).expect("list").to_owned()
        };
        // On its own thread: the test harness's other threads stay free.
        std::thread::spawn(move || {
            let cpu = pin_to_one_cpu().expect("pinned");
            assert_eq!(allowed("/proc/thread-self/status"), cpu.to_string());
            std::thread::spawn(move || {
                assert_eq!(allowed("/proc/thread-self/status"), cpu.to_string());
            })
            .join()
            .expect("inheriting thread");
        })
        .join()
        .expect("pinning thread");
    }
}
