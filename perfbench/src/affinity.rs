//! CPU affinity for the serve workloads: each client thread and the
//! server connection thread that answers it share one CPU, so a round
//! trip is a same-CPU hand-off and the two connections run side by
//! side instead of wherever the scheduler last woke them.

use std::io;

// glibc's wrappers over the affinity system calls; the mask is an
// array of `u64` words, bit `i` standing for CPU `i`.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const WORDS: usize = 16;

/// The CPUs this process may run on, ascending.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Pins thread `tid` (0 = the calling thread) to `cpu`.
pub fn pin(tid: i32, cpu: usize) -> io::Result<()> {
    if cpu >= WORDS * 64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("cpu {cpu} out of range"),
        ));
    }
    let mut mask = [0u64; WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Thread ids of this process whose name starts with `prefix`, in
/// creation order (ascending id).
pub fn threads_named(prefix: &str) -> io::Result<Vec<i32>> {
    let mut tids = Vec::new();
    for entry in std::fs::read_dir("/proc/self/task")? {
        let entry = entry?;
        let comm = std::fs::read_to_string(entry.path().join("comm"))?;
        if comm.trim_end().starts_with(prefix) {
            if let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) {
                tids.push(tid);
            }
        }
    }
    tids.sort_unstable();
    Ok(tids)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thread_can_pin_itself_to_an_allowed_cpu() {
        let cpus = allowed_cpus().unwrap();
        assert!(!cpus.is_empty());
        let last = *cpus.last().unwrap();
        std::thread::spawn(move || {
            pin(0, last).unwrap();
            assert_eq!(allowed_cpus().unwrap(), vec![last]);
        })
        .join()
        .unwrap();
    }
}
