//! Host facts and process helpers: core count, commit, peak RSS, and a
//! scratch directory inside the checkout.

use std::path::{Path, PathBuf};

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git/HEAD` (following one ref,
/// loose or packed); `unknown` outside a git checkout.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Host-wide CPU time as `(all, stolen)` clock ticks from `/proc/stat`:
/// stolen ticks are time the hypervisor ran someone else on this
/// machine's CPUs, which slows every timing taken meanwhile.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

/// Peak resident set size of process `pid` (`self` for this process) in
/// MiB, from `VmHWM` in `/proc/{pid}/status`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line".to_owned())
}

/// CPU time of process `pid`, every thread's (exited ones too), in
/// seconds, to the nanosecond: `clock_gettime` on the process's CPU
/// clock, the one `clock_getcpuclockid(pid)` names. The kernel leaves out
/// time the hypervisor stole from the guest, so on a shared host this is
/// steadier than wall time.
pub fn cpu_secs(pid: u32) -> Result<f64, String> {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    // Linux's MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED).
    let clock = (!(pid as i32) << 3) | 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return Err(format!(
            "CPU clock of process {pid}: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(ts.sec as f64 + ts.nsec as f64 * 1e-9)
}

/// A fresh scratch directory under `{root}/.bench_work`, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(root: &Path, tag: &str) -> Result<Self, String> {
        let dir = root
            .join(".bench_work")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    /// A path inside the directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Copies every regular file of `from` into `to` (created if missing).
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_type().map_err(|e| e.to_string())?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))
                .map_err(|e| format!("{}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

/// A deterministic 64-bit mixer (SplitMix64) for picking sample pairs.
pub fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
