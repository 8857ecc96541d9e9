//! What the suite reads from the host: process CPU time
//! (`getrusage`), peak resident set (`/proc/self/status`), stolen time
//! (`/proc/stat`), and the
//! metadata recorded beside every run. 64-bit Linux only: the suite
//! reads `/proc` and declares `struct rusage` with that ABI's layout.

use std::process::Command;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Process-wide resource use so far.
#[derive(Debug, Clone, Copy)]
pub struct ProcessUsage {
    /// User + system CPU of every thread, living or joined, seconds.
    pub cpu_s: f64,
    /// Peak resident set size, MiB: `VmHWM` of `/proc/self/status`
    /// (0 where the file is absent). Not `ru_maxrss`, which survives
    /// `execve` and so starts at the resident set of whatever launched
    /// the benchmark — 25 MiB under `cargo run`.
    pub peak_rss_mb: f64,
}

/// Read the process's CPU time and peak RSS.
///
/// # Panics
///
/// Panics if the kernel rejects the call, which `RUSAGE_SELF` with a
/// valid pointer never does.
pub fn process_usage() -> ProcessUsage {
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `Rusage` whose layout matches
    // the 64-bit Linux `struct rusage` (144 bytes: two 16-byte
    // timevals and 14 longs); `getrusage` writes exactly that struct
    // and keeps no pointer past the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    ProcessUsage {
        cpu_s: secs(ru.utime) + secs(ru.stime),
        peak_rss_mb: std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|status| parse_vm_hwm_kib(&status))
            .map_or(0.0, |kib| kib as f64 / 1024.0),
    }
}

/// The `VmHWM:   12345 kB` line of `/proc/self/status`, in KiB.
fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Host-wide CPU jiffies from the first line of `/proc/stat`:
/// `(steal, total)`. `None` where the file is absent or malformed.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    parse_cpu_line(stat.lines().next()?)
}

fn parse_cpu_line(line: &str) -> Option<(u64, u64)> {
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already counted inside user/nice.
    let values: Vec<u64> = fields.take(8).map_while(|f| f.parse().ok()).collect();
    (values.len() == 8).then(|| (values[7], values.iter().sum()))
}

/// Share of host CPU time stolen by the hypervisor between two
/// [`cpu_jiffies`] readings (0 when the host does not report it).
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            (s1.saturating_sub(s0)) as f64 / (t1 - t0) as f64
        }
        _ => 0.0,
    }
}

/// Host metadata recorded with every run file.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// `rustc -V` of the toolchain on `PATH` (the one that built this).
    pub rustc: String,
    /// Worker threads the rayon shim will use (host default unless
    /// `RAYON_NUM_THREADS` is set; the suite never sets it).
    pub rayon_threads: usize,
}

impl HostInfo {
    /// Collect from `/proc` and the toolchain; unknown fields read
    /// `unknown`.
    pub fn collect() -> Self {
        let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
        let cpu_model = read("/proc/cpuinfo")
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or_else(|| "unknown".to_string(), |(_, v)| v.trim().to_string());
        let kernel = match read("/proc/sys/kernel/osrelease").trim() {
            "" => "unknown".to_string(),
            k => k.to_string(),
        };
        let rustc = Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            );
        HostInfo {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel,
            rustc,
            rayon_threads: rayon::current_num_threads(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_positive() {
        let before = process_usage();
        let mut x = 0u64;
        while process_usage().cpu_s - before.cpu_s < 0.02 {
            for i in 0..200_000u64 {
                x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
            }
        }
        std::hint::black_box(x);
        let after = process_usage();
        assert!(after.cpu_s > before.cpu_s);
        assert!(after.peak_rss_mb > 0.5, "peak rss {}", after.peak_rss_mb);
    }

    #[test]
    fn status_file_parses_the_high_water_mark() {
        let status =
            "Name:\tbench_suite\nVmPeak:\t  300000 kB\nVmHWM:\t   23552 kB\nVmRSS:\t   100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(23_552));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 100 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots\n"), None);
    }

    #[test]
    fn proc_stat_line_parses_steal_and_total() {
        let line = "cpu  100 5 50 1000 20 0 3 22 0 0";
        assert_eq!(parse_cpu_line(line), Some((22, 1200)));
        assert_eq!(parse_cpu_line("cpu0 1 2 3"), None);
        assert_eq!(parse_cpu_line("cpu 1 2 3"), None);
        assert_eq!(steal_share(Some((10, 1000)), Some((32, 1200))), 0.11);
        assert_eq!(steal_share(None, Some((1, 2))), 0.0);
        assert_eq!(steal_share(Some((5, 100)), Some((5, 100))), 0.0);
    }
}
