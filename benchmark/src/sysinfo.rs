//! Facts about the box and the build, recorded in every output header so
//! numbers from different machines are not silently compared.

use std::process::Command;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Size in bytes of the last-level cache sysfs reports for cpu0.
pub fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| {
            std::fs::read_to_string(format!("{dir}/{f}"))
                .ok()
                .map(|s| s.trim().to_string())
        };
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.parse::<u32>() else {
            continue;
        };
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().ok().map(|k| k << 10),
            None => size
                .strip_suffix('M')
                .and_then(|m| m.parse::<u64>().ok())
                .map(|m| m << 20),
        };
        if let Some(bytes) = bytes {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, bytes));
            }
        }
    }
    best.map(|(_, bytes)| bytes)
}

/// First line a command prints, or "unknown" (no such tool, not a git
/// checkout, …).
fn first_line(program: &str, args: &[&str], dir: &str) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn rustc_version() -> String {
    first_line("rustc", &["--version"], env!("CARGO_MANIFEST_DIR"))
}

pub fn git_commit() -> String {
    first_line("git", &["rev-parse", "HEAD"], env!("CARGO_MANIFEST_DIR"))
}

/// Peak resident set size (`VmHWM`) of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().strip_suffix("kB"))
                .and_then(|kb| kb.trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Pins glibc malloc's two history-dependent heuristics: the dynamic mmap
/// threshold and heap trimming.
///
/// Left alone, they make the training loops' large-buffer churn bimodal:
/// depending on the sizes a dataset happens to produce, the top of the heap
/// is trimmed and faulted back in on every step, and `Hgt::fit_epochs` runs
/// 1.3–1.5× slower on some seeds than on others of the same size (measured:
/// 225 vs 355 ms per epoch; any one of `MALLOC_TRIM_THRESHOLD_`,
/// `MALLOC_MMAP_THRESHOLD_`, `MALLOC_TOP_PAD_` removes the slow mode). A
/// ruler that jumps 40% with the allocator's mood cannot resolve a 10%
/// change in the program, so the benchmark measures with both pinned:
/// buffers up to 32 MiB come from the heap and the heap is never trimmed.
/// The README records this as a deviation from "what a user gets by default".
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn pin_malloc() {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: `mallopt` is glibc's documented tuning call; it only stores
    // two integers in the allocator's parameters and is called first thing
    // in `main`, before any other thread exists.
    let accepted = unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, c_int::MAX) == 1
    };
    assert!(accepted, "glibc refused the malloc settings");
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn pin_malloc() {}

/// What [`pin_malloc`] did on this target, for the output header.
pub const MALLOC_POLICY: &str = if cfg!(all(target_os = "linux", target_env = "gnu")) {
    "glibc, mmap threshold 32 MiB and no trimming (pinned by the benchmark)"
} else {
    "platform default"
};
