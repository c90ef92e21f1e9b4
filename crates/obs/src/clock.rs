//! Monotonic process clock.
//!
//! All observability timestamps are nanoseconds since the first clock read
//! of the process, from one shared [`Instant`] origin — so events recorded
//! by different crates land on a single comparable timeline and exported
//! traces start near zero.

use std::sync::OnceLock;
use std::time::Instant;

static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the first call in this process.
///
/// Saturates at `u64::MAX` (≈ 584 years of uptime).
pub fn now_ns() -> u64 {
    let origin = ORIGIN.get_or_init(Instant::now);
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// CPU time consumed by the calling thread, in nanoseconds.
///
/// Unlike [`now_ns`], descheduled intervals (other processes, hypervisor
/// steal) do not accumulate, which makes this the right clock for
/// overhead *comparisons* on shared machines: wall time charges whichever
/// measurement happens to be running for every preemption, while CPU time
/// counts only work the thread itself did. Returns `None` on targets
/// without a precise per-thread CPU clock.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn thread_cpu_ns() -> Option<u64> {
    const SYS_CLOCK_GETTIME: i64 = 228;
    const CLOCK_THREAD_CPUTIME_ID: i64 = 3;
    let mut ts = [0i64; 2]; // struct timespec { tv_sec, tv_nsec }, both i64 on x86_64
    let ret: i64;
    #[expect(
        clippy::inline_asm_x86_intel_syntax,
        reason = "a raw clock_gettime syscall, not data-path vector code"
    )]
    // SAFETY: raw clock_gettime(2) syscall; the kernel writes exactly one
    // 16-byte timespec to `ts`, which is a valid, aligned, live 2×i64
    // buffer, and the asm clobbers only rax/rcx/r11 as the x86_64 syscall
    // ABI specifies. No Rust memory is otherwise touched.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") SYS_CLOCK_GETTIME => ret,
            in("rdi") CLOCK_THREAD_CPUTIME_ID,
            in("rsi") ts.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    (ret == 0).then(|| (ts[0] as u64).saturating_mul(1_000_000_000).saturating_add(ts[1] as u64))
}

/// See the x86_64-linux implementation; no precise source on this target.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn thread_cpu_ns() -> Option<u64> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn thread_cpu_clock_is_monotone_and_advances_under_load() {
        let Some(a) = thread_cpu_ns() else { return };
        // Burn enough CPU that the clock must visibly advance.
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
        let b = thread_cpu_ns().expect("clock vanished between calls");
        assert!(b > a, "thread CPU clock did not advance: {a} -> {b}");
    }
}
