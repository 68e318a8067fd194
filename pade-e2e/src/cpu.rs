//! Host CPU time of this process.
//!
//! The host throughput metric divides by CPU seconds rather than wall
//! seconds: on a shared virtual machine, time the hypervisor steals and
//! time spent waiting for a core move wall-clock throughput by tens of
//! percent from minute to minute, while the CPU time the replay itself
//! consumes stays within a few percent. Wall-clock throughput is still
//! printed beside it.

/// CPU seconds consumed so far by every thread of this process,
/// including threads that have exited, or `None` where the platform
/// does not report it.
#[must_use]
pub fn process_cpu_s() -> Option<f64> {
    imp::process_cpu_s()
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[allow(unsafe_code)]
mod imp {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    /// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }

    pub fn process_cpu_s() -> Option<f64> {
        let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `ts` is a live, writable `struct timespec` with the C
        // layout of 64-bit Linux, and the clock id is a valid constant;
        // clock_gettime writes only through the pointer it is given.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod imp {
    pub fn process_cpu_s() -> Option<f64> {
        None
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn cpu_time_advances_with_work() {
        let before = super::process_cpu_s().expect("the benchmark runs on 64-bit Linux");
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let after = super::process_cpu_s().expect("the benchmark runs on 64-bit Linux");
        assert!(after > before, "{before} → {after} ({x})");
    }
}
