//! CPU time this process has used, all threads together.
//!
//! The benchmark runs on a few virtual cores of a shared host, where the
//! hypervisor takes a core away for milliseconds at a time ("steal"). A
//! thread that is runnable but not running still ages in wall-clock
//! time, so wall-clock rates of a server whose threads hand work to each
//! other can halve while the neighbours are busy. The kernel does not
//! charge stolen time to the process, so CPU time per operation follows
//! the program's own work and moves far less with the host's load.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds used so far by every thread of this process, the ended
/// ones included, in nanosecond resolution.
pub fn process_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is a constant the kernel
    // always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::process_s;

    // One test, not two: the clock covers every thread of the test
    // binary, so a busy loop in a concurrent test would leak into the
    // sleep's reading.
    #[test]
    fn counts_work_not_sleep() {
        let before = process_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let worked = process_s();
        assert!(worked > before, "{worked} <= {before}");

        std::thread::sleep(std::time::Duration::from_millis(200));
        let slept = process_s() - worked;
        assert!(slept < 0.1, "sleeping 200 ms cost {slept} s of CPU");
    }
}
