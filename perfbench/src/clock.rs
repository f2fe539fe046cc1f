//! The host clock the benchmark times the simulator with: CPU time of the
//! calling thread. The simulator is single-threaded, so on an idle host
//! this equals wall time; on a shared host it leaves out the time the
//! thread waited for a core. What it cannot leave out is neighbours
//! slowing the core itself (shared caches, memory, SMT siblings), so every
//! run also times a fixed calibration loop that slows down with it.

use std::os::raw::{c_int, c_long};
use std::time::Duration;

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// CPU time this thread has used so far.
pub fn thread_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two `long`s on
    // Linux) that outlives the call, and the clock id is a constant the
    // kernel defines; `clock_gettime` writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is readable");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Seconds of thread CPU time `f` takes, and its result.
pub fn cpu_seconds<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = thread_cpu();
    let out = f();
    ((thread_cpu() - t).as_secs_f64(), out)
}

/// Thread CPU seconds [`calibrate`] takes on the reference machine (a
/// quiet 2-vCPU Xeon VM); host times are reported at this speed.
pub const CALIBRATION_REF_S: f64 = 0.30;

/// Thread CPU seconds of a fixed loop that shares nothing with the
/// simulator's code but resembles its work: ordered-map churn, small
/// allocations and pointer chasing over a few MiB. A change to the
/// program cannot move it; a slower core moves it as much as the run.
pub fn calibrate() -> f64 {
    use std::collections::BTreeMap;
    cpu_seconds(|| {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut map: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut acc = 0u64;
        for i in 0..1_500_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 20_000;
            if i % 2 == 0 {
                map.insert(k, vec![i as u8; (k % 96) as usize + 16]);
            } else if let Some(v) = map.remove(&(k ^ 1)) {
                acc += v.len() as u64;
            }
            if let Some((_, v)) = map.range(k..).next() {
                acc = acc.wrapping_add(v[0] as u64);
            }
        }
        std::hint::black_box(acc);
    })
    .0
}
