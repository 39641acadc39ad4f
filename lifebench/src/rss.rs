//! Peak resident set, measured per section of a run, the process's CPU
//! time and its thread count.
//!
//! The process-wide peak depends on when allocator arenas happen to be
//! trimmed, so one reading per run is noisy. Instead the peak is reset
//! at the start of each section (a set-up, an update, a window slice)
//! and read at its end; a run reports, for the section kind with the
//! largest footprint, the median of its sections' peaks. Even so it
//! moves by a third between runs, so it is shown but not bounded.

use crate::stats::median;

/// Resets the peak resident set to the current one. Where the kernel
/// does not allow it the peak simply keeps accumulating.
pub fn reset_peak() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// A numeric field of `/proc/self/status`.
fn status_field(name: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("no {name} in /proc/self/status"))
}

/// Peak resident set since the last reset, in MiB.
pub fn peak_mb() -> Result<f64, String> {
    Ok(status_field("VmHWM")? / 1024.0)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("lifebench reads /proc and the CPU clock of 64-bit Linux");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time every thread of this process has run so far, exited ones
/// included, in ns. Time stolen by the hypervisor and time spent waiting
/// to be woken do not count, so on a shared machine it moves far less
/// than wall time does.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec (two 64-bit fields on
    // the 64-bit Linux targets this benchmark runs on).
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}



/// Threads of this process.
pub fn threads() -> Result<u64, String> {
    Ok(status_field("Threads")? as u64)
}

/// The largest of the per-kind medians of section peaks.
pub fn typical_peak(kinds: &[&[f64]]) -> f64 {
    kinds
        .iter()
        .filter(|peaks| !peaks.is_empty())
        .map(|peaks| median(peaks))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_outlying_section_does_not_set_the_peak() {
        assert_eq!(typical_peak(&[&[10.0, 11.0, 90.0], &[20.0], &[]]), 20.0);
    }

    #[test]
    fn cpu_time_grows_while_a_thread_works() {
        let before = cpu_ns();
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed() < std::time::Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_ns() - before >= 10_000_000, "30 ms of spinning ran");
    }

    #[test]
    fn the_peak_is_readable() {
        reset_peak();
        assert!(peak_mb().unwrap() > 0.0);
    }
}
