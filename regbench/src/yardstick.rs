//! The yardstick: a fixed computation, compiled into the benchmark and so
//! the same for every version of the program, timed beside the program
//! to read how fast the host is at that moment.
//!
//! The host is shared with other tenants. Each of its CPUs alternates,
//! every second or so and independently of the others, between a fast
//! state and one up to twice as slow for the simulator, and how much of
//! the time is slow drifts over minutes. The simulator's times as
//! measured therefore drift between runs of the same code by more than
//! any useful bound. A slice of the yardstick sorts fresh memory and
//! updates a table at random, both larger than a core's L2, and slows
//! with the program. Every measured time is read in slices: the time
//! over the slice time beside it. Set-up time, which is reported in
//! seconds, is converted back at [`REFERENCE_SLICE_S`].
//! `regbench/README.md` has the calibration.

use std::os::unix::process::CommandExt;
use std::process::Command;
use std::time::Instant;

/// Keys one slice sorts, in a buffer allocated afresh each slice (1 MiB).
const SORT_KEYS: usize = 1 << 18;

/// Entries of the table one slice updates at random (4 MiB).
const TABLE_ENTRIES: usize = 1 << 19;

/// Random read-modify-writes of the table per slice.
const TABLE_STEPS: usize = 600_000;

/// Slices per CPU in the block on each side of a measurement that may
/// use every CPU.
const BLOCK_PER_CPU: usize = 2;

/// Seconds per slice when a time in slices is reported in seconds: a
/// slice's time on the calibration host (a 2-vCPU x86-64 VM) when its
/// CPUs are fast, the 5th percentile of its slice times over runs of a
/// fast period. A fixed rate, so that a time reported in seconds moves
/// with the program and not with the host; the rate itself cancels in
/// every comparison of two runs.
pub const REFERENCE_SLICE_S: f64 = 0.0065;

/// Linux's `cpu_set_t`: a bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The calling thread's CPU mask, if the kernel reports it.
fn affinity() -> Option<CpuSet> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed.
    let r = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    (r == 0).then_some(mask)
}

/// Restricts the calling thread to `mask`; a refusal leaves it where it
/// was, which only makes a slice read another CPU.
fn set_affinity(mask: &CpuSet) {
    // SAFETY: `mask` is a live buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) };
}

fn only(cpu: usize) -> CpuSet {
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    mask
}

/// Makes `cmd`'s child run only on `cpu`.
pub(crate) fn pin_command(cmd: &mut Command, cpu: usize) -> &mut Command {
    let mask = only(cpu);
    // SAFETY: the hook runs in the forked child before exec and only
    // makes one system call on a mask that was copied into the closure.
    unsafe {
        cmd.pre_exec(move || {
            set_affinity(&mask);
            Ok(())
        })
    }
}

/// The yardstick's state: its table, its random stream and the CPUs
/// this process may use.
pub struct Yardstick {
    table: Vec<u64>,
    state: u64,
    allowed: Option<CpuSet>,
    cpus: Vec<usize>,
}

impl Default for Yardstick {
    fn default() -> Yardstick {
        Yardstick::new()
    }
}

impl Yardstick {
    /// A yardstick with its table touched once, so that no slice pays
    /// for the table's page faults.
    pub fn new() -> Yardstick {
        let allowed = affinity();
        let cpus = match &allowed {
            Some(mask) => (0..mask.len() * 64)
                .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
                .collect(),
            None => Vec::new(),
        };
        let mut y = Yardstick {
            table: vec![0; TABLE_ENTRIES],
            state: 0x5eed,
            allowed,
            cpus,
        };
        y.slice();
        y
    }

    /// The CPUs this process may use, in order (empty when the kernel
    /// does not say).
    pub(crate) fn cpus(&self) -> &[usize] {
        &self.cpus
    }

    fn next(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.state >> 17
    }

    /// Runs one slice where the thread stands and returns its wall-clock
    /// seconds.
    fn slice(&mut self) -> f64 {
        let started = Instant::now();
        let mut keys: Vec<u32> = (0..SORT_KEYS).map(|_| self.next() as u32).collect();
        keys.sort_unstable();
        let mut acc = u64::from(keys[SORT_KEYS / 2]);
        drop(keys);
        for _ in 0..TABLE_STEPS {
            let i = self.next() as usize & (TABLE_ENTRIES - 1);
            let entry = &mut self.table[i];
            if *entry & 1 == 0 {
                *entry = entry.wrapping_add(acc) | 1;
            } else {
                acc = acc.wrapping_add(*entry);
                *entry >>= 1;
            }
        }
        std::hint::black_box(acc);
        started.elapsed().as_secs_f64()
    }

    /// Runs one slice on `cpu`, then lets the thread use every allowed
    /// CPU again.
    fn slice_on(&mut self, cpu: usize) -> f64 {
        set_affinity(&only(cpu));
        let s = self.slice();
        if let Some(all) = self.allowed {
            set_affinity(&all);
        }
        s
    }

    /// Slices on every allowed CPU in turn, [`BLOCK_PER_CPU`] each.
    fn block(&mut self) -> Vec<f64> {
        if self.cpus.is_empty() {
            return (0..BLOCK_PER_CPU).map(|_| self.slice()).collect();
        }
        let cpus = self.cpus.repeat(BLOCK_PER_CPU);
        cpus.into_iter().map(|cpu| self.slice_on(cpu)).collect()
    }

    /// Runs `work` between two readings of the host and returns its
    /// result with the slice time beside it. With `cpu`, the work runs
    /// there (the caller pins it) and one slice on that CPU on each side
    /// is the reading, their mean; without, the median of a block of
    /// slices over every CPU on each side.
    pub(crate) fn beside<R>(&mut self, cpu: Option<usize>, work: impl FnOnce() -> R) -> (R, f64) {
        match cpu {
            Some(cpu) => {
                let before = self.slice_on(cpu);
                let r = work();
                let after = self.slice_on(cpu);
                (r, (before + after) / 2.0)
            }
            None => {
                let mut slices = self.block();
                let r = work();
                slices.extend(self.block());
                (r, crate::host::median(&slices))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_recorded_and_pinned_children_run() {
        let mut y = Yardstick::new();
        let cpu = y.cpus().first().copied();
        let (status, s) = y.beside(cpu, || {
            let mut cmd = Command::new("true");
            if let Some(c) = cpu {
                pin_command(&mut cmd, c);
            }
            cmd.status().expect("spawn true")
        });
        assert!(status.success());
        assert!(s > 0.0);
        let ((), block) = y.beside(None, || ());
        assert!(block > 0.0);
    }
}
