//! DDR3-like DRAM timing model with open-row bank state.

use serde::{Deserialize, Serialize};

/// DRAM organization and timing parameters, in core cycles.
///
/// Defaults model the paper's DDR3-1600 configuration seen from a 2 GHz
/// core: `tCAS = tRCD = tRP = 13.75 ns ≈ 28` core cycles, 2 ranks/channel,
/// 8 banks/rank, 8 KB rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DramConfig {
    /// Column access latency (row already open).
    pub t_cas: u32,
    /// Row activation latency.
    pub t_rcd: u32,
    /// Precharge latency (closing an open row).
    pub t_rp: u32,
    /// Number of independent banks (ranks × banks/rank).
    pub banks: usize,
    /// Row size in bytes.
    pub row_bytes: u64,
    /// Data-bus transfer time per access.
    pub burst: u32,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            t_cas: 28,
            t_rcd: 28,
            t_rp: 28,
            banks: 16,
            row_bytes: 8 * 1024,
            burst: 4,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u64>,
    busy_until: u64,
}

/// Open-row DRAM timing: per-bank open-row tracking plus bank busy time.
///
/// An access to the open row pays `tCAS`; a closed bank pays `tRCD + tCAS`;
/// a conflicting open row pays `tRP + tRCD + tCAS`. Requests queue behind
/// the bank's previous request.
///
/// # Examples
///
/// ```
/// use regshare_mem::{Dram, DramConfig};
///
/// let mut d = Dram::new(DramConfig::default());
/// let first = d.access(0, 0);           // row activation + CAS
/// let second = d.access(64, first as u64); // same row: CAS only
/// assert!(second < first);
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    banks: Vec<Bank>,
    accesses: u64,
    row_hits: u64,
}

impl Dram {
    /// Creates a DRAM model with all banks precharged.
    pub fn new(config: DramConfig) -> Self {
        let banks = vec![
            Bank {
                open_row: None,
                busy_until: 0
            };
            config.banks
        ];
        Dram {
            config,
            banks,
            accesses: 0,
            row_hits: 0,
        }
    }

    fn bank_and_row(&self, addr: u64) -> (usize, u64) {
        let row = addr / self.config.row_bytes;
        let bank = (row as usize) % self.banks.len();
        (bank, row)
    }

    /// Clears access statistics and bank busy times, keeping each bank's
    /// open row. Used when a functionally-warmed DRAM — whose clock was an
    /// instruction-count pseudo-time — is handed to a measurement window
    /// that counts cycles from zero: stale `busy_until` values from the
    /// old clock domain would otherwise queue the window's first accesses
    /// behind fictitious billion-cycle reservations.
    pub fn reset_stats(&mut self) {
        self.accesses = 0;
        self.row_hits = 0;
        for b in &mut self.banks {
            b.busy_until = 0;
        }
    }

    /// Records an access without timing: updates the bank's open row and
    /// the hit statistics but not its busy time. This is the functional-
    /// warming path — row *contents* persist across the warm/detailed
    /// handoff while busy times are window-local (see
    /// [`Dram::reset_stats`]), so warming never needs a clock.
    pub fn touch(&mut self, addr: u64) {
        self.accesses += 1;
        let (bank_idx, row) = self.bank_and_row(addr);
        let bank = &mut self.banks[bank_idx];
        if bank.open_row == Some(row) {
            self.row_hits += 1;
        }
        bank.open_row = Some(row);
    }

    /// Performs an access at time `now`; returns its total latency in
    /// cycles (including any queueing behind the bank's previous request).
    pub fn access(&mut self, addr: u64, now: u64) -> u32 {
        self.accesses += 1;
        let (bank_idx, row) = self.bank_and_row(addr);
        let cfg = self.config;
        let bank = &mut self.banks[bank_idx];
        let start = now.max(bank.busy_until);
        let service = match bank.open_row {
            Some(open) if open == row => {
                self.row_hits += 1;
                cfg.t_cas
            }
            Some(_) => cfg.t_rp + cfg.t_rcd + cfg.t_cas,
            None => cfg.t_rcd + cfg.t_cas,
        } + cfg.burst;
        bank.open_row = Some(row);
        bank.busy_until = start + service as u64;
        (bank.busy_until - now) as u32
    }

    /// Fraction of accesses that hit an open row.
    pub fn row_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.accesses as f64
        }
    }

    /// Total number of accesses served.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// The configured timing parameters.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_row_hits_are_faster() {
        let mut d = Dram::new(DramConfig::default());
        let cfg = *d.config();
        let miss = d.access(0, 0);
        assert_eq!(miss, cfg.t_rcd + cfg.t_cas + cfg.burst);
        let t = miss as u64;
        let hit = d.access(128, t);
        assert_eq!(hit, cfg.t_cas + cfg.burst);
    }

    #[test]
    fn reset_stats_clears_busy_times_but_keeps_open_rows() {
        let mut d = Dram::new(DramConfig::default());
        let cfg = *d.config();
        d.access(0, 1_000_000_000); // bank reserved far into pseudo-time
        d.reset_stats();
        assert_eq!(d.accesses(), 0);
        // Same row at time 0: open-row hit, no queueing behind the stale
        // billion-cycle reservation.
        assert_eq!(d.access(128, 0), cfg.t_cas + cfg.burst);
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let cfg = DramConfig {
            banks: 1,
            ..DramConfig::default()
        };
        let mut d = Dram::new(cfg);
        let t = d.access(0, 0) as u64;
        // Different row, same (only) bank.
        let conflict = d.access(cfg.row_bytes, t);
        assert_eq!(conflict, cfg.t_rp + cfg.t_rcd + cfg.t_cas + cfg.burst);
    }

    #[test]
    fn queueing_behind_busy_bank() {
        let cfg = DramConfig {
            banks: 1,
            ..DramConfig::default()
        };
        let mut d = Dram::new(cfg);
        let first = d.access(0, 0);
        // Second request issued at time 0 must wait for the first.
        let second = d.access(64, 0);
        assert_eq!(second, first + cfg.t_cas + cfg.burst);
    }

    #[test]
    fn different_banks_do_not_queue() {
        let cfg = DramConfig::default();
        let mut d = Dram::new(cfg);
        let a = d.access(0, 0);
        // Next row maps to the next bank.
        let b = d.access(cfg.row_bytes, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn row_hit_rate_reflects_locality() {
        let mut d = Dram::new(DramConfig::default());
        let mut now = 0u64;
        for i in 0..10 {
            now += d.access(i * 64, now) as u64;
        }
        assert!(d.row_hit_rate() > 0.8);
        assert_eq!(d.accesses(), 10);
    }
}
