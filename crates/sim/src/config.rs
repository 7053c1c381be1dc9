//! Simulator configuration (Table 2 of the paper).

use mem_hier::{CacheConfig, DataMemoryConfig};

/// Core + memory configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: u32,
    /// Instructions dispatched (renamed) per cycle.
    pub dispatch_width: u32,
    /// Integer-side issue width.
    pub issue_width_int: u32,
    /// FP-side issue width.
    pub issue_width_fp: u32,
    /// Instructions committed per cycle.
    pub commit_width: u32,
    /// Fetch-queue entries.
    pub fetch_queue: usize,
    /// Reorder-buffer entries.
    pub rob_size: usize,
    /// Integer issue-queue entries.
    pub iq_int: usize,
    /// FP issue-queue entries.
    pub iq_fp: usize,
    /// Cycles between a mispredicted branch resolving and useful fetch
    /// resuming (front-end refill).
    pub mispredict_redirect: u32,
    /// L1 I-cache geometry.
    pub l1i: CacheConfig,
    /// Data-memory hierarchy (L1D + L2 + D-TLB).
    pub mem: DataMemoryConfig,
    /// D-cache read/write ports (Table 2: 4).
    pub mem_ports: u32,
    /// Commit watchdog: a debug panic fires if no instruction commits for
    /// this many cycles (forward-progress property of the design).
    /// [`validate`](Self::validate) requires at least the memory
    /// hierarchy's worst single-access latency.
    pub watchdog_cycles: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            fetch_width: 8,
            dispatch_width: 8,
            issue_width_int: 8,
            issue_width_fp: 8,
            commit_width: 8,
            fetch_queue: 64,
            rob_size: 256,
            iq_int: 128,
            iq_fp: 128,
            mispredict_redirect: 6,
            l1i: CacheConfig::l1i(),
            mem: DataMemoryConfig::default(),
            mem_ports: 4,
            watchdog_cycles: 100_000,
        }
    }
}

impl SimConfig {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Canonical string naming every configuration field — the
    /// `sim_config` component of an experiment-store cache key. Two
    /// configs produce the same string iff they simulate identically, so
    /// any field change (including cache geometry) invalidates cached
    /// points.
    ///
    /// ```
    /// use ooo_sim::SimConfig;
    ///
    /// let paper = SimConfig::paper().canonical();
    /// let wide = SimConfig { fetch_width: 16, ..SimConfig::paper() }.canonical();
    /// assert_ne!(paper, wide);
    /// assert_eq!(paper, SimConfig::paper().canonical(), "deterministic");
    /// ```
    pub fn canonical(&self) -> String {
        format!(
            "fw{},dw{},iwi{},iwf{},cw{},fq{},rob{},iqi{},iqf{},mr{},ports{},wd{},l1i={},{}",
            self.fetch_width,
            self.dispatch_width,
            self.issue_width_int,
            self.issue_width_fp,
            self.commit_width,
            self.fetch_queue,
            self.rob_size,
            self.iq_int,
            self.iq_fp,
            self.mispredict_redirect,
            self.mem_ports,
            self.watchdog_cycles,
            self.l1i.canonical(),
            self.mem.canonical()
        )
    }

    /// Sanity checks.
    pub fn validate(&self) -> Result<(), String> {
        if self.rob_size == 0 || self.fetch_queue == 0 {
            return Err("rob/fetch queue must be positive".into());
        }
        if self.fetch_width == 0 || self.dispatch_width == 0 || self.commit_width == 0 {
            return Err("pipeline widths must be positive".into());
        }
        if self.issue_width_int == 0 || self.issue_width_fp == 0 {
            return Err("issue widths must be positive".into());
        }
        if self.iq_int == 0 || self.iq_fp == 0 {
            return Err("issue queues must be positive".into());
        }
        if self.mem_ports == 0 {
            return Err("need at least one memory port".into());
        }
        // A commit-free window shorter than one cold load would fire the
        // watchdog on correct, progressing runs.
        let min_watchdog = self.mem.worst_access_latency().max(1);
        if self.watchdog_cycles < min_watchdog {
            return Err(format!(
                "watchdog of {} cycles is shorter than the worst single memory access; need at least {min_watchdog}",
                self.watchdog_cycles
            ));
        }
        self.l1i.validate()?;
        self.mem.l1d.validate()?;
        self.mem.l2.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table2() {
        let c = SimConfig::paper();
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.rob_size, 256);
        assert_eq!(c.iq_int, 128);
        assert_eq!(c.iq_fp, 128);
        assert_eq!(c.mem_ports, 4);
        assert_eq!(c.l1i.size_bytes, 64 * 1024);
        assert_eq!(c.mem.l1d.size_bytes, 8 * 1024);
        c.validate().unwrap();
    }

    #[test]
    fn canonical_covers_every_field() {
        let base = SimConfig::paper().canonical();
        // A representative mutation per section of the struct: each must
        // move the canonical string (the store-key sensitivity contract).
        let variants = [
            SimConfig {
                commit_width: 4,
                ..SimConfig::paper()
            },
            SimConfig {
                rob_size: 128,
                ..SimConfig::paper()
            },
            SimConfig {
                watchdog_cycles: 50_000,
                ..SimConfig::paper()
            },
            SimConfig {
                l1i: CacheConfig {
                    assoc: 4,
                    ..CacheConfig::l1i()
                },
                ..SimConfig::paper()
            },
            SimConfig {
                mem: DataMemoryConfig {
                    mem_latency: 200,
                    ..DataMemoryConfig::default()
                },
                ..SimConfig::paper()
            },
        ];
        for v in variants {
            assert_ne!(v.canonical(), base, "{:?}", v.canonical());
        }
    }

    #[test]
    fn validate_rejects_zero_issue_widths() {
        for (int_w, fp_w) in [(0, 8), (8, 0), (0, 0)] {
            let c = SimConfig {
                issue_width_int: int_w,
                issue_width_fp: fp_w,
                ..SimConfig::paper()
            };
            let e = c.validate().unwrap_err();
            assert!(e.contains("issue widths"), "{e}");
        }
    }

    #[test]
    fn validate_rejects_zero_issue_queues() {
        for (iq_int, iq_fp) in [(0, 128), (128, 0)] {
            let c = SimConfig {
                iq_int,
                iq_fp,
                ..SimConfig::paper()
            };
            let e = c.validate().unwrap_err();
            assert!(e.contains("issue queues"), "{e}");
        }
    }

    #[test]
    fn validate_rejects_zero_watchdog() {
        let c = SimConfig {
            watchdog_cycles: 0,
            ..SimConfig::paper()
        };
        let e = c.validate().unwrap_err();
        assert!(e.contains("watchdog"), "{e}");
    }

    #[test]
    fn validate_rejects_watchdog_below_the_worst_access() {
        // Paper hierarchy: 30 (TLB walk) + 2 (L1) + 10 (L2) + 100 (memory).
        assert_eq!(SimConfig::paper().mem.worst_access_latency(), 142);
        for wd in [1, 50, 141] {
            let c = SimConfig {
                watchdog_cycles: wd,
                ..SimConfig::paper()
            };
            let e = c.validate().unwrap_err();
            assert!(e.contains("need at least 142"), "{e}");
            assert!(!e.contains('\n'), "one-line error: {e}");
        }
        SimConfig {
            watchdog_cycles: 142,
            ..SimConfig::paper()
        }
        .validate()
        .unwrap();
        // The minimum follows the configured hierarchy.
        let slow = SimConfig {
            mem: DataMemoryConfig {
                mem_latency: 300,
                ..DataMemoryConfig::default()
            },
            watchdog_cycles: 200,
            ..SimConfig::paper()
        };
        assert!(slow.validate().unwrap_err().contains("need at least 342"));
    }
}
