//! Simulation-wide counters and per-backend statistics.

use std::collections::BTreeMap;

/// Global counters accumulated during a simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimCounters {
    /// Requests submitted at entry points.
    pub submitted: u64,
    /// Entry requests completed successfully.
    pub completed_ok: u64,
    /// Entry requests completed with an error.
    pub completed_err: u64,
    /// Client-side RPC timeouts fired (all levels).
    pub timeouts: u64,
    /// RPC retries issued (all levels).
    pub retries: u64,
    /// Calls rejected by an open circuit breaker.
    pub breaker_rejections: u64,
    /// Breaker state transitions to open.
    pub breaker_opens: u64,
    /// Requests fast-failed by service admission limits.
    pub admission_rejections: u64,
    /// Stop-the-world GC pauses.
    pub gc_pauses: u64,
    /// Total GC pause virtual time, ns.
    pub gc_pause_ns: u64,
    /// Spans recorded by tracers.
    pub spans: u64,
    /// Messages dropped by full queues.
    pub queue_drops: u64,
    /// Faults injected (scheduled, chaos-drawn, or driver-injected).
    pub faults_injected: u64,
    /// Process crashes executed (host-down counts one per resident process).
    pub process_crashes: u64,
    /// Frames killed by a process crash.
    pub crashed_frames: u64,
    /// Requests lost to a partition or lossy link.
    pub link_unreachable: u64,
    /// Requests rejected by an unavailable (browned-out) backend.
    pub brownout_rejections: u64,
    /// Calls failed fast because their propagated deadline was exhausted.
    pub deadline_exceeded: u64,
    /// Arrivals rejected by an adaptive admission controller.
    pub shed_rejections: u64,
    /// Retries denied by an exhausted retry budget.
    pub budget_denied: u64,
    /// First attempts issued by RPC clients (the denominator for hop-level
    /// wire amplification: `(client_calls + retries) / client_calls`).
    pub client_calls: u64,
    /// Arrivals rejected because the target replica was draining or out of
    /// rotation (stable error class `"drain"`).
    pub drain_rejections: u64,
    /// Runtime changes started (rolling deploys, scale actions, canaries).
    pub reconfig_changes: u64,
    /// Autoscaler scale-out actions.
    pub autoscale_ups: u64,
    /// Autoscaler scale-in actions.
    pub autoscale_downs: u64,
    /// Canary rollouts promoted group-wide.
    pub canary_promotions: u64,
    /// Canary rollouts rolled back to the saved wiring.
    pub canary_rollbacks: u64,
    /// Store primary failovers executed (elections that promoted a replica).
    pub store_failovers: u64,
    /// Quorum reads/writes rejected for lack of reachable members.
    pub quorum_rejections: u64,
}

/// Per-backend statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BackendStats {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Reads (store) / gets (cache).
    pub reads: u64,
    /// Writes.
    pub writes: u64,
    /// Reads served by a stale replica (version behind primary).
    pub stale_reads: u64,
    /// Evictions due to capacity.
    pub evictions: u64,
    /// Acked writes discarded at a primary failover (never replicated).
    pub lost_writes: u64,
    /// Session-mode reads redirected to the primary by the session floor.
    pub session_redirects: u64,
    /// Failovers that changed this store's serving member.
    pub failovers: u64,
}

impl BackendStats {
    /// Cache miss rate in `[0, 1]` (0 when no gets were issued).
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// All metrics of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Global counters.
    pub counters: SimCounters,
    /// Backend name → stats.
    pub backends: BTreeMap<String, BackendStats>,
}

impl Metrics {
    /// Stats entry for a backend, creating it if missing.
    pub fn backend_mut(&mut self, name: &str) -> &mut BackendStats {
        self.backends.entry(name.to_string()).or_default()
    }

    /// Stats for a backend, if recorded.
    pub fn backend(&self, name: &str) -> Option<&BackendStats> {
        self.backends.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_rate() {
        let mut s = BackendStats::default();
        assert_eq!(s.miss_rate(), 0.0);
        s.hits = 3;
        s.misses = 1;
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn backend_entry_created_on_demand() {
        let mut m = Metrics::default();
        m.backend_mut("c").hits += 1;
        assert_eq!(m.backend("c").unwrap().hits, 1);
        assert!(m.backend("zzz").is_none());
    }
}
