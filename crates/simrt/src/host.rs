//! Processor-sharing host model.
//!
//! Each host runs its active jobs under egalitarian processor sharing with a
//! per-job speed cap of one core: with `n` active jobs and `c` effective
//! cores, every job progresses at rate `min(1, c/n)` (cores beyond `n` idle).
//! This is the standard model for CPU-bound request processing and is what
//! produces the latency blow-ups under overload that the metastability
//! experiments rely on.
//!
//! The implementation uses the *virtual time* technique to stay `O(log n)`
//! per operation: all active jobs accrue service at the same rate, so a
//! single accumulator `v` (total service received per active job) orders
//! completions — a job entering with `w` ns of work completes when `v`
//! reaches `v_enter + w`. Jobs can be **frozen** (their process is in a
//! stop-the-world GC pause): frozen jobs keep their residual work and do not
//! count towards `n`. A **hog** (CPU contention injected by the anomaly
//! driver, standing in for FIRM's anomaly injector) reduces effective cores.

use std::collections::BTreeMap;

use crate::time::SimTime;
use crate::HashMap;

/// Unique job identifier (scoped to the whole simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

/// Minimum effective cores, so hogs can never fully wedge a host.
const MIN_CORES: f64 = 0.05;

/// Order-preserving bit encoding for non-negative f64 keys.
fn key(v: f64) -> u64 {
    debug_assert!(v >= 0.0 && v.is_finite());
    v.to_bits()
}

/// A processor-sharing host.
#[derive(Debug)]
pub struct PsHost {
    cores: f64,
    hog_cores: f64,
    /// Virtual service accumulated per active job, ns.
    v: f64,
    last_update: SimTime,
    /// Active jobs ordered by virtual deadline.
    queue: BTreeMap<(u64, JobId), f64>,
    /// Active job → virtual deadline.
    deadlines: HashMap<JobId, f64>,
    /// Frozen jobs → (residual work ns, process tag).
    frozen: HashMap<JobId, (f64, usize)>,
    /// Active job → process tag.
    job_proc: HashMap<JobId, usize>,
    /// Total CPU-ns of work completed (for utilization accounting).
    pub completed_work_ns: f64,
}

/// Process tag for jobs that are never frozen by GC (the GC pause itself,
/// serialization work attributed to the runtime, hog placeholders).
pub const NO_PROC: usize = usize::MAX;

// The host model is plain owned data; `Sim` embeds one per host and is
// itself `Send`, so any shared-state regression here must fail to compile.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<PsHost>();

impl PsHost {
    /// Creates a host with the given core count.
    pub fn new(cores: f64) -> Self {
        assert!(cores > 0.0);
        PsHost {
            cores,
            hog_cores: 0.0,
            v: 0.0,
            last_update: 0,
            queue: BTreeMap::new(),
            deadlines: HashMap::default(),
            frozen: HashMap::default(),
            job_proc: HashMap::default(),
            completed_work_ns: 0.0,
        }
    }

    fn effective_cores(&self) -> f64 {
        (self.cores - self.hog_cores).max(MIN_CORES)
    }

    /// Per-job progress rate with the current active set.
    fn rate(&self) -> f64 {
        let n = self.queue.len();
        if n == 0 {
            0.0
        } else {
            (self.effective_cores() / n as f64).min(1.0)
        }
    }

    /// Advances virtual time to `now`.
    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "time went backwards");
        let dt = (now - self.last_update) as f64;
        let rate = self.rate();
        if rate > 0.0 && dt > 0.0 {
            self.v += dt * rate;
            self.completed_work_ns += dt * rate * self.queue.len() as f64;
        }
        self.last_update = now;
    }

    /// Adds a job with `work_ns` of CPU work for process `proc`.
    pub fn add(&mut self, now: SimTime, job: JobId, work_ns: f64, proc: usize) {
        self.advance(now);
        let deadline = self.v + work_ns.max(0.0);
        self.queue.insert((key(deadline), job), deadline);
        self.deadlines.insert(job, deadline);
        self.job_proc.insert(job, proc);
    }

    /// Adds a job that starts frozen (its process is mid-GC).
    pub fn add_frozen(&mut self, now: SimTime, job: JobId, work_ns: f64, proc: usize) {
        self.advance(now);
        self.frozen.insert(job, (work_ns.max(0.0), proc));
    }

    /// Removes a job without completing it (e.g. its frame was dropped).
    pub fn cancel(&mut self, now: SimTime, job: JobId) {
        self.advance(now);
        if let Some(d) = self.deadlines.remove(&job) {
            self.queue.remove(&(key(d), job));
            self.job_proc.remove(&job);
        }
        self.frozen.remove(&job);
    }

    /// Collects all jobs whose work is finished as of `now`.
    pub fn collect_due(&mut self, now: SimTime) -> Vec<JobId> {
        self.advance(now);
        let mut done = Vec::new();
        // Tolerance: one femto-fraction of v to absorb f64 rounding from the
        // time quantization in `next_completion`.
        let cutoff = self.v * (1.0 + 1e-12) + 1e-6;
        while let Some((&(k, job), &deadline)) = self.queue.iter().next() {
            if deadline <= cutoff {
                self.queue.remove(&(k, job));
                self.deadlines.remove(&job);
                self.job_proc.remove(&job);
                done.push(job);
            } else {
                break;
            }
        }
        done
    }

    /// When the next job completes, if nothing else changes. Returns a time
    /// `>= now` (rounded up to whole ns).
    pub fn next_completion(&mut self, now: SimTime) -> Option<SimTime> {
        self.advance(now);
        let (_, &deadline) = self.queue.iter().next()?;
        let rate = self.rate();
        if rate <= 0.0 {
            return None;
        }
        let remaining_v = (deadline - self.v).max(0.0);
        let dt = (remaining_v / rate).ceil() as u64;
        Some(now + dt)
    }

    /// Freezes all jobs of `proc` (stop-the-world pause begins).
    pub fn freeze_proc(&mut self, now: SimTime, proc: usize) {
        self.advance(now);
        let victims: Vec<JobId> = self
            .job_proc
            .iter()
            .filter(|(_, p)| **p == proc)
            .map(|(j, _)| *j)
            .collect();
        for job in victims {
            let d = self
                .deadlines
                .remove(&job)
                .expect("active job has deadline");
            self.queue.remove(&(key(d), job));
            self.job_proc.remove(&job);
            let residual = (d - self.v).max(0.0);
            self.frozen.insert(job, (residual, proc));
        }
    }

    /// Removes every job (active or frozen) of `proc` without completing it
    /// — the process crashed. Returns the cancelled jobs in `JobId` order so
    /// callers can process them deterministically (the internal maps iterate
    /// in arbitrary order).
    pub fn cancel_proc(&mut self, now: SimTime, proc: usize) -> Vec<JobId> {
        self.advance(now);
        let mut victims: Vec<JobId> = self
            .job_proc
            .iter()
            .filter(|(_, p)| **p == proc)
            .map(|(j, _)| *j)
            .collect();
        for job in &victims {
            let d = self.deadlines.remove(job).expect("active job has deadline");
            self.queue.remove(&(key(d), *job));
            self.job_proc.remove(job);
        }
        let frozen: Vec<JobId> = self
            .frozen
            .iter()
            .filter(|(_, (_, p))| *p == proc)
            .map(|(j, _)| *j)
            .collect();
        for job in frozen {
            self.frozen.remove(&job);
            victims.push(job);
        }
        victims.sort_unstable();
        victims
    }

    /// Unfreezes all jobs of `proc` (pause ends).
    pub fn unfreeze_proc(&mut self, now: SimTime, proc: usize) {
        self.advance(now);
        let thawed: Vec<(JobId, f64)> = self
            .frozen
            .iter()
            .filter(|(_, (_, p))| *p == proc)
            .map(|(j, (w, _))| (*j, *w))
            .collect();
        for (job, work) in thawed {
            self.frozen.remove(&job);
            let deadline = self.v + work;
            self.queue.insert((key(deadline), job), deadline);
            self.deadlines.insert(job, deadline);
            self.job_proc.insert(job, proc);
        }
    }

    /// Adjusts CPU contention by `delta` cores (positive = more contention).
    pub fn adjust_hog(&mut self, now: SimTime, delta: f64) {
        self.advance(now);
        self.hog_cores = (self.hog_cores + delta).max(0.0);
    }

    /// Number of currently active (unfrozen) jobs.
    pub fn active_jobs(&self) -> usize {
        self.queue.len()
    }

    /// Number of frozen jobs.
    pub fn frozen_jobs(&self) -> usize {
        self.frozen.len()
    }

    /// Current hog level in cores.
    pub fn hog_cores(&self) -> f64 {
        self.hog_cores
    }

    /// Configured cores.
    pub fn cores(&self) -> f64 {
        self.cores
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_at(h: &mut PsHost, t: SimTime) -> Vec<JobId> {
        h.collect_due(t)
    }

    #[test]
    fn single_job_completes_after_its_work() {
        let mut h = PsHost::new(2.0);
        h.add(0, JobId(1), 1000.0, 0);
        assert_eq!(h.next_completion(0), Some(1000));
        assert!(drain_at(&mut h, 999).is_empty());
        assert_eq!(drain_at(&mut h, 1000), vec![JobId(1)]);
        assert_eq!(h.active_jobs(), 0);
    }

    #[test]
    fn two_jobs_share_one_core() {
        let mut h = PsHost::new(1.0);
        h.add(0, JobId(1), 1000.0, 0);
        h.add(0, JobId(2), 1000.0, 0);
        // Each runs at rate 0.5 → both due at t=2000.
        assert_eq!(h.next_completion(0), Some(2000));
        let done = drain_at(&mut h, 2000);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn many_cores_cap_per_job_rate_at_one() {
        let mut h = PsHost::new(48.0);
        h.add(0, JobId(1), 5000.0, 0);
        // Single job cannot exceed one core.
        assert_eq!(h.next_completion(0), Some(5000));
    }

    #[test]
    fn later_arrival_slows_everyone() {
        let mut h = PsHost::new(1.0);
        h.add(0, JobId(1), 1000.0, 0);
        // At t=500, job1 has 500 left; a second job arrives.
        h.add(500, JobId(2), 500.0, 0);
        // Both progress at 0.5: job1 done at 500 + 1000 = 1500; job2 too.
        assert_eq!(h.next_completion(500), Some(1500));
        let done = drain_at(&mut h, 1500);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn freeze_pauses_progress_and_unfreeze_resumes() {
        let mut h = PsHost::new(1.0);
        h.add(0, JobId(1), 1000.0, 7);
        h.freeze_proc(200, 7);
        assert_eq!(h.active_jobs(), 0);
        assert_eq!(h.frozen_jobs(), 1);
        assert_eq!(h.next_completion(500), None);
        h.unfreeze_proc(1000, 7);
        // 800 ns of work remained.
        assert_eq!(h.next_completion(1000), Some(1800));
        assert_eq!(drain_at(&mut h, 1800), vec![JobId(1)]);
    }

    #[test]
    fn freeze_only_targets_one_proc() {
        let mut h = PsHost::new(2.0);
        h.add(0, JobId(1), 1000.0, 1);
        h.add(0, JobId(2), 1000.0, 2);
        h.freeze_proc(0, 1);
        assert_eq!(h.active_jobs(), 1);
        // Job 2 now runs alone at full speed.
        assert_eq!(h.next_completion(0), Some(1000));
        assert_eq!(drain_at(&mut h, 1000), vec![JobId(2)]);
    }

    #[test]
    fn hog_reduces_effective_cores() {
        let mut h = PsHost::new(2.0);
        h.adjust_hog(0, 1.0);
        h.add(0, JobId(1), 1000.0, 0);
        h.add(0, JobId(2), 1000.0, 0);
        // 1 effective core shared by 2 jobs → rate 0.5 → done at 2000.
        assert_eq!(h.next_completion(0), Some(2000));
        h.adjust_hog(500, -1.0);
        assert_eq!(h.hog_cores(), 0.0);
        // At t=500 each had 750 left, now at rate 1 → done at 1250.
        assert_eq!(h.next_completion(500), Some(1250));
    }

    #[test]
    fn hog_never_fully_stops_host() {
        let mut h = PsHost::new(1.0);
        h.adjust_hog(0, 100.0);
        h.add(0, JobId(1), 100.0, 0);
        let t = h.next_completion(0).unwrap();
        assert!(t >= 100 && t <= 100.0 as u64 * (1.0 / MIN_CORES) as u64 + 1);
    }

    #[test]
    fn cancel_removes_job() {
        let mut h = PsHost::new(1.0);
        h.add(0, JobId(1), 1000.0, 0);
        h.add(0, JobId(2), 1000.0, 0);
        h.cancel(100, JobId(1));
        assert_eq!(h.active_jobs(), 1);
        // Job 2 had 950 left at t=100, full speed now → 1050.
        assert_eq!(h.next_completion(100), Some(1050));
    }

    #[test]
    fn cancel_proc_removes_active_and_frozen_jobs_in_id_order() {
        let mut h = PsHost::new(2.0);
        h.add(0, JobId(3), 1000.0, 7);
        h.add(0, JobId(1), 1000.0, 7);
        h.add(0, JobId(2), 1000.0, 8);
        h.add_frozen(0, JobId(5), 400.0, 7);
        let victims = h.cancel_proc(100, 7);
        assert_eq!(victims, vec![JobId(1), JobId(3), JobId(5)]);
        assert_eq!(h.active_jobs(), 1);
        assert_eq!(h.frozen_jobs(), 0);
        // Three active jobs on two cores ran at 2/3 speed for 100 ns, so the
        // survivor has 1000 - 66.67 left; alone at full speed → ⌈933.3⌉.
        assert_eq!(h.next_completion(100), Some(1034));
        assert_eq!(drain_at(&mut h, 1034), vec![JobId(2)]);
    }

    #[test]
    fn zero_work_jobs_complete_immediately() {
        let mut h = PsHost::new(1.0);
        h.add(0, JobId(1), 0.0, 0);
        assert_eq!(h.next_completion(0), Some(0));
        assert_eq!(drain_at(&mut h, 0), vec![JobId(1)]);
    }

    #[test]
    fn add_frozen_then_unfreeze() {
        let mut h = PsHost::new(1.0);
        h.add_frozen(0, JobId(1), 500.0, 3);
        assert_eq!(h.active_jobs(), 0);
        h.unfreeze_proc(100, 3);
        assert_eq!(h.next_completion(100), Some(600));
    }

    #[test]
    fn work_conservation() {
        // Throw a batch of jobs at the host and verify completed work equals
        // the sum of job sizes once all are drained.
        let mut h = PsHost::new(3.0);
        let mut total = 0.0;
        for i in 0..50u64 {
            let w = 100.0 + (i * 37 % 500) as f64;
            total += w;
            h.add(i * 10, JobId(i), w, (i % 4) as usize);
        }
        let mut t = 500;
        let mut done = 0;
        while done < 50 {
            if let Some(next) = h.next_completion(t) {
                t = next;
                done += h.collect_due(t).len();
            } else {
                panic!("stalled with {done} done");
            }
        }
        // Event-time quantization (ceil to whole ns) can over-account a few
        // ns of work per completion event.
        assert!(
            (h.completed_work_ns - total).abs() < total * 1e-3 + 1_000.0,
            "completed={} expected={}",
            h.completed_work_ns,
            total
        );
    }
}
