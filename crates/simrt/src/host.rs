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
//!
//! Storage is hash-free and, once warm, allocation-free. Every job lives in
//! one slot of a slab (`Vec` plus free list) that holds its process tag and
//! its state: active with a virtual deadline, or frozen with residual work,
//! either way with its continuation `C`, which the host hands back when the
//! job completes or is cancelled. The only other structure is the deadline order, a
//! `BTreeSet` of `(deadline bits, JobId)`. A [`JobId`] is the host's add
//! sequence number plus the slot; it orders by sequence number, so jobs with
//! equal deadlines complete in add order whatever slots they reuse, and a
//! stale handle (its slot since reused) is recognised and ignored.

use std::collections::BTreeSet;
use std::mem;

use crate::time::SimTime;

/// Handle of a job on one host: the host's monotone add sequence number and
/// the slab slot. Orders by `seq` (unique per host), i.e. in add order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct JobId {
    seq: u64,
    slot: u32,
}

/// Minimum effective cores, so hogs can never fully wedge a host.
const MIN_CORES: f64 = 0.05;

/// Order-preserving bit encoding for non-negative f64 keys.
fn key(v: f64) -> u64 {
    debug_assert!(v >= 0.0 && v.is_finite());
    v.to_bits()
}

#[derive(Debug)]
enum JobState<C> {
    Free,
    /// Running; completes when `v` reaches this virtual deadline.
    Active(f64, C),
    /// Paused with this much residual work, ns.
    Frozen(f64, C),
}

#[derive(Debug)]
struct Slot<C> {
    /// Sequence number of the current (or last) occupant.
    seq: u64,
    proc: usize,
    state: JobState<C>,
}

impl<C> Slot<C> {
    /// Handle of the occupant of this slot, at index `i`.
    fn id(&self, i: usize) -> JobId {
        JobId {
            seq: self.seq,
            slot: i as u32,
        }
    }
}

/// A processor-sharing host whose jobs carry continuations of type `C`.
#[derive(Debug)]
pub struct PsHost<C> {
    cores: f64,
    hog_cores: f64,
    /// Virtual service accumulated per active job, ns.
    v: f64,
    last_update: SimTime,
    /// Active jobs ordered by virtual deadline, ties in add order.
    queue: BTreeSet<(u64, JobId)>,
    slots: Vec<Slot<C>>,
    free: Vec<u32>,
    next_seq: u64,
    /// Total CPU-ns of work completed (for utilization accounting).
    pub completed_work_ns: f64,
}

/// Process tag for jobs that are never frozen by GC (the GC pause itself,
/// serialization work attributed to the runtime, hog placeholders).
pub const NO_PROC: usize = usize::MAX;

// The host model is plain owned data; `Sim` embeds one per host and is
// itself `Send`, so any shared-state regression here must fail to compile.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<PsHost<u64>>();

impl<C> PsHost<C> {
    /// Creates a host with the given core count. Allocates nothing.
    pub fn new(cores: f64) -> Self {
        assert!(cores > 0.0);
        PsHost {
            cores,
            hog_cores: 0.0,
            v: 0.0,
            last_update: 0,
            queue: BTreeSet::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
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

    /// Stores a job in a free (or new) slot and returns its handle.
    fn occupy(&mut self, proc: usize, state: JobState<C>) -> JobId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = Slot { seq, proc, state };
        let slot_idx = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("job slab exceeds u32 slots");
                self.slots.push(slot);
                i
            }
        };
        JobId {
            seq,
            slot: slot_idx,
        }
    }

    /// Frees a job's slot and returns its continuation.
    fn release(&mut self, slot: u32) -> C {
        self.free.push(slot);
        match mem::replace(&mut self.slots[slot as usize].state, JobState::Free) {
            JobState::Active(_, cont) | JobState::Frozen(_, cont) => cont,
            JobState::Free => unreachable!("released a free slot"),
        }
    }

    /// Adds a job with `work_ns` of CPU work for process `proc`.
    pub fn add(&mut self, now: SimTime, work_ns: f64, proc: usize, cont: C) -> JobId {
        self.advance(now);
        let deadline = self.v + work_ns.max(0.0);
        let job = self.occupy(proc, JobState::Active(deadline, cont));
        self.queue.insert((key(deadline), job));
        job
    }

    /// Adds a job that starts frozen (its process is mid-GC).
    pub fn add_frozen(&mut self, now: SimTime, work_ns: f64, proc: usize, cont: C) -> JobId {
        self.advance(now);
        self.occupy(proc, JobState::Frozen(work_ns.max(0.0), cont))
    }

    /// Removes a job without completing it (e.g. its frame was dropped) and
    /// returns its continuation. A stale handle — the job already finished,
    /// and its slot may hold a newer job — removes nothing.
    pub fn cancel(&mut self, now: SimTime, job: JobId) -> Option<C> {
        self.advance(now);
        let s = self.slots.get(job.slot as usize)?;
        if s.seq != job.seq {
            return None;
        }
        match s.state {
            JobState::Free => return None,
            JobState::Active(d, _) => {
                self.queue.remove(&(key(d), job));
            }
            JobState::Frozen(..) => {}
        }
        Some(self.release(job.slot))
    }

    /// Appends the continuations of all jobs whose work is finished as of
    /// `now` to `out`, in completion order (deadline, then add order).
    pub fn collect_due_into(&mut self, now: SimTime, out: &mut Vec<C>) {
        self.advance(now);
        // Tolerance: one femto-fraction of v to absorb f64 rounding from the
        // time quantization in `next_completion`.
        let cutoff = self.v * (1.0 + 1e-12) + 1e-6;
        while let Some(&(k, job)) = self.queue.first() {
            if f64::from_bits(k) > cutoff {
                break;
            }
            self.queue.pop_first();
            out.push(self.release(job.slot));
        }
    }

    /// When the next job completes, if nothing else changes. Returns a time
    /// `>= now` (rounded up to whole ns).
    pub fn next_completion(&mut self, now: SimTime) -> Option<SimTime> {
        self.advance(now);
        let &(k, _) = self.queue.first()?;
        let rate = self.rate();
        if rate <= 0.0 {
            return None;
        }
        let remaining_v = (f64::from_bits(k) - self.v).max(0.0);
        let dt = (remaining_v / rate).ceil() as u64;
        Some(now + dt)
    }

    /// Freezes all jobs of `proc` (stop-the-world pause begins).
    pub fn freeze_proc(&mut self, now: SimTime, proc: usize) {
        self.advance(now);
        for (i, s) in self.slots.iter_mut().enumerate() {
            if s.proc != proc {
                continue;
            }
            s.state = match mem::replace(&mut s.state, JobState::Free) {
                JobState::Active(d, cont) => {
                    self.queue.remove(&(key(d), s.id(i)));
                    JobState::Frozen((d - self.v).max(0.0), cont)
                }
                other => other,
            };
        }
    }

    /// Removes every job (active or frozen) of `proc` without completing it
    /// — the process crashed. Returns their continuations in add order so
    /// callers can process them deterministically.
    pub fn cancel_proc(&mut self, now: SimTime, proc: usize) -> Vec<C> {
        self.advance(now);
        let mut victims: Vec<JobId> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.proc == proc && !matches!(s.state, JobState::Free))
            .map(|(i, s)| s.id(i))
            .collect();
        victims.sort_unstable();
        victims
            .into_iter()
            .map(|job| {
                if let JobState::Active(d, _) = self.slots[job.slot as usize].state {
                    self.queue.remove(&(key(d), job));
                }
                self.release(job.slot)
            })
            .collect()
    }

    /// Unfreezes all jobs of `proc` (pause ends).
    pub fn unfreeze_proc(&mut self, now: SimTime, proc: usize) {
        self.advance(now);
        for (i, s) in self.slots.iter_mut().enumerate() {
            if s.proc != proc {
                continue;
            }
            s.state = match mem::replace(&mut s.state, JobState::Free) {
                JobState::Frozen(work, cont) => {
                    let deadline = self.v + work;
                    self.queue.insert((key(deadline), s.id(i)));
                    JobState::Active(deadline, cont)
                }
                other => other,
            };
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
        self.slots
            .iter()
            .filter(|s| matches!(s.state, JobState::Frozen(..)))
            .count()
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

    /// Jobs are labelled by their continuation.
    type Host = PsHost<u64>;

    fn drain_at(h: &mut Host, t: SimTime) -> Vec<u64> {
        let mut done = Vec::new();
        h.collect_due_into(t, &mut done);
        done
    }

    #[test]
    fn single_job_completes_after_its_work() {
        let mut h = Host::new(2.0);
        h.add(0, 1000.0, 0, 1);
        assert_eq!(h.next_completion(0), Some(1000));
        assert!(drain_at(&mut h, 999).is_empty());
        assert_eq!(drain_at(&mut h, 1000), vec![1]);
        assert_eq!(h.active_jobs(), 0);
    }

    #[test]
    fn two_jobs_share_one_core() {
        let mut h = Host::new(1.0);
        h.add(0, 1000.0, 0, 1);
        h.add(0, 1000.0, 0, 2);
        // Each runs at rate 0.5 → both due at t=2000, in add order.
        assert_eq!(h.next_completion(0), Some(2000));
        assert_eq!(drain_at(&mut h, 2000), vec![1, 2]);
    }

    #[test]
    fn many_cores_cap_per_job_rate_at_one() {
        let mut h = Host::new(48.0);
        h.add(0, 5000.0, 0, 1);
        // Single job cannot exceed one core.
        assert_eq!(h.next_completion(0), Some(5000));
    }

    #[test]
    fn later_arrival_slows_everyone() {
        let mut h = Host::new(1.0);
        h.add(0, 1000.0, 0, 1);
        // At t=500, job1 has 500 left; a second job arrives.
        h.add(500, 500.0, 0, 2);
        // Both progress at 0.5: job1 done at 500 + 1000 = 1500; job2 too.
        assert_eq!(h.next_completion(500), Some(1500));
        let done = drain_at(&mut h, 1500);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn freeze_pauses_progress_and_unfreeze_resumes() {
        let mut h = Host::new(1.0);
        h.add(0, 1000.0, 7, 1);
        h.freeze_proc(200, 7);
        assert_eq!(h.active_jobs(), 0);
        assert_eq!(h.frozen_jobs(), 1);
        assert_eq!(h.next_completion(500), None);
        h.unfreeze_proc(1000, 7);
        assert_eq!(h.frozen_jobs(), 0);
        // 800 ns of work remained.
        assert_eq!(h.next_completion(1000), Some(1800));
        assert_eq!(drain_at(&mut h, 1800), vec![1]);
    }

    #[test]
    fn freeze_only_targets_one_proc() {
        let mut h = Host::new(2.0);
        h.add(0, 1000.0, 1, 1);
        h.add(0, 1000.0, 2, 2);
        h.freeze_proc(0, 1);
        assert_eq!(h.active_jobs(), 1);
        // Job 2 now runs alone at full speed.
        assert_eq!(h.next_completion(0), Some(1000));
        assert_eq!(drain_at(&mut h, 1000), vec![2]);
    }

    #[test]
    fn hog_reduces_effective_cores() {
        let mut h = Host::new(2.0);
        h.adjust_hog(0, 1.0);
        h.add(0, 1000.0, 0, 1);
        h.add(0, 1000.0, 0, 2);
        // 1 effective core shared by 2 jobs → rate 0.5 → done at 2000.
        assert_eq!(h.next_completion(0), Some(2000));
        h.adjust_hog(500, -1.0);
        assert_eq!(h.hog_cores(), 0.0);
        // At t=500 each had 750 left, now at rate 1 → done at 1250.
        assert_eq!(h.next_completion(500), Some(1250));
    }

    #[test]
    fn hog_never_fully_stops_host() {
        let mut h = Host::new(1.0);
        h.adjust_hog(0, 100.0);
        h.add(0, 100.0, 0, 1);
        let t = h.next_completion(0).unwrap();
        assert!(t >= 100 && t <= 100.0 as u64 * (1.0 / MIN_CORES) as u64 + 1);
    }

    #[test]
    fn cancel_removes_job() {
        let mut h = Host::new(1.0);
        let j1 = h.add(0, 1000.0, 0, 1);
        h.add(0, 1000.0, 0, 2);
        assert_eq!(h.cancel(100, j1), Some(1));
        assert_eq!(h.active_jobs(), 1);
        // Job 2 had 950 left at t=100, full speed now → 1050.
        assert_eq!(h.next_completion(100), Some(1050));
    }

    #[test]
    fn cancel_proc_removes_active_and_frozen_jobs_in_add_order() {
        let mut h = Host::new(2.0);
        let first = h.add(0, 1000.0, 7, 1);
        h.add(0, 1000.0, 7, 2);
        h.add(0, 1000.0, 8, 3);
        h.add_frozen(0, 400.0, 7, 4);
        // Job 5 reuses job 1's slot 0, the lowest: victims still come back
        // in add order, not slot order.
        assert_eq!(h.cancel(0, first), Some(1));
        h.add(0, 1000.0, 7, 5);
        let victims = h.cancel_proc(100, 7);
        assert_eq!(victims, vec![2, 4, 5]);
        assert_eq!(h.active_jobs(), 1);
        assert_eq!(h.frozen_jobs(), 0);
        // Three active jobs on two cores ran at 2/3 speed for 100 ns, so the
        // survivor has 1000 - 66.67 left; alone at full speed → ⌈933.3⌉.
        assert_eq!(h.next_completion(100), Some(1034));
        assert_eq!(drain_at(&mut h, 1034), vec![3]);
    }

    #[test]
    fn zero_work_jobs_complete_immediately() {
        let mut h = Host::new(1.0);
        h.add(0, 0.0, 0, 1);
        assert_eq!(h.next_completion(0), Some(0));
        assert_eq!(drain_at(&mut h, 0), vec![1]);
    }

    #[test]
    fn add_frozen_then_unfreeze() {
        let mut h = Host::new(1.0);
        h.add_frozen(0, 500.0, 3, 1);
        assert_eq!(h.active_jobs(), 0);
        assert_eq!(h.frozen_jobs(), 1);
        h.unfreeze_proc(100, 3);
        assert_eq!(h.next_completion(100), Some(600));
    }

    #[test]
    fn reused_lower_slot_completes_after_earlier_equal_deadline_job() {
        let mut h = Host::new(1.0);
        let first = h.add(0, 1000.0, 0, 1);
        h.add(0, 1000.0, 0, 2);
        // Job 3 takes job 1's slot 0, below job 2's slot 1, with the same
        // virtual deadline as job 2: add order must still break the tie.
        assert_eq!(h.cancel(0, first), Some(1));
        let third = h.add(0, 1000.0, 0, 3);
        assert_eq!(third.slot, first.slot);
        assert!(third > first);
        assert_eq!(h.next_completion(0), Some(2000));
        assert_eq!(drain_at(&mut h, 2000), vec![2, 3]);
    }

    #[test]
    fn cancel_with_stale_handle_leaves_the_new_occupant_alone() {
        let mut h = Host::new(1.0);
        let old = h.add(0, 100.0, 4, 1);
        assert_eq!(drain_at(&mut h, 100), vec![1]);
        // The handle outlives its job (as a process's GC-job handle can);
        // the slot is reused by the next job.
        let new = h.add(100, 500.0, 4, 2);
        assert_eq!(new.slot, old.slot);
        assert_eq!(h.cancel(200, old), None);
        assert_eq!(h.active_jobs(), 1);
        assert_eq!(h.next_completion(200), Some(600));
        assert_eq!(drain_at(&mut h, 600), vec![2]);
        // A handle to a freed, not yet reused slot is stale too.
        assert_eq!(h.cancel(600, new), None);
    }

    #[test]
    fn slots_are_reused_without_growth() {
        let mut h = Host::new(2.0);
        let mut t = 0;
        for i in 0..1000u64 {
            h.add(t, 10.0, 0, i);
            h.add(t, 10.0, 1, i);
            t += 10;
            assert_eq!(drain_at(&mut h, t).len(), 2);
        }
        assert_eq!(h.slots.len(), 2);
    }

    #[test]
    fn work_conservation() {
        // Throw a batch of jobs at the host and verify completed work equals
        // the sum of job sizes once all are drained.
        let mut h = Host::new(3.0);
        let mut total = 0.0;
        for i in 0..50u64 {
            let w = 100.0 + (i * 37 % 500) as f64;
            total += w;
            h.add(i * 10, w, (i % 4) as usize, i);
        }
        let mut t = 500;
        let mut done = Vec::new();
        while done.len() < 50 {
            if let Some(next) = h.next_completion(t) {
                t = next;
                h.collect_due_into(t, &mut done);
            } else {
                panic!("stalled with {} done", done.len());
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
