//! Behavior programs: simulation-executable method bodies.
//!
//! A behavior is a small step program standing in for the Go method body of a
//! workflow service (see the substitution note in the crate docs). Steps
//! reference dependencies *by declared name only* — binding a dependency name
//! to a concrete instance happens in the wiring spec, preserving Blueprint's
//! separation of concerns.

/// How a step derives the key it operates on.
///
/// Requests in the simulation carry an `entity` id (e.g. the user or post the
/// request concerns) drawn by the workload generator; key expressions map that
/// id onto backend keys so that experiments about *actual data* (cache
/// flushes, replication lag) behave mechanistically rather than statistically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyExpr {
    /// The request's entity id itself.
    Entity,
    /// The request's entity id hashed into `m` buckets (shared/hot keys).
    EntityMod(u64),
    /// A fixed key (global hot spot).
    Const(u64),
    /// A uniformly random key in `[0, m)` (cold traffic).
    Random(u64),
}

/// A cache operation flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheOp {
    /// Single-key read.
    Get,
    /// Single-key write.
    Put,
    /// Single-key delete.
    Delete,
    /// Specialized multi-element read in one round trip (extended interface,
    /// §6.6 / Fig. 12). `items` elements are returned.
    GetRange {
        /// Number of elements fetched.
        items: u32,
    },
    /// Specialized multi-element write in one round trip (extended interface).
    PushFront {
        /// Number of elements written.
        items: u32,
    },
}

/// A database operation flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DbOp {
    /// Point read.
    Read,
    /// Point write.
    Write,
    /// Range scan returning `items` documents/rows.
    Scan {
        /// Documents returned by the scan.
        items: u32,
    },
}

/// One step of a behavior program.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Burn CPU for `cpu_ns` nanoseconds and allocate `alloc_bytes` on the
    /// heap (feeds the GC model).
    Compute {
        /// CPU nanoseconds consumed (at full speed on one core).
        cpu_ns: u64,
        /// Bytes allocated.
        alloc_bytes: u64,
    },
    /// Invoke `method` on the declared service dependency `dep` and wait for
    /// the reply.
    Call {
        /// Declared dependency name.
        dep: String,
        /// Method name on the dependency's interface.
        method: String,
    },
    /// Perform a cache operation on the declared cache dependency `dep`.
    Cache {
        /// Declared dependency name.
        dep: String,
        /// Operation flavor.
        op: CacheOp,
        /// Key expression.
        key: KeyExpr,
    },
    /// Cache-aside read: `Get(key)`; on a miss, run `on_miss` (typically a DB
    /// read plus a `Cache::Put`) — the canonical fast-path/slow-path pair
    /// behind Type-4 metastability (paper §6.2.1).
    CacheGetOrFetch {
        /// Declared cache dependency name.
        cache: String,
        /// Key expression.
        key: KeyExpr,
        /// Steps executed on a miss.
        on_miss: Behavior,
    },
    /// Perform a database operation on the declared DB dependency `dep`.
    Db {
        /// Declared dependency name.
        dep: String,
        /// Operation flavor.
        op: DbOp,
        /// Key expression.
        key: KeyExpr,
    },
    /// Push a message onto the declared queue dependency.
    QueuePush {
        /// Declared dependency name.
        dep: String,
    },
    /// Pop a message from the declared queue dependency (blocking).
    QueuePop {
        /// Declared dependency name.
        dep: String,
    },
    /// Execute all branches concurrently and join.
    Parallel(Vec<Behavior>),
    /// With probability `prob` run `then`, otherwise `otherwise`.
    Branch {
        /// Probability of the `then` branch, in `[0, 1]`.
        prob: f64,
        /// Taken with probability `prob`.
        then: Behavior,
        /// Taken with probability `1 - prob`.
        otherwise: Behavior,
    },
    /// Run `body` `times` times sequentially (e.g. N separate cache `Get`s
    /// under the generic interface in the Fig. 12 experiment).
    Repeat {
        /// Iteration count.
        times: u32,
        /// Loop body.
        body: Behavior,
    },
    /// Fail the request with probability `prob` (fault injection).
    Fail {
        /// Failure probability, in `[0, 1]`.
        prob: f64,
    },
}

/// A method body: an ordered list of steps.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Behavior {
    /// Ordered steps.
    pub steps: Vec<Step>,
}

impl Behavior {
    /// An empty behavior (no-op method).
    pub fn empty() -> Self {
        Behavior::default()
    }

    /// Starts a builder.
    pub fn build() -> BehaviorBuilder {
        BehaviorBuilder { steps: Vec::new() }
    }

    /// All dependency names referenced by this behavior, with the operation
    /// family that used them: `(dep, family)` where family is one of
    /// `"service"`, `"cache"`, `"db"`, `"queue"`.
    pub fn dep_uses(&self) -> Vec<(&str, &'static str)> {
        let mut out = Vec::new();
        self.collect_deps(&mut out);
        out
    }

    fn collect_deps<'a>(&'a self, out: &mut Vec<(&'a str, &'static str)>) {
        for s in &self.steps {
            match s {
                Step::Call { dep, .. } => out.push((dep, "service")),
                Step::Cache { dep, .. } => out.push((dep, "cache")),
                Step::CacheGetOrFetch { cache, on_miss, .. } => {
                    out.push((cache, "cache"));
                    on_miss.collect_deps(out);
                }
                Step::Db { dep, .. } => out.push((dep, "db")),
                Step::QueuePush { dep } | Step::QueuePop { dep } => out.push((dep, "queue")),
                Step::Parallel(branches) => {
                    for b in branches {
                        b.collect_deps(out);
                    }
                }
                Step::Branch {
                    then, otherwise, ..
                } => {
                    then.collect_deps(out);
                    otherwise.collect_deps(out);
                }
                Step::Repeat { body, .. } => body.collect_deps(out),
                Step::Compute { .. } | Step::Fail { .. } => {}
            }
        }
    }

    /// All `(dep, method)` pairs invoked via [`Step::Call`], recursively.
    pub fn calls(&self) -> Vec<(&str, &str)> {
        let mut out = Vec::new();
        self.collect_calls(&mut out);
        out
    }

    fn collect_calls<'a>(&'a self, out: &mut Vec<(&'a str, &'a str)>) {
        for s in &self.steps {
            match s {
                Step::Call { dep, method } => out.push((dep, method)),
                Step::CacheGetOrFetch { on_miss, .. } => on_miss.collect_calls(out),
                Step::Parallel(branches) => {
                    for b in branches {
                        b.collect_calls(out);
                    }
                }
                Step::Branch {
                    then, otherwise, ..
                } => {
                    then.collect_calls(out);
                    otherwise.collect_calls(out);
                }
                Step::Repeat { body, .. } => body.collect_calls(out),
                _ => {}
            }
        }
    }

    /// Visits every step recursively (pre-order: a container step is visited
    /// before the steps nested inside it). Shared read-only traversal used by
    /// spec validation (probability range checks) and the static capacity
    /// model in `blueprint-lint`.
    pub fn for_each_step<'a, F: FnMut(&'a Step)>(&'a self, f: &mut F) {
        for s in &self.steps {
            f(s);
            match s {
                Step::CacheGetOrFetch { on_miss, .. } => on_miss.for_each_step(f),
                Step::Parallel(branches) => {
                    for b in branches {
                        b.for_each_step(f);
                    }
                }
                Step::Branch {
                    then, otherwise, ..
                } => {
                    then.for_each_step(f);
                    otherwise.for_each_step(f);
                }
                Step::Repeat { body, .. } => body.for_each_step(f),
                _ => {}
            }
        }
    }

    /// Total step count, recursively (a crude behavior "size" used in specs'
    /// LoC accounting and tests).
    pub fn size(&self) -> usize {
        self.steps
            .iter()
            .map(|s| match s {
                Step::Parallel(bs) => 1 + bs.iter().map(Behavior::size).sum::<usize>(),
                Step::Branch {
                    then, otherwise, ..
                } => 1 + then.size() + otherwise.size(),
                Step::Repeat { body, .. } => 1 + body.size(),
                Step::CacheGetOrFetch { on_miss, .. } => 1 + on_miss.size(),
                _ => 1,
            })
            .sum()
    }
}

/// Fluent builder for [`Behavior`].
#[derive(Debug, Default)]
pub struct BehaviorBuilder {
    steps: Vec<Step>,
}

impl BehaviorBuilder {
    /// Appends a compute step.
    pub fn compute(mut self, cpu_ns: u64, alloc_bytes: u64) -> Self {
        self.steps.push(Step::Compute {
            cpu_ns,
            alloc_bytes,
        });
        self
    }

    /// Appends a service call step.
    pub fn call(mut self, dep: &str, method: &str) -> Self {
        self.steps.push(Step::Call {
            dep: dep.into(),
            method: method.into(),
        });
        self
    }

    /// Appends a cache get.
    pub fn cache_get(mut self, dep: &str, key: KeyExpr) -> Self {
        self.steps.push(Step::Cache {
            dep: dep.into(),
            op: CacheOp::Get,
            key,
        });
        self
    }

    /// Appends a cache put.
    pub fn cache_put(mut self, dep: &str, key: KeyExpr) -> Self {
        self.steps.push(Step::Cache {
            dep: dep.into(),
            op: CacheOp::Put,
            key,
        });
        self
    }

    /// Appends an arbitrary cache operation.
    pub fn cache_op(mut self, dep: &str, op: CacheOp, key: KeyExpr) -> Self {
        self.steps.push(Step::Cache {
            dep: dep.into(),
            op,
            key,
        });
        self
    }

    /// Appends a cache-aside get-or-fetch.
    pub fn cache_get_or_fetch(mut self, cache: &str, key: KeyExpr, on_miss: Behavior) -> Self {
        self.steps.push(Step::CacheGetOrFetch {
            cache: cache.into(),
            key,
            on_miss,
        });
        self
    }

    /// Appends a DB read.
    pub fn db_read(mut self, dep: &str, key: KeyExpr) -> Self {
        self.steps.push(Step::Db {
            dep: dep.into(),
            op: DbOp::Read,
            key,
        });
        self
    }

    /// Appends a DB write.
    pub fn db_write(mut self, dep: &str, key: KeyExpr) -> Self {
        self.steps.push(Step::Db {
            dep: dep.into(),
            op: DbOp::Write,
            key,
        });
        self
    }

    /// Appends a DB scan.
    pub fn db_scan(mut self, dep: &str, key: KeyExpr, items: u32) -> Self {
        self.steps.push(Step::Db {
            dep: dep.into(),
            op: DbOp::Scan { items },
            key,
        });
        self
    }

    /// Appends a queue push.
    pub fn queue_push(mut self, dep: &str) -> Self {
        self.steps.push(Step::QueuePush { dep: dep.into() });
        self
    }

    /// Appends a queue pop.
    pub fn queue_pop(mut self, dep: &str) -> Self {
        self.steps.push(Step::QueuePop { dep: dep.into() });
        self
    }

    /// Appends a parallel block.
    pub fn parallel(mut self, branches: Vec<Behavior>) -> Self {
        self.steps.push(Step::Parallel(branches));
        self
    }

    /// Appends a probabilistic branch.
    pub fn branch(mut self, prob: f64, then: Behavior, otherwise: Behavior) -> Self {
        self.steps.push(Step::Branch {
            prob,
            then,
            otherwise,
        });
        self
    }

    /// Appends a repeat block.
    pub fn repeat(mut self, times: u32, body: Behavior) -> Self {
        self.steps.push(Step::Repeat { times, body });
        self
    }

    /// Appends a fault-injection step.
    pub fn fail(mut self, prob: f64) -> Self {
        self.steps.push(Step::Fail { prob });
        self
    }

    /// Finishes the behavior.
    pub fn done(self) -> Behavior {
        Behavior { steps: self.steps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Behavior {
        Behavior::build()
            .compute(10_000, 512)
            .call("user_service", "Login")
            .cache_get_or_fetch(
                "post_cache",
                KeyExpr::Entity,
                Behavior::build()
                    .db_read("post_db", KeyExpr::Entity)
                    .cache_put("post_cache", KeyExpr::Entity)
                    .done(),
            )
            .parallel(vec![
                Behavior::build().call("text_service", "Process").done(),
                Behavior::build().call("media_service", "Upload").done(),
            ])
            .done()
    }

    #[test]
    fn dep_uses_collects_recursively() {
        let b = sample();
        let deps = b.dep_uses();
        assert!(deps.contains(&("user_service", "service")));
        assert!(deps.contains(&("post_cache", "cache")));
        assert!(deps.contains(&("post_db", "db")));
        assert!(deps.contains(&("text_service", "service")));
        assert!(deps.contains(&("media_service", "service")));
    }

    #[test]
    fn calls_collects_methods() {
        let b = sample();
        let calls = b.calls();
        assert!(calls.contains(&("user_service", "Login")));
        assert!(calls.contains(&("text_service", "Process")));
        assert_eq!(calls.len(), 3);
    }

    #[test]
    fn size_counts_nested_steps() {
        // compute + call + (get_or_fetch + 2 inner) + (parallel + 2 inner) = 8.
        assert_eq!(sample().size(), 8);
        assert_eq!(Behavior::empty().size(), 0);
    }

    #[test]
    fn for_each_step_visits_nested_steps_preorder() {
        let b = sample();
        let mut kinds = Vec::new();
        b.for_each_step(&mut |s| {
            kinds.push(match s {
                Step::Compute { .. } => "compute",
                Step::Call { .. } => "call",
                Step::CacheGetOrFetch { .. } => "fetch",
                Step::Db { .. } => "db",
                Step::Cache { .. } => "cache",
                Step::Parallel(_) => "parallel",
                _ => "other",
            });
        });
        // get_or_fetch precedes its miss path, parallel precedes its branches.
        assert_eq!(
            kinds,
            vec!["compute", "call", "fetch", "db", "cache", "parallel", "call", "call"]
        );
        assert_eq!(kinds.len(), sample().size());
    }

    #[test]
    fn branch_and_repeat_recurse() {
        let b = Behavior::build()
            .branch(
                0.5,
                Behavior::build().call("a", "X").done(),
                Behavior::build().queue_push("q").done(),
            )
            .repeat(
                3,
                Behavior::build().cache_get("c", KeyExpr::Const(1)).done(),
            )
            .done();
        let deps = b.dep_uses();
        assert!(deps.contains(&("a", "service")));
        assert!(deps.contains(&("q", "queue")));
        assert!(deps.contains(&("c", "cache")));
        assert_eq!(b.size(), 5);
    }
}
