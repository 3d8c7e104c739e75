//! A blocking, tenant-fair, priority-aware job queue (mutex + condvar).
//!
//! The daemon's scheduler lanes all pop from this one queue. Each
//! tenant owns a private band of three priority FIFOs; `pop` serves
//! tenants round-robin (one job per turn) so a tenant bursting a
//! thousand submissions cannot starve everyone else, and within a
//! tenant higher priorities drain first. With a single tenant (auth
//! disabled — everything lands under the `""` tenant at
//! [`Priority::Normal`]) the queue degenerates to the plain FIFO the
//! daemon always had.
//!
//! The queue itself is unbounded: the daemon's depth bound is an
//! admission check before the journal append
//! ([`crate::ServerState::accept`]), so a job recovered from the
//! journal always re-queues. The queue makes no exclusivity promise
//! about *segments* —
//! two jobs on the same program can be in flight on two lanes at once —
//! because store writers serialize behind the per-(program,
//! machine-fp) segment locks in `nfi_core::store`.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Scheduling priority of one job within its tenant's band.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Drains before everything else the tenant has queued.
    High,
    /// The default.
    #[default]
    Normal,
    /// Drains only when the tenant has nothing better queued.
    Low,
}

impl Priority {
    /// All priorities, drain order.
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    /// Stable API key of this priority.
    pub fn key(&self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parses an API key back into a priority.
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }

    fn band(&self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// What happened to a push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The job id is queued.
    Queued,
    /// The queue is shut down; the id was dropped.
    Shutdown,
}

/// The shared queue of job ids, banded per tenant and priority.
#[derive(Default)]
pub struct JobQueue {
    inner: Mutex<Inner>,
    ready: Condvar,
}

#[derive(Default)]
struct Inner {
    /// One band per tenant, in first-seen order; `cursor` rotates over
    /// this vec so draining is fair. Empty bands are retired on pop so
    /// the vec stays proportional to *active* tenants.
    tenants: Vec<TenantBand>,
    cursor: usize,
    depth: usize,
    shutdown: bool,
}

#[derive(Default)]
struct TenantBand {
    tenant: String,
    lanes: [VecDeque<u64>; 3],
}

impl TenantBand {
    fn is_empty(&self) -> bool {
        self.lanes.iter().all(VecDeque::is_empty)
    }

    fn pop(&mut self) -> Option<u64> {
        self.lanes.iter_mut().find_map(VecDeque::pop_front)
    }
}

impl JobQueue {
    /// An empty, unbounded queue.
    pub fn new() -> JobQueue {
        JobQueue::default()
    }

    /// Enqueues a job id into a tenant's band at a priority.
    pub fn push_for(&self, tenant: &str, priority: Priority, id: u64) -> PushOutcome {
        let mut inner = self.lock();
        if inner.shutdown {
            return PushOutcome::Shutdown;
        }
        let at = match inner.tenants.iter().position(|b| b.tenant == tenant) {
            Some(at) => at,
            None => {
                inner.tenants.push(TenantBand {
                    tenant: tenant.to_string(),
                    ..TenantBand::default()
                });
                inner.tenants.len() - 1
            }
        };
        inner.tenants[at].lanes[priority.band()].push_back(id);
        inner.depth += 1;
        self.ready.notify_one();
        PushOutcome::Queued
    }

    /// Blocks until a job id is available (`Some`) or the queue is shut
    /// down (`None`). Tenants are served round-robin, one job per turn,
    /// highest priority first within a tenant. Pending ids drain before
    /// `None` is reported, so a graceful shutdown finishes accepted
    /// work.
    pub fn pop(&self) -> Option<u64> {
        let mut inner = self.lock();
        loop {
            if let Some(id) = inner.pop_fair() {
                return Some(id);
            }
            if inner.shutdown {
                return None;
            }
            inner = self.ready.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Jobs currently waiting across every tenant.
    pub fn depth(&self) -> usize {
        self.lock().depth
    }

    /// Stops accepting pushes and wakes every blocked `pop`.
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.ready.notify_all();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Inner {
    fn pop_fair(&mut self) -> Option<u64> {
        if self.tenants.is_empty() {
            return None;
        }
        let n = self.tenants.len();
        for step in 0..n {
            let at = (self.cursor + step) % n;
            if let Some(id) = self.tenants[at].pop() {
                self.depth -= 1;
                // Next turn starts after the tenant just served.
                self.cursor = (at + 1) % n;
                self.retire_empty();
                return Some(id);
            }
        }
        None
    }

    /// Drops empty bands, keeping the cursor aimed at the same tenant
    /// rotation position.
    fn retire_empty(&mut self) {
        let mut at = 0;
        while at < self.tenants.len() {
            if self.tenants[at].is_empty() {
                self.tenants.remove(at);
                if self.cursor > at {
                    self.cursor -= 1;
                }
            } else {
                at += 1;
            }
        }
        if self.tenants.is_empty() {
            self.cursor = 0;
        } else {
            self.cursor %= self.tenants.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Pushes under the anonymous tenant at normal priority, as a
    /// daemon without auth does.
    fn push(q: &JobQueue, id: u64) -> PushOutcome {
        q.push_for("", Priority::Normal, id)
    }

    #[test]
    fn fifo_order_and_depth() {
        let q = JobQueue::new();
        assert_eq!(push(&q, 1), PushOutcome::Queued);
        assert_eq!(push(&q, 2), PushOutcome::Queued);
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn pop_blocks_until_a_push_arrives() {
        let q = Arc::new(JobQueue::new());
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(push(&q, 7), PushOutcome::Queued);
        assert_eq!(popper.join().unwrap(), Some(7));
    }

    #[test]
    fn shutdown_drains_pending_then_reports_none() {
        let q = JobQueue::new();
        push(&q, 1);
        q.shutdown();
        assert_eq!(
            push(&q, 2),
            PushOutcome::Shutdown,
            "pushes rejected after shutdown"
        );
        assert_eq!(q.pop(), Some(1), "pending work drains first");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn shutdown_wakes_a_blocked_pop() {
        let q = Arc::new(JobQueue::new());
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.shutdown();
        assert_eq!(popper.join().unwrap(), None);
    }

    #[test]
    fn tenants_drain_round_robin_one_job_per_turn() {
        let q = JobQueue::new();
        // Tenant "hog" floods first; "small" submits two jobs late.
        for id in 1..=4 {
            q.push_for("hog", Priority::Normal, id);
        }
        q.push_for("small", Priority::Normal, 100);
        q.push_for("small", Priority::Normal, 101);
        let order: Vec<u64> = (0..6).map(|_| q.pop().unwrap()).collect();
        assert_eq!(
            order,
            vec![1, 100, 2, 101, 3, 4],
            "the small tenant interleaves instead of waiting out the flood"
        );
    }

    #[test]
    fn priorities_drain_high_before_normal_before_low_within_a_tenant() {
        let q = JobQueue::new();
        q.push_for("t", Priority::Low, 30);
        q.push_for("t", Priority::Normal, 20);
        q.push_for("t", Priority::High, 10);
        q.push_for("t", Priority::High, 11);
        let order: Vec<u64> = (0..4).map(|_| q.pop().unwrap()).collect();
        assert_eq!(order, vec![10, 11, 20, 30]);
    }

    #[test]
    fn depth_counts_every_tenant_band() {
        let q = JobQueue::new();
        q.push_for("a", Priority::Normal, 1);
        q.push_for("a", Priority::High, 2);
        q.push_for("b", Priority::Normal, 3);
        assert_eq!(q.depth(), 3);
        assert_eq!(q.pop(), Some(2), "tenant a's high job first");
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(), Some(3), "then tenant b's turn");
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn priority_keys_round_trip() {
        for p in Priority::ALL {
            assert_eq!(Priority::parse(p.key()), Some(p));
        }
        assert_eq!(Priority::parse("urgent"), None);
    }
}
