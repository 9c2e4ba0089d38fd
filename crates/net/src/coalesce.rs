//! Cross-connection request coalescing: group-commit batching of
//! queries that share a fault set.
//!
//! `BENCH_session.json` shows the expensive step of every query is the
//! *session build* (fault dedup, validation, fragment merge); answering
//! extra pairs against a built session is ~100× cheaper. The server
//! therefore groups in-flight requests by `(graph, normalized fault
//! set)` and answers each group from **one** pooled
//! [`QuerySession`](ftc_core::QuerySession), amortizing the build across
//! connections.
//!
//! The batching discipline is group commit, not a timer:
//!
//! * the **first** request for an idle key becomes the batch *leader*
//!   and executes immediately — an uncontended request pays zero added
//!   latency;
//! * while a batch for the key is executing, newcomers pile their pairs
//!   onto the *pending* batch; its leader (the first newcomer) waits for
//!   the executing batch to finish before taking its turn. Under load
//!   the pending batch grows automatically to `arrival rate ×
//!   session-build latency` requests — the classic group-commit window
//!   with no configured delay.
//!
//! A batch-level failure falls back to per-request queries so coalesced
//! neighbors cannot poison each other (e.g. a fault set over the budget
//! fails the *batch* only because another request contributed a
//! non-trivial pair; retried alone, an all-trivial request still
//! succeeds, exactly as if it had never been coalesced).
//!
//! # Overload and failure discipline
//!
//! The coalescer **sheds instead of queueing**: when the number of open
//! batches reaches `max_inflight`, or a submission's deadline expires
//! before its batch can execute, the request fails fast with
//! [`SubmitError::Overloaded`] — the wire maps it to
//! `ErrorCode::Overloaded`, which clients know is retryable. A leader
//! that *panics* mid-execution publishes a poisoned outcome before the
//! panic resumes, so waiters never hang on a dead batch; they fall back
//! to solo queries exactly as for a batch-level error.

use ftc_serve::{ConnectivityService, ServeError};
use std::collections::HashMap;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// What a request coalesces on: the target graph and its fault set,
/// normalized (per-pair min/max order, sorted, deduplicated) so that
/// permutations of the same faults share a batch.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Key {
    graph: Arc<str>,
    faults: Arc<[(usize, usize)]>,
}

/// How a batch ended, as published to its waiters.
#[derive(Clone)]
enum Outcome {
    /// Answers for every pair in the batch, in join order.
    Done(Arc<[bool]>),
    /// The batch query failed as a whole; waiters retry solo.
    Failed,
    /// The batch was shed before executing (its leader's deadline
    /// expired while queued behind another batch).
    Shed,
    /// The leader panicked mid-execution. Waiters must not inherit the
    /// panic; they retry solo like a batch-level failure.
    Poisoned,
}

struct BatchState {
    pairs: Vec<(usize, usize)>,
    /// `None` until the leader publishes; shared so every waiter slices
    /// its own answers out without copying the batch.
    result: Option<Outcome>,
}

struct Batch {
    state: Mutex<BatchState>,
    done: Condvar,
}

#[derive(Default)]
struct KeyState {
    /// A leader is currently executing a batch for this key.
    executing: bool,
    /// The open batch newcomers join while the key is busy.
    pending: Option<Arc<Batch>>,
}

/// A snapshot of the coalescer's lifetime counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoalesceStats {
    /// Requests submitted.
    pub requests: u64,
    /// Requests that joined an already-open batch (each one is a
    /// session build avoided).
    pub coalesced: u64,
    /// Batches executed (= sessions built by the serving path).
    pub batches: u64,
    /// Pairs answered.
    pub pairs: u64,
    /// Requests shed with [`SubmitError::Overloaded`] (inflight cap hit
    /// or deadline expired before execution).
    pub shed: u64,
}

/// Why a submission did not produce answers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The request was shed without executing — the coalescer is at its
    /// inflight cap or the request's deadline expired while queued.
    /// Safe (and expected) to retry after backoff.
    Overloaded,
    /// The request's own error, with exact solo-query semantics.
    Serve(ServeError),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Overloaded => f.write_str("request shed: coalescer overloaded"),
            SubmitError::Serve(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SubmitError {}

impl From<ServeError> for SubmitError {
    fn from(e: ServeError) -> SubmitError {
        SubmitError::Serve(e)
    }
}

/// The coalescing queue shared by every connection of one server.
#[derive(Default)]
pub struct Coalescer {
    /// Open-batch ceiling; `0` = unbounded.
    max_inflight: usize,
    keys: Mutex<HashMap<Key, KeyState>>,
    /// Signaled whenever a key finishes executing (its next leader may
    /// take a turn).
    turn: Condvar,
    open: AtomicU64,
    requests: AtomicU64,
    coalesced: AtomicU64,
    batches: AtomicU64,
    pairs: AtomicU64,
    shed: AtomicU64,
}

enum Role {
    Leader,
    Follower,
}

/// Releases an open-batch slot on drop, so the count stays correct even
/// when the batch query panics and unwinds through `submit_with`.
struct SlotGuard<'a>(&'a Coalescer);

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.0.open.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Coalescer {
    /// An unbounded coalescer.
    pub fn new() -> Coalescer {
        Coalescer::default()
    }

    /// A coalescer that sheds new batches beyond `max_inflight` open
    /// ones (`0` = unbounded). Joining an already-open batch is always
    /// allowed — piling pairs onto a batch adds no session builds.
    pub fn with_max_inflight(max_inflight: usize) -> Coalescer {
        Coalescer {
            max_inflight,
            ..Coalescer::default()
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CoalesceStats {
        CoalesceStats {
            requests: self.requests.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            pairs: self.pairs.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }

    fn keys(&self) -> std::sync::MutexGuard<'_, HashMap<Key, KeyState>> {
        // Holders only mutate the map/batch vectors; a panic while
        // appending leaves consistent state, so poisoning is ignored.
        self.keys.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn try_open_slot(&self) -> Option<SlotGuard<'_>> {
        if self.max_inflight == 0 {
            self.open.fetch_add(1, Ordering::Relaxed);
            return Some(SlotGuard(self));
        }
        let mut cur = self.open.load(Ordering::Relaxed);
        loop {
            if cur >= self.max_inflight as u64 {
                return None;
            }
            match self.open.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(SlotGuard(self)),
                Err(now) => cur = now,
            }
        }
    }

    fn shed<T>(&self) -> Result<T, SubmitError> {
        self.shed.fetch_add(1, Ordering::Relaxed);
        Err(SubmitError::Overloaded)
    }

    /// Answers `pairs` under `faults` on `service`, coalescing with
    /// concurrent submissions that share the same graph + fault set.
    /// Answers come back in `pairs` order with solo-request semantics.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Serve`] carrying exactly the error
    /// [`ConnectivityService::query`] would raise for this request
    /// alone; [`SubmitError::Overloaded`] when the request was shed.
    pub fn submit(
        &self,
        service: &ConnectivityService,
        graph: &str,
        faults: &[(usize, usize)],
        pairs: &[(usize, usize)],
    ) -> Result<Vec<bool>, SubmitError> {
        self.submit_deadline(service, graph, faults, pairs, None)
    }

    /// [`submit`](Coalescer::submit) with a request deadline: a request
    /// still queued (joined or leading a not-yet-executed batch) when
    /// `deadline` passes is shed with [`SubmitError::Overloaded`].
    pub fn submit_deadline(
        &self,
        service: &ConnectivityService,
        graph: &str,
        faults: &[(usize, usize)],
        pairs: &[(usize, usize)],
        deadline: Option<Instant>,
    ) -> Result<Vec<bool>, SubmitError> {
        self.submit_with(graph, faults, pairs, deadline, |faults, pairs| {
            service.query(faults, pairs).map(|a| a.into_vec())
        })
    }

    /// The full coalescing engine, generic over the batch query so tests
    /// can inject failures (including panics) at exactly the
    /// batch-execution point. `query` is called once per executed batch
    /// with the normalized fault set and the batch's combined pairs, and
    /// again (per request, with that request's own pairs) for the solo
    /// fallback after a batch-level failure.
    pub fn submit_with<F>(
        &self,
        graph: &str,
        faults: &[(usize, usize)],
        pairs: &[(usize, usize)],
        deadline: Option<Instant>,
        query: F,
    ) -> Result<Vec<bool>, SubmitError>
    where
        F: Fn(&[(usize, usize)], &[(usize, usize)]) -> Result<Vec<bool>, ServeError>,
    {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.pairs.fetch_add(pairs.len() as u64, Ordering::Relaxed);
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return self.shed();
        }
        let mut norm: Vec<(usize, usize)> =
            faults.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        norm.sort_unstable();
        norm.dedup();
        let key = Key {
            graph: graph.into(),
            faults: norm.into(),
        };

        let (role, batch, start, _slot) = {
            let mut keys = self.keys();
            let entry = keys.entry(key.clone()).or_default();
            match &entry.pending {
                Some(open) => {
                    // Joining appends under the keys lock, so a leader
                    // that takes the pending batch (also under the keys
                    // lock) always sees every joined request's pairs.
                    let open = open.clone();
                    let mut state = open.state.lock().unwrap_or_else(|e| e.into_inner());
                    let start = state.pairs.len();
                    state.pairs.extend_from_slice(pairs);
                    drop(state);
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    (Role::Follower, open, start, None)
                }
                None => {
                    // A new batch needs an open slot; at the cap we shed
                    // rather than queue.
                    let Some(slot) = self.try_open_slot() else {
                        if !entry.executing && entry.pending.is_none() {
                            keys.remove(&key);
                        }
                        drop(keys);
                        return self.shed();
                    };
                    let batch = Arc::new(Batch {
                        state: Mutex::new(BatchState {
                            pairs: pairs.to_vec(),
                            result: None,
                        }),
                        done: Condvar::new(),
                    });
                    entry.pending = Some(batch.clone());
                    (Role::Leader, batch, 0, Some(slot))
                }
            }
        };

        let outcome = match role {
            Role::Follower => {
                let mut state = batch.state.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if let Some(out) = state.result.clone() {
                        break out;
                    }
                    match deadline {
                        None => {
                            state = batch.done.wait(state).unwrap_or_else(|e| e.into_inner());
                        }
                        Some(d) => {
                            let now = Instant::now();
                            if now >= d {
                                // Abandon the wait; the batch may still
                                // execute with our pairs, but nobody is
                                // listening for these answers.
                                drop(state);
                                return self.shed();
                            }
                            state = batch
                                .done
                                .wait_timeout(state, d - now)
                                .unwrap_or_else(|e| e.into_inner())
                                .0;
                        }
                    }
                }
            }
            Role::Leader => self.lead(&key, &batch, deadline, &query),
        };

        match outcome {
            Outcome::Done(all) => Ok(all[start..start + pairs.len()].to_vec()),
            Outcome::Shed => self.shed(),
            // The batch failed (or its leader panicked) as a whole;
            // retry alone so this request gets exactly its solo outcome
            // (success or *its own* error).
            Outcome::Failed | Outcome::Poisoned => Ok(query(&key.faults, pairs)?),
        }
    }

    /// Leader duty: wait for the key's turn, close the batch, execute it
    /// once, publish the outcome, pass the turn on. Publication happens
    /// on **every** exit path — normal, error, deadline shed, and panic
    /// (the unwind is caught, the batch poisoned, then resumed) — so a
    /// waiter can never hang on a batch whose leader is gone.
    fn lead<F>(
        &self,
        key: &Key,
        batch: &Arc<Batch>,
        deadline: Option<Instant>,
        query: &F,
    ) -> Outcome
    where
        F: Fn(&[(usize, usize)], &[(usize, usize)]) -> Result<Vec<bool>, ServeError>,
    {
        {
            let mut keys = self.keys();
            while keys.get(key).is_some_and(|e| e.executing) {
                match deadline {
                    None => {
                        keys = self.turn.wait(keys).unwrap_or_else(|e| e.into_inner());
                    }
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            // Shed the whole batch: it never executed,
                            // so every member may safely retry.
                            if let Some(entry) = keys.get_mut(key) {
                                if entry
                                    .pending
                                    .as_ref()
                                    .is_some_and(|p| Arc::ptr_eq(p, batch))
                                {
                                    entry.pending = None;
                                }
                                if !entry.executing && entry.pending.is_none() {
                                    keys.remove(key);
                                }
                            }
                            drop(keys);
                            self.publish(batch, Outcome::Shed);
                            return Outcome::Shed;
                        }
                        keys = self
                            .turn
                            .wait_timeout(keys, d - now)
                            .unwrap_or_else(|e| e.into_inner())
                            .0;
                    }
                }
            }
            let entry = keys.get_mut(key).expect("leader's key entry");
            entry.executing = true;
            entry.pending = None; // later arrivals open the next batch
        }

        // Sole owner of the closed batch's pairs now: joins happened
        // under the keys lock, which we held while clearing `pending`.
        let batch_pairs = {
            let mut state = batch.state.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut state.pairs)
        };
        self.batches.fetch_add(1, Ordering::Relaxed);
        let result = panic::catch_unwind(AssertUnwindSafe(|| query(&key.faults, &batch_pairs)));

        let outcome = match result {
            Ok(Ok(answers)) => Outcome::Done(answers.into()),
            Ok(Err(_)) => Outcome::Failed,
            Err(payload) => {
                self.publish(batch, Outcome::Poisoned);
                self.finish_key(key);
                panic::resume_unwind(payload);
            }
        };
        self.publish(batch, outcome.clone());
        self.finish_key(key);
        outcome
    }

    fn publish(&self, batch: &Batch, outcome: Outcome) {
        let mut state = batch.state.lock().unwrap_or_else(|e| e.into_inner());
        state.result = Some(outcome);
        batch.done.notify_all();
    }

    fn finish_key(&self, key: &Key) {
        let mut keys = self.keys();
        if let Some(entry) = keys.get_mut(key) {
            entry.executing = false;
            if entry.pending.is_none() {
                keys.remove(key); // don't let dead keys grow the map
            }
        }
        self.turn.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_core::{FtcScheme, Params};
    use ftc_graph::Graph;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;
    use std::time::Duration;

    fn service() -> ConnectivityService {
        let g = Graph::torus(3, 4);
        let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        ConnectivityService::from_labels(scheme.into_labels())
    }

    #[test]
    fn solo_submissions_match_direct_queries() {
        let svc = service();
        let co = Coalescer::new();
        let faults = [(0usize, 1usize), (4, 0)];
        let pairs = [(0usize, 7usize), (3, 3), (1, 11)];
        let got = co.submit(&svc, "g", &faults, &pairs).unwrap();
        let want = svc.query(&faults, &pairs).unwrap().into_vec();
        assert_eq!(got, want);
        let stats = co.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.coalesced, 0);
        assert_eq!(stats.pairs, pairs.len() as u64);
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn fault_order_and_duplicates_share_a_key() {
        let svc = service();
        let co = Coalescer::new();
        // Reversed endpoints and duplicated faults answer like the
        // normalized set.
        let got = co
            .submit(&svc, "g", &[(1, 0), (0, 1), (0, 4)], &[(0, 7)])
            .unwrap();
        let want = svc.query(&[(0, 1), (0, 4)], &[(0, 7)]).unwrap().into_vec();
        assert_eq!(got, want);
    }

    #[test]
    fn errors_match_solo_semantics() {
        let svc = service();
        let co = Coalescer::new();
        assert_eq!(
            co.submit(&svc, "g", &[(0, 99)], &[(0, 1)]).unwrap_err(),
            SubmitError::Serve(ServeError::UnknownEdge { u: 0, v: 99 })
        );
        // Over-budget faults with an all-trivial request still succeed
        // (the solo-semantics contract the fallback preserves).
        let got = co
            .submit(&svc, "g", &[(0, 1), (1, 2), (2, 3)], &[(5, 5)])
            .unwrap();
        assert_eq!(got, vec![true]);
    }

    #[test]
    fn concurrent_submissions_coalesce_and_answer_correctly() {
        let svc = service();
        let co = Coalescer::new();
        let threads = 8;
        let rounds = 20;
        let barrier = Barrier::new(threads);
        let faults = [(0usize, 1usize), (0, 4)];
        let want: Vec<Vec<bool>> = (0..threads)
            .map(|w| {
                let pairs: Vec<(usize, usize)> = (0..4).map(|i| (w, (w + i + 1) % 12)).collect();
                svc.query(&faults, &pairs).unwrap().into_vec()
            })
            .collect();
        std::thread::scope(|s| {
            for w in 0..threads {
                let (co, svc, barrier, want) = (&co, &svc, &barrier, &want);
                s.spawn(move || {
                    let pairs: Vec<(usize, usize)> =
                        (0..4).map(|i| (w, (w + i + 1) % 12)).collect();
                    for _ in 0..rounds {
                        barrier.wait();
                        let got = co.submit(svc, "g", &faults, &pairs).unwrap();
                        assert_eq!(&got, &want[w]);
                    }
                });
            }
        });
        let stats = co.stats();
        assert_eq!(stats.requests, (threads * rounds) as u64);
        // Group commit must have merged at least some simultaneous
        // submissions — with 8 threads released by a barrier every
        // round, strictly fewer batches than requests is guaranteed
        // unless every single submission serialized perfectly (which
        // the barrier makes practically impossible over 20 rounds; if
        // this ever flakes, the coalescer is broken, not the test).
        assert!(
            stats.batches + stats.coalesced == stats.requests,
            "every request is either a leader or coalesced"
        );
        assert!(stats.coalesced > 0, "no coalescing happened: {stats:?}");
    }

    /// Satellite: a leader that panics while executing must release the
    /// key so queued leaders take their turn instead of hanging forever.
    #[test]
    fn executing_leader_panic_releases_queued_batches() {
        let svc = service();
        let co = Coalescer::new();
        let panic_armed = AtomicBool::new(true);
        let faults = [(0usize, 1usize)];
        let want = svc.query(&faults, &[(0, 7)]).unwrap().into_vec();

        std::thread::scope(|s| {
            let leader = s.spawn(|| {
                // This submission leads the first batch; its query waits
                // until a second batch is queued behind it, then dies.
                co.submit_with(
                    "g",
                    &faults,
                    &[(0, 7)],
                    None,
                    |_, _| -> Result<Vec<bool>, ServeError> {
                        while co.stats().coalesced < 1 {
                            std::thread::yield_now();
                        }
                        panic!("injected leader failure");
                    },
                )
            });
            // Wait until the leader is executing (its query is live and
            // spinning), then queue a second batch behind it.
            while co.stats().batches < 1 {
                std::thread::yield_now();
            }
            let queued: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        co.submit_with("g", &faults, &[(0, 7)], None, |f, p| {
                            svc.query(f, p).map(|a| a.into_vec())
                        })
                    })
                })
                .collect();
            let _ = panic_armed; // leader panics exactly once by design
            for t in queued {
                // Neither queued submission may hang or inherit the
                // panic; both answer correctly once the key is released.
                assert_eq!(t.join().expect("no inherited panic").unwrap(), want);
            }
            assert!(leader.join().is_err(), "leader must re-raise its panic");
        });
    }

    /// Satellite: followers of the panicked batch itself fall back to
    /// solo queries via the poisoned outcome instead of hanging.
    #[test]
    fn poisoned_batch_waiters_fall_back_to_solo_queries() {
        let svc = service();
        let co = Coalescer::new();
        let faults = [(0usize, 1usize)];
        let want = svc.query(&faults, &[(3, 9)]).unwrap().into_vec();
        // Arms exactly one panic: whichever of the two queued
        // submissions ends up leading their shared batch dies; the
        // other observes Poisoned and recovers solo.
        let panic_once = AtomicBool::new(false);

        std::thread::scope(|s| {
            let gate_open = s.spawn(|| {
                co.submit_with(
                    "g",
                    &faults,
                    &[(0, 7)],
                    None,
                    |f, p| -> Result<Vec<bool>, ServeError> {
                        // Hold the key until both newcomers are queued on
                        // the pending batch (leader + one coalesced).
                        while co.stats().coalesced < 1 {
                            std::thread::yield_now();
                        }
                        panic_once.store(true, Ordering::SeqCst);
                        svc.query(f, p).map(|a| a.into_vec())
                    },
                )
            });
            while co.stats().batches < 1 {
                std::thread::yield_now();
            }
            let contenders: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        co.submit_with("g", &faults, &[(3, 9)], None, |f, p| {
                            if panic_once.swap(false, Ordering::SeqCst) {
                                panic!("injected batch-leader failure");
                            }
                            svc.query(f, p).map(|a| a.into_vec())
                        })
                    })
                })
                .collect();
            assert!(gate_open.join().expect("gate leader ok").is_ok());
            let results: Vec<_> = contenders.into_iter().map(|t| t.join()).collect();
            let panicked = results.iter().filter(|r| r.is_err()).count();
            assert_eq!(panicked, 1, "exactly one contender leads and panics");
            for r in results.into_iter().flatten() {
                assert_eq!(r.unwrap(), want, "survivor recovers via solo retry");
            }
        });
    }

    #[test]
    fn inflight_cap_sheds_new_batches() {
        let svc = service();
        let co = Coalescer::with_max_inflight(1);
        let release = AtomicBool::new(false);
        std::thread::scope(|s| {
            let slow = s.spawn(|| {
                co.submit_with(
                    "g",
                    &[(0usize, 1usize)],
                    &[(0, 7)],
                    None,
                    |f, p| -> Result<Vec<bool>, ServeError> {
                        while !release.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        svc.query(f, p).map(|a| a.into_vec())
                    },
                )
            });
            while co.stats().batches < 1 {
                std::thread::yield_now();
            }
            // A different key needs a new batch: over the cap, shed.
            assert_eq!(
                co.submit(&svc, "g", &[(0, 4)], &[(1, 2)]).unwrap_err(),
                SubmitError::Overloaded
            );
            assert_eq!(co.stats().shed, 1);
            release.store(true, Ordering::SeqCst);
            assert!(slow.join().unwrap().is_ok());
        });
        // Capacity freed: the same submission now succeeds.
        assert!(co.submit(&svc, "g", &[(0, 4)], &[(1, 2)]).is_ok());
    }

    #[test]
    fn deadlines_shed_queued_submissions() {
        let svc = service();
        let co = Coalescer::new();
        // Already-expired deadline: shed before any work.
        let past = Instant::now() - Duration::from_millis(1);
        assert_eq!(
            co.submit_deadline(&svc, "g", &[(0, 1)], &[(0, 7)], Some(past))
                .unwrap_err(),
            SubmitError::Overloaded
        );

        // A queued leader whose deadline passes while another batch
        // executes sheds its whole batch instead of waiting forever.
        let release = AtomicBool::new(false);
        std::thread::scope(|s| {
            let slow = s.spawn(|| {
                co.submit_with(
                    "g",
                    &[(0usize, 1usize)],
                    &[(0, 7)],
                    None,
                    |f, p| -> Result<Vec<bool>, ServeError> {
                        while !release.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        svc.query(f, p).map(|a| a.into_vec())
                    },
                )
            });
            while co.stats().batches < 1 {
                std::thread::yield_now();
            }
            let deadline = Instant::now() + Duration::from_millis(40);
            assert_eq!(
                co.submit_deadline(&svc, "g", &[(0, 1)], &[(3, 9)], Some(deadline))
                    .unwrap_err(),
                SubmitError::Overloaded
            );
            release.store(true, Ordering::SeqCst);
            assert!(slow.join().unwrap().is_ok());
        });
        assert_eq!(co.stats().shed, 2);
    }
}
