//! Cross-connection request coalescing: requests that share a fault set
//! share one session build.
//!
//! A query reads the labels of `s`, `t` and the faulty edges. The
//! fault-set part — fault ingestion, fragment merge, decoding — is the
//! pooled [`QuerySession`](ftc_core::QuerySession) and costs far more
//! than an answer; each s–t pair is then a cheap lookup. So the server
//! shares *sessions*, never pairs: requests in flight at once on one
//! service instance with the same normalized fault set get one
//! [`PooledSession`] between them, and each answers its own pairs from
//! it on its own connection thread.
//!
//! The discipline is a build table, not a timer:
//!
//! * the **first** request for a (service, fault set) key becomes the
//!   *leader*: it opens a batch under the key and builds the session at
//!   once, so an uncontended request pays no added latency;
//! * requests arriving while that build runs **join** it and wait for
//!   its outcome, which is published to every waiter as an
//!   `Arc<PooledSession>`, the build's [`ServeError`], or a poisoned
//!   mark;
//! * the leader removes the key as it publishes, so the next arrival
//!   starts a new build. A session lives as long as some request still
//!   answers from it, and its scratch goes back to the service's pool
//!   when the last one drops it.
//!
//! The key holds the service instance, so a request resolved to a
//! swapped-in service never joins a build over the previous archive.
//! A build's outcome depends only on the service and the fault set, so
//! its error is every waiter's own error; a bad vertex in one request
//! fails only that request, in its own answer pass.
//!
//! # Overload and failure discipline
//!
//! The coalescer **sheds instead of queueing**: when `max_inflight`
//! builds are already running, or a submission's deadline passes before
//! its session is ready, the request fails fast with
//! [`SubmitError::Overloaded`] — the wire maps it to
//! `ErrorCode::Overloaded`, which clients know is retryable. Joining a
//! running build is always allowed: it adds no build. A leader whose
//! build *panics* publishes a poisoned outcome and releases the key
//! before the panic resumes, so waiters never hang on a dead build and
//! never inherit its panic: each builds its own session instead.

use ftc_serve::{ConnectivityService, PooledSession, ServeError};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// What a request coalesces on: the service instance and its fault set,
/// normalized (per-pair min/max order, sorted, deduplicated) so that
/// permutations of the same faults share a build.
#[derive(Clone)]
struct Key {
    service: ConnectivityService,
    faults: Arc<[(usize, usize)]>,
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.service.is_same(&other.service) && self.faults == other.faults
    }
}

impl Eq for Key {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Equal keys have equal fault sets; services only tell apart
        // keys that collide here.
        self.faults.hash(state);
    }
}

/// How a build ended, as published to its waiters.
#[derive(Clone)]
enum Outcome {
    Ready(Arc<PooledSession>),
    Failed(ServeError),
    /// The leader panicked mid-build. Waiters must not inherit the
    /// panic; each builds its own session.
    Poisoned,
}

/// One session build that later arrivals can join.
#[derive(Default)]
struct Batch {
    /// `None` until the leader publishes.
    outcome: Mutex<Option<Outcome>>,
    done: Condvar,
}

impl Batch {
    fn publish(&self, outcome: Outcome) {
        *self.outcome.lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
        self.done.notify_all();
    }

    /// The published outcome, or `None` once `deadline` passes first.
    fn wait(&self, deadline: Option<Instant>) -> Option<Outcome> {
        let mut outcome = self.outcome.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(out) = outcome.as_ref() {
                return Some(out.clone());
            }
            outcome = match deadline {
                None => self.done.wait(outcome).unwrap_or_else(|e| e.into_inner()),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return None;
                    }
                    self.done
                        .wait_timeout(outcome, d - now)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
            };
        }
    }
}

/// A snapshot of the coalescer's lifetime counters. Every request not
/// shed on arrival is counted once as a leader (`batches`) or a joiner
/// (`coalesced`), so without shedding `coalesced + batches = requests`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoalesceStats {
    /// Requests that asked for a session (a request whose pairs all
    /// answer trivially never does).
    pub requests: u64,
    /// Requests that joined a running build (each one is a session
    /// build avoided).
    pub coalesced: u64,
    /// Builds led (= sessions built).
    pub batches: u64,
    /// Requests shed with [`SubmitError::Overloaded`] (build cap hit or
    /// deadline passed before the session was ready).
    pub shed: u64,
}

/// Why a submission did not produce a session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The request was shed — the coalescer is at its build cap or the
    /// request's deadline passed while its session was being built.
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

/// The build table shared by every connection of one server.
#[derive(Default)]
pub struct Coalescer {
    /// Running-build ceiling; `0` = unbounded.
    max_inflight: usize,
    building: Mutex<HashMap<Key, Arc<Batch>>>,
    open: AtomicU64,
    requests: AtomicU64,
    coalesced: AtomicU64,
    batches: AtomicU64,
    shed: AtomicU64,
}

/// Releases a build slot on drop, so the count stays correct even when
/// the build panics and unwinds through `session_with`.
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

    /// A coalescer that sheds new builds beyond `max_inflight` running
    /// ones (`0` = unbounded). Joining a running build is always allowed.
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
            shed: self.shed.load(Ordering::Relaxed),
        }
    }

    fn building(&self) -> std::sync::MutexGuard<'_, HashMap<Key, Arc<Batch>>> {
        // Holders only insert and remove whole entries, so a panic
        // cannot leave the map half-updated; poisoning is ignored.
        self.building.lock().unwrap_or_else(|e| e.into_inner())
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

    /// A session of `service` for the fault set `faults`, shared with
    /// every concurrent request on the same service instance and fault
    /// set. A request still waiting for its session when `deadline`
    /// passes is shed.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Serve`] carrying the error
    /// [`ConnectivityService::session`] raises for the fault set;
    /// [`SubmitError::Overloaded`] when the request was shed.
    pub fn session(
        &self,
        service: &ConnectivityService,
        faults: impl IntoIterator<Item = (usize, usize)>,
        deadline: Option<Instant>,
    ) -> Result<Arc<PooledSession>, SubmitError> {
        self.session_with(service, faults, deadline, |faults| {
            service.session(faults.iter().copied())
        })
    }

    /// [`session`](Coalescer::session) with the session build injected,
    /// so tests can hold or fail (or panic) a build at exactly that
    /// point. A leader calls `build` once with the normalized fault set;
    /// a waiter of a poisoned build calls its own.
    pub fn session_with(
        &self,
        service: &ConnectivityService,
        faults: impl IntoIterator<Item = (usize, usize)>,
        deadline: Option<Instant>,
        build: impl FnOnce(&[(usize, usize)]) -> Result<PooledSession, ServeError>,
    ) -> Result<Arc<PooledSession>, SubmitError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return self.shed();
        }
        let mut norm: Vec<(usize, usize)> = faults
            .into_iter()
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect();
        norm.sort_unstable();
        norm.dedup();
        let key = Key {
            service: service.clone(),
            faults: norm.into(),
        };

        let mut building = self.building();
        if let Some(batch) = building.get(&key).cloned() {
            drop(building);
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            return match batch.wait(deadline) {
                None => self.shed(),
                Some(Outcome::Ready(session)) => Ok(session),
                Some(Outcome::Failed(e)) => Err(e.into()),
                Some(Outcome::Poisoned) => Ok(Arc::new(build(&key.faults)?)),
            };
        }
        let Some(_slot) = self.try_open_slot() else {
            drop(building);
            return self.shed();
        };
        let batch = Arc::new(Batch::default());
        building.insert(key.clone(), batch.clone());
        drop(building);
        self.batches.fetch_add(1, Ordering::Relaxed);

        // Publication happens on every exit path — the panic's too (the
        // unwind is caught, the batch poisoned, then resumed) — so no
        // waiter can hang on a build whose leader is gone.
        let built = panic::catch_unwind(AssertUnwindSafe(|| build(&key.faults)));
        self.building().remove(&key);
        match built {
            Ok(Ok(session)) => {
                let session = Arc::new(session);
                batch.publish(Outcome::Ready(session.clone()));
                Ok(session)
            }
            Ok(Err(e)) => {
                batch.publish(Outcome::Failed(e.clone()));
                Err(e.into())
            }
            Err(payload) => {
                batch.publish(Outcome::Poisoned);
                panic::resume_unwind(payload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_core::{FtcScheme, Params, QueryError};
    use ftc_graph::Graph;
    use std::time::Duration;

    fn service() -> ConnectivityService {
        let g = Graph::torus(3, 4);
        let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        ConnectivityService::from_labels(scheme.into_labels())
    }

    /// Answers `pairs` from a coalesced session, as the server does.
    fn answer(
        co: &Coalescer,
        svc: &ConnectivityService,
        faults: &[(usize, usize)],
        pairs: &[(usize, usize)],
    ) -> Result<Vec<bool>, SubmitError> {
        let mut out = Vec::new();
        svc.answer(
            faults.iter().copied(),
            pairs.iter().copied(),
            || co.session(svc, faults.iter().copied(), None),
            |cert| out.push(cert.is_some()),
        )?;
        Ok(out)
    }

    /// Spins until `co` has counted `joined` joiners.
    fn wait_for_joiners(co: &Coalescer, joined: u64) {
        while co.stats().coalesced < joined {
            std::thread::yield_now();
        }
    }

    #[test]
    fn solo_submissions_match_direct_queries() {
        let svc = service();
        let co = Coalescer::new();
        let faults = [(0usize, 1usize), (4, 0)];
        let pairs = [(0usize, 7usize), (3, 3), (1, 11)];
        let got = answer(&co, &svc, &faults, &pairs).unwrap();
        let want = svc.query(&faults, &pairs).unwrap().into_vec();
        assert_eq!(got, want);
        let stats = co.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.coalesced, 0);
        assert_eq!(stats.shed, 0);
        // The published session went back to the pool with its last
        // holder; the key is free for the next build.
        assert!(co.building().is_empty());
    }

    #[test]
    fn fault_order_and_duplicates_share_a_key() {
        let svc = service();
        let co = Coalescer::new();
        // Reversed endpoints and duplicated faults answer like the
        // normalized set, and join a build of it.
        let got = answer(&co, &svc, &[(1, 0), (0, 1), (0, 4)], &[(0, 7)]).unwrap();
        let want = svc.query(&[(0, 1), (0, 4)], &[(0, 7)]).unwrap().into_vec();
        assert_eq!(got, want);
        std::thread::scope(|s| {
            let leader = s.spawn(|| {
                co.session_with(&svc, [(0, 4), (0, 1)], None, |f| {
                    assert_eq!(f, [(0, 1), (0, 4)]);
                    wait_for_joiners(&co, 1);
                    svc.session(f.iter().copied())
                })
            });
            while co.building().is_empty() {
                std::thread::yield_now();
            }
            let joined = co.session(&svc, [(4, 0), (1, 0), (4, 0)], None).unwrap();
            let led = leader.join().unwrap().unwrap();
            assert!(Arc::ptr_eq(&joined, &led));
        });
    }

    #[test]
    fn errors_match_solo_semantics() {
        let svc = service();
        let co = Coalescer::new();
        assert_eq!(
            answer(&co, &svc, &[(0, 99)], &[(0, 1)]).unwrap_err(),
            SubmitError::Serve(ServeError::UnknownEdge { u: 0, v: 99 })
        );
        // Over-budget faults with an all-trivial request never ask for a
        // session, so they still succeed.
        let got = answer(&co, &svc, &[(0, 1), (1, 2), (2, 3)], &[(5, 5)]).unwrap();
        assert_eq!(got, vec![true]);
        assert_eq!(
            answer(&co, &svc, &[(0, 1), (1, 2), (2, 3)], &[(0, 5)]).unwrap_err(),
            SubmitError::Serve(ServeError::Query(QueryError::TooManyFaults {
                supplied: 3,
                budget: 2
            }))
        );
        // Only the request that needed the decoder asked.
        assert_eq!(co.stats().requests, 1);
    }

    #[test]
    fn concurrent_submissions_coalesce_and_answer_correctly() {
        let svc = service();
        let co = Coalescer::new();
        let threads = 8usize;
        let faults = [(0usize, 1usize), (0, 4)];
        let pairs_of =
            |w: usize| -> Vec<(usize, usize)> { (0..4).map(|i| (w, (w + i + 1) % 12)).collect() };
        let want: Vec<Vec<bool>> = (0..threads)
            .map(|w| svc.query(&faults, &pairs_of(w)).unwrap().into_vec())
            .collect();
        std::thread::scope(|s| {
            // The leader's build is held until every other thread has
            // joined it, so all of them answer from one session.
            let leader = s.spawn(|| {
                let mut out = Vec::new();
                svc.answer(
                    faults,
                    pairs_of(0).into_iter(),
                    || {
                        co.session_with(&svc, faults, None, |f| {
                            wait_for_joiners(&co, threads as u64 - 1);
                            svc.session(f.iter().copied())
                        })
                    },
                    |cert| out.push(cert.is_some()),
                )
                .map(|()| out)
            });
            while co.building().is_empty() {
                std::thread::yield_now();
            }
            let joiners: Vec<_> = (1..threads)
                .map(|w| {
                    let (co, svc) = (&co, &svc);
                    s.spawn(move || answer(co, svc, &faults, &pairs_of(w)).unwrap())
                })
                .collect();
            assert_eq!(leader.join().unwrap().unwrap(), want[0]);
            for (w, joiner) in joiners.into_iter().enumerate() {
                assert_eq!(joiner.join().unwrap(), want[w + 1]);
            }
        });
        let stats = co.stats();
        assert_eq!(stats.requests, threads as u64);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.coalesced, threads as u64 - 1);
        assert!(co.building().is_empty());
    }

    /// A leader that panics mid-build releases its key: the next request
    /// for the same fault set leads a fresh build instead of hanging.
    #[test]
    fn executing_leader_panic_releases_queued_batches() {
        let svc = service();
        let co = Coalescer::new();
        let faults = [(0usize, 1usize)];
        let want = svc.query(&faults, &[(0, 7)]).unwrap().into_vec();
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                co.session_with(
                    &svc,
                    faults,
                    None,
                    |_| -> Result<PooledSession, ServeError> { panic!("injected leader failure") },
                )
            })
            .join()
        });
        assert!(died.is_err(), "leader must re-raise its panic");
        assert!(co.building().is_empty(), "the dead build released its key");
        assert_eq!(answer(&co, &svc, &faults, &[(0, 7)]).unwrap(), want);
        assert_eq!(co.stats().batches, 2);
    }

    /// Joiners of a build whose leader panics neither hang nor inherit
    /// the panic: each builds its own session and answers correctly.
    #[test]
    fn poisoned_batch_waiters_fall_back_to_solo_queries() {
        let svc = service();
        let co = Coalescer::new();
        let faults = [(0usize, 1usize)];
        let want = svc.query(&faults, &[(3, 9)]).unwrap().into_vec();
        std::thread::scope(|s| {
            let leader = s.spawn(|| {
                co.session_with(
                    &svc,
                    faults,
                    None,
                    |_| -> Result<PooledSession, ServeError> {
                        wait_for_joiners(&co, 2);
                        panic!("injected batch-leader failure");
                    },
                )
            });
            while co.building().is_empty() {
                std::thread::yield_now();
            }
            let joiners: Vec<_> = (0..2)
                .map(|_| s.spawn(|| answer(&co, &svc, &faults, &[(3, 9)])))
                .collect();
            assert!(leader.join().is_err(), "leader must re-raise its panic");
            for joiner in joiners {
                let got = joiner.join().expect("no inherited panic");
                assert_eq!(got.unwrap(), want, "a waiter recovers with its own build");
            }
        });
        let stats = co.stats();
        assert_eq!((stats.batches, stats.coalesced), (1, 2));
    }

    #[test]
    fn inflight_cap_sheds_new_batches() {
        let svc = service();
        let co = Coalescer::with_max_inflight(1);
        let release = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let slow = s.spawn(|| {
                co.session_with(&svc, [(0, 1)], None, |f| {
                    while !release.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    svc.session(f.iter().copied())
                })
            });
            while co.stats().batches < 1 {
                std::thread::yield_now();
            }
            // A different key needs a new build: over the cap, shed.
            assert_eq!(
                answer(&co, &svc, &[(0, 4)], &[(1, 2)]).unwrap_err(),
                SubmitError::Overloaded
            );
            assert_eq!(co.stats().shed, 1);
            release.store(true, Ordering::SeqCst);
            assert!(slow.join().unwrap().is_ok());
        });
        // Capacity freed: the same request now succeeds.
        assert!(answer(&co, &svc, &[(0, 4)], &[(1, 2)]).is_ok());
    }

    #[test]
    fn deadlines_shed_queued_submissions() {
        let svc = service();
        let co = Coalescer::new();
        // Already-expired deadline: shed before any work.
        let past = Instant::now() - Duration::from_millis(1);
        assert_eq!(
            co.session(&svc, [(0, 1)], Some(past)).unwrap_err(),
            SubmitError::Overloaded
        );

        // A joiner whose deadline passes while the session builds is
        // shed; the leader still answers.
        let release = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let slow = s.spawn(|| {
                let mut out = Vec::new();
                svc.answer(
                    [(0, 1)],
                    [(0, 7)].into_iter(),
                    || {
                        co.session_with(&svc, [(0, 1)], None, |f| {
                            while !release.load(Ordering::SeqCst) {
                                std::thread::yield_now();
                            }
                            svc.session(f.iter().copied())
                        })
                    },
                    |cert| out.push(cert.is_some()),
                )
                .map(|()| out)
            });
            while co.building().is_empty() {
                std::thread::yield_now();
            }
            let deadline = Instant::now() + Duration::from_millis(40);
            assert_eq!(
                co.session(&svc, [(1, 0)], Some(deadline)).unwrap_err(),
                SubmitError::Overloaded
            );
            release.store(true, Ordering::SeqCst);
            let want = svc.query(&[(0, 1)], &[(0, 7)]).unwrap().into_vec();
            assert_eq!(slow.join().unwrap().unwrap(), want);
        });
        let stats = co.stats();
        assert_eq!((stats.shed, stats.coalesced, stats.batches), (2, 1, 1));
    }

    /// The key holds the service instance: a request on a swapped-in
    /// service never joins a build over the old one, and every session
    /// answers through the archive it was built from.
    #[test]
    fn swapped_in_services_never_join_old_builds() {
        let old = service();
        let new = service();
        let co = Coalescer::new();
        let release = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let slow = s.spawn(|| {
                co.session_with(&old, [(0, 1)], None, |f| {
                    while !release.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    old.session(f.iter().copied())
                })
            });
            while co.building().is_empty() {
                std::thread::yield_now();
            }
            // Same fault set, swapped-in service: a build of its own,
            // not a join onto the one still running over `old`.
            let fresh = co.session(&new, [(0, 1)], None).unwrap();
            assert!(fresh.service().is_same(&new));
            assert_eq!((co.stats().batches, co.stats().coalesced), (2, 0));
            release.store(true, Ordering::SeqCst);
            let stale = slow.join().unwrap().unwrap();
            assert!(stale.service().is_same(&old));
            assert!(!stale.service().is_same(&new));
        });
    }

    /// A session answers only for the service that built it.
    #[test]
    #[should_panic(expected = "only for the service that built it")]
    fn sessions_of_another_service_are_refused() {
        let (old, new) = (service(), service());
        let _ = new.answer([], [(0, 7)].into_iter(), || old.session([]), |_| ());
    }
}
