//! The query worker pool: a fixed set of threads per [`Server`](crate::Server)
//! that run every `Query` and `Prepare` — `dispatch` and
//! `Response::encode` — for all of the server's sessions.
//!
//! A session thread only moves frames: it decodes a request, queues it
//! here, waits for the encoded answer and writes it. So planning, execution
//! and answer allocations stay on a few threads' malloc caches, however
//! many sessions are open. Mutations stay on their session thread: they
//! wait on the WAL `fdatasync` and the follower ack, and a dead follower
//! must not hold a worker that every read needs. `Show` does too: an
//! operator asks for `SHOW METRICS` exactly when every worker is busy.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use pqp_service::{Error, Service, UserId};
use pqp_wire::proto::{Request, Response, WireError};

use crate::conn;

/// One encoded response: `(tag, payload)`.
pub(crate) type Encoded = (u8, Vec<u8>);

/// A session's private reply channel, reused for each of its requests.
pub(crate) struct Reply {
    tx: SyncSender<Encoded>,
    rx: Receiver<Encoded>,
}

impl Reply {
    pub(crate) fn new() -> Reply {
        let (tx, rx) = mpsc::sync_channel(1);
        Reply { tx, rx }
    }
}

struct Job {
    user: Arc<UserId>,
    request: Request,
    queued: Instant,
    /// A query, counted in [`Pool::queued`] until a worker takes it.
    query: bool,
    reply: SyncSender<Encoded>,
}

/// The queue into the workers. It is dropped with the server's shared
/// state, once the accept loop and the last session are gone; that closes
/// the queue and joins every worker.
pub(crate) struct Pool {
    service: Arc<Service>,
    queue: Sender<Job>,
    /// Queries waiting for a worker. With the service's in-flight count
    /// they are held to `max_in_flight`.
    queued: Arc<AtomicUsize>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Start the workers. They hold the service, never the server's shared
    /// state, so they cannot keep the queue alive themselves.
    pub(crate) fn start(service: &Arc<Service>) -> std::io::Result<Pool> {
        // At least two workers, even on one CPU: with one, a slow query
        // holds the only worker and every other read, `Prepare` included,
        // waits behind it.
        let workers = std::thread::available_parallelism().map_or(2, |n| n.get().max(2));
        let (queue, jobs) = mpsc::channel();
        let jobs = Arc::new(Mutex::new(jobs));
        let queued = Arc::new(AtomicUsize::new(0));
        let workers = (0..workers)
            .map(|_| {
                let (jobs, service, queued) =
                    (Arc::clone(&jobs), Arc::clone(service), Arc::clone(&queued));
                std::thread::Builder::new()
                    .name("pqp-worker".to_string())
                    .spawn(move || work(&jobs, &service, &queued))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        service.telemetry().set_pool_workers(workers.len());
        Ok(Pool { service: Arc::clone(service), queue, queued, workers })
    }

    /// Queue `request` and wait for its encoded answer on `reply`. A query
    /// the admission limit refuses is answered at once, without queueing.
    pub(crate) fn run(&self, user: &Arc<UserId>, request: Request, reply: &Reply) -> Encoded {
        let query = matches!(request, Request::Query { .. });
        if query {
            if let Err(refused) = self.admit() {
                return Response::Error(WireError::from_error(&refused)).encode();
            }
        }
        let job = Job {
            user: Arc::clone(user),
            request,
            queued: Instant::now(),
            query,
            reply: reply.tx.clone(),
        };
        match self.queue.send(job).ok().and_then(|()| reply.rx.recv().ok()) {
            Some(encoded) => encoded,
            // Unreachable while the server runs: the workers outlive the
            // queue, and `answer` catches a request's panic.
            None => Response::Error(WireError::from_error(&Error::Internal(
                "query worker pool is gone".to_string(),
            )))
            .encode(),
        }
    }

    /// Admission at the queue: a query waiting for a worker counts against
    /// the service's `max_in_flight` like one running, so overload is
    /// refused with `Overloaded` instead of queueing without bound. The
    /// service admits again when the query runs; a query between the two
    /// counts is missed here and judged there.
    fn admit(&self) -> Result<(), Error> {
        let queued = self.queued.fetch_add(1, Ordering::AcqRel);
        let max = self.service.config().max_in_flight;
        let in_flight = queued + self.service.in_flight();
        if max != 0 && in_flight >= max {
            self.queued.fetch_sub(1, Ordering::AcqRel);
            pqp_obs::counter_add("service.admission.rejected", 1);
            return Err(Error::Overloaded { in_flight, max });
        }
        Ok(())
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // No session is left to queue a job, so each worker is idle or
        // finishing one, and exits once it sees the queue closed. Workers
        // hold no server state, so this never runs on one of them.
        drop(std::mem::replace(&mut self.queue, mpsc::channel().0));
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn work(jobs: &Mutex<Receiver<Job>>, service: &Service, queued: &AtomicUsize) {
    loop {
        // The guard is a temporary of this statement: the lock is released
        // before the job runs.
        let job = jobs.lock().unwrap_or_else(|e| e.into_inner()).recv();
        let Ok(job) = job else { return };
        if job.query {
            queued.fetch_sub(1, Ordering::AcqRel);
        }
        service.telemetry().record_pool_wait(job.queued.elapsed());
        // The session is blocked on its reply channel until this arrives.
        let _ = job.reply.send(conn::answer(service, &job.user, job.request));
    }
}
