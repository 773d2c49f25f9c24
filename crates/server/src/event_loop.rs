//! The readiness loop: every client session of a [`Server`](crate::Server)
//! is served from one epoll set.
//!
//! **Threads.** `slots + 1` loop threads (named `pqp-worker`), where
//! `slots = available_parallelism().max(2)`; one mutation thread
//! (`pqp-mutate`); the accept thread. Every descriptor is registered
//! one-shot, so the thread that takes a session's event owns the session
//! until it arms it again. A request costs two thread wake-ups: the loop
//! thread that sees the session readable reads the frame, runs the read,
//! writes the answer, and the client wakes.
//!
//! **Run slots.** At most `slots` reads (`Query`, `Prepare`) run at once.
//! A loop thread that decodes one runs it on the spot if a slot is free and
//! queues it otherwise. A slot is given back as soon as its read has run;
//! with reads queued, the thread keeps it and runs the queue dry before it
//! waits again. Queued plus running queries are held to the service's
//! `max_in_flight`, refused with `Overloaded` beyond it.
//! `server.pool.workers` reports the slots; `server.pool.wait_us` times
//! each read from its decode to its run (0 when it ran at once).
//!
//! **The standby thread.** `slots` loop threads wait on the set for good.
//! The one beyond them waits there only while every slot has been held for
//! [`STANDBY_AFTER`] with no read finishing, so `Hello`, protocol errors
//! and `Show` are answered while long reads hold every slot. Waiting there
//! all the time it would steal work: epoll wakes the thread that waited
//! last, so when the thread that wrote an answer has been preempted by the
//! client it woke, the spare thread takes that client's next request and
//! runs it wherever it was last scheduled, often behind the other slot's
//! read on a busy CPU.
//!
//! **Off the loop.** A mutation waits on the WAL `fdatasync` and the
//! follower ack, so it goes to the mutation thread: a dead follower holds
//! that thread, never a loop thread. A connection whose first frame is a
//! replication request leaves the set for a blocking thread of its own
//! ([`conn::serve_peer`]).
//!
//! **Backpressure and timeouts.** Sockets are non-blocking. An answer that
//! does not fit in the socket stays in the session's output, the session
//! waits for writability, and it is not read again until the output has
//! drained: a client that stops reading holds no thread. A sweep on the
//! `epoll_wait` timeout closes a session idle past `read_timeout`
//! (`idle_timeout`) or with output undrained past `write_timeout`
//! (`disconnected`).
//!
//! **Shutdown.** Open sessions keep being served; every request after
//! shutdown is answered `Bye`. When the accept loop has ended and the last
//! session closes, one byte on a wake-up socket stops the loop threads one
//! after another, and the mutation thread's queue closes.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::time::{Duration, Instant};

use pqp_service::{Error, Service, UserId};
use pqp_wire::proto::{ProfileOp, Request, Response, WireError};

use crate::conn;
use crate::epoll::{Epoll, Event, READABLE, WRITABLE};
use crate::session::{Action, Close, SessionCore};
use crate::{ServerConfig, Shared};

/// The token of the wake-up socket; no session slot reaches it.
const WAKE: u64 = u64::MAX;
/// Bytes taken from a socket per `read`.
const READ_CHUNK: usize = 64 * 1024;
/// How long every run slot must have been held, with no read finishing,
/// before the standby loop thread joins the others on the set.
const STANDBY_AFTER: Duration = Duration::from_millis(10);
/// Bounds of the sweep period, a quarter of the shorter timeout.
const SWEEP_MIN: Duration = Duration::from_millis(10);
const SWEEP_MAX: Duration = Duration::from_secs(1);

pub(crate) struct Runtime {
    epoll: Epoll,
    /// Stops the loop threads: `wake_rx` is in the set, and one byte on
    /// `wake_tx` makes it readable for good.
    wake_tx: UnixStream,
    wake_rx: UnixStream,
    sessions: Mutex<Slab>,
    runs: Mutex<Runs>,
    /// Wakes the standby loop thread when the last free run slot is taken.
    standby: Condvar,
    /// Into the mutation thread; taken when the loop ends, which stops it.
    mutations: Mutex<Option<Sender<Mutation>>>,
    slots: usize,
    /// Sent in every `HelloOk`.
    name: Arc<str>,
    /// The accept loop still runs.
    accepting: AtomicBool,
    /// The loop threads were told to stop.
    done: AtomicBool,
    /// Sweep period; `None` when neither timeout is set.
    sweep_every: Option<Duration>,
    /// When the next sweep is due, in nanoseconds since `epoch`.
    next_sweep: AtomicU64,
    epoch: Instant,
}

/// One client session. Its state is locked by the thread that took its
/// event, the mutation thread running its mutation, or the thread running
/// its queued read; the sweep only tries the lock.
struct Session(Mutex<State>);

struct State {
    /// `None` once the session is closed or handed to a peer thread.
    stream: Option<TcpStream>,
    core: SessionCore,
    phase: Phase,
    /// Last bytes in or answer out: the idle sweep measures from here.
    last_active: Instant,
    /// Since when output has waited for the socket.
    pending_since: Option<Instant>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Armed for input.
    Reading,
    /// Armed for output: its answers wait for the socket to drain.
    Writing,
    /// Disarmed: a loop thread, the mutation thread or the run queue has it.
    Busy,
}

/// A read waiting for a run slot.
struct Job {
    token: u64,
    session: Arc<Session>,
    user: Arc<UserId>,
    request: Request,
    queued: Instant,
}

struct Mutation {
    token: u64,
    session: Arc<Session>,
    user: Arc<UserId>,
    op: ProfileOp,
}

struct Runs {
    free: usize,
    queue: VecDeque<Job>,
    /// Queries in `queue`; with the service's in-flight count they are
    /// held to `max_in_flight`.
    queued_queries: usize,
    /// Reads that have finished running, ever.
    finished: u64,
    /// The standby loop thread waits for the last free slot to be taken.
    standby_parked: bool,
}

impl Runs {
    /// Admission at the queue: a query waiting for a slot counts against
    /// the service's `max_in_flight` like one running, so overload is
    /// refused with `Overloaded` instead of queueing without bound. The
    /// service admits again when the query runs.
    fn admit(&self, service: &Service) -> Result<(), Error> {
        let max = service.config().max_in_flight;
        let in_flight = self.queued_queries + service.in_flight();
        if max != 0 && in_flight >= max {
            pqp_obs::counter_add("service.admission.rejected", 1);
            return Err(Error::Overloaded { in_flight, max });
        }
        Ok(())
    }
}

/// Sessions by token: `slot << 32 | generation`. A slot's generation moves
/// on when its session leaves, so an event taken for the old session finds
/// nothing.
#[derive(Default)]
struct Slab {
    entries: Vec<(u32, Option<Arc<Session>>)>,
    free: Vec<usize>,
    open: usize,
}

impl Slab {
    fn insert(&mut self, session: Arc<Session>) -> u64 {
        let index = self.free.pop().unwrap_or_else(|| {
            self.entries.push((0, None));
            self.entries.len() - 1
        });
        let entry = &mut self.entries[index];
        entry.1 = Some(session);
        self.open += 1;
        token(index, entry.0)
    }

    fn get(&self, token: u64) -> Option<Arc<Session>> {
        match self.entries.get((token >> 32) as usize)? {
            (generation, Some(session)) if *generation == token as u32 => Some(Arc::clone(session)),
            _ => None,
        }
    }

    /// Free `token`'s slot; returns how many sessions are left.
    fn remove(&mut self, token: u64) -> usize {
        let index = (token >> 32) as usize;
        if let Some(entry) = self.entries.get_mut(index) {
            if entry.0 == token as u32 && entry.1.take().is_some() {
                entry.0 = entry.0.wrapping_add(1);
                self.free.push(index);
                self.open -= 1;
            }
        }
        self.open
    }

    fn all(&self) -> Vec<(u64, Arc<Session>)> {
        let live = self.entries.iter().enumerate();
        live.filter_map(|(i, (g, s))| Some((token(i, *g), Arc::clone(s.as_ref()?)))).collect()
    }
}

fn token(index: usize, generation: u32) -> u64 {
    (index as u64) << 32 | u64::from(generation)
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

impl Runtime {
    pub(crate) fn new(config: &ServerConfig) -> std::io::Result<Runtime> {
        let epoll = Epoll::new()?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        epoll.add(wake_rx.as_fd(), READABLE, WAKE)?;
        // At least two slots, even on one CPU: with one, a slow query holds
        // it and every other read, `Prepare` included, waits behind it.
        let slots = std::thread::available_parallelism().map_or(2, |n| n.get().max(2));
        let timeouts = [config.read_timeout, config.write_timeout];
        let sweep_every =
            timeouts.into_iter().flatten().min().map(|t| (t / 4).clamp(SWEEP_MIN, SWEEP_MAX));
        Ok(Runtime {
            epoll,
            wake_tx,
            wake_rx,
            sessions: Mutex::new(Slab::default()),
            runs: Mutex::new(Runs {
                free: slots,
                queue: VecDeque::new(),
                queued_queries: 0,
                finished: 0,
                standby_parked: false,
            }),
            standby: Condvar::new(),
            mutations: Mutex::new(None),
            slots,
            name: Arc::from(config.name.as_str()),
            accepting: AtomicBool::new(true),
            done: AtomicBool::new(false),
            next_sweep: AtomicU64::new(sweep_every.map_or(0, |t| t.as_nanos() as u64)),
            sweep_every,
            epoch: Instant::now(),
        })
    }

    /// The run slots.
    pub(crate) fn slots(&self) -> usize {
        self.slots
    }

    /// Start the loop threads and the mutation thread.
    pub(crate) fn start(shared: &Arc<Shared>) -> std::io::Result<()> {
        let rt = &shared.runtime;
        let (tx, rx) = mpsc::channel();
        *lock(&rt.mutations) = Some(tx);
        let thread = |name: &str| std::thread::Builder::new().name(name.to_string());
        let mutator = Arc::clone(shared);
        let started =
            thread("pqp-mutate").spawn(move || mutation_thread(&mutator, rx)).and_then(|_| {
                (0..=rt.slots).try_for_each(|slot| {
                    let shared = Arc::clone(shared);
                    let body = if slot < rt.slots { loop_thread } else { standby_thread };
                    thread("pqp-worker").spawn(move || body(&shared)).map(drop)
                })
            });
        if started.is_err() {
            // Stop what did start.
            shared.shutdown.store(true, Ordering::SeqCst);
            rt.accept_ended(shared);
        }
        started
    }

    /// Take a connection the accept loop accepted into the set.
    pub(crate) fn register(&self, shared: &Shared, stream: TcpStream) {
        shared.active.fetch_add(1, Ordering::Relaxed);
        let configured = stream.set_nonblocking(true).and_then(|()| stream.set_nodelay(true));
        let session = Arc::new(Session(Mutex::new(State {
            stream: Some(stream),
            core: SessionCore::new(Arc::clone(&self.name)),
            phase: Phase::Reading,
            last_active: Instant::now(),
            pending_since: None,
        })));
        let token = lock(&self.sessions).insert(Arc::clone(&session));
        let mut st = lock(&session.0);
        let armed = configured.and_then(|()| match &st.stream {
            Some(stream) => self.epoll.add(stream.as_fd(), READABLE, token),
            None => Ok(()),
        });
        if armed.is_err() {
            pqp_obs::counter_add("server.register_failed", 1);
            self.finish(shared, token, &mut st, Close::Disconnected);
        }
    }

    /// The accept loop has returned: stop the loop once no session is left.
    pub(crate) fn accept_ended(&self, shared: &Shared) {
        self.accepting.store(false, Ordering::SeqCst);
        self.stop_if_done(shared);
    }

    fn stop_if_done(&self, shared: &Shared) {
        let ended =
            shared.shutdown.load(Ordering::SeqCst) && !self.accepting.load(Ordering::SeqCst);
        if ended && lock(&self.sessions).open == 0 && !self.done.swap(true, Ordering::SeqCst) {
            lock(&self.mutations).take();
            let _runs = lock(&self.runs);
            self.standby.notify_all();
            if (&self.wake_tx).write_all(&[1]).is_err() {
                pqp_obs::counter_add("server.wake_failed", 1);
            }
        }
    }

    /// A session's event: read what arrived (or resume a parked write) and
    /// serve it; then, if this thread kept a run slot for the queue, run
    /// the queue dry.
    fn ready(&self, shared: &Arc<Shared>, token: u64, buf: &mut [u8]) {
        let Some(session) = lock(&self.sessions).get(token) else { return };
        let mut held = false;
        {
            let mut st = lock(&session.0);
            match st.phase {
                Phase::Busy => return,
                Phase::Reading => fill(&mut st, buf),
                Phase::Writing => {}
            }
            self.drive(shared, token, &session, &mut st, &mut held);
        }
        while held {
            let job = {
                let mut runs = lock(&self.runs);
                let job = runs.queue.pop_front();
                match &job {
                    Some(job) if matches!(job.request, Request::Query { .. }) => {
                        runs.queued_queries -= 1;
                    }
                    Some(_) => {}
                    None => runs.free += 1,
                }
                job
            };
            let Some(Job { token, session, user, request, queued }) = job else { break };
            shared.service.telemetry().record_pool_wait(queued.elapsed());
            let answer = conn::answer(&shared.service, &user, request);
            held = self.release();
            let mut st = lock(&session.0);
            st.core.answered(&answer);
            self.drive(shared, token, &session, &mut st, &mut held);
        }
    }

    /// Give a run slot back as soon as its read has run, before the answer
    /// is written: the client's next request can reach another loop thread
    /// first. With reads queued the slot is kept instead (`true`), and this
    /// thread runs the queue once its session waits.
    fn release(&self) -> bool {
        let mut runs = lock(&self.runs);
        runs.finished += 1;
        if runs.queue.is_empty() {
            runs.free += 1;
        }
        !runs.queue.is_empty()
    }

    /// Serve the session from what it has buffered until it must wait: for
    /// input, for its output to drain, for the mutation thread or for a run
    /// slot. `held` says whether this thread kept a run slot for the queue;
    /// then this session's reads queue behind the others.
    fn drive(
        &self,
        shared: &Arc<Shared>,
        token: u64,
        session: &Arc<Session>,
        st: &mut State,
        held: &mut bool,
    ) {
        loop {
            if !self.flush(shared, token, st) {
                return;
            }
            let request = match st.core.next(shared.shutdown.load(Ordering::SeqCst)) {
                // What the core answered itself goes out first; then `next`
                // says the same again.
                Action::Wait | Action::Close(_) if !st.core.output().is_empty() => continue,
                Action::Wait => return self.arm(shared, token, st, Phase::Reading),
                Action::Close(reason) => return self.finish(shared, token, st, reason),
                Action::Peer(tag, payload) => {
                    return self.hand_to_peer(shared, token, st, tag, payload)
                }
                Action::Run(user, request) => (user, request),
            };
            let answer = match request {
                (user, Request::Mutate(op)) => {
                    st.phase = Phase::Busy;
                    let session = Arc::clone(session);
                    let mutation = Mutation { token, session, user, op };
                    match lock(&self.mutations).as_ref().map(|tx| tx.send(mutation).is_ok()) {
                        Some(true) => return,
                        // Unreachable while a session is open: the thread
                        // stops only after the last one closed.
                        _ => Response::Error(WireError::from_error(&Error::Internal(
                            "the mutation thread is gone".to_string(),
                        )))
                        .encode(),
                    }
                }
                (user, request @ Request::Show(_)) => conn::answer(&shared.service, &user, request),
                (user, request) => {
                    let mut runs = lock(&self.runs);
                    let query = matches!(request, Request::Query { .. });
                    if let Some(refused) =
                        query.then(|| runs.admit(&shared.service).err()).flatten()
                    {
                        drop(runs);
                        st.core
                            .answered(&Response::Error(WireError::from_error(&refused)).encode());
                        continue;
                    }
                    if *held || runs.free == 0 {
                        runs.queued_queries += usize::from(query);
                        let session = Arc::clone(session);
                        runs.queue.push_back(Job {
                            token,
                            session,
                            user,
                            request,
                            queued: Instant::now(),
                        });
                        st.phase = Phase::Busy;
                        return;
                    }
                    runs.free -= 1;
                    if runs.free == 0 && runs.standby_parked {
                        self.standby.notify_one();
                    }
                    drop(runs);
                    shared.service.telemetry().record_pool_wait(Duration::ZERO);
                    let answer = conn::answer(&shared.service, &user, request);
                    *held = self.release();
                    answer
                }
            };
            st.core.answered(&answer);
        }
    }

    /// Write the session's output. `true` once it has all gone out; `false`
    /// when the session now waits for writability, or was closed because
    /// the write failed.
    fn flush(&self, shared: &Shared, token: u64, st: &mut State) -> bool {
        let State { stream, core, .. } = st;
        let Some(stream) = stream else { return false };
        if core.output().is_empty() {
            return true;
        }
        loop {
            match stream.write(core.output()) {
                Ok(n) if n > 0 => {
                    core.written(n);
                    if core.output().is_empty() {
                        st.pending_since = None;
                        st.last_active = Instant::now();
                        return true;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    st.pending_since.get_or_insert_with(Instant::now);
                    self.arm(shared, token, st, Phase::Writing);
                    return false;
                }
                _ => {
                    // The mid-query-disconnect path: the read already ran
                    // (and released its in-flight slot); only the delivery
                    // failed.
                    pqp_obs::counter_add("server.write_failed", 1);
                    self.finish(shared, token, st, Close::Disconnected);
                    return false;
                }
            }
        }
    }

    fn arm(&self, shared: &Shared, token: u64, st: &mut State, phase: Phase) {
        st.phase = phase;
        let interest = if phase == Phase::Writing { WRITABLE } else { READABLE };
        let armed = match &st.stream {
            Some(stream) => self.epoll.rearm(stream.as_fd(), interest, token),
            None => return,
        };
        if armed.is_err() {
            pqp_obs::counter_add("server.register_failed", 1);
            self.finish(shared, token, st, Close::Disconnected);
        }
    }

    /// Close the session for `reason` (unless it already ended otherwise)
    /// and count the reason it ended with.
    fn finish(&self, shared: &Shared, token: u64, st: &mut State, reason: Close) {
        let Some(stream) = st.stream.take() else { return };
        // Leave the set before the descriptor closes and its number is reused.
        let _ = self.epoll.delete(stream.as_fd());
        drop(stream);
        let reason = st.core.close(reason);
        pqp_obs::counter_add(&format!("server.close.{}", reason.label()), 1);
        shared.active.fetch_sub(1, Ordering::Relaxed);
        self.forget(shared, token);
    }

    fn forget(&self, shared: &Shared, token: u64) {
        if lock(&self.sessions).remove(token) == 0 {
            self.stop_if_done(shared);
        }
    }

    /// The first frame was a replication request: the stream leaves the set
    /// for a blocking peer thread, which closes and counts it.
    fn hand_to_peer(
        &self,
        shared: &Arc<Shared>,
        token: u64,
        st: &mut State,
        tag: u8,
        payload: Vec<u8>,
    ) {
        let Some(stream) = st.stream.take() else { return };
        // Leave the set before the peer thread `try_clone`s the descriptor.
        let _ = self.epoll.delete(stream.as_fd());
        let buffered = st.core.take_input();
        let peer = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("pqp-peer".to_string())
            .spawn(move || conn::serve_peer(&peer, stream, buffered, tag, payload));
        if spawned.is_err() {
            pqp_obs::counter_add("server.spawn_failed", 1);
            pqp_obs::counter_add("server.close.disconnected", 1);
            shared.active.fetch_sub(1, Ordering::Relaxed);
        }
        self.forget(shared, token);
    }

    /// Park the standby loop thread until every run slot has been held for
    /// [`STANDBY_AFTER`] with no read finishing; `false` once the loop ends.
    fn await_saturation(&self) -> bool {
        let mut runs = lock(&self.runs);
        loop {
            if self.done.load(Ordering::SeqCst) {
                return false;
            }
            if runs.free > 0 {
                runs.standby_parked = true;
                runs = self.standby.wait(runs).unwrap_or_else(|e| e.into_inner());
                runs.standby_parked = false;
                continue;
            }
            let finished = runs.finished;
            runs = match self.standby.wait_timeout(runs, STANDBY_AFTER) {
                Ok((runs, _)) => runs,
                Err(e) => e.into_inner().0,
            };
            if runs.free == 0 && runs.finished == finished && !self.done.load(Ordering::SeqCst) {
                return true;
            }
        }
    }

    /// Wait up to `timeout` for one event and serve it; `false` when the
    /// thread is to leave.
    fn poll(
        &self,
        shared: &Arc<Shared>,
        timeout: Option<Duration>,
        events: &mut [Event; 1],
        buf: &mut [u8],
    ) -> bool {
        // One event per wait: a thread that runs a read must not sit on
        // other sessions' events meanwhile.
        match self.epoll.wait(events, timeout) {
            Ok(0) => true,
            Ok(_) if events[0].token() == WAKE => {
                // Pass the stop on to the next waiting thread, then leave.
                let _ = self.epoll.rearm(self.wake_rx.as_fd(), READABLE, WAKE);
                false
            }
            Ok(_) => {
                self.ready(shared, events[0].token(), buf);
                true
            }
            // Only a bad descriptor or buffer fails a wait, and the loop
            // holds neither.
            Err(_) => {
                pqp_obs::counter_add("server.poll_failed", 1);
                false
            }
        }
    }

    /// Close every session idle past `read_timeout` or with output undrained
    /// past `write_timeout`, once per sweep period, on whichever loop thread
    /// finds the sweep due.
    fn sweep_if_due(&self, shared: &Shared) {
        let Some(every) = self.sweep_every else { return };
        let now_ns = self.epoch.elapsed().as_nanos() as u64;
        let due = self.next_sweep.load(Ordering::Relaxed);
        let next = now_ns + every.as_nanos() as u64;
        if now_ns < due
            || self
                .next_sweep
                .compare_exchange(due, next, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        {
            return;
        }
        let now = Instant::now();
        let (read_timeout, write_timeout) =
            (shared.config.read_timeout, shared.config.write_timeout);
        let sessions = lock(&self.sessions).all();
        for (token, session) in sessions {
            let mut st = match session.0.try_lock() {
                Ok(st) => st,
                Err(TryLockError::Poisoned(e)) => e.into_inner(),
                Err(TryLockError::WouldBlock) => continue,
            };
            let since = |at: Instant, limit: Option<Duration>| {
                limit.is_some_and(|t| now.saturating_duration_since(at) >= t)
            };
            let expired = match st.phase {
                Phase::Reading if since(st.last_active, read_timeout) => {
                    pqp_obs::counter_add("server.idle_timeouts", 1);
                    Some(Close::IdleTimeout)
                }
                Phase::Writing if st.pending_since.is_some_and(|at| since(at, write_timeout)) => {
                    pqp_obs::counter_add("server.write_failed", 1);
                    Some(Close::Disconnected)
                }
                _ => None,
            };
            if let Some(reason) = expired {
                self.finish(shared, token, &mut st, reason);
            }
        }
    }
}

/// Read what the socket holds into the session.
fn fill(st: &mut State, buf: &mut [u8]) {
    let State { stream: Some(stream), core, .. } = st else { return };
    loop {
        match stream.read(buf) {
            Ok(0) => return core.eof(),
            Ok(n) => {
                core.received(&buf[..n]);
                st.last_active = Instant::now();
                if n < buf.len() {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(_) => {
                pqp_obs::counter_add("server.client_disconnects", 1);
                core.close(Close::Disconnected);
                return;
            }
        }
    }
}

/// A slot's loop thread: waits on the set for good.
fn loop_thread(shared: &Arc<Shared>) {
    let rt = &shared.runtime;
    let (mut events, mut buf) = ([Event::EMPTY; 1], vec![0; READ_CHUNK]);
    while rt.poll(shared, rt.sweep_every, &mut events, &mut buf) {
        rt.sweep_if_due(shared);
    }
}

/// The loop thread beyond the slots. It waits on the set only while every
/// slot has been held for [`STANDBY_AFTER`] with no read finishing, so that
/// `Hello`, protocol errors and `Show` are answered while long reads hold
/// every slot. Waiting there all the time, it would take the next request
/// whenever the thread that wrote the last answer had just been preempted
/// by the client it woke, and run it on a CPU busy with another read.
fn standby_thread(shared: &Arc<Shared>) {
    let rt = &shared.runtime;
    let (mut events, mut buf) = ([Event::EMPTY; 1], vec![0; READ_CHUNK]);
    while rt.await_saturation() {
        loop {
            if !rt.poll(shared, Some(STANDBY_AFTER), &mut events, &mut buf) {
                return;
            }
            if lock(&rt.runs).free > 0 {
                break;
            }
        }
    }
}

/// Run mutations one at a time and write their answers. Whatever the
/// client sent after a mutation goes back to the loop: its socket is armed
/// for writability, which fires at once.
fn mutation_thread(shared: &Arc<Shared>, mutations: Receiver<Mutation>) {
    let rt = &shared.runtime;
    for Mutation { token, session, user, op } in mutations {
        let answer = conn::guarded(&shared.service, || conn::mutate(shared, &user, op));
        let mut st = lock(&session.0);
        st.core.answered(&answer);
        if rt.flush(shared, token, &mut st) {
            let phase = if st.core.has_input() { Phase::Writing } else { Phase::Reading };
            rt.arm(shared, token, &mut st, phase);
        }
    }
}
