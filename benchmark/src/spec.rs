//! Workload definitions and the seeded op sequences.
//!
//! Everything a run sends to the program is decided here, before timing, as
//! a pure function of `(workload, seed)`. The population (database, profiles,
//! query texts and their popularity ranks) is fixed; the seed draws which
//! user asks which query when. That keeps two runs with different seeds
//! statistically alike (the driver compares medians across seeds) while the
//! inputs still change with the seed.

use pqp_core::{PersonalizeOptions, Rewrite};
use pqp_datagen::Zipf;
use pqp_obs::rng::{Rng, SmallRng};

/// Closed-loop client threads, one request in flight each (= `nproc` of the
/// 2-core host the bounds were sized on).
pub const CLIENTS: usize = 2;

/// K of `rank_exec`; every answer must report it (a workload guard).
pub const RANK_EXEC_K: usize = 12;

/// Ops precomputed per client for the sampled workloads; a run that
/// outlasts them wraps around.
const SEQUENCE_LEN: usize = 1 << 17;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotRead,
    ColdRead,
    RankExec,
    ProfileWrite,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::HotRead, Workload::ColdRead, Workload::RankExec, Workload::ProfileWrite];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRead => "hot_read",
            Workload::ColdRead => "cold_read",
            Workload::RankExec => "rank_exec",
            Workload::ProfileWrite => "profile_write",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_read(self) -> bool {
        self != Workload::ProfileWrite
    }
}

/// The sizes of one workload. See `README.md` for why each value is what it
/// is; the numbers were measured on the 2-core host, not guessed.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workload: Workload,
    /// Users with a stored profile; split evenly between the clients.
    pub users: usize,
    /// Selection preferences per generated profile.
    pub profile_selections: usize,
    /// Whether the generated profiles also hold the schema's join preferences.
    pub profile_joins: bool,
    /// Distinct query texts (reads) or mutable preferences per user (writes).
    pub items: usize,
    /// Broad (selection-free) query texts: execution dominated by result size.
    pub broad_queries: bool,
    /// Per-request overrides; `None` = the server session's defaults.
    pub options: Option<PersonalizeOptions>,
    pub rewrite: Option<Rewrite>,
    /// `ServiceConfig::plan_capacity` of the serving node.
    pub plan_capacity: usize,
    /// Warm-up pass over every (user, item) key of each client, in order.
    pub warm_every_key: bool,
    /// Warm-up ops replayed per client after that pass (part of set-up).
    pub warmup_ops: usize,
    /// Ops of client 0 the traced run executes (fixed, so counts repeat).
    pub trace_ops: usize,
}

impl Spec {
    pub fn of(workload: Workload) -> Spec {
        let defaults = pqp_service::ServiceConfig::default();
        match workload {
            Workload::HotRead => Spec {
                workload,
                users: 64,
                profile_selections: 60,
                profile_joins: true,
                items: 8,
                broad_queries: false,
                options: None,
                rewrite: None,
                plan_capacity: defaults.plan_capacity,
                warm_every_key: true,
                warmup_ops: 2_000,
                trace_ops: 2_000,
            },
            Workload::ColdRead => Spec {
                workload,
                users: 260,
                profile_selections: 150,
                profile_joins: true,
                items: 32,
                broad_queries: false,
                options: Some(PersonalizeOptions::builder().k(10).l(1).build()),
                rewrite: Some(Rewrite::Auto),
                // The server default (4 096), less than half the 8 320-key
                // space, so the cyclic visit order misses on every request.
                plan_capacity: defaults.plan_capacity,
                warm_every_key: false,
                // Fills the FIFO, so eviction is steady from the first timed op.
                warmup_ops: 2_100,
                // Warm-up + trace stay inside client 0's first cycle: no key
                // comes round twice, whatever the clients' interleaving was.
                trace_ops: 500,
            },
            Workload::RankExec => Spec {
                workload,
                users: 16,
                profile_selections: 60,
                profile_joins: true,
                items: 8,
                broad_queries: true,
                options: Some(PersonalizeOptions::builder().k(RANK_EXEC_K).l(2).ranked().build()),
                rewrite: Some(Rewrite::Mq),
                plan_capacity: defaults.plan_capacity,
                warm_every_key: true,
                warmup_ops: 250,
                trace_ops: 200,
            },
            Workload::ProfileWrite => Spec {
                workload,
                users: 64,
                // The smallest profile that does the job: four preferences,
                // each rewritten over and over, no joins (no query runs).
                // Compaction encodes the whole store on whichever session
                // thread appended the 1 024th record. A store of
                // 60-selection profiles makes that a 1 MB buffer, which
                // stretches that thread's malloc arena the first time it
                // lands there: peak memory then counts the arenas compaction
                // has visited so far (26 MB with none, 45 MB with all), a
                // matter of throughput and luck. At 56 kB it repeats.
                profile_selections: 4,
                profile_joins: false,
                items: 4,
                broad_queries: false,
                options: None,
                rewrite: None,
                plan_capacity: defaults.plan_capacity,
                warm_every_key: false,
                // A token warm-up: both logs and the router have carried
                // traffic. No more, because a mutation waits for two fsyncs
                // and this disk's latency doubles and halves within minutes:
                // thousands of them make `setup_s` a measure of the disk.
                warmup_ops: 32,
                trace_ops: 2_000,
            },
        }
    }

    /// The same workload at a tenth of the warm-up and trace length, for
    /// `tests/determinism.rs`: exactness across two runs does not depend on
    /// how long they are, and a debug build is ten times slower.
    pub fn shrunk(mut self) -> Spec {
        self.warm_every_key = false;
        self.warmup_ops /= 10;
        self.trace_ops /= 10;
        self
    }

    /// Users owned by one client: user `u` belongs to client `u % CLIENTS`,
    /// so a user's session is only ever driven by one thread.
    pub fn users_per_client(&self) -> usize {
        self.users / CLIENTS
    }

    /// Distinct (user, item) keys of one client.
    pub fn keys_per_client(&self) -> usize {
        self.users_per_client() * self.items
    }
}

/// One request. `user` is the index into the client's own users (its global
/// index is `user * CLIENTS + client`); `item` is a query text (reads) or a
/// pre-seeded preference of that user (writes, with the new `doi`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    pub user: u32,
    pub item: u32,
    pub doi: f64,
}

impl Op {
    pub fn key(&self, spec: &Spec) -> usize {
        self.user as usize * spec.items + self.item as usize
    }
}

/// The op sequence of one client: a pure function of `(spec, seed, client)`.
pub fn generate_ops(spec: &Spec, seed: u64, client: usize) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(client as u64 + 1),
    );
    let users = spec.users_per_client();
    match spec.workload {
        Workload::HotRead | Workload::RankExec => {
            let user_zipf = Zipf::new(users, 1.0);
            let item_zipf = Zipf::new(spec.items, 1.0);
            (0..SEQUENCE_LEN)
                .map(|_| Op {
                    user: user_zipf.sample(&mut rng) as u32,
                    item: item_zipf.sample(&mut rng) as u32,
                    doi: 0.0,
                })
                .collect()
        }
        Workload::ColdRead => {
            // A seeded permutation of the client's key space, visited
            // cyclically: a key comes round again only after every other key
            // of this client was inserted, i.e. after it was evicted.
            let mut ops: Vec<Op> = (0..users as u32)
                .flat_map(|user| {
                    (0..spec.items as u32).map(move |item| Op { user, item, doi: 0.0 })
                })
                .collect();
            for i in (1..ops.len()).rev() {
                ops.swap(i, rng.gen_range(0..=i));
            }
            ops
        }
        Workload::ProfileWrite => (0..SEQUENCE_LEN)
            .map(|_| Op {
                user: rng.gen_range(0..users) as u32,
                item: rng.gen_range(0..spec.items) as u32,
                doi: 0.05 + 0.9 * rng.gen_f64(),
            })
            .collect(),
    }
}

/// FNV-1a over every field of every client's ops: the identity of a run's
/// inputs, recorded in the result and compared by the determinism test.
pub fn ops_digest<'a>(ops: impl IntoIterator<Item = &'a [Op]>) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            hash = (hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for client in ops {
        for op in client {
            eat(&op.user.to_le_bytes());
            eat(&op.item.to_le_bytes());
            eat(&op.doi.to_bits().to_le_bytes());
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_read_key_space_is_twice_the_plan_cache() {
        let spec = Spec::of(Workload::ColdRead);
        assert!(spec.users * spec.items >= 2 * spec.plan_capacity);
        assert!(spec.warmup_ops * CLIENTS >= spec.plan_capacity, "warm-up fills the cache");
        assert!(spec.warmup_ops + spec.trace_ops <= spec.keys_per_client());
        let ops = generate_ops(&spec, 14, 0);
        assert_eq!(ops.len(), spec.keys_per_client());
        let mut keys: Vec<usize> = ops.iter().map(|op| op.key(&spec)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), spec.keys_per_client(), "a permutation visits every key once");
    }
}
