//! `session_storm`: tenants cycling sessions through a `FrontDoor` on
//! loopback TCP.
//!
//! Two client threads, each with one `Conn` and 64 sessions used round
//! robin. A cycle is 3 `SessionSpawn`s, each writing a seeded 1–4 full
//! pages at vpns drawn from a per-session range of 16 (so the store
//! reaches steady state), then one `SessionCommit`, then a commit of a
//! stale sibling that must be refused `no_such_world`. `spin_ns = 0`:
//! the spin is a `thread::sleep` and would time the timer, not the
//! stack. About a quarter of spawned pages repeat bytes a sibling wrote
//! (the share is measured and reported). `net`, `server` and `exec` do
//! most of the work; `pagestore` little. op = one session cycle.

use std::sync::atomic::{AtomicU64, Ordering};

use worlds_net::{nack, Conn, Request, RetryPolicy};
use worlds_obs::Registry;
use worlds_pagestore::PageStore;
use worlds_server::{FrontDoor, ResourceLimits, ServerPolicy, SessionManager};

use crate::rng::Rng;
use crate::run::{LoopSpec, Phase, Workload};
use crate::stats::Samples;
use crate::trace::{now_ns, Trace};
use crate::{fill_page, page_matches, PAGE};

#[derive(Debug, Clone)]
pub struct SessionStorm {
    pub clients: usize,
    pub sessions_per_client: usize,
    pub spawns_per_cycle: usize,
    pub pages_per_spawn: (u64, u64),
    pub vpn_range: u64,
    /// Chance (num, den) that a page of a spawn after the first repeats
    /// a page a sibling wrote: 3/8 of the later two thirds ≈ 25%.
    pub repeat_chance: (u64, u64),
}

impl Default for SessionStorm {
    fn default() -> SessionStorm {
        SessionStorm {
            clients: 2,
            sessions_per_client: 64,
            spawns_per_cycle: 3,
            pages_per_spawn: (1, 4),
            vpn_range: 16,
            repeat_chance: (3, 8),
        }
    }
}

/// One session cycle of one client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CyclePlan {
    /// Which of the client's sessions (round robin).
    pub slot: usize,
    /// Per spawn: (vpn, content tag) per page.
    pub spawns: Vec<Vec<(u64, u64)>>,
    /// Pages whose tag repeats a sibling's.
    pub repeated: usize,
    pub commit: usize,
    pub stale: usize,
}

/// The seeded op sequence of one client.
#[derive(Debug, Clone)]
pub struct Gen {
    rng: Rng,
    params: SessionStorm,
    cycles: u64,
}

impl Gen {
    pub fn new(params: &SessionStorm, seed: u64, client: usize) -> Gen {
        Gen {
            rng: Rng::new(seed, 100 + client as u64),
            params: params.clone(),
            cycles: 0,
        }
    }

    pub fn next_cycle(&mut self) -> CyclePlan {
        let p = &self.params;
        let slot = (self.cycles % p.sessions_per_client as u64) as usize;
        self.cycles += 1;
        let mut spawns: Vec<Vec<(u64, u64)>> = Vec::with_capacity(p.spawns_per_cycle);
        let mut repeated = 0;
        for s in 0..p.spawns_per_cycle {
            let n = self.rng.range(p.pages_per_spawn.0, p.pages_per_spawn.1) as usize;
            let vpns = self.rng.distinct(n, p.vpn_range);
            let mut pages = Vec::with_capacity(n);
            for vpn in vpns {
                let tag = if s > 0 && self.rng.chance(p.repeat_chance.0, p.repeat_chance.1) {
                    let sib = &spawns[self.rng.range(0, s as u64 - 1) as usize];
                    repeated += 1;
                    sib[self.rng.range(0, sib.len() as u64 - 1) as usize].1
                } else {
                    self.rng.next_u64()
                };
                pages.push((vpn, tag));
            }
            spawns.push(pages);
        }
        let k = p.spawns_per_cycle as u64;
        let commit = self.rng.range(0, k - 1);
        let stale = (commit + self.rng.range(1, k - 1)) % k;
        CyclePlan {
            slot,
            spawns,
            repeated,
            commit: commit as usize,
            stale: stale as usize,
        }
    }
}

/// A failed session call: the nack code, if the server sent one.
type CallError = (Option<u32>, String);

/// The session API a cycle drives: over the wire ([`Conn`]) or straight
/// into a [`SessionManager`] (the direct replay that isolates `server`).
pub trait Door {
    fn open(&mut self, name: &str) -> Result<u64, CallError>;
    fn spawn(&mut self, session: u64, writes: Vec<(u64, Vec<u8>)>) -> Result<u64, CallError>;
    fn commit(&mut self, session: u64, world: u64) -> Result<(), CallError>;
    fn close(&mut self, session: u64) -> Result<(), CallError>;
}

fn net_err(e: worlds_net::NetError) -> CallError {
    (e.nack_code(), e.to_string())
}

impl Door for Conn {
    fn open(&mut self, name: &str) -> Result<u64, CallError> {
        self.call_ack(&Request::SessionOpen {
            name: name.into(),
            max_live_worlds: 0,
            max_resident_frames: 0,
            vt_budget_ns: 0,
        })
        .map_err(net_err)
    }

    fn spawn(&mut self, session: u64, writes: Vec<(u64, Vec<u8>)>) -> Result<u64, CallError> {
        self.call_ack(&Request::SessionSpawn {
            session,
            spin_ns: 0,
            writes,
        })
        .map_err(net_err)
    }

    fn commit(&mut self, session: u64, world: u64) -> Result<(), CallError> {
        self.call_ack(&Request::SessionCommit { session, world })
            .map(|_| ())
            .map_err(net_err)
    }

    fn close(&mut self, session: u64) -> Result<(), CallError> {
        self.call_ack(&Request::SessionClose {
            session,
            adopt: false,
        })
        .map(|_| ())
        .map_err(net_err)
    }
}

impl Door for SessionManager {
    fn open(&mut self, name: &str) -> Result<u64, CallError> {
        SessionManager::open(self, name, ResourceLimits::unlimited())
            .map_err(|e| (Some(e.nack_code()), e.to_string()))
    }

    fn spawn(&mut self, session: u64, writes: Vec<(u64, Vec<u8>)>) -> Result<u64, CallError> {
        SessionManager::spawn(self, session, 0, &writes)
            .map_err(|e| (Some(e.nack_code()), e.to_string()))
    }

    fn commit(&mut self, session: u64, world: u64) -> Result<(), CallError> {
        SessionManager::commit(self, session, world)
            .map_err(|e| (Some(e.nack_code()), e.to_string()))
    }

    fn close(&mut self, session: u64) -> Result<(), CallError> {
        SessionManager::close(self, session, false)
            .map_err(|e| (Some(e.nack_code()), e.to_string()))
    }
}

fn pages(list: &[(u64, u64)]) -> Vec<(u64, Vec<u8>)> {
    list.iter()
        .map(|&(vpn, tag)| {
            let mut buf = vec![0u8; PAGE];
            fill_page(tag, &mut buf);
            (vpn, buf)
        })
        .collect()
}

/// One client: its door, its sessions, its op sequence.
pub struct Client<D> {
    door: D,
    sessions: Vec<u64>,
    gen: Gen,
}

/// Timings of one cycle, ns since the process clock's base.
struct CycleTimes {
    t0: u64,
    t1: u64,
    /// (start, end) of each spawn, the commit, and the stale commit.
    calls: Vec<(u64, u64)>,
}

impl<D: Door> Client<D> {
    /// Open this client's sessions and populate every session root with
    /// its whole vpn range (one committed spawn each).
    fn open(door: D, params: &SessionStorm, seed: u64, client: usize) -> Result<Client<D>, String> {
        let mut c = Client {
            door,
            sessions: Vec::with_capacity(params.sessions_per_client),
            gen: Gen::new(params, seed, client),
        };
        let mut fill = Rng::new(seed, 200 + client as u64);
        for s in 0..params.sessions_per_client {
            let id = c
                .door
                .open(&format!("tenant-{client}-{s}"))
                .map_err(|e| e.1)?;
            let all: Vec<(u64, u64)> = (0..params.vpn_range)
                .map(|v| (v, fill.next_u64()))
                .collect();
            let w = c.door.spawn(id, pages(&all)).map_err(|e| e.1)?;
            c.door.commit(id, w).map_err(|e| e.1)?;
            c.sessions.push(id);
        }
        Ok(c)
    }

    /// Spawn ×3, commit one, commit a stale sibling (must be refused
    /// `no_such_world`), then check the root holds the committed pages.
    fn cycle(
        &mut self,
        store: &PageStore,
        mgr: &SessionManager,
    ) -> (CycleTimes, Result<(), String>) {
        let plan = self.gen.next_cycle();
        let session = self.sessions[plan.slot];
        let requests: Vec<Vec<(u64, Vec<u8>)>> = plan.spawns.iter().map(|s| pages(s)).collect();
        let mut calls = Vec::with_capacity(plan.spawns.len() + 2);
        let t0 = now_ns();
        let result = (|| {
            let mut worlds = Vec::with_capacity(requests.len());
            for writes in requests {
                let s = now_ns();
                let w = self.door.spawn(session, writes).map_err(|e| e.1)?;
                calls.push((s, now_ns()));
                worlds.push(w);
            }
            let s = now_ns();
            self.door
                .commit(session, worlds[plan.commit])
                .map_err(|e| e.1)?;
            calls.push((s, now_ns()));
            let s = now_ns();
            let stale = self.door.commit(session, worlds[plan.stale]);
            calls.push((s, now_ns()));
            match stale {
                Err((Some(nack::NO_SUCH_WORLD), _)) => Ok(()),
                Err(e) => Err(format!(
                    "stale commit refused with {e:?}, not no_such_world"
                )),
                Ok(()) => Err("stale sibling commit was accepted".to_string()),
            }
        })();
        let t1 = now_ns();
        let checked = result.and_then(|()| {
            let root = mgr.root_of(session).map_err(|e| e.to_string())?;
            let mut buf = vec![0u8; PAGE];
            for &(vpn, tag) in &plan.spawns[plan.commit] {
                store
                    .read(root, vpn, 0, &mut buf)
                    .map_err(|e| e.to_string())?;
                if !page_matches(tag, &buf) {
                    return Err(format!(
                        "session {session} root page {vpn} lacks the committed bytes"
                    ));
                }
            }
            Ok(())
        });
        (CycleTimes { t0, t1, calls }, checked)
    }
}

/// What one client thread measured.
#[derive(Default)]
struct ClientPhase {
    phase: Phase,
    spawn_ns: Vec<u64>,
    commit_ns: Vec<u64>,
}

/// Drive every client until `spec` says stop; one thread per client.
fn drive<D: Door + Send>(
    clients: &mut [Client<D>],
    store: &PageStore,
    mgr: &SessionManager,
    spec: LoopSpec,
) -> (Phase, Samples, Samples) {
    let ops = AtomicU64::new(0);
    let started = now_ns();
    let parts: Vec<ClientPhase> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let ops = &ops;
                scope.spawn(move || {
                    let mut cp = ClientPhase::default();
                    let spawns = client.gen.params.spawns_per_cycle;
                    while !spec.done(started, ops.load(Ordering::Relaxed)) {
                        let (t, checked) = client.cycle(store, mgr);
                        let op = ops.fetch_add(1, Ordering::Relaxed);
                        cp.phase.attempted += 1;
                        cp.phase.record(t.t0, t.t1);
                        if let Err(e) = checked {
                            cp.phase.fail(e);
                        }
                        if spec.traced {
                            let tr: &mut Trace = &mut cp.phase.trace;
                            let id = tr.push("server.cycle", t.t0, t.t1, None, op);
                            for (k, &(s, e)) in t.calls.iter().enumerate() {
                                let name = match k {
                                    k if k < spawns => "net.spawn_rpc",
                                    k if k == spawns => "net.commit_rpc",
                                    _ => "net.stale_commit_rpc",
                                };
                                tr.push(name, s, e, Some(id), op);
                                match name {
                                    "net.spawn_rpc" => cp.spawn_ns.push(e - s),
                                    "net.commit_rpc" => cp.commit_ns.push(e - s),
                                    _ => {}
                                }
                            }
                        }
                    }
                    cp
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        started_ns: started,
        ..Phase::default()
    };
    let (mut spawn_ns, mut commit_ns) = (Vec::new(), Vec::new());
    for cp in parts {
        phase.attempted += cp.phase.attempted;
        phase.failed += cp.phase.failed;
        phase.ops.extend(cp.phase.ops);
        phase.violations.extend(cp.phase.violations);
        phase.trace.absorb(cp.phase.trace);
        spawn_ns.extend(cp.spawn_ns);
        commit_ns.extend(cp.commit_ns);
    }
    (phase, Samples::new(spawn_ns), Samples::new(commit_ns))
}

pub struct Fixture {
    door: FrontDoor,
    clients: Vec<Client<Conn>>,
}

impl SessionStorm {
    /// Measured share of spawned pages that repeat a sibling's bytes,
    /// over the first `cycles` cycles of each client.
    pub fn repeat_share(&self, seed: u64, cycles: usize) -> f64 {
        let (mut rep, mut all) = (0usize, 0usize);
        for c in 0..self.clients {
            let mut g = Gen::new(self, seed, c);
            for _ in 0..cycles {
                let p = g.next_cycle();
                rep += p.repeated;
                all += p.spawns.iter().map(Vec::len).sum::<usize>();
            }
        }
        rep as f64 / all.max(1) as f64
    }

    /// Replay the same seeded cycles straight into a `SessionManager`
    /// (no TCP): `server.spawn_us_*` and `server.commit_us_p50`.
    pub fn direct_replay(&self, seed: u64, cycles: u64) -> Result<Phase, String> {
        let store = PageStore::new(PAGE);
        let mgr = SessionManager::with_defaults(
            store.clone(),
            Registry::disabled(),
            ServerPolicy::default(),
        );
        let mut clients = (0..self.clients)
            .map(|c| Client::open(mgr.clone(), self, seed, c))
            .collect::<Result<Vec<_>, _>>()?;
        let (mut phase, spawn, commit) = drive(&mut clients, &store, &mgr, LoopSpec::probe(cycles));
        for c in &mut clients {
            for &s in &c.sessions {
                Door::close(&mut c.door, s).map_err(|e| e.1)?;
            }
        }
        mgr.quiesce();
        if mgr.session_count() != 0 || store.world_count() != 0 {
            phase.fail("direct replay left sessions or worlds behind".into());
        }
        for (name, v) in [
            ("server.spawn_us_p50", spawn.us(50.0, "server.spawn")),
            ("server.spawn_us_p99", spawn.us(99.0, "server.spawn")),
            ("server.commit_us_p50", commit.us(50.0, "server.commit")),
        ] {
            match v {
                Ok(v) => phase.layer.push((name, v)),
                Err(e) => phase.fail(e),
            }
        }
        Ok(phase)
    }
}

impl Workload for SessionStorm {
    type Fixture = Fixture;

    fn name(&self) -> &'static str {
        "session_storm"
    }

    fn op_span(&self) -> &'static str {
        "server.cycle"
    }

    fn params_json(&self) -> String {
        format!(
            "{{\"clients\": {}, \"conns\": {}, \"sessions_per_client\": {}, \"spawns_per_cycle\": {}, \"pages_per_spawn\": [{}, {}], \"vpn_range\": {}, \"spin_ns\": 0, \"repeat_chance\": \"{}/{} per page after the first spawn\"}}",
            self.clients,
            self.clients,
            self.sessions_per_client,
            self.spawns_per_cycle,
            self.pages_per_spawn.0,
            self.pages_per_spawn.1,
            self.vpn_range,
            self.repeat_chance.0,
            self.repeat_chance.1
        )
    }

    fn setup(&self, seed: u64) -> Result<Fixture, String> {
        let door = FrontDoor::serve(
            1,
            PageStore::new(PAGE),
            Registry::disabled(),
            ServerPolicy::default(),
        )
        .map_err(|e| format!("bind front door: {e}"))?;
        let clients = (0..self.clients)
            .map(|c| {
                let conn = Conn::new(
                    c as u64 + 1,
                    door.addr(),
                    RetryPolicy::default(),
                    Registry::disabled(),
                );
                Client::open(conn, self, seed, c)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Fixture { door, clients })
    }

    fn measure(&self, fx: &mut Fixture, spec: LoopSpec) -> Phase {
        let mgr = fx.door.manager().clone();
        let store = mgr.store().clone();
        let (before, totals_before) = (store.stats(), mgr.totals());
        let (mut phase, spawn, commit) = drive(&mut fx.clients, &store, &mgr, spec);
        phase.store_delta = store.stats().delta_since(&before);
        phase.frames_resident_end = store.live_frames();
        if spec.traced {
            let t = mgr.totals();
            let rejected = (t.rejected_limit + t.rejected_overloaded)
                - (totals_before.rejected_limit + totals_before.rejected_overloaded);
            phase.layer.push((
                "server.rejected_per_op",
                rejected as f64 / phase.attempted.max(1) as f64,
            ));
            for (name, v) in [
                ("net.spawn_rpc_us_p50", spawn.us(50.0, "net.spawn_rpc")),
                ("net.spawn_rpc_us_p99", spawn.us(99.0, "net.spawn_rpc")),
                ("net.commit_rpc_us_p50", commit.us(50.0, "net.commit_rpc")),
            ] {
                match v {
                    Ok(v) => phase.layer.push((name, v)),
                    Err(e) => phase.fail(e),
                }
            }
        }
        phase
    }

    fn finish(&self, mut fx: Fixture) -> Result<(), String> {
        let mgr = fx.door.manager().clone();
        let ops: u64 = fx.clients.iter().map(|c| c.gen.cycles).sum();
        let prefill = (self.clients * self.sessions_per_client) as u64;
        let totals = mgr.totals();
        for c in &mut fx.clients {
            for &s in &c.sessions {
                c.door.close(s).map_err(|e| e.1)?;
            }
        }
        mgr.quiesce();
        fx.door.shutdown();
        let settled = mgr.store().world_count() == 0;
        if totals.committed != ops + prefill {
            return Err(format!(
                "server committed {} worlds for {} cycles",
                totals.committed,
                ops + prefill
            ));
        }
        if mgr.session_count() != 0 || !settled {
            return Err(format!(
                "{} sessions and {} worlds remain after close-all",
                mgr.session_count(),
                mgr.store().world_count()
            ));
        }
        mgr.store().verify_refcounts().map(|_| ())
    }
}
