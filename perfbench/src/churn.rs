//! `durable-churn`: durable updates with reads beside writes.
//!
//! A seeded graph with transitive-closure rules lives in a fresh
//! `DurableDb`. Chains with shortcut edges give DRed rows to re-derive and
//! large retraction cones; a hub with many spokes gives tiny ones. The loop
//! mixes `query_demand` reads with writes (`insert` + incremental `run` +
//! `commit`, and `retract_fact`); every epoch ends with `sync`, `snapshot`
//! and a reopen through `DurableDb::open`.
//!
//! Flush policy: a write is acknowledged once `commit` (or `retract_fact`,
//! which writes its own commit marker) has flushed it to the OS; fsync runs
//! once per epoch at `sync`.

use crate::trace::{percentile, Meter, Tracer};
use crate::{Config, Outcome, Rng, SETUP_REPS, THREADS};
use fundb_datalog as dl;
use fundb_storage::DurableDb;
use fundb_term::{Cst, Interner, Pred, Var};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};

/// Chains and their length in edges: each chain closes to L(L+1)/2 paths,
/// about 1.4 * 10^4 rows with the hub's. That already overflows the
/// 8192-bit per-index bloom filters. Every `query_demand` read copies the
/// whole `Path` relation into its overlay, so reads are memory-bound; at
/// 10^5 rows they took ~25 ms and swung by 2x with the machine's memory
/// contention, at 3.3 * 10^4 rows still by 40% within one run.
const CHAINS: usize = 4;
const CHAIN_LEN: usize = 70;
/// Shortcut edges per chain, each skipping 2..=SHORTCUT_SPAN nodes.
const SHORTCUTS: usize = 12;
const SHORTCUT_SPAN: usize = 20;
/// Spokes of the hub; the hub sits at the end of a two-edge feeder, so a
/// spoke retraction deletes three paths.
const SPOKES: usize = 1000;
/// Ops per epoch, and the reads among them. With 70% reads the median op
/// falls well inside the cheaper half of the reads, clear of the boundary
/// with the writes.
const EPOCH_OPS: usize = 100;
const EPOCH_READS: usize = 70;
/// Every `CHECK_EVERY`-th read is compared with `dl::query` over the live
/// database.
const CHECK_EVERY: usize = 4;
/// After every `FIXPOINT_EVERY`-th write the whole store is compared with
/// a from-scratch evaluation. Odd, so the checks fall alternately after a
/// retraction and after a re-insertion.
const FIXPOINT_EVERY: usize = 3;
/// Prefix of a run's store directory, followed by `<pid>-<seed>`.
const STORE_PREFIX: &str = "churn-";

/// Removes the store directory when dropped, so every run leaves nothing
/// behind, on error paths too.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Removes the stores of runs that were killed before their clean-up:
/// directories named after a process that no longer exists.
fn remove_stale_stores(out: &Path) {
    let Ok(rd) = std::fs::read_dir(out) else {
        return;
    };
    for e in rd.flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        let pid = name
            .strip_prefix(STORE_PREFIX)
            .and_then(|rest| rest.split('-').next());
        if let Some(pid) = pid {
            if !Path::new("/proc").join(pid).exists() {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }
}

struct Graph {
    interner: Interner,
    edge: Pred,
    path: Pred,
    rules: Vec<dl::Rule>,
    /// Base edges, chain edges first.
    edges: Vec<[Cst; 2]>,
    chain_edges: usize,
    /// Chain nodes by chain, in order.
    chain_nodes: Vec<Vec<Cst>>,
    feeder: Cst,
    hub: Cst,
    y: Var,
}

fn graph(seed: u64) -> Graph {
    let mut rng = Rng::new(seed);
    let mut i = Interner::new();
    let edge = Pred(i.intern("Edge"));
    let path = Pred(i.intern("Path"));
    let (x, y, z) = (Var(i.intern("x")), Var(i.intern("y")), Var(i.intern("z")));
    let v = |v: Var| dl::Term::Var(v);
    let rules = vec![
        dl::Rule::new(
            dl::Atom::new(path, vec![v(x), v(y)]),
            vec![dl::Atom::new(edge, vec![v(x), v(y)])],
        ),
        dl::Rule::new(
            dl::Atom::new(path, vec![v(x), v(z)]),
            vec![
                dl::Atom::new(path, vec![v(x), v(y)]),
                dl::Atom::new(edge, vec![v(y), v(z)]),
            ],
        ),
    ];
    let mut edges = Vec::new();
    let mut chain_nodes = Vec::new();
    for c in 0..CHAINS {
        let nodes: Vec<Cst> = (0..=CHAIN_LEN)
            .map(|k| Cst(i.intern(&format!("C{c}_{k}"))))
            .collect();
        edges.extend(nodes.windows(2).map(|w| [w[0], w[1]]));
        chain_nodes.push(nodes);
    }
    for nodes in &chain_nodes {
        for _ in 0..SHORTCUTS {
            let from = rng.below(CHAIN_LEN - 2);
            let to = (from + 2 + rng.below(SHORTCUT_SPAN - 1)).min(CHAIN_LEN);
            let e = [nodes[from], nodes[to]];
            if !edges.contains(&e) {
                edges.push(e);
            }
        }
    }
    let chain_edges = edges.len();
    let feeder = Cst(i.intern("F0"));
    let mid = Cst(i.intern("F1"));
    let hub = Cst(i.intern("Hub"));
    edges.push([feeder, mid]);
    edges.push([mid, hub]);
    let spokes: Vec<Cst> = (0..SPOKES)
        .map(|k| Cst(i.intern(&format!("S{k}"))))
        .collect();
    edges.extend(spokes.iter().map(|&s| [hub, s]));
    Graph {
        interner: i,
        edge,
        path,
        rules,
        edges,
        chain_edges,
        chain_nodes,
        feeder,
        hub,
        y,
    }
}

/// Opens a fresh store under `dir`, bulk-loads the graph, runs it to
/// fixpoint and takes the first snapshot.
fn load(g: &mut Graph, dir: &Path, tr: &mut Tracer) -> Result<(DurableDb, ScratchDir), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let guard = ScratchDir(dir.to_path_buf());
    let io = |e: std::io::Error| format!("storage: {e}");
    let mut db = tr
        .span("storage.open", || DurableDb::open(dir, &mut g.interner))
        .map_err(io)?;
    tr.span("storage.load_insert", || -> std::io::Result<()> {
        for e in &g.edges {
            db.insert(&g.interner, g.edge, e)?;
        }
        for r in &g.rules {
            db.log_rule(&g.interner, r)?;
        }
        db.commit()
    })
    .map_err(io)?;
    let plan = dl::DeltaPlan::planned(db.rules(), db.database());
    let mut eval = dl::IncrementalEval::new().with_threads(THREADS);
    tr.span("storage.load_run", || db.run(&g.interner, &mut eval, &plan))
        .map_err(|e| format!("fixpoint: {e}"))?;
    tr.span("storage.snapshot", || db.snapshot(&g.interner))
        .map_err(io)?;
    Ok((db, guard))
}

enum Op {
    /// Bound-bound (`Path(a, b)`) or bound-free (`Path(a, y)`) goal.
    Read {
        from: Cst,
        to: Option<Cst>,
    },
    Write,
}

/// Seeded read goals: chain reads alternate bound-bound and bound-free;
/// one read in ten is the bound-free goal from the feeder or the hub, whose
/// answer is all ~1,000 spokes.
fn read_op(g: &Graph, rng: &mut Rng, k: usize) -> Op {
    if k % 10 == 9 {
        let from = if rng.below(2) == 0 { g.feeder } else { g.hub };
        return Op::Read { from, to: None };
    }
    let nodes = &g.chain_nodes[rng.below(CHAINS)];
    let a = rng.below(CHAIN_LEN + 1);
    let to = k.is_multiple_of(2).then(|| nodes[rng.below(CHAIN_LEN + 1)]);
    Op::Read { from: nodes[a], to }
}

/// Every pair `(a, b)` with `b` reachable from `a` over one or more
/// `edges`, sorted: `Path`'s fixpoint, found by a depth-first search from
/// every node, so the oracle shares no code with the engine under test.
fn closure(edges: &[Vec<Cst>]) -> Vec<Vec<Cst>> {
    let mut succ: HashMap<Cst, Vec<Cst>> = HashMap::new();
    for e in edges {
        succ.entry(e[0]).or_default().push(e[1]);
    }
    let mut out = Vec::new();
    for (&a, next) in &succ {
        let mut seen = HashSet::new();
        let mut stack = next.clone();
        while let Some(b) = stack.pop() {
            if seen.insert(b) {
                out.push(vec![a, b]);
                stack.extend(succ.get(&b).into_iter().flatten());
            }
        }
    }
    out.sort_unstable();
    out
}

/// Checks the whole live store: its `Edge` rows must be exactly the
/// acknowledged edges (all base edges but the one retracted and not yet
/// re-inserted), and its `Path` rows exactly their transitive closure.
/// This catches rows that maintenance should have deleted as well as
/// missing ones, which `query_demand` against `dl::query` cannot: both
/// read the same materialized `Path`.
fn fixpoint_agrees(g: &Graph, db: &dl::Database, retracted: Option<[Cst; 2]>) -> bool {
    let rows = |d: &dl::Database, p: Pred| -> Vec<Vec<Cst>> {
        let mut v: Vec<Vec<Cst>> = d
            .relation(p)
            .map_or_else(Vec::new, |r| r.rows().map(<[Cst]>::to_vec).collect());
        v.sort_unstable();
        v
    };
    let live_edges = rows(db, g.edge);
    let mut want_edges: Vec<Vec<Cst>> = g
        .edges
        .iter()
        .filter(|&&e| Some(e) != retracted)
        .map(|e| e.to_vec())
        .collect();
    want_edges.sort_unstable();
    live_edges == want_edges && rows(db, g.path) == closure(&live_edges)
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut meter = Meter::new(cfg.seconds, cfg.max_ops, cfg.traced);
    let mut g = graph(cfg.seed);
    remove_stale_stores(&cfg.out_dir);
    let base = cfg.out_dir.join(format!(
        "{STORE_PREFIX}{}-{}",
        std::process::id(),
        cfg.seed
    ));
    // Later set-up repetitions load a spare store, between an epoch's
    // snapshot and its reopen, while the live store is closed: so peak RSS
    // never holds two stores.
    let spare = base.with_extension("setup");
    let (db, guard) = meter.time_setup(|tr| load(&mut g, &base, tr))?;
    let mut db = Some(db);
    let fixpoint_rows = db.as_ref().map_or(0, |d| d.database().fact_count());

    // Write targets: chain edges and spokes alternate. Each kind is walked
    // by a golden-ratio stride from a seeded start, so every prefix of the
    // walk spreads evenly over chain positions and cone sizes do not drift
    // with the seed or the run length.
    let mut rng = Rng::new(cfg.seed ^ 0x6368_7572);
    let stride = |n: usize, start: usize| -> Vec<usize> {
        let step = ((n as f64 * 0.618_033_988_749_895) as usize..n)
            .find(|s| gcd(*s, n) == 1)
            .unwrap_or(1);
        (0..n).map(|k| (start + k * step) % n).collect()
    };
    let chain_order = stride(g.chain_edges, rng.below(g.chain_edges));
    let spokes_from = g.chain_edges + 2;
    let spoke_order: Vec<usize> = stride(SPOKES, rng.below(SPOKES))
        .into_iter()
        .map(|k| spokes_from + k)
        .collect();
    let mut next_write = 0usize;
    let mut pending: Option<[Cst; 2]> = None;

    let mut write_ms = Vec::new();
    let mut read_ms = Vec::new();
    let mut open_ms = Vec::new();
    let mut reads = 0usize;
    let mut writes = 0usize;
    let mut checks = 0u64;
    let mut fixpoint_checks = 0u64;
    let mut epochs = 0u64;
    let mut eval = dl::IncrementalEval::new().with_threads(THREADS);
    let mut plan = {
        let d = db.as_ref().expect("opened");
        dl::DeltaPlan::planned(d.rules(), d.database())
    };
    let io = |e: std::io::Error| format!("storage: {e}");
    'epochs: while meter.more() {
        let mut schedule: Vec<Op> = (0..EPOCH_OPS)
            .map(|k| {
                if k < EPOCH_READS {
                    read_op(&g, &mut rng, k)
                } else {
                    Op::Write
                }
            })
            .collect();
        rng.shuffle(&mut schedule);
        for op in schedule {
            if !meter.more() {
                break 'epochs;
            }
            let d = db.as_mut().expect("open between epochs");
            let untraced = !meter.tracer.enabled();
            match op {
                Op::Read { from, to } => {
                    reads += 1;
                    let body = [dl::Atom::new(
                        g.path,
                        vec![
                            dl::Term::Const(from),
                            to.map_or(dl::Term::Var(g.y), dl::Term::Const),
                        ],
                    )];
                    let out: Vec<Var> = if to.is_some() { vec![] } else { vec![g.y] };
                    let (res, ms) = meter.call(1, |tr| {
                        tr.begin("op");
                        let r = tr.span("datalog.magic.query", || {
                            dl::query_demand(d.database(), d.rules(), &body, &out)
                        });
                        if let Ok(a) = &r {
                            tr.count(
                                "datalog.magic.demanded_tuples",
                                a.stats.demanded_tuples as f64,
                            );
                            tr.count("datalog.magic.join_probes", a.stats.join_probes as f64);
                            tr.count("datalog.magic.answers", a.rows.len() as f64);
                        }
                        tr.end();
                        r
                    });
                    if untraced {
                        read_ms.push(ms);
                    }
                    let ok = match res {
                        Ok(ans) if reads.is_multiple_of(CHECK_EVERY) => {
                            checks += 1;
                            let mut got = ans.rows;
                            got.sort();
                            let mut want = dl::query(d.database(), &body, &out)
                                .map_err(|e| format!("oracle query: {e}"))?;
                            want.sort();
                            got == want
                        }
                        Ok(_) => true,
                        Err(e) => {
                            eprintln!("durable-churn read: {e}");
                            false
                        }
                    };
                    if !ok {
                        eprintln!(
                            "durable-churn read {reads}: query_demand disagrees with dl::query"
                        );
                        meter.failed += 1;
                    }
                }
                Op::Write => {
                    let retract = pending.is_none();
                    let e = match pending.take() {
                        Some(e) => e,
                        None => {
                            let idx = if next_write.is_multiple_of(2) {
                                chain_order[next_write / 2 % chain_order.len()]
                            } else {
                                spoke_order[next_write / 2 % spoke_order.len()]
                            };
                            next_write += 1;
                            pending = Some(g.edges[idx]);
                            g.edges[idx]
                        }
                    };
                    let (res, ms) = meter.call(1, |tr| -> Result<(), String> {
                        let before = tr.enabled().then(|| d.wal_stats());
                        tr.begin("op");
                        let r = if retract {
                            tr.span("datalog.retract", || {
                                d.retract_fact(&g.interner, g.edge, &e, &plan)
                            })
                            .map_err(io)
                            .and_then(|o| {
                                if !o.found {
                                    return Err("retracted edge was absent".into());
                                }
                                tr.count("datalog.retract.over_deleted", o.deleted.len() as f64);
                                tr.count("datalog.retract.rederived", o.restored.len() as f64);
                                tr.count(
                                    "datalog.retract.net_deleted",
                                    o.net_deleted().len() as f64,
                                );
                                Ok(())
                            })
                        } else {
                            eval.prime_marks(d.database());
                            tr.span("storage.insert", || d.insert(&g.interner, g.edge, &e))
                                .map_err(io)
                                .and_then(|_| {
                                    tr.span("storage.run", || d.run(&g.interner, &mut eval, &plan))
                                        .map_err(|e| format!("run: {e}"))
                                })
                                .and_then(|st| {
                                    for (name, v) in [
                                        ("datalog.rounds", st.rounds),
                                        ("datalog.join_probes", st.join_probes),
                                        ("datalog.derived_rows", st.derived),
                                        ("datalog.replans", st.replans),
                                        ("datalog.bloom_skips", st.bloom_skips),
                                        ("datalog.shared_prefix_hits", st.shared_prefix_hits),
                                    ] {
                                        tr.count(name, v as f64);
                                    }
                                    tr.span("storage.commit", || d.commit()).map_err(io)
                                })
                        };
                        tr.end();
                        if let Some(b) = before {
                            let a = d.wal_stats();
                            tr.count("storage.wal_records", (a.records - b.records) as f64);
                            tr.count("storage.wal_bytes", (a.bytes - b.bytes) as f64);
                            tr.count("storage.flushes", (a.flushes - b.flushes) as f64);
                        }
                        r
                    });
                    if untraced {
                        write_ms.push(ms);
                    }
                    if let Err(msg) = res {
                        eprintln!("durable-churn write: {msg}");
                        meter.failed += 1;
                    }
                    writes += 1;
                    if writes.is_multiple_of(FIXPOINT_EVERY) {
                        fixpoint_checks += 1;
                        if !fixpoint_agrees(&g, d.database(), pending) {
                            eprintln!(
                                "durable-churn write {writes}: store differs from a from-scratch fixpoint"
                            );
                            meter.failed += 1;
                        }
                    }
                }
            }
        }
        // Epoch end: fsync, snapshot, reopen from disk.
        let mut d = db.take().expect("open between epochs");
        meter.background(|tr| -> Result<(), String> {
            tr.begin("epoch");
            let r = (|| {
                tr.span("storage.sync", || d.sync()).map_err(io)?;
                tr.count("storage.syncs", 1.0);
                tr.span("storage.snapshot", || d.snapshot(&g.interner))
                    .map_err(io)?;
                Ok(())
            })();
            tr.end();
            r
        })?;
        drop(d);
        if meter.setup_due(SETUP_REPS) {
            drop(meter.time_setup(|tr| load(&mut g, &spare, tr))?);
        }
        let untraced = !meter.tracer.enabled();
        let reopened = meter.background(|tr| -> Result<(DurableDb, f64), String> {
            tr.begin("epoch");
            let r = (|| {
                let t0 = std::time::Instant::now();
                let fresh = tr
                    .span("storage.open", || DurableDb::open(&base, &mut g.interner))
                    .map_err(io)?;
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                tr.count(
                    "storage.replayed_records",
                    fresh.recovery().replayed_records as f64,
                );
                Ok((fresh, ms))
            })();
            tr.end();
            r
        });
        let (fresh, ms) = reopened?;
        if untraced {
            open_ms.push(ms);
        }
        plan = dl::DeltaPlan::planned(fresh.rules(), fresh.database());
        eval = dl::IncrementalEval::new().with_threads(THREADS);
        db = Some(fresh);
        epochs += 1;
        meter.end_pass();
    }

    // The final store must be the fixpoint of the acknowledged edges, and
    // every acknowledged write must survive a reopen from disk.
    let d = db.take().expect("open after the loop");
    fixpoint_checks += 1;
    if !fixpoint_agrees(&g, d.database(), pending) {
        eprintln!("durable-churn: final store differs from a from-scratch fixpoint");
        meter.failed += 1;
    }
    let live = d.database().dump(&g.interner);
    let user_bytes = (d.database().relation(g.edge).map_or(0, |r| r.len()) * 2 * 4) as f64;
    drop(d);
    let reopened = DurableDb::open(&base, &mut g.interner).map_err(io)?;
    if reopened.database().dump(&g.interner) != live {
        eprintln!("durable-churn: reopened store differs from the acknowledged in-memory state");
        meter.failed += 1;
    }
    drop(reopened);
    let disk = dir_bytes(&base) as f64;
    drop(guard);

    let mut values = BTreeMap::new();
    values.insert("write_p50_ms", percentile(&write_ms, 0.5));
    values.insert("write_p99_ms", percentile(&write_ms, 0.99));
    values.insert("read_p50_ms", percentile(&read_ms, 0.5));
    values.insert("read_p99_ms", percentile(&read_ms, 0.99));
    values.insert("recovery_p50_ms", percentile(&open_ms, 0.5));
    values.insert("storage.disk_bytes", disk);
    values.insert("storage.bytes_per_user_byte", disk / user_bytes.max(1.0));
    let info = vec![
        (
            "graph",
            format!(
                "\"{CHAINS} chains of {CHAIN_LEN} edges with {SHORTCUTS} shortcuts each, hub with {SPOKES} spokes behind a 2-edge feeder\""
            ),
        ),
        ("base_edges", g.edges.len().to_string()),
        ("fixpoint_rows", fixpoint_rows.to_string()),
        ("epoch_ops", EPOCH_OPS.to_string()),
        ("epoch_reads", EPOCH_READS.to_string()),
        ("epochs", epochs.to_string()),
        ("flush_policy", "\"commit flushes to the OS per write; fsync once per epoch at sync\"".to_string()),
        ("writes", write_ms.len().to_string()),
        ("reads", read_ms.len().to_string()),
        ("oracle_checks", checks.to_string()),
        ("fixpoint_checks", fixpoint_checks.to_string()),
        ("stored_bytes_per_user_byte", format!("{}", disk / user_bytes.max(1.0))),
    ];
    Ok(Outcome {
        meter,
        values,
        info,
    })
}
