//! `spec-serve`: read-only serving from frozen specifications.
//!
//! Set-up compiles `binary_counter(8)`, `subset_lists(6)` and
//! `ring_planner(16)` into frozen graph and equational specifications.
//! The loop then issues `FrozenGraphSpec::answer_batch_threads` calls of
//! mixed sizes and single `FrozenEqSpec::holds` calls. One op is one query;
//! latency is per call.

use crate::build::{compile, vocabulary, Specs};
use crate::trace::{Meter, Tracer};
use crate::{Config, Outcome, Rng, THREADS};
use fundb_core::ServeQuery;
use fundb_term::{Cst, Func, Pred};
use std::collections::BTreeMap;

/// Set-up repetitions (about 0.2 s each, so fewer than `SETUP_REPS`).
const SERVE_SETUP_REPS: usize = 9;
/// Distinct hot keys per specification.
const HOT_KEYS: usize = 4096;
/// Zipf exponent of hot-key popularity.
const ZIPF_S: f64 = 1.1;
/// Longest query path.
const MAX_DEPTH: usize = 300;
/// Queries in a bulk batch.
const BULK: usize = 4096;
/// Calls per schedule cycle: 1 bulk batch, `SMALL_PER_CYCLE` interactive
/// batches of 1..=64 queries and the rest single `FrozenEqSpec::holds`
/// calls. Fixed shares keep the latency percentiles off the boundaries
/// between call kinds: p50 falls among the interactive batches, p99 among
/// the bulk ones.
const CYCLE: usize = 20;
const SMALL_PER_CYCLE: usize = 13;
/// Prebuilt calls; the schedule repeats after them (hot keys are meant to
/// repeat; cold keys replace some of them for one call only).
const CALLS: usize = CYCLE * 24;
/// Never-seen keys arrive at this rate per second of timed wall time, as
/// new clients would, whatever the server's speed: a run of `s` seconds
/// issues `COLD_PER_S × s` of them, so the cache growth they cause (and
/// with it peak RSS) does not scale with throughput. Each batch call takes
/// the keys that arrived since the previous one, spread over its slots, so
/// interactive and bulk calls both miss.
const COLD_PER_S: f64 = 4000.0;
/// Fresh constants per spec with cold keys. Each pairs with every cluster
/// representative once, so a spec has FRESH × clusters (≥ 5.5 × 10^5)
/// never-seen keys: more than a 60 s run issues.
const FRESH: usize = 1 << 15;
/// Every `CHECK_EVERY`-th query of a batch, and every `CHECK_EVERY`-th
/// equational call, is checked against the unfrozen specification.
const CHECK_EVERY: usize = 16;

/// One frozen specification with its query inputs.
struct Served {
    name: &'static str,
    specs: Specs,
    hot: Vec<ServeQuery>,
    /// Zipf cumulative weights over `hot`.
    cdf: Vec<f64>,
    /// Predicate with plain arguments for cold keys, if the program has one.
    cold_pred: Option<Pred>,
    /// One path per minimized cluster: cold keys cycle through them.
    rep_paths: Vec<Vec<Func>>,
    /// Fresh constants, each used with every representative once.
    fresh: Vec<Cst>,
    cold_next: usize,
}

impl Served {
    fn zipf(&self, rng: &mut Rng) -> &ServeQuery {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let i = self.cdf.partition_point(|&c| c < u).min(self.hot.len() - 1);
        &self.hot[i]
    }

    /// The next never-seen key: a fresh constant at a representative path,
    /// so its (predicate, representative, arguments) cache key is new.
    fn cold(&mut self) -> Option<ServeQuery> {
        let pred = self.cold_pred?;
        let j = self.cold_next;
        self.cold_next += 1;
        let c = self.fresh[j / self.rep_paths.len() % self.fresh.len()];
        Some(ServeQuery::Member {
            pred,
            path: self.rep_paths[j % self.rep_paths.len()].clone(),
            args: vec![c],
        })
    }
}

enum Call {
    Batch {
        spec: usize,
        queries: Vec<ServeQuery>,
    },
    Eq {
        spec: usize,
        query: ServeQuery,
    },
}

fn setup_spec(
    name: &'static str,
    ws: fundb_parser::Workspace,
    fresh_count: usize,
    rng: &mut Rng,
    tr: &mut Tracer,
) -> Result<Served, String> {
    let mut specs = compile(ws, tr).map_err(|e| format!("{name}: {e}"))?;
    let (preds, consts) = vocabulary(&specs.ws);
    let fpreds: Vec<(Pred, usize)> = preds
        .iter()
        .filter(|(_, f, _)| *f)
        .map(|(n, _, k)| (Pred(specs.ws.interner.intern(n)), *k))
        .collect();
    let consts: Vec<Cst> = consts
        .iter()
        .map(|c| Cst(specs.ws.interner.intern(c)))
        .collect();
    let spec = specs.frozen.spec();
    let funcs: Vec<Func> = spec.funcs.symbols().to_vec();
    let rep_paths: Vec<Vec<Func>> = spec.nodes.iter().map(|n| spec.tree.path(n.term)).collect();
    let mut hot = Vec::with_capacity(HOT_KEYS);
    for r in 0..HOT_KEYS {
        let (pred, k) = fpreds[rng.below(fpreds.len())];
        // Log-uniform depth in 0..=MAX_DEPTH (mostly shallow, some deep),
        // assigned to popularity ranks by a fixed low-discrepancy sequence:
        // the seed picks the keys but not how deep the popular ones are,
        // so the cost of a call does not swing with the seed.
        let u = (r as f64 * 0.618_033_988_749_895).fract();
        let depth = ((MAX_DEPTH as f64 + 1.0).powf(u) - 1.0) as usize;
        let path = (0..depth).map(|_| funcs[rng.below(funcs.len())]).collect();
        let args = (0..k).map(|_| consts[rng.below(consts.len())]).collect();
        hot.push(ServeQuery::Member { pred, path, args });
    }
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=HOT_KEYS)
        .map(|r| {
            acc += 1.0 / (r as f64).powf(ZIPF_S);
            acc
        })
        .collect();
    cdf.iter_mut().for_each(|c| *c /= acc);
    // Warm the answer cache with every hot key once, so the timed loop
    // starts from the steady hit rate.
    tr.span("core.serve.warm", || {
        specs.frozen.answer_batch_threads(&hot, THREADS)
    });
    let cold_pred = fpreds.iter().find(|(_, k)| *k == 1).map(|&(p, _)| p);
    let fresh = (0..fresh_count)
        .map(|i| Cst(specs.ws.interner.intern(&format!("Cold{i}"))))
        .collect();
    Ok(Served {
        name,
        specs,
        hot,
        cdf,
        cold_pred,
        rep_paths,
        fresh,
        cold_next: 0,
    })
}

fn setup(seed: u64, tr: &mut Tracer) -> Result<(Vec<Served>, Vec<Call>), String> {
    let mut rng = Rng::new(seed);
    let served = vec![
        setup_spec(
            "binary_counter(8)",
            fundb_bench::binary_counter(8),
            0,
            &mut rng,
            tr,
        )?,
        setup_spec(
            "subset_lists(6)",
            fundb_bench::subset_lists(6),
            FRESH,
            &mut rng,
            tr,
        )?,
        setup_spec(
            "ring_planner(16)",
            fundb_bench::ring_planner(16),
            FRESH,
            &mut rng,
            tr,
        )?,
    ];
    let mut calls = Vec::with_capacity(CALLS);
    for c in 0..CALLS / CYCLE {
        // Specs rotate through the call positions, so every spec gets the
        // same share of each call kind whatever the seed.
        let mut kinds: Vec<(usize, usize)> = (0..CYCLE)
            .map(|i| {
                let n = match i {
                    0 => BULK,
                    i if i <= SMALL_PER_CYCLE => 1 + rng.below(64),
                    _ => 0,
                };
                (n, (i + c) % served.len())
            })
            .collect();
        rng.shuffle(&mut kinds);
        for (n, spec) in kinds {
            if n == 0 {
                let query = served[spec].zipf(&mut rng).clone();
                calls.push(Call::Eq { spec, query });
                continue;
            }
            let queries: Vec<ServeQuery> = (0..n)
                .map(|_| served[spec].zipf(&mut rng).clone())
                .collect();
            calls.push(Call::Batch { spec, queries });
        }
    }
    Ok((served, calls))
}

fn expected(s: &Served, q: &ServeQuery) -> bool {
    match q {
        ServeQuery::Member { pred, path, args } => s.specs.frozen.spec().holds(*pred, path, args),
        ServeQuery::Relational { pred, args } => {
            s.specs.frozen.spec().holds_relational(*pred, args)
        }
    }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut meter = Meter::new(cfg.seconds, cfg.max_ops, cfg.traced);
    // Every set-up repetition runs before the loop, each after the previous
    // one's product is dropped: one run during the loop would hold a second
    // copy of the specs beside the live one and inflate peak RSS.
    let mut built = meter.time_setup(|tr| setup(cfg.seed, tr));
    for _ in 1..SERVE_SETUP_REPS {
        drop(built);
        built = meter.time_setup(|tr| setup(cfg.seed, tr));
    }
    let (mut served, mut calls) = built?;
    let classes: usize = served.iter().map(|s| s.specs.frozen_eq.class_count()).sum();
    let mut checks = 0u64;
    let mut cold_issued = 0usize;
    let mut batch_queries = 0usize;
    let mut k = 0usize;
    while meter.more() {
        let n_calls = calls.len();
        if k > 0 && k.is_multiple_of(n_calls) {
            meter.end_pass();
        }
        let call = &mut calls[k % n_calls];
        k += 1;
        match call {
            Call::Batch { spec, queries } => {
                let s = &mut served[*spec];
                let due = (meter.wall().as_secs_f64() * COLD_PER_S) as usize - cold_issued;
                let m = if s.cold_pred.is_some() {
                    due.min(queries.len())
                } else {
                    0
                };
                let mut displaced = Vec::with_capacity(m);
                for j in 0..m {
                    let i = j * queries.len() / m;
                    let key = s.cold().expect("checked: the spec has a cold predicate");
                    displaced.push((i, std::mem::replace(&mut queries[i], key)));
                }
                cold_issued += m;
                batch_queries += queries.len();
                let frozen = &s.specs.frozen;
                let n = queries.len() as u64;
                let (answers, _) = meter.call(n, |tr| {
                    let before = tr.enabled().then(|| frozen.serve_stats());
                    let a = tr.span("core.serve.batch", || {
                        frozen.answer_batch_threads(queries, THREADS)
                    });
                    if let Some(b) = before {
                        let after = frozen.serve_stats();
                        tr.count("core.serve.queries", n as f64);
                        tr.count("core.serve.cache_hits", (after.hits - b.hits) as f64);
                        tr.count("core.serve.cache_misses", (after.misses - b.misses) as f64);
                    }
                    a
                });
                let mut bad = answers.len() != queries.len();
                if !bad {
                    for i in (0..queries.len()).step_by(CHECK_EVERY) {
                        bad |= answers[i] != expected(s, &queries[i]);
                        checks += 1;
                    }
                    for &(i, _) in &displaced {
                        bad |= answers[i];
                    }
                }
                if bad {
                    eprintln!(
                        "spec-serve call {k}: {} batch disagrees with GraphSpec::holds",
                        s.name
                    );
                    meter.failed += 1;
                }
                for (i, hot) in displaced {
                    queries[i] = hot;
                }
            }
            Call::Eq { spec, query } => {
                let s = &mut served[*spec];
                let ServeQuery::Member { pred, path, args } = &*query else {
                    unreachable!("hot keys are functional memberships");
                };
                let fe = &s.specs.frozen_eq;
                let (got, _) = meter.call(1, |tr| {
                    tr.count("congruence.eq_queries", 1.0);
                    tr.span("congruence.eq_holds", || fe.holds(*pred, path, args))
                });
                if k.is_multiple_of(CHECK_EVERY) {
                    checks += 1;
                    if got != s.specs.eq.holds(*pred, path, args) {
                        eprintln!(
                            "spec-serve call {k}: {} FrozenEqSpec disagrees with EqSpec::holds",
                            s.name
                        );
                        meter.failed += 1;
                    }
                }
            }
        }
    }
    let cache: Vec<String> = served
        .iter()
        .map(|s| {
            let st = s.specs.frozen.serve_stats();
            format!(
                "\"{}\": {{\"hits\": {}, \"misses\": {}}}",
                s.name, st.hits, st.misses
            )
        })
        .collect();
    let info = vec![
        ("specs", "\"binary_counter(8), subset_lists(6), ring_planner(16)\"".to_string()),
        (
            "mix",
            format!(
                "\"per {CYCLE} calls: 1 bulk batch of {BULK}, {SMALL_PER_CYCLE} batches of 1..=64, {} FrozenEqSpec::holds\"",
                CYCLE - 1 - SMALL_PER_CYCLE
            ),
        ),
        ("hot_keys_per_spec", HOT_KEYS.to_string()),
        ("cold_keys_per_s", COLD_PER_S.to_string()),
        ("cold_keys", cold_issued.to_string()),
        (
            "cold_share",
            format!("{}", cold_issued as f64 / batch_queries.max(1) as f64),
        ),
        ("oracle_checks", checks.to_string()),
        ("cache", format!("{{{}}}", cache.join(", "))),
    ];
    let mut values = BTreeMap::new();
    values.insert("congruence.classes", classes as f64);
    Ok(Outcome {
        meter,
        values,
        info,
    })
}
