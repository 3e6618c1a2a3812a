//! `spec-build`: the paper's compile path as a seeded stream of programs.
//!
//! One op compiles one program — `Workspace::parse` → `Engine::build` →
//! `solve` → `GraphSpec::from_engine` (Algorithm Q) → `minimized`, and
//! `EqSpec::from_graph` of Algorithm Q's graph → freeze both — and answers
//! one uniform §5 query with `Query::answer_incremental`.

use crate::trace::{Meter, Tracer};
use crate::{Config, Outcome, Rng, SETUP_REPS, THREADS};
use fundb_core::program::{display_atom, display_rule, Atom};
use fundb_core::{
    normalize, to_pure, BoundedMaterialization, Engine, EqSpec, FrozenEqSpec, FrozenGraphSpec,
    GraphSpec, IncrementalAnswer,
};
use fundb_parser::Workspace;
use fundb_temporal::TemporalSpec;
use fundb_term::{Cst, Func, Pred};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Cycles in one pass of the program stream; the stream repeats after
/// that. Each cycle holds every counter and list size once, so every pass
/// costs the same whatever the seed.
const CYCLES: usize = 9;

/// Ground membership samples checked per program.
const SAMPLES: usize = 24;

#[derive(Clone, Copy, Debug)]
enum Family {
    Counter(usize),
    Lists(usize),
    Ring(usize),
    Rotation(usize),
    Temporal(u64),
}

/// One program of the stream, as concrete syntax.
struct Program {
    family: Family,
    text: String,
    query: String,
}

/// A ground fact by symbol names, with the oracle's truth value.
struct Sample {
    pred: String,
    path: Vec<String>,
    args: Vec<String>,
    truth: bool,
}

struct Oracle {
    clusters_min: Option<usize>,
    samples: Vec<Sample>,
}

/// Everything the compile path produces for one program.
pub struct Specs {
    pub ws: Workspace,
    /// Kept unfrozen for the oracle's `EqSpec::holds` (the unfrozen graph
    /// specification stays reachable through `FrozenGraphSpec::spec`).
    pub eq: EqSpec,
    pub frozen: FrozenGraphSpec,
    pub frozen_eq: FrozenEqSpec,
}

/// Renders a parsed workspace back to concrete syntax, so the timed op
/// parses text.
fn render(ws: &Workspace) -> String {
    let mut text = String::new();
    for r in &ws.program.rules {
        writeln!(text, "{}", display_rule(r, &ws.interner)).expect("write to String");
    }
    for f in &ws.db.facts {
        writeln!(text, "{}.", display_atom(f, &ws.interner)).expect("write to String");
    }
    text
}

/// The stream: `CYCLES` cycles of 15 programs each, shuffled within a
/// cycle. Ring and rotation sizes are stratified across the stream so
/// their shares do not drift with the seed.
fn stream(seed: u64) -> Vec<Program> {
    let mut rng = Rng::new(seed);
    let mut rings: Vec<usize> = (0..CYCLES * 3).map(|i| 8 + i % 9).collect();
    rng.shuffle(&mut rings);
    let slots = CYCLES * 3;
    let mut rotations: Vec<usize> = (0..slots)
        .map(|i| {
            let lo = 16 + i * 49 / slots;
            let hi = 16 + (i + 1) * 49 / slots;
            lo + rng.below((hi - lo).max(1))
        })
        .collect();
    rng.shuffle(&mut rotations);
    let mut out = Vec::with_capacity(CYCLES * 15);
    for c in 0..CYCLES {
        let mut cycle: Vec<Family> = vec![
            Family::Counter(6),
            Family::Counter(7),
            Family::Counter(8),
            Family::Lists(4),
            Family::Lists(5),
            Family::Lists(6),
        ];
        for k in 0..3 {
            cycle.push(Family::Ring(rings[c * 3 + k]));
            cycle.push(Family::Rotation(rotations[c * 3 + k]));
            cycle.push(Family::Temporal(rng.next_u64()));
        }
        rng.shuffle(&mut cycle);
        for family in cycle {
            let (text, query) = match family {
                Family::Counter(w) => {
                    let bit = rng.below(w);
                    let kind = if rng.below(2) == 0 { "B" } else { "N" };
                    (
                        render(&fundb_bench::binary_counter(w)),
                        format!("{kind}{bit}(t)"),
                    )
                }
                Family::Lists(n) => (render(&fundb_bench::subset_lists(n)), "Member(s, x)".into()),
                Family::Ring(n) => (render(&fundb_bench::ring_planner(n)), "At(s, p)".into()),
                Family::Rotation(k) => (render(&fundb_bench::rotation(k)), "Meets(t, x)".into()),
                Family::Temporal(s) => (
                    fundb_bench::scenariogen::temporal(s).text,
                    format!("P{}(t, x)", rng.below(2)),
                ),
            };
            out.push(Program {
                family,
                text,
                query,
            });
        }
    }
    out
}

/// Compiles a parsed workspace into graph and equational specifications,
/// minimized and frozen, recording one span per public call.
pub fn compile(mut ws: Workspace, tr: &mut Tracer) -> fundb_core::Result<Specs> {
    let mut engine = tr.span("core.compile.build", || {
        Engine::build(&ws.program, &ws.db, &mut ws.interner)
    })?;
    engine.set_threads(Some(THREADS));
    tr.span("core.engine.solve", || engine.solve())?;
    let full = tr.span("core.graphspec.algq", || {
        GraphSpec::from_engine(&mut engine)
    })?;
    let graph = tr.span("core.graphspec.minimize", || full.minimized());
    // The equational specification is read off Algorithm Q's own graph:
    // `EqSpec` treats terms of depth <= c as singleton clusters, which
    // holds for Algorithm Q's output but not after minimization (a
    // minimized block can have a shallow representative and deep members).
    let eq = tr.span("core.eqspec.build", || EqSpec::from_graph(&full));
    let (frozen, frozen_eq) = tr.span("core.serve.freeze", || (graph.freeze(), eq.freeze()));
    if tr.enabled() {
        let st = engine.stats();
        for (name, v) in [
            ("core.engine.passes", st.passes),
            ("core.engine.top_evals", st.top_evals),
            ("core.engine.uniform_evals", st.uniform_evals),
            ("core.engine.states", engine.memo_len()),
            ("datalog.rounds", st.datalog_rounds),
            ("datalog.join_probes", st.join_probes),
            ("datalog.derived_rows", st.derived_rows),
            ("datalog.replans", st.replans),
            ("datalog.bloom_skips", st.bloom_skips),
            ("datalog.shared_prefix_hits", st.shared_prefix_hits),
            ("core.graphspec.clusters", full.cluster_count()),
            ("core.graphspec.clusters_min", frozen.spec().cluster_count()),
            ("core.graphspec.edges", frozen.spec().edge_count()),
            ("core.eqspec.equations", eq.equation_count()),
        ] {
            tr.count(name, v as f64);
        }
    }
    Ok(Specs {
        ws,
        eq,
        frozen,
        frozen_eq,
    })
}

/// One timed op: parse, compile, answer.
fn op(p: &Program, tr: &mut Tracer) -> fundb_core::Result<(Specs, IncrementalAnswer)> {
    tr.begin("op");
    let out = (|| {
        let mut ws = Workspace::new();
        let query = tr.span("parser.parse", || {
            ws.parse(&p.text)?;
            ws.parse_query(&p.query)
        })?;
        let specs = compile(ws, tr)?;
        let ans = tr.span("core.query.answer", || {
            query.answer_incremental(specs.frozen.spec(), &specs.ws.interner)
        })?;
        tr.count("core.query.answer_tuples", ans.size() as f64);
        Ok((specs, ans))
    })();
    tr.end();
    out
}

/// (name, has a functional term, number of plain arguments) of every
/// predicate, and every constant in the facts.
pub fn vocabulary(ws: &Workspace) -> (Vec<(String, bool, usize)>, Vec<String>) {
    let mut preds: BTreeMap<String, (bool, usize)> = BTreeMap::new();
    let mut note = |a: &Atom| {
        let name = ws.interner.resolve(a.pred().sym()).to_string();
        preds.insert(name, (a.fterm().is_some(), a.args().len()));
    };
    for r in &ws.program.rules {
        note(&r.head);
        r.body.iter().for_each(&mut note);
    }
    ws.db.facts.iter().for_each(&mut note);
    let mut consts: Vec<String> = Vec::new();
    for f in &ws.db.facts {
        for a in f.args() {
            if let Some(c) = a.as_const() {
                let name = ws.interner.resolve(c.sym()).to_string();
                if !consts.contains(&name) {
                    consts.push(name);
                }
            }
        }
    }
    let preds = preds.into_iter().map(|(n, (f, k))| (n, f, k)).collect();
    (preds, consts)
}

/// Ground-truth samples for one program, from `TemporalSpec` (temporal
/// families) or a depth-bounded `BoundedMaterialization` (functional
/// families), plus the minimized cluster count where it is known in closed
/// form.
fn oracle(p: &Program, rng: &mut Rng) -> fundb_core::Result<Oracle> {
    let mut ws = Workspace::new();
    ws.parse(&p.text)?;
    let (preds, consts) = vocabulary(&ws);
    let fpreds: Vec<&(String, bool, usize)> = preds.iter().filter(|(_, f, _)| *f).collect();
    let pick_args = |rng: &mut Rng, k: usize| -> Vec<String> {
        (0..k)
            .map(|_| consts[rng.below(consts.len())].clone())
            .collect()
    };
    let clusters_min = match p.family {
        Family::Counter(w) => Some(1 << w),
        Family::Lists(n) => Some(1 << n),
        Family::Ring(n) => Some(n + 1),
        Family::Rotation(k) => Some(k),
        Family::Temporal(_) => None,
    };
    let mut samples = Vec::with_capacity(SAMPLES);
    match p.family {
        Family::Counter(_) | Family::Rotation(_) | Family::Temporal(_) => {
            let spec = TemporalSpec::compute(&ws.program, &ws.db, &mut ws.interner)?;
            let (rho, rho_lambda) = spec.equation();
            let horizon = (rho_lambda + (rho_lambda - rho) + 4) as u64;
            for _ in 0..SAMPLES {
                let (name, _, k) = fpreds[rng.below(fpreds.len())];
                let t = rng.next_u64() % horizon;
                let args = pick_args(rng, *k);
                let pred = Pred(ws.interner.intern(name));
                let row: Vec<Cst> = args.iter().map(|a| Cst(ws.interner.intern(a))).collect();
                samples.push(Sample {
                    pred: name.clone(),
                    path: vec!["+1".to_string(); t as usize],
                    args,
                    truth: spec.holds(pred, t, &row),
                });
            }
        }
        Family::Lists(_) | Family::Ring(_) => {
            // Forward programs: materialization to depth D is exact for
            // terms of depth <= D. Ring planners have n^2 move symbols, so
            // they are grounded one level only.
            let depth = if matches!(p.family, Family::Ring(_)) {
                1
            } else {
                3
            };
            let normal = normalize(&ws.program, &mut ws.interner);
            let pure = to_pure(&normal, &ws.db, &mut ws.interner)?;
            let mat = BoundedMaterialization::run(&pure, depth, &mut ws.interner)?;
            let funcs: Vec<Func> = Engine::build(&ws.program, &ws.db, &mut ws.interner)?
                .compiled()
                .funcs
                .symbols()
                .to_vec();
            for _ in 0..SAMPLES {
                let (name, _, k) = fpreds[rng.below(fpreds.len())];
                let len = rng.below(depth + 1);
                let path: Vec<Func> = (0..len).map(|_| funcs[rng.below(funcs.len())]).collect();
                let args = pick_args(rng, *k);
                let pred = Pred(ws.interner.intern(name));
                let row: Vec<Cst> = args.iter().map(|a| Cst(ws.interner.intern(a))).collect();
                samples.push(Sample {
                    pred: name.clone(),
                    path: path
                        .iter()
                        .map(|f| ws.interner.resolve(f.sym()).to_string())
                        .collect(),
                    args,
                    truth: mat.holds(pred, &path, &row),
                });
            }
        }
    }
    Ok(Oracle {
        clusters_min,
        samples,
    })
}

/// Checks one op's output against its oracle; returns a description of
/// the first disagreement.
fn verify(p: &Program, o: &Oracle, specs: &Specs, ans: &IncrementalAnswer) -> Result<(), String> {
    if let Some(want) = o.clusters_min {
        let got = specs.frozen.spec().cluster_count();
        if got != want {
            return Err(format!(
                "{:?}: {got} minimized clusters, expected {want}",
                p.family
            ));
        }
    }
    let i = &specs.ws.interner;
    let query_pred = p.query.split('(').next().unwrap_or("");
    for s in &o.samples {
        let (Some(pred), Some(args), Some(path)) = (
            i.get(&s.pred).map(Pred),
            s.args
                .iter()
                .map(|a| i.get(a).map(Cst))
                .collect::<Option<Vec<_>>>(),
            s.path
                .iter()
                .map(|f| i.get(f).map(Func))
                .collect::<Option<Vec<_>>>(),
        ) else {
            return Err(format!(
                "{:?}: sample {} does not resolve",
                p.family, s.pred
            ));
        };
        let answers = [
            ("FrozenGraphSpec", specs.frozen.holds(pred, &path, &args)),
            ("FrozenEqSpec", specs.frozen_eq.holds(pred, &path, &args)),
        ];
        for (who, got) in answers {
            if got != s.truth {
                return Err(format!(
                    "{:?}: {who} says {got} for {}@{} {:?}, oracle {}",
                    p.family,
                    s.pred,
                    s.path.len(),
                    s.args,
                    s.truth
                ));
            }
        }
        if s.pred == query_pred && ans.holds_term(specs.frozen.spec(), &path, &args) != s.truth {
            return Err(format!(
                "{:?}: §5 answer disagrees on {}@{}",
                p.family,
                s.pred,
                s.path.len()
            ));
        }
    }
    Ok(())
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut meter = Meter::new(cfg.seconds, cfg.max_ops, cfg.traced);
    let programs = meter.time_setup(|_| stream(cfg.seed));
    let mut rng = Rng::new(cfg.seed ^ 0x6f72_6163);
    let mut oracles: Vec<Option<Oracle>> = (0..programs.len()).map(|_| None).collect();
    let mut i = 0usize;
    while meter.more() {
        let k = i % programs.len();
        let p = &programs[k];
        let (res, _) = meter.call(1, |tr| op(p, tr));
        let checked = match res {
            Ok((specs, ans)) => {
                if oracles[k].is_none() {
                    oracles[k] = Some(oracle(p, &mut rng).map_err(|e| format!("oracle: {e}"))?);
                }
                verify(p, oracles[k].as_ref().expect("filled above"), &specs, &ans)
            }
            Err(e) => Err(format!("{:?}: {e}", p.family)),
        };
        if let Err(msg) = checked {
            eprintln!("spec-build op {i}: {msg}");
            meter.failed += 1;
        }
        i += 1;
        if i.is_multiple_of(programs.len()) {
            meter.end_pass();
            if meter.setup_due(SETUP_REPS) {
                drop(meter.time_setup(|_| stream(cfg.seed)));
            }
        }
    }
    let info = vec![
        ("programs_per_pass", programs.len().to_string()),
        (
            "families",
            "\"binary_counter(6..=8), subset_lists(4..=6), ring_planner(8..=16), rotation(16..=64), scenariogen::temporal\"".to_string(),
        ),
        ("op", "\"one program: parse, compile, solve, Algorithm Q, minimize, eqspec, freeze, one §5 answer\"".to_string()),
    ];
    Ok(Outcome {
        meter,
        values: BTreeMap::new(),
        info,
    })
}
