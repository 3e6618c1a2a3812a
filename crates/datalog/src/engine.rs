//! Naive and semi-naive bottom-up evaluation, optionally parallel.
//!
//! [`evaluate`] runs semi-naive iteration: in every round each rule is
//! evaluated once per body atom, with that atom restricted to the tuples
//! derived in the previous round (the delta) — a derivation is only
//! attempted if it could not have been made before. [`IncrementalEval`]
//! extends this across calls: it keeps the per-predicate low-water marks
//! between runs, so a caller can insert new facts into an already-saturated
//! database and resume the fixpoint from just those facts, driven by a
//! [`DeltaPlan`] that maps each predicate to the rule positions that can
//! consume it.
//!
//! Each round's work is a list of independent *tasks* (a rule, plus for
//! delta rounds the delta atom and a contiguous chunk of its fresh rows).
//! When the round is large enough, tasks are executed by scoped worker
//! threads, each filling a private derived-tuple buffer; buffers are merged
//! back in task order, so row insertion order — and with it every pinned
//! statistic and spec output — is byte-identical to a sequential run
//! regardless of thread count. [`evaluate_naive`] re-derives everything
//! each round and exists as a differential-testing oracle and as the
//! textbook baseline.
//!
//! Every evaluation is governed (see [`crate::governor`]): entry points
//! return `Result<…, EvalError>`, budgets and cancellation are checked at
//! round boundaries and every few thousand join probes, task panics are
//! caught on the worker and surfaced as [`EvalError::WorkerPanicked`], and
//! any early stop leaves the database in a deterministic prefix of the
//! fixpoint — complete rounds, plus (for the row budget only) a
//! deterministic prefix of the tripping round's merge.

use crate::governor::{EvalError, FaultPlan, Governor, ProbeGuard, Resource};
use crate::program::{register_file, register_file_sized, CompiledRule, HeadSlot, JoinProgram};
use crate::rel::{hash_row, Database, PlanStats};
use crate::rule::{Atom, Rule, Term};
use fundb_term::{Cst, FxHashMap, Pred, Var};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Counters reported by evaluation. Deliberately identical across thread
/// counts: a parallel run partitions the same probes over workers and sums
/// them back, so stats equality is part of the determinism contract.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of fixpoint rounds (including the final no-change round).
    pub rounds: usize,
    /// Number of new facts derived (excluding the initial database).
    pub derived: usize,
    /// Number of candidate rows enumerated by body-atom probes (delta
    /// chunks, index buckets, and scans alike).
    pub join_probes: usize,
    /// Number of bound-column selections *fully answered* by an index: the
    /// per-column index when one column is bound, a composite index when
    /// several are. Candidates from these probes differ from answers only
    /// by hash collisions.
    pub index_hits: usize,
    /// Number of bound-column selections where no full-cover index was
    /// available and the probe fell back to the most selective
    /// single-column bucket (immutable callers that cannot build composite
    /// indexes on demand).
    pub index_misses: usize,
    /// Number of magic rules (guard rules plus ground seeds) synthesized by
    /// the goal-directed rewrite, when this run came from [`query_demand`];
    /// zero for plain fixpoint evaluation.
    pub magic_rules: usize,
    /// Total rows across the overlay's magic relations after a
    /// [`query_demand`] evaluation: the size of the demand set the goal
    /// actually touched. Set once after the fixpoint (never inside
    /// workers), so thread-count stats equality is unaffected.
    pub demanded_tuples: usize,
    /// Number of rule plans the adaptive evaluator replaced mid-run after
    /// detecting estimate/observation drift (see
    /// [`IncrementalEval::with_adaptive`]). Decided by the coordinator at
    /// round boundaries only, so identical at every thread count.
    pub replans: usize,
    /// Number of composite-index probes answered by a bloom-filter
    /// rejection: the key was provably absent, so the hash-bucket walk was
    /// skipped. Each such probe still counts as an `index_hits` (the index
    /// fully covered the key); answers are unaffected.
    pub bloom_skips: usize,
    /// Number of times a shared compiled body prefix was reused instead of
    /// re-evaluated: for each binding surviving a prefix shared by `k`
    /// rule programs, `k - 1` re-evaluations are skipped and counted here.
    /// Additive over delta rows, so identical at every thread count.
    pub shared_prefix_hits: usize,
    /// Number of rows tombstoned by retraction maintenance (the target
    /// fact plus every over-deleted consequence), across
    /// [`Database::retract_fact`](crate::retract) calls reporting into
    /// this counter. Retraction runs sequentially on the coordinator, so
    /// the count is identical at every thread count.
    pub retractions: usize,
    /// Number of over-deleted rows restored by the re-derivation pass
    /// because an alternative derivation survived the retraction.
    pub rederived: usize,
}

impl EvalStats {
    /// Accumulates another run's counters into `self`.
    pub fn absorb(&mut self, other: EvalStats) {
        self.rounds += other.rounds;
        self.derived += other.derived;
        self.join_probes += other.join_probes;
        self.index_hits += other.index_hits;
        self.index_misses += other.index_misses;
        self.magic_rules += other.magic_rules;
        self.demanded_tuples += other.demanded_tuples;
        self.replans += other.replans;
        self.bloom_skips += other.bloom_skips;
        self.shared_prefix_hits += other.shared_prefix_hits;
        self.retractions += other.retractions;
        self.rederived += other.rederived;
    }
}

/// Observer of the deterministic commit sequence of a governed fixpoint
/// run, attached via [`IncrementalEval::run_with_sink`]. The durable
/// storage layer implements this to tee every committed row and every
/// completed-round boundary into a write-ahead log.
///
/// All callbacks run on the coordinating thread at round boundaries,
/// after the sequential, task-ordered merge, so the observed sequence is
/// byte-identical at any thread count — the same determinism contract the
/// row store itself keeps. Erroring out of
/// [`round_committed`](RoundSink::round_committed)
/// aborts the run with [`EvalError::WalFailed`]; the in-memory database
/// still holds every completed round.
pub trait RoundSink {
    /// One row was inserted into `pred` by the round's merge. Infallible
    /// by design: implementations buffer IO errors and surface them from
    /// the next [`round_committed`](RoundSink::round_committed).
    fn row_committed(&mut self, pred: Pred, row: &[Cst]);

    /// This round's freshly inserted rows for `pred`: `count` rows of
    /// `arity` cells each, as one contiguous arena slice in insertion
    /// order (`cells` is empty when `arity` is 0). The engine feeds each
    /// round's touched relations in predicate order once the round's
    /// merge completes, so a bulk implementation can copy whole slices;
    /// the default forwards to [`row_committed`](RoundSink::row_committed)
    /// row by row. Per-relation row order — the order that assigns
    /// [`RowId`](crate::RowId)s — is identical at every thread count.
    fn rows_committed(&mut self, pred: Pred, arity: usize, count: usize, cells: &[Cst]) {
        if arity == 0 {
            for _ in 0..count {
                self.row_committed(pred, &[]);
            }
        } else {
            for row in cells.chunks_exact(arity) {
                self.row_committed(pred, row);
            }
        }
    }

    /// A fixpoint round completed and its rows are all in the database
    /// (also called for rounds that derived nothing, including the final
    /// no-change round). `stats` is the run's cumulative counter snapshot
    /// at this boundary — exactly what [`IncrementalEval::run`] would
    /// report if the run stopped here. `Err` aborts the run with
    /// [`EvalError::WalFailed`] carrying the message.
    fn round_committed(&mut self, stats: &EvalStats) -> Result<(), String>;
}

/// The sink type behind sink-less [`IncrementalEval::run`] — never
/// instantiated, it just gives `run_inner`'s generic parameter a concrete
/// type whose (empty, inlined) callbacks compile out of the merge loop.
enum NoopSink {}

impl RoundSink for NoopSink {
    fn row_committed(&mut self, _pred: Pred, _row: &[Cst]) {}
    fn round_committed(&mut self, _stats: &EvalStats) -> Result<(), String> {
        Ok(())
    }
}

/// One mid-run re-plan applied by the adaptive evaluator: before `round`
/// started, `rule`'s compiled programs were replaced by a recompile against
/// live statistics, changing at least one atom order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplanEvent {
    /// The round (1-based, within the [`IncrementalEval::run`] call) that
    /// first executed under the new plan.
    pub round: usize,
    /// Index of the re-planned rule in the caller's rule slice.
    pub rule: usize,
    /// Atom order (body positions) of the first differing program before
    /// the re-plan.
    pub old_order: Vec<usize>,
    /// Atom order of that program after the re-plan.
    pub new_order: Vec<usize>,
}

/// A predicate-argument index over a rule set — for each predicate, the
/// `(rule, body position)` pairs that can consume a new fact of that
/// predicate — plus the rules' compiled join programs. Semi-naive rounds
/// only re-run the positions whose predicate has fresh rows, and each
/// position runs its pre-compiled register program instead of
/// re-interpreting the rule text.
#[derive(Clone, Debug, Default)]
pub struct DeltaPlan {
    by_pred: FxHashMap<Pred, Vec<(u32, u32)>>,
    /// `programs[rule]` = that rule compiled once per role (full + one
    /// per delta atom).
    programs: Vec<CompiledRule>,
    /// Composite-index signatures the programs probe, deduplicated; the
    /// evaluator ensures these exist before every round.
    demands: Vec<(Pred, u64)>,
}

impl DeltaPlan {
    /// Builds the plan for a rule set, compiling every rule with the
    /// static greedy atom order (most bound positions first).
    pub fn new(rules: &[Rule]) -> DeltaPlan {
        DeltaPlan::from_programs(rules, rules.iter().map(CompiledRule::new).collect())
    }

    /// Builds the plan with the cardinality cost model: per-rule atom
    /// orders (and with them composite-index demands) are chosen from a
    /// statistics snapshot of `db` taken now, at plan time. The snapshot is
    /// immutable, so the plan — and row derivation order under it — is
    /// fixed for the whole run regardless of how the database grows, which
    /// preserves byte-determinism across thread counts. Rules whose body
    /// predicates are all absent from the snapshot (cold) compile with the
    /// same greedy order as [`DeltaPlan::new`].
    pub fn planned(rules: &[Rule], db: &Database) -> DeltaPlan {
        let stats = db.plan_stats();
        let programs = rules
            .iter()
            .map(|r| CompiledRule::with_stats(r, &stats))
            .collect();
        DeltaPlan::from_programs(rules, programs)
    }

    /// Indexes `rules` by body predicate around their compiled programs.
    fn from_programs(rules: &[Rule], programs: Vec<CompiledRule>) -> DeltaPlan {
        let mut by_pred: FxHashMap<Pred, Vec<(u32, u32)>> = FxHashMap::default();
        for (ri, rule) in rules.iter().enumerate() {
            for (ai, atom) in rule.body.iter().enumerate() {
                by_pred
                    .entry(atom.pred)
                    .or_default()
                    .push((ri as u32, ai as u32));
            }
        }
        let mut demands = Vec::new();
        for cr in &programs {
            cr.demands(&mut demands);
        }
        demands.sort_unstable();
        demands.dedup();
        DeltaPlan {
            by_pred,
            programs,
            demands,
        }
    }

    /// The `(rule, body position)` pairs that consume facts of `p`.
    pub fn positions(&self, p: Pred) -> &[(u32, u32)] {
        self.by_pred.get(&p).map_or(&[], Vec::as_slice)
    }

    /// The compiled program a task runs: the rule's full program, or its
    /// per-delta program when the task restricts a body atom to a delta
    /// range.
    pub(crate) fn program(&self, rule: u32, delta_atom: Option<u32>) -> &JoinProgram {
        let cr = &self.programs[rule as usize];
        match delta_atom {
            None => &cr.full,
            Some(ai) => &cr.per_delta[ai as usize],
        }
    }

    /// Builds every composite index the compiled programs will probe (for
    /// relations that exist in `db`; re-invoked each round as derived
    /// relations appear).
    pub(crate) fn ensure_indexes(&self, db: &mut Database) {
        for &(p, sig) in &self.demands {
            db.ensure_composite(p, sig);
        }
    }
}

/// Delta rows a round must see before parallel execution pays for the
/// thread scaffolding; smaller rounds run sequentially on the caller's
/// thread.
pub const DEFAULT_MIN_PARALLEL_ROWS: usize = 4096;

/// Threads the evaluator uses when none are configured explicitly: the
/// `FUNDB_THREADS` environment variable if set to a positive integer,
/// otherwise the machine's available parallelism.
pub fn default_threads() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| {
        match std::env::var("FUNDB_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            Some(n) if n >= 1 => n,
            _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    })
}

/// A resumable semi-naive fixpoint: owns the low-water marks of one
/// database, so [`IncrementalEval::run`] can be called repeatedly as the
/// caller injects new facts, re-deriving only their consequences.
#[derive(Clone, Debug)]
pub struct IncrementalEval {
    marks: FxHashMap<Pred, usize>,
    /// Slot-reuse epoch each mark was taken under (see
    /// [`Relation::reuse_epoch`](crate::rel::Relation::reuse_epoch)): a
    /// relation whose epoch moved had rows revived below the mark. The
    /// relation's reclaim log (consumed through `reclaim_cursors`) says
    /// exactly which slots, and those rows are re-fed as single-row
    /// delta ranges; only a compaction (which renumbers ids and clears
    /// the log, tracked via `compaction_marks`) still resets the mark
    /// and re-scans the whole relation.
    epochs: FxHashMap<Pred, u64>,
    /// Cursor into each relation's reclaimed-slot log: entries past the
    /// cursor are rows revived below the mark since the last run.
    reclaim_cursors: FxHashMap<Pred, usize>,
    /// Compaction counter each cursor was taken under; a moved value
    /// invalidates the recorded ids and cursor.
    compaction_marks: FxHashMap<Pred, u64>,
    started: bool,
    /// Worker threads per round; `None` defers to [`default_threads`].
    threads: Option<usize>,
    /// Rounds with fewer delta rows than this run sequentially.
    min_parallel_rows: usize,
    /// Budgets, cancellation and fault injection for every run.
    governor: Governor,
    /// Adaptive execution (mid-run re-planning + shared-prefix groups).
    adaptive: bool,
    /// Per-rule plan overrides installed by mid-run re-plans (empty until
    /// the first one); `None` and missing entries fall through to the
    /// `DeltaPlan`'s compiled programs.
    overrides: Vec<Option<CompiledRule>>,
    /// The statistics snapshot the current plans were estimated against
    /// (plan-time stats until the first re-plan, live stats after).
    est_stats: Option<PlanStats>,
    /// Memoized per-delta-row probe estimates keyed `(rule, delta atom)`;
    /// cleared whenever `est_stats` or an override changes.
    est_cache: FxHashMap<(u32, u32), f64>,
    /// Rules whose observed probes drifted outside the estimate band last
    /// round; re-planned (deterministically, coordinator-only) at the next
    /// round boundary.
    drifted: Vec<u32>,
    /// Every re-plan applied so far, in application order.
    replan_log: Vec<ReplanEvent>,
    /// Scratch for the per-round sink hand-off (relations the round
    /// touched, in predicate order) — reused so sink-attached runs don't
    /// allocate per round.
    sink_touched: Vec<Pred>,
}

impl Default for IncrementalEval {
    fn default() -> Self {
        IncrementalEval {
            marks: FxHashMap::default(),
            epochs: FxHashMap::default(),
            reclaim_cursors: FxHashMap::default(),
            compaction_marks: FxHashMap::default(),
            started: false,
            threads: None,
            min_parallel_rows: DEFAULT_MIN_PARALLEL_ROWS,
            governor: Governor::default(),
            adaptive: true,
            overrides: Vec::new(),
            est_stats: None,
            est_cache: FxHashMap::default(),
            drifted: Vec::new(),
            replan_log: Vec::new(),
            sink_touched: Vec::new(),
        }
    }
}

impl IncrementalEval {
    /// A fresh evaluation (first `run` performs the full initial round).
    pub fn new() -> IncrementalEval {
        IncrementalEval::default()
    }

    /// Pins the worker-thread count (1 = always sequential). Builder form.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.set_threads(Some(threads));
        self
    }

    /// Sets the worker-thread count; `None` restores the
    /// [`default_threads`] resolution (`FUNDB_THREADS` / machine cores).
    pub fn set_threads(&mut self, threads: Option<usize>) {
        self.threads = threads.map(|n| n.max(1));
    }

    /// Lowers/raises the sequential-fallback threshold. Builder form;
    /// mostly for tests that want to force the parallel path on tiny data.
    pub fn with_parallel_threshold(mut self, min_rows: usize) -> Self {
        self.min_parallel_rows = min_rows;
        self
    }

    /// The thread count this evaluator will use.
    pub fn effective_threads(&self) -> usize {
        self.threads.unwrap_or_else(default_threads)
    }

    /// Pins the governor that budgets every subsequent run. Builder form.
    pub fn with_governor(mut self, governor: Governor) -> Self {
        self.governor = governor;
        self
    }

    /// Replaces the governor (budget counters carry over *within* a
    /// governor, so handing several evaluators clones of one governor
    /// bounds their combined work).
    pub fn set_governor(&mut self, governor: Governor) {
        self.governor = governor;
    }

    /// The governor in effect (e.g. to clone its cancellation token).
    pub fn governor(&self) -> &Governor {
        &self.governor
    }

    /// Enables/disables adaptive execution (on by default): drift
    /// re-planning from live stats at round boundaries, and shared-prefix
    /// task groups. Adaptivity never re-plans at run start — the plan's
    /// atom orders are the ones its builder chose ([`DeltaPlan::new`] or
    /// [`DeltaPlan::planned`]) until a rule's observed probes drift past
    /// the estimate band. `false` runs the plan exactly as built, with no
    /// grouping. Builder form.
    pub fn with_adaptive(mut self, adaptive: bool) -> Self {
        self.set_adaptive(adaptive);
        self
    }

    /// Setter form of [`IncrementalEval::with_adaptive`].
    pub fn set_adaptive(&mut self, adaptive: bool) {
        self.adaptive = adaptive;
    }

    /// The re-plans applied so far, across every [`IncrementalEval::run`]
    /// call on this evaluator, in application order.
    pub fn replan_history(&self) -> &[ReplanEvent] {
        &self.replan_log
    }

    /// Marks every current row of `db` as already processed: the next
    /// [`IncrementalEval::run`] treats only rows inserted (or revived)
    /// after this call as the delta. [`Database::update_fact`]
    /// (crate::rel::Database::update_fact) uses this to re-derive from
    /// just the replacement fact once retraction has restored the
    /// fixpoint, instead of re-running the initial full round.
    pub fn prime_marks(&mut self, db: &Database) {
        self.started = true;
        for (p, rel) in db.iter() {
            self.marks.insert(p, rel.len());
            self.epochs.insert(p, rel.reuse_epoch());
            self.reclaim_cursors.insert(p, rel.reclaimed_log().len());
            self.compaction_marks.insert(p, rel.compactions());
        }
    }

    /// Runs the fixpoint to saturation and returns this run's counters.
    ///
    /// The first call evaluates every rule over the whole database (and
    /// fires empty-body rules); later calls treat rows inserted since the
    /// previous call as the delta and only re-run the plan positions that
    /// can see them. The caller must pass the same `rules`/`plan` pair on
    /// every call.
    ///
    /// On `Err`, the database holds a deterministic prefix of the fixpoint:
    /// every completed round, plus — for [`Resource::Rows`] only — the
    /// first `max_rows` rows of the tripping round's (sequential,
    /// task-ordered) merge. `partial` describes exactly those committed
    /// rows, so error results are byte-identical at any thread count.
    pub fn run(
        &mut self,
        db: &mut Database,
        rules: &[Rule],
        plan: &DeltaPlan,
    ) -> Result<EvalStats, EvalError> {
        self.run_inner::<NoopSink>(db, rules, plan, None)
    }

    /// [`IncrementalEval::run`] with a [`RoundSink`] observing the commit
    /// sequence: every inserted row (in deterministic merge order) and
    /// every completed-round boundary. The durable storage layer uses this
    /// to write its WAL at exactly the governor's checkpoint boundaries,
    /// so recovery always replays onto a completed-round prefix.
    ///
    /// Error returns never report a round the sink was not told about: a
    /// budget trip, fault, or panic surfaces *before* the tripping round's
    /// marker, and a sink failure surfaces as [`EvalError::WalFailed`]. The
    /// one asymmetry is [`Resource::Rows`](crate::Resource::Rows), whose
    /// deterministic partial merge stays in the in-memory database but is
    /// never handed to the sink (rows reach the sink only when their round
    /// completes) — a recovered store drops exactly that partial tail.
    /// The sink parameter is generic (not `&mut dyn`) so a concrete sink's
    /// per-row callback inlines into the merge loop — the WAL encoder runs
    /// on every derived row, and virtual dispatch there is measurable
    /// against the E17 ≤5% overhead budget. `dyn RoundSink` still works
    /// (`S: ?Sized`).
    pub fn run_with_sink<S: RoundSink + ?Sized>(
        &mut self,
        db: &mut Database,
        rules: &[Rule],
        plan: &DeltaPlan,
        sink: &mut S,
    ) -> Result<EvalStats, EvalError> {
        self.run_inner(db, rules, plan, Some(sink))
    }

    fn run_inner<S: RoundSink + ?Sized>(
        &mut self,
        db: &mut Database,
        rules: &[Rule],
        plan: &DeltaPlan,
        mut sink: Option<&mut S>,
    ) -> Result<EvalStats, EvalError> {
        let threads = self.effective_threads();
        let gov = self.governor.clone();
        let fault = *gov.fault();
        let mut stats = EvalStats::default();
        let mut first = !self.started;
        self.started = true;
        // Slot-reuse check: a public insert that reclaimed a tombstoned
        // slot put a live row *below* the dense high-water mark, where
        // the contiguous mark..len delta cannot see it. The relation logs
        // exactly which slots were reclaimed, so those rows are re-fed as
        // single-row delta ranges in the run's first round (`pending`)
        // instead of rescanning the whole relation — churn (retract +
        // re-insert) stays O(cone), not O(database). Compaction renumbers
        // ids and clears the log, so a moved compaction counter falls
        // back to the conservative mark-to-zero full rescan. Coordinator-
        // only and data-driven, so thread counts cannot influence it.
        let mut pending: FxHashMap<Pred, Vec<u32>> = FxHashMap::default();
        if !first {
            for (p, rel) in db.iter() {
                let epoch = rel.reuse_epoch();
                let compactions = rel.compactions();
                let log_len = rel.reclaimed_log().len();
                let prev_epoch = self.epochs.insert(p, epoch);
                let prev_comp = self.compaction_marks.insert(p, compactions);
                let cursor = self
                    .reclaim_cursors
                    .insert(p, log_len)
                    .unwrap_or(log_len)
                    .min(log_len);
                if prev_comp.is_some_and(|c| c != compactions) {
                    self.marks.insert(p, 0);
                } else if prev_epoch.is_some_and(|e| e != epoch) {
                    let mark = self.marks.get(&p).copied().unwrap_or(0);
                    // Ids at or above the mark are already covered by the
                    // contiguous range; sort + dedup keeps the task list
                    // deterministic even if a slot churned twice.
                    let mut ids: Vec<u32> = rel.reclaimed_log()[cursor..]
                        .iter()
                        .copied()
                        .filter(|&id| (id as usize) < mark)
                        .collect();
                    ids.sort_unstable();
                    ids.dedup();
                    if !ids.is_empty() {
                        pending.insert(p, ids);
                    }
                }
            }
        }
        // One planning path: `plan`'s atom orders are the ones its builder
        // chose and change only on observed drift below. A run never
        // re-plans at start, so a plan shared by many evaluators (the
        // functional engine's per-node contexts) is compiled exactly once.
        // The drift baseline is a plan-time snapshot; the first re-plan
        // replaces it with a live (delta-aware) one.
        if self.adaptive && self.est_stats.is_none() {
            self.est_stats = Some(db.plan_stats());
        }
        // Shared-prefix grouping is disabled under `panic_task` faults: the
        // fault addresses one deterministic task index, and a group would
        // co-execute that task with innocent siblings.
        let grouping = self.adaptive && fault.panic_task.is_none();
        loop {
            // Round boundary: `db` holds exactly the committed rounds and
            // `stats` describes them, so this snapshot is what any early
            // stop below reports as `partial`.
            let committed = stats;
            if let Err(resource) = gov.begin_round() {
                gov.abort_round();
                return Err(EvalError::BudgetExhausted {
                    resource,
                    partial: committed,
                });
            }
            if let Some(limit) = gov.max_bytes() {
                if db.approx_bytes() > limit {
                    gov.abort_round();
                    return Err(EvalError::BudgetExhausted {
                        resource: Resource::Bytes,
                        partial: committed,
                    });
                }
            }
            // Mid-run re-planning. Rules flagged as drifted at the end of
            // the previous round are recompiled against *live* statistics
            // (current cardinalities plus the delta sketches) before this
            // round's tasks are built. Everything here runs on the
            // coordinator from round-boundary state only — worker
            // scheduling can't influence it — so the decisions, and with
            // them row/RowId order, stay byte-identical at any thread
            // count. A re-plan is also a budget checkpoint.
            if self.adaptive && !self.drifted.is_empty() {
                if let Err(resource) = gov.checkpoint() {
                    gov.abort_round();
                    return Err(EvalError::BudgetExhausted {
                        resource,
                        partial: committed,
                    });
                }
                let marks = &self.marks;
                let live = db.plan_stats_live(|p| marks.get(&p).copied().unwrap_or(0));
                for ri in std::mem::take(&mut self.drifted) {
                    let recompiled = CompiledRule::with_stats(&rules[ri as usize], &live);
                    let current = self
                        .overrides
                        .get(ri as usize)
                        .and_then(Option::as_ref)
                        .unwrap_or(&plan.programs[ri as usize]);
                    if let Some((old_order, new_order)) = changed_orders(current, &recompiled) {
                        stats.replans += 1;
                        self.replan_log.push(ReplanEvent {
                            round: stats.rounds + 1,
                            rule: ri as usize,
                            old_order,
                            new_order,
                        });
                        if self.overrides.len() < rules.len() {
                            self.overrides.resize_with(rules.len(), || None);
                        }
                        self.overrides[ri as usize] = Some(recompiled);
                    }
                }
                self.est_stats = Some(live);
                self.est_cache.clear();
            }
            stats.rounds += 1;
            // Composite indexes demanded by the compiled programs must
            // exist before workers share the database immutably; inserts
            // keep them current within and after the round. Overriding
            // plans may demand signatures the base plan never compiled.
            plan.ensure_indexes(db);
            for ov in self.overrides.iter().flatten() {
                let mut extra = Vec::new();
                ov.demands(&mut extra);
                for (p, sig) in extra {
                    db.ensure_composite(p, sig);
                }
            }
            let mut tasks: Vec<Task> = Vec::new();
            // Total delta rows the round will scan, for the parallel/
            // sequential decision (first rounds count whole relations).
            let mut round_rows = 0usize;

            if first {
                for (ri, rule) in rules.iter().enumerate() {
                    tasks.push(Task {
                        rule: ri as u32,
                        delta: None,
                    });
                    round_rows += rule
                        .body
                        .first()
                        .and_then(|a| db.relation(a.pred))
                        .map_or(0, |r| r.len());
                }
            } else {
                // Only the rule positions whose predicate has fresh rows
                // (past the mark, or reclaimed below it).
                let mut work: Vec<(u32, u32)> = Vec::new();
                for (p, rel) in db.iter() {
                    if rel.len() > self.marks.get(&p).copied().unwrap_or(0)
                        || pending.contains_key(&p)
                    {
                        work.extend_from_slice(plan.positions(p));
                    }
                }
                if work.is_empty() {
                    // Nothing to do is itself a completed round: mark it so
                    // a recovered run reports the same `rounds` counter.
                    if let Some(s) = sink.as_mut() {
                        if let Err(detail) = s.round_committed(&stats) {
                            return Err(EvalError::WalFailed { detail });
                        }
                    }
                    return Ok(stats);
                }
                work.sort_unstable();
                work.dedup();
                for (ri, ai) in work {
                    let pred = rules[ri as usize].body[ai as usize].pred;
                    let start = self.marks.get(&pred).copied().unwrap_or(0);
                    let end = db.relation(pred).map_or(start, |r| r.len());
                    // Reclaimed slots below the mark: one single-row range
                    // each, ahead of the contiguous tail, so the task list
                    // (and with it merge order and RowIds) stays
                    // deterministic.
                    if let Some(ids) = pending.get(&pred) {
                        for &id in ids {
                            round_rows += 1;
                            tasks.push(Task {
                                rule: ri,
                                delta: Some(DeltaRange {
                                    atom: ai,
                                    start: id as usize,
                                    end: id as usize + 1,
                                }),
                            });
                        }
                    }
                    if end == start {
                        continue;
                    }
                    round_rows += end - start;
                    // The compiled per-delta program always runs the delta
                    // atom outermost, so splitting the range partitions the
                    // work exactly for *any* body position (under the PR 2
                    // interpreter only a leading delta atom could chunk).
                    if end - start >= 2 * MIN_CHUNK_ROWS {
                        let chunks = (threads * TASKS_PER_THREAD)
                            .min((end - start).div_ceil(MIN_CHUNK_ROWS))
                            .max(1);
                        let size = (end - start).div_ceil(chunks);
                        let mut lo = start;
                        while lo < end {
                            let hi = (lo + size).min(end);
                            tasks.push(Task {
                                rule: ri,
                                delta: Some(DeltaRange {
                                    atom: ai,
                                    start: lo,
                                    end: hi,
                                }),
                            });
                            lo = hi;
                        }
                    } else {
                        tasks.push(Task {
                            rule: ri,
                            delta: Some(DeltaRange {
                                atom: ai,
                                start,
                                end,
                            }),
                        });
                    }
                }
            }

            // Deterministic global task indexes for this round: base +
            // position in `tasks` — independent of which worker actually
            // executes a task, so `panic_task` faults are reproducible.
            let base = gov.reserve_tasks(tasks.len());
            let view = PlanView {
                plan,
                overrides: &self.overrides,
            };
            // Per-rule probe estimates for this round's delta work — the
            // drift detector's expectation. Memoized per (rule, delta atom)
            // until stats or plans change.
            let mut round_est: FxHashMap<u32, f64> = FxHashMap::default();
            if self.adaptive && !first {
                for task in &tasks {
                    if let Some(d) = task.delta {
                        let key = (task.rule, d.atom);
                        let per = match self.est_cache.get(&key) {
                            Some(&cached) => cached,
                            None => {
                                let est_stats = self
                                    .est_stats
                                    .as_ref()
                                    .expect("adaptive run initializes est_stats");
                                let per = view
                                    .program(task.rule, Some(d.atom))
                                    .estimate_probes_per_delta_row(est_stats);
                                self.est_cache.insert(key, per);
                                per
                            }
                        };
                        *round_est.entry(task.rule).or_insert(0.0) +=
                            (d.end - d.start) as f64 * per;
                    }
                }
            }
            let groups = build_groups(&view, &tasks, grouping);
            let parallel =
                threads > 1 && tasks.len() > 1 && round_rows >= self.min_parallel_rows.max(1);
            let round = if parallel {
                run_tasks_parallel(db, &view, &tasks, &groups, threads, base, &gov, &fault)
            } else {
                run_tasks_sequential(db, &view, &tasks, &groups, base, &gov, &fault)
            };
            let results = match round {
                Ok(results) => results,
                // Mid-round failure: the round's buffer is discarded whole,
                // leaving the database at the last completed round — the
                // only truncation point that is identical no matter which
                // worker tripped first.
                Err(abort) => return Err(abort.into_eval_error(committed)),
            };
            let mut buffer = DerivedBuffer::default();
            let mut observed: FxHashMap<u32, usize> = FxHashMap::default();
            for (i, buf, st) in results {
                if self.adaptive && !first {
                    *observed.entry(tasks[i].rule).or_insert(0) += st.join_probes;
                }
                buffer.absorb(buf);
                stats.absorb(st);
            }
            // Drift decision for the next round boundary: observed probes
            // per rule outside the estimate band. Both sides are sums over
            // delta rows (chunking-invariant), so the flagged set is
            // identical at every thread count.
            if self.adaptive {
                self.drifted.clear();
                for (&ri, &est) in &round_est {
                    let obs = observed.get(&ri).copied().unwrap_or(0);
                    if obs >= DRIFT_MIN_PROBES
                        && ((obs as f64) > est * DRIFT_FACTOR || (obs as f64) * DRIFT_FACTOR < est)
                    {
                        self.drifted.push(ri);
                    }
                }
                self.drifted.sort_unstable();
            }

            // Advance marks to the end of the pre-insertion rows, and
            // remember the slot-reuse epoch each mark was taken under.
            // The reclaimed rows were consumed by this round's tasks;
            // later rounds see only the contiguous mark..len delta
            // (derived inserts never reclaim slots).
            for (p, rel) in db.iter() {
                self.marks.insert(p, rel.len());
                self.epochs.insert(p, rel.reuse_epoch());
                self.reclaim_cursors.insert(p, rel.reclaimed_log().len());
                self.compaction_marks.insert(p, rel.compactions());
            }
            pending.clear();

            let changed = merge_derived(db, &buffer, &gov, &mut stats)?;
            // Round boundary: the merge is complete and `stats` describes
            // exactly the committed state, so this is the durable-log
            // checkpoint. The round's inserted rows are handed over as
            // contiguous arena slices, relation by relation in predicate
            // order — rows land in their relations before the sink sees
            // them, and per-relation order is the merge's (sequential,
            // deterministic) insertion order, so the observed sequence is
            // byte-identical at any thread count. A sink failure aborts
            // the run *after* the in-memory commit — the database keeps
            // the round, the log ends at the previous marker.
            if let Some(s) = sink.as_mut() {
                let marks = &self.marks;
                let touched = &mut self.sink_touched;
                touched.clear();
                touched.extend(
                    db.iter()
                        .filter(|&(p, rel)| rel.len() > marks.get(&p).copied().unwrap_or(0))
                        .map(|(p, _)| p),
                );
                touched.sort_unstable();
                for &p in touched.iter() {
                    let rel = db.relation(p).expect("touched relation exists");
                    let from = marks.get(&p).copied().unwrap_or(0);
                    s.rows_committed(p, rel.arity(), rel.len() - from, rel.cells_from(from));
                }
                if let Err(detail) = s.round_committed(&stats) {
                    return Err(EvalError::WalFailed { detail });
                }
            }
            first = false;
            if !changed {
                return Ok(stats);
            }
        }
    }
}

/// Minimum rows per delta chunk — below this the per-task overhead beats
/// the parallelism.
const MIN_CHUNK_ROWS: usize = 512;

/// Chunks per worker thread, for load balancing under the work-stealing
/// cursor (rule firings are skewed: some chunks derive nothing).
const TASKS_PER_THREAD: usize = 4;

/// One unit of round work: a rule, optionally restricted to a range of
/// delta rows at one body atom.
#[derive(Copy, Clone, Debug)]
struct Task {
    rule: u32,
    delta: Option<DeltaRange>,
}

/// Delta restriction of a task: body atom `atom` ranges over dense row
/// indexes `start..end` of its relation.
#[derive(Copy, Clone, Debug)]
struct DeltaRange {
    atom: u32,
    start: usize,
    end: usize,
}

/// Flat buffer of derived head tuples: one `(pred, offset, arity)` entry
/// per firing over a shared constant arena, so a round allocates O(1)
/// buffers instead of one `Box<[Cst]>` per derived row.
#[derive(Debug, Default)]
struct DerivedBuffer {
    heads: Vec<(Pred, u32, u32)>,
    data: Vec<Cst>,
}

impl DerivedBuffer {
    // Invariant (all three `expect`s below): row offsets are stored as
    // `u32` throughout the row-store; an arena outgrowing `u32::MAX` cells
    // cannot be represented, so trap loudly instead of truncating offsets.
    // A byte budget (`Budget::max_bytes`) trips orders of magnitude before
    // this point on any governed run.

    /// Grounds a compiled head template under the register file directly
    /// into the arena.
    fn push_slots(&mut self, pred: Pred, head: &[HeadSlot], regs: &[Cst]) {
        let start = u32::try_from(self.data.len()).expect("derived buffer overflow");
        for s in head {
            self.data.push(match s {
                HeadSlot::Const(c) => *c,
                HeadSlot::Reg(r) => regs[*r as usize],
                HeadSlot::Unbound => panic!("unsafe rule: head variable unbound"),
            });
        }
        self.heads.push((pred, start, head.len() as u32));
    }

    /// Grounds `rule`'s head under `subst` directly into the arena (the
    /// interpreted oracle's emit path).
    fn push_head(&mut self, rule: &Rule, subst: &FxHashMap<Var, Cst>) {
        let start = u32::try_from(self.data.len()).expect("derived buffer overflow");
        for t in &rule.head.args {
            self.data.push(match t {
                Term::Const(c) => *c,
                Term::Var(v) => *subst.get(v).expect("unsafe rule: head variable unbound"),
            });
        }
        self.heads
            .push((rule.head.pred, start, rule.head.args.len() as u32));
    }

    /// Appends another buffer's rows after this one's (the deterministic
    /// task-order merge).
    fn absorb(&mut self, other: DerivedBuffer) {
        let shift = u32::try_from(self.data.len()).expect("derived buffer overflow");
        self.data.extend_from_slice(&other.data);
        self.heads
            .extend(other.heads.iter().map(|&(p, s, a)| (p, s + shift, a)));
    }

    /// Derived rows in firing order, as maximal runs of one predicate
    /// `(pred, arity, rows)`, so a merge looks each run's relation up once
    /// rather than once per row.
    fn runs(&self) -> impl Iterator<Item = (Pred, usize, impl Iterator<Item = &[Cst]>)> {
        self.heads.chunk_by(|x, y| x.0 == y.0).map(|run| {
            let rows = run
                .iter()
                .map(|&(_, s, a)| &self.data[s as usize..(s + a) as usize]);
            (run[0].0, run[0].2 as usize, rows)
        })
    }
}

/// Inserts a round's derived rows into `db` in firing order (the
/// deterministic task-order merge), counting `derived`; returns whether
/// anything was new. A row budget stops the merge right after the row that
/// exhausts it: the merge is sequential and in task order, so the cut is a
/// deterministic prefix of the unbudgeted insertion sequence at any thread
/// count.
fn merge_derived(
    db: &mut Database,
    buffer: &DerivedBuffer,
    gov: &Governor,
    stats: &mut EvalStats,
) -> Result<bool, EvalError> {
    let mut changed = false;
    for (p, arity, rows) in buffer.runs() {
        let rel = db.relation_mut(p, arity);
        for t in rows {
            if rel.insert_derived(t) {
                changed = true;
                stats.derived += 1;
                if !gov.note_row() {
                    return Err(EvalError::BudgetExhausted {
                        resource: Resource::Rows,
                        partial: *stats,
                    });
                }
            }
        }
    }
    Ok(changed)
}

/// Why a round stopped before all of its tasks completed. The round's
/// buffer is discarded in either case; `into_eval_error` attaches the
/// last-committed stats snapshot for resource trips.
enum RoundAbort {
    Resource(Resource),
    Panic { task: usize, payload: String },
}

impl RoundAbort {
    fn into_eval_error(self, committed: EvalStats) -> EvalError {
        match self {
            RoundAbort::Resource(resource) => EvalError::BudgetExhausted {
                resource,
                partial: committed,
            },
            RoundAbort::Panic { task, payload } => EvalError::WorkerPanicked { task, payload },
        }
    }
}

/// Best-effort string form of a `catch_unwind` payload.
fn panic_payload(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Trips the `panic_task` fault when `index` (the deterministic global
/// task index) matches. Inert in production: the plan's field is `None`.
fn inject_task_fault(fault: &FaultPlan, index: usize) {
    if fault.panic_task == Some(index) {
        panic!("injected fault: panic_task:{index}");
    }
}

/// Minimum observed probes before a rule can be flagged as drifted —
/// below this the round's absolute cost is noise and a re-plan would be
/// pure overhead.
const DRIFT_MIN_PROBES: usize = 256;

/// Estimate/observation tolerance: observed probes outside
/// `[estimate / DRIFT_FACTOR, estimate * DRIFT_FACTOR]` flag the rule for
/// re-planning at the next round boundary.
const DRIFT_FACTOR: f64 = 4.0;

/// The first atom-order difference between two compiles of one rule, as
/// `(old, new)` body-position orders (full program first, then per-delta
/// programs); `None` when every program agrees — in which case a re-plan
/// would be a no-op and is not installed.
fn changed_orders(old: &CompiledRule, new: &CompiledRule) -> Option<(Vec<usize>, Vec<usize>)> {
    let (o, n) = (old.full.atom_order(), new.full.atom_order());
    if o != n {
        return Some((o, n));
    }
    for (op, np) in old.per_delta.iter().zip(&new.per_delta) {
        let (o, n) = (op.atom_order(), np.atom_order());
        if o != n {
            return Some((o, n));
        }
    }
    None
}

/// A [`DeltaPlan`] seen through the adaptive evaluator's per-rule
/// overrides: rules re-planned mid-run resolve to their recompiled
/// programs, everything else falls through to the base plan.
#[derive(Clone, Copy)]
struct PlanView<'a> {
    plan: &'a DeltaPlan,
    overrides: &'a [Option<CompiledRule>],
}

impl PlanView<'_> {
    /// The compiled program a task runs (see [`DeltaPlan::program`]).
    fn program(&self, rule: u32, delta_atom: Option<u32>) -> &JoinProgram {
        if let Some(Some(cr)) = self.overrides.get(rule as usize) {
            return match delta_atom {
                None => &cr.full,
                Some(ai) => &cr.per_delta[ai as usize],
            };
        }
        self.plan.program(rule, delta_atom)
    }
}

/// Tasks co-executed over one evaluation of a shared compiled prefix.
/// `members` index into the round's task list, ascending; the first member
/// owns the prefix (its probes and the group's `shared_prefix_hits` land in
/// its stats, keeping per-task attribution additive over delta rows and
/// therefore thread-count-invariant). Singleton groups run the plain
/// per-task path; `shared_len` is 0 for them.
struct TaskGroup {
    members: Vec<u32>,
    shared_len: usize,
}

/// Greedily groups tasks that scan the *same* delta range (or are all
/// full-relation tasks) through structurally identical leading ops. Group
/// composition is a pure function of the round's task list and the
/// installed programs — never of worker scheduling — and chunk boundaries
/// are identical for every position over one predicate's range, so the
/// per-delta-row fan-out (and with it rows and stats) is identical at any
/// thread count. `grouping == false` yields all-singleton groups (the
/// planned-once execution shape).
fn build_groups(view: &PlanView<'_>, tasks: &[Task], grouping: bool) -> Vec<TaskGroup> {
    if !grouping {
        return (0..tasks.len() as u32)
            .map(|i| TaskGroup {
                members: vec![i],
                shared_len: 0,
            })
            .collect();
    }
    let mut grouped = vec![false; tasks.len()];
    let mut groups = Vec::new();
    for i in 0..tasks.len() {
        if grouped[i] {
            continue;
        }
        grouped[i] = true;
        let ti = tasks[i];
        let pi = view.program(ti.rule, ti.delta.map(|d| d.atom));
        let key = ti.delta.map(|d| (d.start, d.end));
        let mut members = vec![i as u32];
        let mut shared = usize::MAX;
        for (j, tj) in tasks.iter().enumerate().skip(i + 1) {
            if grouped[j] || tj.delta.map(|d| (d.start, d.end)) != key {
                continue;
            }
            let pj = view.program(tj.rule, tj.delta.map(|d| d.atom));
            let l = pi.shared_prefix_len(pj);
            if l >= 1 {
                grouped[j] = true;
                members.push(j as u32);
                shared = shared.min(l);
            }
        }
        let shared_len = if members.len() == 1 { 0 } else { shared };
        groups.push(TaskGroup {
            members,
            shared_len,
        });
    }
    groups
}

/// Runs one task sequentially into `out`: executes the task's compiled
/// program over a freshly-zeroed register file.
fn run_task(
    db: &Database,
    view: &PlanView<'_>,
    task: Task,
    guard: &ProbeGuard<'_>,
    out: &mut DerivedBuffer,
    stats: &mut EvalStats,
) -> Result<(), Resource> {
    let prog = view.program(task.rule, task.delta.map(|d| d.atom));
    let mut regs = register_file(prog);
    let range = task.delta.map(|d| (d.start, d.end));
    let pred = prog.head_pred();
    prog.execute(db, range, &mut regs, guard, stats, &mut |head, regs| {
        out.push_slots(pred, head, regs);
    })
}

/// Executes one task group, returning `(task index, buffer, stats)` per
/// member. Singleton groups run [`run_task`]; larger groups evaluate the
/// shared prefix once through the first member's program and resume every
/// member's continuation per surviving binding — each member's buffer
/// receives exactly the rows its solo task would have produced, in the
/// same order, so the task-order merge is unchanged. Panic/fault isolation
/// matches the per-task path (`task` in the abort is the member whose
/// continuation — or, between continuations, whose prefix — was running).
fn run_group(
    db: &Database,
    view: &PlanView<'_>,
    tasks: &[Task],
    group: &TaskGroup,
    base: usize,
    guard: &ProbeGuard<'_>,
    fault: &FaultPlan,
) -> Result<Vec<(usize, DerivedBuffer, EvalStats)>, RoundAbort> {
    if group.members.len() == 1 {
        let ti = group.members[0] as usize;
        let index = base + ti;
        let mut buf = DerivedBuffer::default();
        let mut st = EvalStats::default();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            inject_task_fault(fault, index);
            run_task(db, view, tasks[ti], guard, &mut buf, &mut st)
        }));
        return match outcome {
            Ok(Ok(())) => Ok(vec![(ti, buf, st)]),
            Ok(Err(resource)) => Err(RoundAbort::Resource(resource)),
            Err(payload) => Err(RoundAbort::Panic {
                task: index,
                payload: panic_payload(payload),
            }),
        };
    }
    let progs: Vec<&JoinProgram> = group
        .members
        .iter()
        .map(|&ti| {
            let t = tasks[ti as usize];
            view.program(t.rule, t.delta.map(|d| d.atom))
        })
        .collect();
    let nregs = progs.iter().map(|p| p.register_count()).max().unwrap_or(0);
    let mut regs = register_file_sized(nregs);
    let mut bufs: Vec<DerivedBuffer> = (0..progs.len()).map(|_| DerivedBuffer::default()).collect();
    let mut stats: Vec<EvalStats> = vec![EvalStats::default(); progs.len()];
    let mut prefix_stats = EvalStats::default();
    // Which member's continuation is running, for panic attribution.
    let active = Cell::new(0usize);
    let range = tasks[group.members[0] as usize]
        .delta
        .map(|d| (d.start, d.end));
    let limit = group.shared_len;
    debug_assert!(progs.iter().all(|p| p.op_len() >= limit));
    let outcome = {
        let progs = &progs;
        let bufs = &mut bufs;
        let stats = &mut stats;
        let active = &active;
        catch_unwind(AssertUnwindSafe(|| {
            for &ti in &group.members {
                inject_task_fault(fault, base + ti as usize);
            }
            progs[0].execute_prefix(
                db,
                limit,
                range,
                &mut regs,
                guard,
                &mut prefix_stats,
                &mut |regs| {
                    // One prefix evaluation serves every member: the other
                    // `members - 1` evaluations are the cache hits.
                    stats[0].shared_prefix_hits += progs.len() - 1;
                    for (m, prog) in progs.iter().enumerate() {
                        active.set(m);
                        let pred = prog.head_pred();
                        let buf = &mut bufs[m];
                        prog.execute_from(
                            db,
                            limit,
                            regs,
                            guard,
                            &mut stats[m],
                            &mut |head, r| {
                                buf.push_slots(pred, head, r);
                            },
                        )?;
                    }
                    active.set(0);
                    Ok(())
                },
            )
        }))
    };
    match outcome {
        Ok(Ok(())) => {
            // The prefix's own probes belong to the member that owns it.
            stats[0].absorb(prefix_stats);
            Ok(group
                .members
                .iter()
                .zip(bufs.into_iter().zip(stats))
                .map(|(&ti, (buf, st))| (ti as usize, buf, st))
                .collect())
        }
        Ok(Err(resource)) => Err(RoundAbort::Resource(resource)),
        Err(payload) => Err(RoundAbort::Panic {
            task: base + group.members[active.get()] as usize,
            payload: panic_payload(payload),
        }),
    }
}

/// Executes the round's groups in order on the calling thread, with the
/// same panic isolation as the parallel path (a poisoned task must not
/// abort the process on single-core machines either). Returns the
/// per-task results sorted by task index.
#[allow(clippy::too_many_arguments)]
fn run_tasks_sequential(
    db: &Database,
    view: &PlanView<'_>,
    tasks: &[Task],
    groups: &[TaskGroup],
    base: usize,
    gov: &Governor,
    fault: &FaultPlan,
) -> Result<Vec<(usize, DerivedBuffer, EvalStats)>, RoundAbort> {
    let guard = gov.probe_guard(None);
    let mut results = Vec::with_capacity(tasks.len());
    for group in groups {
        results.extend(run_group(db, view, tasks, group, base, &guard, fault)?);
    }
    results.sort_unstable_by_key(|&(i, _, _)| i);
    Ok(results)
}

/// Executes the round's groups on `threads` scoped workers. A shared
/// atomic cursor hands out groups; each worker keeps `(task index, buffer,
/// stats)` triples, and the caller consumes them in ascending task index,
/// making the output indistinguishable from running the tasks in order on
/// one thread.
///
/// Failure handling: each group body runs under `catch_unwind` (inside
/// [`run_group`]); the first failure sets a round-local abort flag
/// (checked by siblings at group hand-out and inside probe checks) and is
/// recorded by smallest task index, panics outranking resource trips, so
/// the reported error does not depend on worker scheduling.
#[allow(clippy::too_many_arguments)]
fn run_tasks_parallel(
    db: &Database,
    view: &PlanView<'_>,
    tasks: &[Task],
    groups: &[TaskGroup],
    threads: usize,
    base: usize,
    gov: &Governor,
    fault: &FaultPlan,
) -> Result<Vec<(usize, DerivedBuffer, EvalStats)>, RoundAbort> {
    let workers = threads.min(groups.len());
    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let failure: Mutex<Option<(usize, RoundAbort)>> = Mutex::new(None);
    let record = |index: usize, ab: RoundAbort| {
        let mut slot = failure.lock().unwrap_or_else(|e| e.into_inner());
        let replace = match (&*slot, &ab) {
            (None, _) => true,
            (Some((_, RoundAbort::Resource(_))), RoundAbort::Panic { .. }) => true,
            (Some((_, RoundAbort::Panic { .. })), RoundAbort::Resource(_)) => false,
            (Some((at, _)), _) => index < *at,
        };
        if replace {
            *slot = Some((index, ab));
        }
        // Release-ordered so a sibling that observes the flag is
        // guaranteed a recorded failure once the scope joins.
        abort.store(true, Ordering::Release);
    };
    let mut results: Vec<(usize, DerivedBuffer, EvalStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let guard = gov.probe_guard(Some(&abort));
                    let mut done: Vec<(usize, DerivedBuffer, EvalStats)> = Vec::new();
                    loop {
                        if abort.load(Ordering::Acquire) {
                            return done;
                        }
                        let g = cursor.fetch_add(1, Ordering::Relaxed);
                        if g >= groups.len() {
                            return done;
                        }
                        let group = &groups[g];
                        match run_group(db, view, tasks, group, base, &guard, fault) {
                            Ok(rs) => done.extend(rs),
                            Err(ab) => {
                                let (index, poisoned) = match &ab {
                                    RoundAbort::Panic { task, .. } => (*task, false),
                                    // A `Cancelled` trip with the token
                                    // still clear came from the round's
                                    // abort flag: some sibling already
                                    // recorded the real failure, so don't
                                    // relabel it.
                                    RoundAbort::Resource(resource) => (
                                        base + group.members[0] as usize,
                                        *resource == Resource::Cancelled
                                            && !gov.is_cancelled()
                                            && abort.load(Ordering::Acquire),
                                    ),
                                };
                                if !poisoned {
                                    record(index, ab);
                                }
                                return done;
                            }
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(done) => done,
                // Unreachable in practice — the group body is fully wrapped
                // in `catch_unwind` — but a defect here must poison the
                // round, not abort the process.
                Err(payload) => {
                    record(
                        usize::MAX,
                        RoundAbort::Panic {
                            task: base,
                            payload: panic_payload(payload),
                        },
                    );
                    Vec::new()
                }
            })
            .collect()
    });
    if let Some((_, ab)) = failure.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return Err(ab);
    }
    results.sort_unstable_by_key(|&(i, _, _)| i);
    Ok(results)
}

/// Evaluates `rules` over `db` to the least fixpoint, semi-naively.
pub fn evaluate(db: &mut Database, rules: &[Rule]) -> Result<EvalStats, EvalError> {
    evaluate_governed(db, rules, &Governor::default())
}

/// [`evaluate`] under an explicit governor (budgets/cancellation/faults).
pub fn evaluate_governed(
    db: &mut Database,
    rules: &[Rule],
    governor: &Governor,
) -> Result<EvalStats, EvalError> {
    // One-shot entry point: the initial facts are already loaded, so plan
    // against their statistics (cold relations fall back to greedy).
    let plan = DeltaPlan::planned(rules, db);
    IncrementalEval::new()
        .with_governor(governor.clone())
        .run(db, rules, &plan)
}

/// Evaluates `rules` naively (full re-derivation each round). Same fixpoint
/// as [`evaluate`]; used as an oracle and the textbook baseline. Always
/// sequential, but runs the same compiled programs as the semi-naive path.
pub fn evaluate_naive(db: &mut Database, rules: &[Rule]) -> Result<EvalStats, EvalError> {
    evaluate_naive_governed(db, rules, &Governor::default())
}

/// [`evaluate_naive`] under an explicit governor. Same round-boundary and
/// merge-loop checks as the semi-naive path (the oracle must stay honest
/// about budgets too, or differential tests of truncated runs diverge).
pub fn evaluate_naive_governed(
    db: &mut Database,
    rules: &[Rule],
    governor: &Governor,
) -> Result<EvalStats, EvalError> {
    let plan = DeltaPlan::planned(rules, db);
    let fault = *governor.fault();
    let mut stats = EvalStats::default();
    loop {
        let committed = stats;
        if let Err(resource) = governor.begin_round() {
            governor.abort_round();
            return Err(EvalError::BudgetExhausted {
                resource,
                partial: committed,
            });
        }
        if let Some(limit) = governor.max_bytes() {
            if db.approx_bytes() > limit {
                governor.abort_round();
                return Err(EvalError::BudgetExhausted {
                    resource: Resource::Bytes,
                    partial: committed,
                });
            }
        }
        stats.rounds += 1;
        plan.ensure_indexes(db);
        let tasks: Vec<Task> = (0..rules.len())
            .map(|ri| Task {
                rule: ri as u32,
                delta: None,
            })
            .collect();
        let base = governor.reserve_tasks(tasks.len());
        // The naive oracle stays ungrouped and non-adaptive: it is the
        // textbook baseline the adaptive path is differentially tested
        // against.
        let view = PlanView {
            plan: &plan,
            overrides: &[],
        };
        let groups = build_groups(&view, &tasks, false);
        let results = match run_tasks_sequential(db, &view, &tasks, &groups, base, governor, &fault)
        {
            Ok(results) => results,
            Err(abort) => return Err(abort.into_eval_error(committed)),
        };
        let mut buffer = DerivedBuffer::default();
        for (_, buf, st) in results {
            buffer.absorb(buf);
            stats.absorb(st);
        }
        let changed = merge_derived(db, &buffer, governor, &mut stats)?;
        if !changed {
            return Ok(stats);
        }
    }
}

/// Evaluates the conjunctive query `body` over `db` and returns the distinct
/// bindings of `out_vars`, in derivation order.
///
/// The body is compiled to a [`JoinProgram`] in its *written* atom order
/// (derivation order is part of the contract, so no reordering here); the
/// database is borrowed immutably, so multi-column probes that lack a
/// pre-built composite index fall back to the most selective single-column
/// bucket and count as `index_misses`.
pub fn query(db: &Database, body: &[Atom], out_vars: &[Var]) -> Result<Vec<Vec<Cst>>, EvalError> {
    query_governed(db, body, out_vars, &Governor::default())
}

/// [`query`] under an explicit governor: the join is interruptible at the
/// usual probe granularity, and a panic during execution (e.g. an output
/// variable unbound by the body) surfaces as [`EvalError::WorkerPanicked`]
/// instead of unwinding through the caller.
pub fn query_governed(
    db: &Database,
    body: &[Atom],
    out_vars: &[Var],
    governor: &Governor,
) -> Result<Vec<Vec<Cst>>, EvalError> {
    let mut stats = EvalStats::default();
    query_collect(db, body, out_vars, governor, &mut stats)
}

/// The shared executor behind [`query_governed`] and the goal-directed
/// [`query_demand_governed`]: runs the compiled body and *accumulates* probe
/// counters into `stats` instead of discarding them.
fn query_collect(
    db: &Database,
    body: &[Atom],
    out_vars: &[Var],
    governor: &Governor,
    stats: &mut EvalStats,
) -> Result<Vec<Vec<Cst>>, EvalError> {
    // Pose the query as a rule whose head projects the output variables;
    // the head predicate is never inserted anywhere, so a placeholder works.
    let pseudo = Rule::new(
        Atom::new(
            Pred(fundb_term::Sym::PLACEHOLDER),
            out_vars.iter().map(|&v| Term::Var(v)).collect(),
        ),
        body.to_vec(),
    );
    let order: Vec<usize> = (0..body.len()).collect();
    let prog = JoinProgram::compile_ordered(&pseudo, &order);
    let mut regs = register_file(&prog);
    let mut out: Vec<Vec<Cst>> = Vec::new();
    // Dedup without a second copy of each row: hash buckets of indexes
    // into `out`, confirmed against the stored row (same scheme as the
    // relation dedup table).
    let mut seen: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
    let task = governor.reserve_tasks(1);
    let guard = governor.probe_guard(None);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        prog.execute(
            db,
            None,
            &mut regs,
            &guard,
            &mut *stats,
            &mut |head, regs| {
                let row: Vec<Cst> = head
                    .iter()
                    .map(|s| match s {
                        HeadSlot::Const(c) => *c,
                        HeadSlot::Reg(r) => regs[*r as usize],
                        HeadSlot::Unbound => panic!("query output variable unbound by body"),
                    })
                    .collect();
                let bucket = seen.entry(hash_row(&row)).or_default();
                if !bucket.iter().any(|&i| out[i as usize] == row) {
                    bucket.push(out.len() as u32);
                    out.push(row);
                }
            },
        )
    }));
    match outcome {
        Ok(Ok(())) => Ok(out),
        Ok(Err(resource)) => Err(EvalError::BudgetExhausted {
            resource,
            partial: *stats,
        }),
        Err(payload) => Err(EvalError::WorkerPanicked {
            task,
            payload: panic_payload(payload),
        }),
    }
}

/// The answer of a goal-directed query: the distinct output rows, the
/// evaluation counters (overlay fixpoint plus final join, including
/// `magic_rules` / `demanded_tuples`), and whether the magic rewrite
/// actually applied or the engine fell back to full materialization.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DemandAnswer {
    /// Distinct bindings of the output variables, in derivation order.
    pub rows: Vec<Vec<Cst>>,
    /// Counters for the whole answer: overlay evaluation + answer join.
    pub stats: EvalStats,
    /// `true` when the magic rewrite applied; `false` on the degenerate
    /// fallbacks (all-free goal, EDB-only goal, over-wide atoms).
    pub goal_directed: bool,
    /// Mid-run re-plans the overlay fixpoint applied, in order (empty when
    /// nothing drifted, or on the direct-join fallback).
    pub replan_events: Vec<ReplanEvent>,
}

/// Goal-directed conjunctive query over `db` given the IDB `rules`: rewrites
/// the program by [`crate::magic::magic_rewrite`] for the goal's binding
/// pattern, evaluates the rewritten program into a scratch *overlay* database
/// (the base `db` is never mutated — it stays a plain shared borrow), and
/// joins the transformed body over the overlay. Answers equal
/// `evaluate(db.clone(), rules)` followed by [`query`] — the differential
/// fuzz harness pins that — but only the goal-reachable cone is derived.
///
/// The overlay shares `db`'s relations copy-on-write (see [`Database`]): it
/// reads them in place and copies one only if the rewritten program
/// writes it, so over a stored fixpoint a goal costs its demand cone, not
/// O(store).
///
/// Degenerate goals fall back transparently: an all-free goal materializes
/// the full fixpoint into the overlay (a clone of `db`, which copies only
/// the relations the fixpoint grows); a goal over EDB (or missing)
/// predicates only is answered by a direct join against `db`.
pub fn query_demand(
    db: &Database,
    rules: &[Rule],
    body: &[Atom],
    out_vars: &[Var],
) -> Result<DemandAnswer, EvalError> {
    query_demand_governed(db, rules, body, out_vars, &Governor::default())
}

/// [`query_demand`] under an explicit governor: the overlay fixpoint and the
/// answer join observe the same budgets, cancellation, and fault plan as
/// [`evaluate_governed`].
pub fn query_demand_governed(
    db: &Database,
    rules: &[Rule],
    body: &[Atom],
    out_vars: &[Var],
    governor: &Governor,
) -> Result<DemandAnswer, EvalError> {
    query_demand_tuned(db, rules, body, out_vars, governor, None, None)
}

/// [`query_demand_governed`] with the overlay evaluator's thread count and
/// parallel threshold pinned, for determinism tests and benchmarks.
#[doc(hidden)]
pub fn query_demand_tuned(
    db: &Database,
    rules: &[Rule],
    body: &[Atom],
    out_vars: &[Var],
    governor: &Governor,
    threads: Option<usize>,
    min_parallel_rows: Option<usize>,
) -> Result<DemandAnswer, EvalError> {
    let overlay_eval = |scratch: &mut Database,
                        rules: &[Rule]|
     -> Result<(EvalStats, Vec<ReplanEvent>), EvalError> {
        let plan = DeltaPlan::planned(rules, scratch);
        let mut eval = IncrementalEval::new().with_governor(governor.clone());
        if let Some(t) = threads {
            eval = eval.with_threads(t);
        }
        if let Some(m) = min_parallel_rows {
            eval = eval.with_parallel_threshold(m);
        }
        let run_stats = eval.run(scratch, rules, &plan)?;
        Ok((run_stats, eval.replan_log))
    };
    let mut stats = EvalStats::default();
    if let Some(mp) = crate::magic::magic_rewrite(rules, body) {
        let mut scratch = demand_overlay(db, &mp);
        stats.magic_rules = mp.magic_rule_count;
        let (run_stats, replan_events) = overlay_eval(&mut scratch, &mp.rules)?;
        stats.absorb(run_stats);
        stats.demanded_tuples = mp
            .magic_preds()
            .iter()
            .map(|&p| scratch.relation(p).map_or(0, crate::rel::Relation::len))
            .sum();
        let rows = query_collect(&scratch, &mp.query_body, out_vars, governor, &mut stats)?;
        Ok(DemandAnswer {
            rows,
            stats,
            goal_directed: true,
            replan_events,
        })
    } else {
        let idb: fundb_term::FxHashSet<Pred> = rules.iter().map(|r| r.head.pred).collect();
        if body.iter().any(|a| idb.contains(&a.pred)) {
            // All-free (or over-wide) goal over IDB predicates: the full
            // fixpoint is genuinely needed. Materialize it into an overlay
            // so the contract (base never mutated) still holds.
            let mut scratch = db.clone();
            let (run_stats, replan_events) = overlay_eval(&mut scratch, rules)?;
            stats.absorb(run_stats);
            let rows = query_collect(&scratch, body, out_vars, governor, &mut stats)?;
            Ok(DemandAnswer {
                rows,
                stats,
                goal_directed: false,
                replan_events,
            })
        } else {
            // EDB-only (or missing-predicate) goal: the base facts are
            // already complete for every body atom; join directly.
            let rows = query_collect(db, body, out_vars, governor, &mut stats)?;
            Ok(DemandAnswer {
                rows,
                stats,
                goal_directed: false,
                replan_events: Vec::new(),
            })
        }
    }
}

/// The overlay a magic rewrite `mp` of a goal over `db` is evaluated in:
/// exactly the base relations the rewritten program references, shared
/// with `db` rather than copied, plus the ground magic seeds from the
/// goal's constants. A rewritten rule that writes a base predicate (a
/// verbatim copy demanded unadorned) copies that one relation on its
/// first insert, so `db` is never mutated.
fn demand_overlay(db: &Database, mp: &crate::magic::MagicProgram) -> Database {
    let mut scratch = Database::new();
    for p in mp.base_preds() {
        scratch.share_relation(db, p);
    }
    for (p, row) in &mp.seeds {
        scratch.insert(*p, row);
    }
    scratch
}

#[cfg(test)]
fn query_rec(
    db: &Database,
    body: &[Atom],
    idx: usize,
    subst: &mut FxHashMap<Var, Cst>,
    emit: &mut dyn FnMut(&FxHashMap<Var, Cst>),
) {
    if idx == body.len() {
        emit(subst);
        return;
    }
    let atom = &body[idx];
    let Some(rel) = db.relation(atom.pred) else {
        return;
    };
    // The pattern is a snapshot of the current bindings, so the selection
    // can borrow it while `subst` is rebound below.
    let pattern: Vec<Option<Cst>> = atom
        .args
        .iter()
        .map(|t| match t {
            Term::Const(c) => Some(*c),
            Term::Var(v) => subst.get(v).copied(),
        })
        .collect();
    for row in rel.select(&pattern) {
        let mut bound = Vec::new();
        let mut ok = true;
        for (t, v) in atom.args.iter().zip(row.iter()) {
            if let Term::Var(var) = t {
                match subst.get(var) {
                    Some(&existing) => {
                        if existing != *v {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        subst.insert(*var, *v);
                        bound.push(*var);
                    }
                }
            }
        }
        if ok {
            query_rec(db, body, idx + 1, subst, emit);
        }
        for var in bound {
            subst.remove(&var);
        }
    }
}

/// Recursive join over the rule body; when the task carries a delta range,
/// that atom ranges only over the given chunk of fresh rows.
///
/// This is the PR 1/2 interpreter, retained as the differential-testing
/// oracle for the compiled [`JoinProgram`] path: it visits atoms in
/// written order, binds variables through a hash map, and selects through
/// [`crate::rel::Relation::select`] patterns.
#[allow(clippy::too_many_arguments)]
fn join_rec(
    db: &Database,
    rule: &Rule,
    idx: usize,
    delta: Option<DeltaRange>,
    subst: &mut FxHashMap<Var, Cst>,
    out: &mut DerivedBuffer,
    stats: &mut EvalStats,
) {
    if idx == rule.body.len() {
        out.push_head(rule, subst);
        return;
    }
    let atom = &rule.body[idx];
    let Some(rel) = db.relation(atom.pred) else {
        return;
    };
    // Delta atoms scan their (short) chunk of the fresh suffix; other atoms
    // go through the indexed selection with the bindings established so far.
    let delta_here = delta.filter(|d| d.atom as usize == idx);
    let pattern: Vec<Option<Cst>>;
    let rows: SelectOrRange<'_, '_> = match delta_here {
        Some(d) => SelectOrRange::Range(rel.rows_range(d.start, d.end)),
        None => {
            pattern = atom
                .args
                .iter()
                .map(|t| match t {
                    Term::Const(c) => Some(*c),
                    Term::Var(v) => subst.get(v).copied(),
                })
                .collect();
            if pattern.iter().any(Option::is_some) {
                stats.index_hits += 1;
            }
            SelectOrRange::Select(rel.select(&pattern))
        }
    };
    for row in rows {
        stats.join_probes += 1;
        let mut bound = smallvec_like();
        let mut ok = true;
        for (t, v) in atom.args.iter().zip(row.iter()) {
            match t {
                Term::Const(c) => {
                    if c != v {
                        ok = false;
                        break;
                    }
                }
                Term::Var(var) => match subst.get(var) {
                    Some(&existing) => {
                        if existing != *v {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        subst.insert(*var, *v);
                        bound.push(*var);
                    }
                },
            }
        }
        if ok {
            join_rec(db, rule, idx + 1, delta, subst, out, stats);
        }
        for var in bound {
            subst.remove(&var);
        }
    }
}

/// Either a delta-range scan or an indexed selection, as one iterator type.
enum SelectOrRange<'a, 'p> {
    Range(crate::rel::Rows<'a>),
    Select(crate::rel::Select<'a, 'p>),
}

impl<'a> Iterator for SelectOrRange<'a, '_> {
    type Item = &'a [Cst];

    #[inline]
    fn next(&mut self) -> Option<&'a [Cst]> {
        match self {
            SelectOrRange::Range(r) => r.next(),
            SelectOrRange::Select(s) => s.next(),
        }
    }
}

/// Tiny inline buffer for per-atom freshly-bound variables (atoms rarely
/// bind more than a handful).
fn smallvec_like() -> Vec<Var> {
    Vec::with_capacity(4)
}

/// The interpreted naive fixpoint: identical contract to
/// [`evaluate_naive`], but runs [`join_rec`] — the PR 1/2 interpreter —
/// instead of compiled programs. Differential-testing oracle only; exposed
/// (hidden) so the cross-crate fuzz harness can anchor its agreement
/// lattice on the oldest, simplest evaluator in the tree.
#[doc(hidden)]
pub fn evaluate_naive_interpreted(db: &mut Database, rules: &[Rule]) -> EvalStats {
    let mut stats = EvalStats::default();
    loop {
        stats.rounds += 1;
        let mut buffer = DerivedBuffer::default();
        for rule in rules {
            let mut subst = FxHashMap::default();
            join_rec(db, rule, 0, None, &mut subst, &mut buffer, &mut stats);
        }
        let mut changed = false;
        for (p, arity, rows) in buffer.runs() {
            let rel = db.relation_mut(p, arity);
            for t in rows {
                if rel.insert_derived(t) {
                    changed = true;
                    stats.derived += 1;
                }
            }
        }
        if !changed {
            return stats;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fundb_term::{Interner, Pred};

    struct Fixture {
        i: Interner,
        edge: Pred,
        path: Pred,
        x: Var,
        y: Var,
        z: Var,
    }

    fn fixture() -> Fixture {
        let mut i = Interner::new();
        let edge = Pred(i.intern("Edge"));
        let path = Pred(i.intern("Path"));
        let x = Var(i.intern("x"));
        let y = Var(i.intern("y"));
        let z = Var(i.intern("z"));
        Fixture {
            i,
            edge,
            path,
            x,
            y,
            z,
        }
    }

    fn transitive_closure_rules(fx: &Fixture) -> Vec<Rule> {
        vec![
            // Edge(x,y) → Path(x,y)
            Rule::new(
                Atom::new(fx.path, vec![Term::Var(fx.x), Term::Var(fx.y)]),
                vec![Atom::new(fx.edge, vec![Term::Var(fx.x), Term::Var(fx.y)])],
            ),
            // Path(x,y), Edge(y,z) → Path(x,z)
            Rule::new(
                Atom::new(fx.path, vec![Term::Var(fx.x), Term::Var(fx.z)]),
                vec![
                    Atom::new(fx.path, vec![Term::Var(fx.x), Term::Var(fx.y)]),
                    Atom::new(fx.edge, vec![Term::Var(fx.y), Term::Var(fx.z)]),
                ],
            ),
        ]
    }

    fn chain_db(fx: &mut Fixture, n: usize) -> Database {
        let mut db = Database::new();
        let nodes: Vec<Cst> = (0..=n)
            .map(|k| Cst(fx.i.intern(&format!("v{k}"))))
            .collect();
        for w in nodes.windows(2) {
            db.insert(fx.edge, &[w[0], w[1]]);
        }
        db
    }

    #[test]
    fn transitive_closure_of_a_chain() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let mut db = chain_db(&mut fx, 10);
        evaluate(&mut db, &rules).unwrap();
        // Path has n*(n+1)/2 pairs for a chain of n edges.
        assert_eq!(db.relation(fx.path).unwrap().len(), 10 * 11 / 2);
    }

    #[test]
    fn semi_naive_matches_naive() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let mut db1 = chain_db(&mut fx, 8);
        let mut db2 = db1.clone();
        evaluate(&mut db1, &rules).unwrap();
        evaluate_naive(&mut db2, &rules).unwrap();
        assert_eq!(db1.dump(&fx.i), db2.dump(&fx.i));
    }

    #[test]
    fn stale_stats_change_plans_not_answers() {
        // Stats drift: a plan compiled from an *old* snapshot (here: a
        // 2-edge chain) keeps answering correctly after the database has
        // grown past anything the estimates describe. Only probe counts may
        // differ from a fresh plan — never the fixpoint.
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let mut db = chain_db(&mut fx, 2);
        let stale_plan = DeltaPlan::planned(&rules, &db);
        // Grow the database 20x after the snapshot was taken.
        for k in 2..40 {
            let a = Cst(fx.i.intern(&format!("v{k}")));
            let b = Cst(fx.i.intern(&format!("v{}", k + 1)));
            db.insert(fx.edge, &[a, b]);
        }
        let mut stale_db = db.clone();
        let mut fresh_db = db.clone();
        let mut greedy_db = db;
        IncrementalEval::new()
            .run(&mut stale_db, &rules, &stale_plan)
            .unwrap();
        let fresh_plan = DeltaPlan::planned(&rules, &fresh_db);
        IncrementalEval::new()
            .run(&mut fresh_db, &rules, &fresh_plan)
            .unwrap();
        evaluate_naive(&mut greedy_db, &rules).unwrap();
        assert_eq!(stale_db.dump(&fx.i), fresh_db.dump(&fx.i));
        assert_eq!(stale_db.dump(&fx.i), greedy_db.dump(&fx.i));
    }

    /// A planned plan runs byte-identically at every thread count, and its
    /// atom orders are final: with delta rounds big enough for the drift
    /// detector to look (≥ `DRIFT_MIN_PROBES` per rule), an adaptive run
    /// logs no re-plan — nothing re-plans at run start.
    #[test]
    fn planned_plan_is_deterministic_across_thread_counts() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let base = chain_db(&mut fx, 2 * DRIFT_MIN_PROBES);
        let plan = DeltaPlan::planned(&rules, &base);
        let mut reference: Option<(Vec<String>, EvalStats)> = None;
        for threads in [1usize, 2, 4, 8] {
            let mut db = base.clone();
            let mut eval = IncrementalEval::new()
                .with_threads(threads)
                .with_parallel_threshold(1);
            let stats = eval.run(&mut db, &rules, &plan).unwrap();
            assert_eq!(stats.replans, 0, "threads={threads} re-planned");
            assert_eq!(eval.replan_history(), &[]);
            let dump = db.dump(&fx.i);
            match &reference {
                None => reference = Some((dump, stats)),
                Some((d, s)) => {
                    assert_eq!(&dump, d, "threads={threads} changed rows");
                    assert_eq!(&stats, s, "threads={threads} changed stats");
                }
            }
        }
    }

    #[test]
    fn semi_naive_derives_each_fact_once_on_chain() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let mut db = chain_db(&mut fx, 12);
        let stats = evaluate(&mut db, &rules).unwrap();
        assert_eq!(stats.derived, 12 * 13 / 2);
    }

    #[test]
    fn facts_as_empty_body_rules_fire_once() {
        let mut fx = fixture();
        let a = Cst(fx.i.intern("a"));
        let rules = vec![Rule::new(
            Atom::new(fx.edge, vec![Term::Const(a), Term::Const(a)]),
            vec![],
        )];
        let mut db = Database::new();
        let stats = evaluate(&mut db, &rules).unwrap();
        assert_eq!(stats.derived, 1);
        assert!(db.contains(fx.edge, &[a, a]));
    }

    #[test]
    fn query_binds_and_dedups() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let mut db = chain_db(&mut fx, 4);
        evaluate(&mut db, &rules).unwrap();
        let v0 = Cst(fx.i.intern("v0"));
        // {y : Path(v0, y)}
        let body = vec![Atom::new(fx.path, vec![Term::Const(v0), Term::Var(fx.y)])];
        let rows = query(&db, &body, &[fx.y]).unwrap();
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn query_joins_shared_variables() {
        let mut fx = fixture();
        let mut db = chain_db(&mut fx, 3);
        evaluate(&mut db, &transitive_closure_rules(&fx)).unwrap();
        // {x : Edge(x,y), Edge(y,z)} — x with an outgoing 2-step path.
        let body = vec![
            Atom::new(fx.edge, vec![Term::Var(fx.x), Term::Var(fx.y)]),
            Atom::new(fx.edge, vec![Term::Var(fx.y), Term::Var(fx.z)]),
        ];
        let rows = query(&db, &body, &[fx.x]).unwrap();
        assert_eq!(rows.len(), 2); // v0 and v1
    }

    #[test]
    fn query_on_missing_predicate_is_empty() {
        let fx = fixture();
        let db = Database::new();
        let body = vec![Atom::new(fx.edge, vec![Term::Var(fx.x), Term::Var(fx.y)])];
        assert!(query(&db, &body, &[fx.x]).unwrap().is_empty());
    }

    #[test]
    fn resume_derives_only_consequences_of_new_facts() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        let mut db = chain_db(&mut fx, 10);
        let mut eval = IncrementalEval::new();
        let first = eval.run(&mut db, &rules, &plan).unwrap();
        assert_eq!(first.derived, 10 * 11 / 2);

        // Resuming a saturated database is a no-op.
        let idle = eval.run(&mut db, &rules, &plan).unwrap();
        assert_eq!(idle.derived, 0);
        assert_eq!(idle.join_probes, 0);

        // Extend the chain by one edge: v10 → v11.
        let v10 = Cst(fx.i.intern("v10"));
        let v11 = Cst(fx.i.intern("v11"));
        db.insert(fx.edge, &[v10, v11]);
        let resumed = eval.run(&mut db, &rules, &plan).unwrap();
        // Exactly the 11 new paths ending at v11, nothing re-derived.
        assert_eq!(resumed.derived, 11);
        assert_eq!(db.relation(fx.path).unwrap().len(), 11 * 12 / 2);

        // The resumed result matches a from-scratch evaluation.
        let mut fresh = chain_db(&mut fx, 11);
        evaluate(&mut fresh, &rules).unwrap();
        assert_eq!(db.dump(&fx.i), fresh.dump(&fx.i));
    }

    #[test]
    fn delta_plan_maps_predicates_to_positions() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        // Edge appears in rule 0 position 0 and rule 1 position 1.
        assert_eq!(plan.positions(fx.edge), &[(0, 0), (1, 1)]);
        // Path appears only in rule 1 position 0.
        assert_eq!(plan.positions(fx.path), &[(1, 0)]);
        // Unknown predicates have no positions.
        let ghost = Pred(fx.i.intern("Ghost"));
        assert!(plan.positions(ghost).is_empty());
    }

    #[test]
    fn probe_and_index_counters_move() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let mut db = chain_db(&mut fx, 6);
        let stats = evaluate(&mut db, &rules).unwrap();
        assert!(stats.join_probes > 0);
        // The recursive rule joins Edge on a bound column every round.
        assert!(stats.index_hits > 0);
    }

    #[test]
    fn empty_body_rules_do_not_refire_on_resume() {
        let mut fx = fixture();
        let a = Cst(fx.i.intern("a"));
        let rules = vec![Rule::new(
            Atom::new(fx.edge, vec![Term::Const(a), Term::Const(a)]),
            vec![],
        )];
        let plan = DeltaPlan::new(&rules);
        let mut db = Database::new();
        let mut eval = IncrementalEval::new();
        assert_eq!(eval.run(&mut db, &rules, &plan).unwrap().derived, 1);
        assert_eq!(eval.run(&mut db, &rules, &plan).unwrap().derived, 0);
    }

    #[test]
    fn cyclic_graph_terminates() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let mut db = Database::new();
        let nodes: Vec<Cst> = (0..5).map(|k| Cst(fx.i.intern(&format!("c{k}")))).collect();
        for k in 0..5 {
            db.insert(fx.edge, &[nodes[k], nodes[(k + 1) % 5]]);
        }
        evaluate(&mut db, &rules).unwrap();
        assert_eq!(db.relation(fx.path).unwrap().len(), 25);
    }

    /// Runs TC on a chain with an explicit thread count and a threshold of
    /// 1 (every round eligible for the parallel path), returning the row
    /// order of `Path` and the stats.
    fn run_parallel_tc(fx: &mut Fixture, n: usize, threads: usize) -> (Vec<Vec<Cst>>, EvalStats) {
        let rules = transitive_closure_rules(fx);
        let plan = DeltaPlan::new(&rules);
        let mut db = chain_db(fx, n);
        let mut eval = IncrementalEval::new()
            .with_threads(threads)
            .with_parallel_threshold(1);
        let stats = eval.run(&mut db, &rules, &plan).unwrap();
        let rows = db
            .relation(fx.path)
            .unwrap()
            .rows()
            .map(<[Cst]>::to_vec)
            .collect();
        (rows, stats)
    }

    #[test]
    fn parallel_rounds_are_byte_identical_to_sequential() {
        let mut fx = fixture();
        let (seq_rows, seq_stats) = run_parallel_tc(&mut fx, 40, 1);
        for threads in [2, 4, 8] {
            let (rows, stats) = run_parallel_tc(&mut fx, 40, threads);
            assert_eq!(rows, seq_rows, "row order diverged at {threads} threads");
            assert_eq!(stats, seq_stats, "stats diverged at {threads} threads");
        }
    }

    #[test]
    fn chunked_delta_ranges_partition_exactly() {
        // A chain long enough that delta rounds exceed 2 * MIN_CHUNK_ROWS
        // and the leading Path atom of the recursive rule gets chunked.
        let mut fx = fixture();
        let (seq_rows, seq_stats) = run_parallel_tc(&mut fx, 2 * MIN_CHUNK_ROWS + 70, 1);
        let (par_rows, par_stats) = run_parallel_tc(&mut fx, 2 * MIN_CHUNK_ROWS + 70, 4);
        assert_eq!(par_rows, seq_rows);
        assert_eq!(par_stats, seq_stats);
    }

    #[test]
    fn small_rounds_fall_back_to_sequential() {
        // Default threshold: a 10-edge chain never reaches it, so the run
        // must behave exactly like threads = 1 (this is implicit — the
        // assertion is that results and stats still match).
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        let mut db = chain_db(&mut fx, 10);
        let stats = IncrementalEval::new()
            .with_threads(8)
            .run(&mut db, &rules, &plan)
            .unwrap();
        assert_eq!(stats.derived, 10 * 11 / 2);
    }

    /// Right-recursive transitive closure: the recursive atom sits at body
    /// position 1, so the interpreter had to scan Edge fully per round
    /// while the compiled per-delta program hoists the delta outermost.
    fn tc_right_rules(fx: &Fixture) -> Vec<Rule> {
        vec![
            Rule::new(
                Atom::new(fx.path, vec![Term::Var(fx.x), Term::Var(fx.y)]),
                vec![Atom::new(fx.edge, vec![Term::Var(fx.x), Term::Var(fx.y)])],
            ),
            // Path(x,z) ← Edge(x,y), Path(y,z): delta Path is non-leading.
            Rule::new(
                Atom::new(fx.path, vec![Term::Var(fx.x), Term::Var(fx.z)]),
                vec![
                    Atom::new(fx.edge, vec![Term::Var(fx.x), Term::Var(fx.y)]),
                    Atom::new(fx.path, vec![Term::Var(fx.y), Term::Var(fx.z)]),
                ],
            ),
        ]
    }

    #[test]
    fn right_recursion_matches_left_recursion() {
        let mut fx = fixture();
        let mut left = chain_db(&mut fx, 12);
        let mut right = left.clone();
        evaluate(&mut left, &transitive_closure_rules(&fx)).unwrap();
        let stats = evaluate(&mut right, &tc_right_rules(&fx)).unwrap();
        assert_eq!(left.dump(&fx.i), right.dump(&fx.i));
        // The delta-first reorder keeps the non-leading recursion linear:
        // well under two probes per derived row plus the seeding scans.
        assert!(
            stats.join_probes <= 4 * stats.derived + 2 * 12,
            "non-leading delta still scans: {} probes for {} rows",
            stats.join_probes,
            stats.derived
        );
    }

    #[test]
    fn chunked_non_leading_delta_is_thread_invariant() {
        // Long enough that delta rounds at body position 1 get chunked —
        // illegal under the PR 2 interpreter, exact under compiled
        // programs because the delta atom runs outermost.
        let mut fx = fixture();
        let rules = tc_right_rules(&fx);
        let n = 2 * MIN_CHUNK_ROWS + 70;
        let run = |fx: &mut Fixture, threads: usize| {
            let plan = DeltaPlan::new(&rules);
            let mut db = chain_db(fx, n);
            let mut eval = IncrementalEval::new()
                .with_threads(threads)
                .with_parallel_threshold(1);
            let stats = eval.run(&mut db, &rules, &plan).unwrap();
            let rows: Vec<Vec<Cst>> = db
                .relation(fx.path)
                .unwrap()
                .rows()
                .map(<[Cst]>::to_vec)
                .collect();
            (rows, stats)
        };
        let (seq_rows, seq_stats) = run(&mut fx, 1);
        for threads in [2, 4, 8] {
            let (rows, stats) = run(&mut fx, threads);
            assert_eq!(rows, seq_rows, "row order diverged at {threads} threads");
            assert_eq!(stats, seq_stats, "stats diverged at {threads} threads");
        }
    }

    #[test]
    fn compiled_query_matches_interpreted_query() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let mut db = chain_db(&mut fx, 6);
        evaluate(&mut db, &rules).unwrap();
        let v0 = Cst(fx.i.intern("v0"));
        let bodies = vec![
            vec![Atom::new(fx.path, vec![Term::Const(v0), Term::Var(fx.y)])],
            vec![
                Atom::new(fx.edge, vec![Term::Var(fx.x), Term::Var(fx.y)]),
                Atom::new(fx.path, vec![Term::Var(fx.y), Term::Var(fx.z)]),
            ],
            vec![
                Atom::new(fx.path, vec![Term::Var(fx.x), Term::Var(fx.y)]),
                Atom::new(fx.path, vec![Term::Var(fx.y), Term::Var(fx.x)]),
            ],
        ];
        for body in bodies {
            let out_vars: Vec<Var> = [fx.x, fx.y]
                .into_iter()
                .filter(|v| body.iter().flat_map(Atom::vars).any(|w| w == *v))
                .collect();
            // Interpreted reference: same traversal order as the compiled
            // program (written body order), so rows must match exactly.
            let mut expect: Vec<Vec<Cst>> = Vec::new();
            let mut seen: fundb_term::FxHashSet<Vec<Cst>> = fundb_term::FxHashSet::default();
            let mut subst = FxHashMap::default();
            query_rec(&db, &body, 0, &mut subst, &mut |s| {
                let row: Vec<Cst> = out_vars.iter().map(|v| s[v]).collect();
                if seen.insert(row.clone()) {
                    expect.push(row);
                }
            });
            assert_eq!(query(&db, &body, &out_vars).unwrap(), expect);
        }
    }

    /// Splitmix-style deterministic generator for the differential test.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Differential property: across random rule sets and databases, the
    /// compiled fixpoint (greedy-reordered, register-based, composite-
    /// indexed) derives exactly the answer set of the interpreted oracle,
    /// and the semi-naive and naive compiled paths agree with both.
    #[test]
    fn compiled_fixpoint_matches_interpreted_oracle_on_random_programs() {
        let mut i = Interner::new();
        let preds: Vec<Pred> = (0..4).map(|k| Pred(i.intern(&format!("P{k}")))).collect();
        let arity = [2usize, 1, 2, 2];
        let vars: Vec<Var> = (0..4).map(|k| Var(i.intern(&format!("x{k}")))).collect();
        let csts: Vec<Cst> = (0..6).map(|k| Cst(i.intern(&format!("c{k}")))).collect();
        for seed in 0..60u64 {
            let mut rng = Rng(seed.wrapping_mul(0x5851_F42D_4C95_7F2D) + 1);
            let mut rules = Vec::new();
            for _ in 0..(2 + rng.below(4)) {
                let nbody = 1 + rng.below(3);
                let body: Vec<Atom> = (0..nbody)
                    .map(|_| {
                        let p = rng.below(preds.len());
                        let args = (0..arity[p])
                            .map(|_| {
                                if rng.below(4) == 0 {
                                    Term::Const(csts[rng.below(csts.len())])
                                } else {
                                    Term::Var(vars[rng.below(vars.len())])
                                }
                            })
                            .collect();
                        Atom::new(preds[p], args)
                    })
                    .collect();
                // Head over body variables only (range-restricted), with
                // the occasional constant.
                let body_vars: Vec<Var> = body.iter().flat_map(Atom::vars).collect();
                let hp = rng.below(preds.len());
                let head_args = (0..arity[hp])
                    .map(|_| {
                        if body_vars.is_empty() || rng.below(5) == 0 {
                            Term::Const(csts[rng.below(csts.len())])
                        } else {
                            Term::Var(body_vars[rng.below(body_vars.len())])
                        }
                    })
                    .collect();
                rules.push(Rule::new(Atom::new(preds[hp], head_args), body));
            }
            let mut db = Database::new();
            for _ in 0..(3 + rng.below(10)) {
                let p = rng.below(preds.len());
                let row: Vec<Cst> = (0..arity[p]).map(|_| csts[rng.below(csts.len())]).collect();
                db.insert(preds[p], &row);
            }

            let mut oracle_db = db.clone();
            let mut naive_db = db.clone();
            evaluate_naive_interpreted(&mut oracle_db, &rules);
            evaluate_naive(&mut naive_db, &rules).unwrap();
            evaluate(&mut db, &rules).unwrap();
            let expect = oracle_db.dump(&i);
            assert_eq!(naive_db.dump(&i), expect, "naive diverged at seed {seed}");
            assert_eq!(db.dump(&i), expect, "semi-naive diverged at seed {seed}");
        }
    }

    #[test]
    fn honest_index_counters() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let mut db = chain_db(&mut fx, 6);
        let stats = evaluate(&mut db, &rules).unwrap();
        // Every Edge probe of the recursive rule has exactly one bound
        // column — fully covered by the per-column index.
        assert!(stats.index_hits > 0);
        assert_eq!(stats.index_misses, 0);

        // A two-column bound probe against an immutable database cannot
        // build the composite index: query() reports the partial cover.
        let v0 = Cst(fx.i.intern("v0"));
        let v3 = Cst(fx.i.intern("v3"));
        let body = vec![
            Atom::new(fx.path, vec![Term::Var(fx.x), Term::Var(fx.y)]),
            Atom::new(fx.path, vec![Term::Var(fx.x), Term::Var(fx.y)]),
        ];
        let rows = query(&db, &body, &[fx.x, fx.y]).unwrap();
        assert_eq!(rows.len(), 6 * 7 / 2);
        assert!(db.contains(fx.path, &[v0, v3]));
    }

    #[test]
    fn thread_knobs_resolve() {
        let e = IncrementalEval::new().with_threads(3);
        assert_eq!(e.effective_threads(), 3);
        let mut e = IncrementalEval::new();
        e.set_threads(Some(0)); // clamped to 1
        assert_eq!(e.effective_threads(), 1);
        e.set_threads(None);
        assert!(e.effective_threads() >= 1);
    }

    use crate::governor::{Budget, FaultPlan, Governor, Resource};

    /// Path rows in insertion order, for prefix/byte-identity assertions.
    fn path_rows(db: &Database, fx: &Fixture) -> Vec<Vec<Cst>> {
        db.relation(fx.path)
            .map(|r| r.rows().map(<[Cst]>::to_vec).collect())
            .unwrap_or_default()
    }

    #[test]
    fn row_budget_truncates_to_identical_prefix_at_all_thread_counts() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let n = 40;
        let mut full = chain_db(&mut fx, n);
        evaluate(&mut full, &rules).unwrap();
        let full_rows = path_rows(&full, &fx);

        let cap = 30;
        let mut reference: Option<Vec<Vec<Cst>>> = None;
        for threads in [1, 2, 4, 8] {
            let plan = DeltaPlan::new(&rules);
            let mut db = chain_db(&mut fx, n);
            let gov = Governor::new(Budget::default().with_max_rows(cap))
                .with_faults(FaultPlan::default());
            let err = IncrementalEval::new()
                .with_threads(threads)
                .with_parallel_threshold(1)
                .with_governor(gov)
                .run(&mut db, &rules, &plan)
                .unwrap_err();
            let EvalError::BudgetExhausted { resource, partial } = err else {
                panic!("expected BudgetExhausted, got {err:?}");
            };
            assert_eq!(resource, Resource::Rows);
            assert_eq!(partial.derived, cap);
            let rows = path_rows(&db, &fx);
            assert_eq!(rows.len(), cap);
            assert_eq!(rows[..], full_rows[..cap], "not a prefix of the fixpoint");
            match &reference {
                None => reference = Some(rows),
                Some(r) => assert_eq!(&rows, r, "diverged at {threads} threads"),
            }
        }
    }

    #[test]
    fn round_budget_stops_at_a_round_boundary() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        let mut db = chain_db(&mut fx, 8);
        let gov =
            Governor::new(Budget::default().with_max_rounds(2)).with_faults(FaultPlan::default());
        let err = IncrementalEval::new()
            .with_governor(gov)
            .run(&mut db, &rules, &plan)
            .unwrap_err();
        let EvalError::BudgetExhausted { resource, partial } = err else {
            panic!("expected BudgetExhausted, got {err:?}");
        };
        assert_eq!(resource, Resource::Rounds);
        assert_eq!(partial.rounds, 2);
        // Round 1 copies the 8 edges, round 2 adds the 7 length-2 paths.
        assert_eq!(partial.derived, 8 + 7);
        assert_eq!(db.relation(fx.path).unwrap().len(), 8 + 7);
    }

    #[test]
    fn byte_budget_trips_before_any_derivation() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        let mut db = chain_db(&mut fx, 8);
        let gov =
            Governor::new(Budget::default().with_max_bytes(1)).with_faults(FaultPlan::default());
        let err = IncrementalEval::new()
            .with_governor(gov)
            .run(&mut db, &rules, &plan)
            .unwrap_err();
        let EvalError::BudgetExhausted { resource, partial } = err else {
            panic!("expected BudgetExhausted, got {err:?}");
        };
        assert_eq!(resource, Resource::Bytes);
        assert_eq!(partial, EvalStats::default());
        assert!(db.relation(fx.path).is_none(), "no round may have run");
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_round() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        let mut db = chain_db(&mut fx, 8);
        let gov = Governor::new(Budget::unlimited()).with_faults(FaultPlan::default());
        gov.cancel();
        let err = IncrementalEval::new()
            .with_governor(gov)
            .run(&mut db, &rules, &plan)
            .unwrap_err();
        assert!(matches!(
            err,
            EvalError::BudgetExhausted {
                resource: Resource::Cancelled,
                ..
            }
        ));
        assert!(db.relation(fx.path).is_none());
    }

    #[test]
    fn panic_task_fault_leaves_last_completed_round_sequential() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        let mut db = chain_db(&mut fx, 8);
        // Round 1 runs tasks 0 and 1 (one per rule); round 2 re-runs only
        // the Path position of the recursive rule as global task 2.
        let gov = Governor::new(Budget::unlimited()).with_faults(FaultPlan {
            panic_task: Some(2),
            ..FaultPlan::default()
        });
        let err = IncrementalEval::new()
            .with_threads(1)
            .with_governor(gov)
            .run(&mut db, &rules, &plan)
            .unwrap_err();
        let EvalError::WorkerPanicked { task, payload } = err else {
            panic!("expected WorkerPanicked, got {err:?}");
        };
        assert_eq!(task, 2);
        assert!(payload.contains("panic_task:2"), "payload: {payload}");
        // Round 2's buffer was discarded whole: only round 1's edge copies.
        assert_eq!(db.relation(fx.path).unwrap().len(), 8);
    }

    #[test]
    fn panic_task_fault_in_parallel_round_poisons_round_not_process() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        let mut db = chain_db(&mut fx, 8);
        // Task 1 is in round 1, which runs parallel under threshold 1.
        let gov = Governor::new(Budget::unlimited()).with_faults(FaultPlan {
            panic_task: Some(1),
            ..FaultPlan::default()
        });
        let err = IncrementalEval::new()
            .with_threads(4)
            .with_parallel_threshold(1)
            .with_governor(gov)
            .run(&mut db, &rules, &plan)
            .unwrap_err();
        let EvalError::WorkerPanicked { task, .. } = err else {
            panic!("expected WorkerPanicked, got {err:?}");
        };
        assert_eq!(task, 1);
        assert!(db.relation(fx.path).is_none(), "round 1 was discarded");
    }

    #[test]
    fn fail_round_fault_exhausts_at_its_boundary() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        let mut db = chain_db(&mut fx, 8);
        let gov = Governor::new(Budget::unlimited()).with_faults(FaultPlan {
            fail_round: Some(2),
            ..FaultPlan::default()
        });
        let err = IncrementalEval::new()
            .with_governor(gov)
            .run(&mut db, &rules, &plan)
            .unwrap_err();
        let EvalError::BudgetExhausted { resource, partial } = err else {
            panic!("expected BudgetExhausted, got {err:?}");
        };
        assert_eq!(resource, Resource::Fault);
        assert_eq!(partial.rounds, 1);
        assert_eq!(db.relation(fx.path).unwrap().len(), 8);
    }

    #[test]
    fn deadline_with_slow_probe_interrupts_mid_round() {
        let mut fx = fixture();
        let rules = tc_right_rules(&fx);
        let plan = DeltaPlan::new(&rules);
        let mut db = chain_db(&mut fx, 256);
        // Every probe-level check sleeps 2ms against a 1ms budget, so the
        // deadline trips at the first check no matter the machine.
        let gov = Governor::new(Budget::default().with_max_millis(1)).with_faults(FaultPlan {
            slow_probe: Some(2000),
            ..FaultPlan::default()
        });
        let err = IncrementalEval::new()
            .with_governor(gov)
            .run(&mut db, &rules, &plan)
            .unwrap_err();
        let EvalError::BudgetExhausted { resource, .. } = err else {
            panic!("expected BudgetExhausted, got {err:?}");
        };
        assert_eq!(resource, Resource::Time);
    }

    #[test]
    fn governed_naive_oracle_honors_row_budget() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let mut db = chain_db(&mut fx, 12);
        let gov =
            Governor::new(Budget::default().with_max_rows(5)).with_faults(FaultPlan::default());
        let err = evaluate_naive_governed(&mut db, &rules, &gov).unwrap_err();
        let EvalError::BudgetExhausted { resource, partial } = err else {
            panic!("expected BudgetExhausted, got {err:?}");
        };
        assert_eq!(resource, Resource::Rows);
        assert_eq!(partial.derived, 5);
        assert_eq!(db.relation(fx.path).unwrap().len(), 5);
    }

    #[test]
    fn unbound_query_output_is_an_error_not_a_panic() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let mut db = chain_db(&mut fx, 4);
        evaluate(&mut db, &rules).unwrap();
        let w = Var(fx.i.intern("w"));
        let body = vec![Atom::new(fx.path, vec![Term::Var(fx.x), Term::Var(fx.y)])];
        let err = query(&db, &body, &[w]).unwrap_err();
        assert!(matches!(err, EvalError::WorkerPanicked { .. }));
    }

    /// Full-materialization reference for the demand tests: evaluate the
    /// fixpoint on a clone, run the plain query, return sorted rows.
    fn materialized_answers(
        db: &Database,
        rules: &[Rule],
        body: &[Atom],
        out_vars: &[Var],
    ) -> Vec<Vec<Cst>> {
        let mut full = db.clone();
        evaluate(&mut full, rules).unwrap();
        let mut rows = query(&full, body, out_vars).unwrap();
        rows.sort_unstable();
        rows
    }

    fn sorted(mut rows: Vec<Vec<Cst>>) -> Vec<Vec<Cst>> {
        rows.sort_unstable();
        rows
    }

    #[test]
    fn demand_matches_materialization_on_bound_goals() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let db = chain_db(&mut fx, 16);
        let v0 = Cst(fx.i.get("v0").unwrap());
        let v9 = Cst(fx.i.get("v9").unwrap());
        let bodies = vec![
            // Ground point goal.
            vec![Atom::new(fx.path, vec![Term::Const(v0), Term::Const(v9)])],
            // First argument bound.
            vec![Atom::new(fx.path, vec![Term::Const(v0), Term::Var(fx.y)])],
            // Second argument bound.
            vec![Atom::new(fx.path, vec![Term::Var(fx.x), Term::Const(v9)])],
            // Join-bound IDB atom, no constants.
            vec![
                Atom::new(fx.edge, vec![Term::Var(fx.x), Term::Var(fx.y)]),
                Atom::new(fx.path, vec![Term::Var(fx.y), Term::Var(fx.z)]),
            ],
        ];
        for body in bodies {
            let out_vars: Vec<Var> = {
                let mut vs: Vec<Var> = body.iter().flat_map(Atom::vars).collect();
                vs.sort_unstable();
                vs.dedup();
                vs
            };
            let ans = query_demand(&db, &rules, &body, &out_vars).unwrap();
            assert!(ans.goal_directed);
            assert!(ans.stats.magic_rules > 0);
            assert!(ans.stats.demanded_tuples > 0);
            assert_eq!(
                sorted(ans.rows),
                materialized_answers(&db, &rules, &body, &out_vars)
            );
        }
    }

    #[test]
    fn demand_derives_less_than_materialization_on_point_goals() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let db = chain_db(&mut fx, 64);
        let v0 = Cst(fx.i.get("v0").unwrap());
        let body = vec![Atom::new(fx.path, vec![Term::Const(v0), Term::Var(fx.y)])];
        let ans = query_demand(&db, &rules, &body, &[fx.y]).unwrap();
        assert_eq!(ans.rows.len(), 64);
        // Only the cone from v0 is derived: O(n) tuples, not O(n²).
        let mut full = db.clone();
        let full_stats = evaluate(&mut full, &rules).unwrap();
        assert!(
            ans.stats.derived < full_stats.derived / 4,
            "demand derived {} vs full {}",
            ans.stats.derived,
            full_stats.derived
        );
    }

    #[test]
    fn demand_does_not_mutate_the_base_database() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let db = chain_db(&mut fx, 8);
        let before = db.dump(&fx.i);
        let v0 = Cst(fx.i.get("v0").unwrap());
        let body = vec![Atom::new(fx.path, vec![Term::Const(v0), Term::Var(fx.y)])];
        query_demand(&db, &rules, &body, &[fx.y]).unwrap();
        assert_eq!(db.dump(&fx.i), before);
        assert!(db.relation(fx.path).is_none());
    }

    /// The overlay of a materialized store reads the store's relations in
    /// place: evaluating tc goals clones no base relation and leaves the
    /// base byte-identical, and a rewrite that writes a base predicate
    /// copies only that relation.
    #[test]
    fn demand_overlay_shares_the_store_copy_on_write() {
        let mut fx = fixture();
        let mut rules = transitive_closure_rules(&fx);
        let mut db = chain_db(&mut fx, 16);
        evaluate(&mut db, &rules).unwrap();
        let before = db.dump(&fx.i);
        let v0 = Cst(fx.i.get("v0").unwrap());
        let v9 = Cst(fx.i.get("v9").unwrap());
        // The overlay evaluated as `query_demand` evaluates it.
        let overlay = |db: &Database, rules: &[Rule], body: &[Atom]| {
            let mp = crate::magic::magic_rewrite(rules, body).expect("goal-directed");
            let mut scratch = demand_overlay(db, &mp);
            let plan = DeltaPlan::planned(&mp.rules, &scratch);
            IncrementalEval::new()
                .run(&mut scratch, &mp.rules, &plan)
                .unwrap();
            scratch
        };
        let bound_free = [Atom::new(fx.path, vec![Term::Const(v0), Term::Var(fx.y)])];
        let bound_bound = [Atom::new(fx.path, vec![Term::Const(v0), Term::Const(v9)])];
        for body in [&bound_free[..], &bound_bound[..]] {
            let scratch = overlay(&db, &rules, body);
            assert!(scratch.shares_relation(&db, fx.edge), "Edge was copied");
            assert!(scratch.shares_relation(&db, fx.path), "Path was copied");
            let out: Vec<Var> = body.iter().flat_map(Atom::vars).collect();
            let ans = query_demand(&db, &rules, body, &out).unwrap();
            assert_eq!(sorted(ans.rows), sorted(query(&db, body, &out).unwrap()));
        }
        assert_eq!(db.dump(&fx.i), before);

        // Path(y, z), Edge(z, x) → Q(x): under the goal Q(v9) the Path atom
        // has no bound argument, so Path's rules are copied verbatim into
        // the rewrite and write the base predicate Path.
        let q = Pred(fx.i.intern("Q"));
        rules.push(Rule::new(
            Atom::new(q, vec![Term::Var(fx.x)]),
            vec![
                Atom::new(fx.path, vec![Term::Var(fx.y), Term::Var(fx.z)]),
                Atom::new(fx.edge, vec![Term::Var(fx.z), Term::Var(fx.x)]),
            ],
        ));
        evaluate(&mut db, &rules).unwrap();
        let before = db.dump(&fx.i);
        let goal = [Atom::new(q, vec![Term::Const(v9)])];
        let mp = crate::magic::magic_rewrite(&rules, &goal).expect("goal-directed");
        assert!(mp.rules.iter().any(|r| r.head.pred == fx.path));
        let scratch = overlay(&db, &rules, &goal);
        assert!(scratch.shares_relation(&db, fx.edge), "Edge was copied");
        assert!(scratch.shares_relation(&db, q), "Q was copied");
        assert!(
            !scratch.shares_relation(&db, fx.path),
            "Path was written in place"
        );
        let ans = query_demand(&db, &rules, &goal, &[]).unwrap();
        assert_eq!(ans.rows, vec![Vec::<Cst>::new()]);
        assert_eq!(db.dump(&fx.i), before);
    }

    #[test]
    fn all_free_goal_falls_back_to_full_materialization() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let db = chain_db(&mut fx, 8);
        let body = vec![Atom::new(fx.path, vec![Term::Var(fx.x), Term::Var(fx.y)])];
        let ans = query_demand(&db, &rules, &body, &[fx.x, fx.y]).unwrap();
        assert!(!ans.goal_directed);
        assert_eq!(ans.stats.magic_rules, 0);
        assert_eq!(
            sorted(ans.rows),
            materialized_answers(&db, &rules, &body, &[fx.x, fx.y])
        );
        // The fallback also leaves the base database untouched.
        assert!(db.relation(fx.path).is_none());
    }

    #[test]
    fn missing_predicate_goal_answers_empty() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let db = chain_db(&mut fx, 4);
        let ghost = Pred(fx.i.intern("Ghost"));
        let ans = query_demand(
            &db,
            &rules,
            &[Atom::new(ghost, vec![Term::Var(fx.x)])],
            &[fx.x],
        )
        .unwrap();
        assert!(!ans.goal_directed);
        assert!(ans.rows.is_empty());
    }

    #[test]
    fn edb_only_ground_goal_is_answered_without_evaluation() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let db = chain_db(&mut fx, 4);
        let v0 = Cst(fx.i.get("v0").unwrap());
        let v1 = Cst(fx.i.get("v1").unwrap());
        let ans = query_demand(
            &db,
            &rules,
            &[Atom::new(fx.edge, vec![Term::Const(v0), Term::Const(v1)])],
            &[],
        )
        .unwrap();
        assert!(!ans.goal_directed);
        assert_eq!(ans.rows, vec![Vec::<Cst>::new()]);
        // No fixpoint ran: nothing was derived anywhere.
        assert_eq!(ans.stats.derived, 0);
        assert_eq!(ans.stats.rounds, 0);
    }

    #[test]
    fn demand_is_byte_deterministic_across_thread_counts() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let db = chain_db(&mut fx, 32);
        let v0 = Cst(fx.i.get("v0").unwrap());
        let body = vec![Atom::new(fx.path, vec![Term::Const(v0), Term::Var(fx.y)])];
        let gov = Governor::default();
        // Force chunked parallel execution with a tiny threshold.
        let base = query_demand_tuned(&db, &rules, &body, &[fx.y], &gov, Some(1), Some(1)).unwrap();
        for threads in [2usize, 4, 8] {
            let ans = query_demand_tuned(&db, &rules, &body, &[fx.y], &gov, Some(threads), Some(1))
                .unwrap();
            assert_eq!(ans.rows, base.rows, "rows differ at {threads} threads");
            assert_eq!(ans.stats, base.stats, "stats differ at {threads} threads");
        }
    }

    #[test]
    fn demand_honors_the_governor_budget() {
        let mut fx = fixture();
        let rules = transitive_closure_rules(&fx);
        let db = chain_db(&mut fx, 32);
        let v0 = Cst(fx.i.get("v0").unwrap());
        let body = vec![Atom::new(fx.path, vec![Term::Const(v0), Term::Var(fx.y)])];
        let gov = Governor::new(Budget::default().with_max_rows(3));
        let err = query_demand_governed(&db, &rules, &body, &[fx.y], &gov).unwrap_err();
        assert!(matches!(
            err,
            EvalError::BudgetExhausted {
                resource: Resource::Rows,
                ..
            }
        ));
    }

    /// Differential property over the same random-program generator as the
    /// oracle test: goal-directed answers equal full materialization for
    /// randomly bound goals, across every fallback class.
    #[test]
    fn demand_matches_materialization_on_random_programs() {
        let mut i = Interner::new();
        let preds: Vec<Pred> = (0..4).map(|k| Pred(i.intern(&format!("P{k}")))).collect();
        let arity = [2usize, 1, 2, 2];
        let vars: Vec<Var> = (0..4).map(|k| Var(i.intern(&format!("x{k}")))).collect();
        let csts: Vec<Cst> = (0..6).map(|k| Cst(i.intern(&format!("c{k}")))).collect();
        for seed in 0..40u64 {
            let mut rng = Rng(seed.wrapping_mul(0xA076_1D64_78BD_642F) + 1);
            let mut rules = Vec::new();
            for _ in 0..(2 + rng.below(4)) {
                let nbody = 1 + rng.below(3);
                let body: Vec<Atom> = (0..nbody)
                    .map(|_| {
                        let p = rng.below(preds.len());
                        let args = (0..arity[p])
                            .map(|_| {
                                if rng.below(4) == 0 {
                                    Term::Const(csts[rng.below(csts.len())])
                                } else {
                                    Term::Var(vars[rng.below(vars.len())])
                                }
                            })
                            .collect();
                        Atom::new(preds[p], args)
                    })
                    .collect();
                let body_vars: Vec<Var> = body.iter().flat_map(Atom::vars).collect();
                let hp = rng.below(preds.len());
                let head_args = (0..arity[hp])
                    .map(|_| {
                        if body_vars.is_empty() || rng.below(5) == 0 {
                            Term::Const(csts[rng.below(csts.len())])
                        } else {
                            Term::Var(body_vars[rng.below(body_vars.len())])
                        }
                    })
                    .collect();
                rules.push(Rule::new(Atom::new(preds[hp], head_args), body));
            }
            let mut db = Database::new();
            for _ in 0..(3 + rng.below(10)) {
                let p = rng.below(preds.len());
                let row: Vec<Cst> = (0..arity[p]).map(|_| csts[rng.below(csts.len())]).collect();
                db.insert(preds[p], &row);
            }
            // Random goals: one or two atoms, arguments constant with
            // probability 1/2 so all adornment classes occur.
            for _ in 0..4 {
                let ngoal = 1 + rng.below(2);
                let body: Vec<Atom> = (0..ngoal)
                    .map(|_| {
                        let p = rng.below(preds.len());
                        let args = (0..arity[p])
                            .map(|_| {
                                if rng.below(2) == 0 {
                                    Term::Const(csts[rng.below(csts.len())])
                                } else {
                                    Term::Var(vars[rng.below(vars.len())])
                                }
                            })
                            .collect();
                        Atom::new(preds[p], args)
                    })
                    .collect();
                let out_vars: Vec<Var> = {
                    let mut vs: Vec<Var> = body.iter().flat_map(Atom::vars).collect();
                    vs.sort_unstable();
                    vs.dedup();
                    vs
                };
                let ans = query_demand(&db, &rules, &body, &out_vars).unwrap();
                assert_eq!(
                    sorted(ans.rows),
                    materialized_answers(&db, &rules, &body, &out_vars),
                    "seed {seed}: demand and materialization disagree"
                );
            }
        }
    }

    /// A resumed run whose relations grew far past the estimate baseline:
    /// the drift detector must flag the rule, the re-plan must flip the
    /// atom order, and every artifact (rows, stats, re-plan log) must be
    /// byte-identical at every thread count.
    #[test]
    fn drift_triggers_a_deterministic_replan() {
        let mut i = Interner::new();
        let dp = Pred(i.intern("D"));
        let ep = Pred(i.intern("E"));
        let rp = Pred(i.intern("R"));
        let (x, y, z) = (Var(i.intern("x")), Var(i.intern("y")), Var(i.intern("z")));
        // R(x,z) :- D(x,y), E(y,z).
        let rules = vec![Rule::new(
            Atom::new(rp, vec![Term::Var(x), Term::Var(z)]),
            vec![
                Atom::new(dp, vec![Term::Var(x), Term::Var(y)]),
                Atom::new(ep, vec![Term::Var(y), Term::Var(z)]),
            ],
        )];
        let a = Cst(i.intern("a"));
        let b = Cst(i.intern("b"));
        let c = Cst(i.intern("c"));
        let hub = Cst(i.intern("hub"));
        let xs: Vec<Cst> = (0..1000).map(|k| Cst(i.intern(&format!("x{k}")))).collect();
        let ms: Vec<Cst> = (0..500).map(|k| Cst(i.intern(&format!("m{k}")))).collect();
        let zs: Vec<Cst> = (0..20).map(|k| Cst(i.intern(&format!("z{k}")))).collect();
        let run = |threads: usize| {
            let mut db = Database::new();
            db.insert(dp, &[a, b]);
            db.insert(ep, &[b, c]);
            let plan = DeltaPlan::planned(&rules, &db);
            let mut eval = IncrementalEval::new()
                .with_threads(threads)
                .with_parallel_threshold(1);
            // First run: tiny relations, and this snapshot becomes the
            // estimate baseline for the resumed run.
            eval.run(&mut db, &rules, &plan).unwrap();
            // Half of D funnels into `hub`, whose E bucket is 20 wide —
            // far past what the baseline stats predict.
            for (k, &xk) in xs.iter().enumerate() {
                let col1 = if k < 500 { hub } else { ms[k - 500] };
                db.insert(dp, &[xk, col1]);
            }
            for &zk in &zs {
                db.insert(ep, &[hub, zk]);
            }
            let stats = eval.run(&mut db, &rules, &plan).unwrap();
            (db.dump(&i), stats, eval.replan_history().to_vec())
        };
        let (rows1, stats1, log1) = run(1);
        assert_eq!(
            stats1.replans, 1,
            "drift should install exactly one re-plan"
        );
        assert_eq!(
            log1,
            vec![ReplanEvent {
                round: 2,
                rule: 0,
                old_order: vec![0, 1],
                new_order: vec![1, 0],
            }],
            "live stats make E-outermost the planned full order"
        );
        for threads in [2, 4, 8] {
            let (rows, stats, log) = run(threads);
            assert_eq!(rows, rows1, "rows diverged at {threads} threads");
            assert_eq!(stats, stats1, "stats diverged at {threads} threads");
            assert_eq!(log, log1, "re-plan log diverged at {threads} threads");
        }
    }

    /// Adaptive rounds group tasks whose compiled programs share a leading
    /// delta scan: the prefix runs once and fans out, cutting probes while
    /// leaving every row (and its merge position) untouched.
    #[test]
    fn shared_prefix_groups_reduce_probes_without_changing_rows() {
        let mut fx = fixture();
        let q = Pred(fx.i.intern("Q"));
        let mut rules = transitive_closure_rules(&fx);
        // A second consumer of delta Path rows, structurally sharing the
        // recursive rule's leading compiled Path scan.
        rules.push(Rule::new(
            Atom::new(q, vec![Term::Var(fx.x), Term::Var(fx.y)]),
            vec![Atom::new(fx.path, vec![Term::Var(fx.x), Term::Var(fx.y)])],
        ));
        let plan = DeltaPlan::new(&rules);
        let mut run = |adaptive: bool, threads: usize| {
            let mut db = chain_db(&mut fx, 24);
            let mut eval = IncrementalEval::new()
                .with_adaptive(adaptive)
                .with_threads(threads)
                .with_parallel_threshold(1);
            let stats = eval.run(&mut db, &rules, &plan).unwrap();
            (db.dump(&fx.i), stats)
        };
        let (rows_off, off) = run(false, 1);
        let (rows_on, on) = run(true, 1);
        assert_eq!(rows_on, rows_off, "grouping changed the fixpoint");
        assert_eq!(off.shared_prefix_hits, 0);
        assert!(
            on.shared_prefix_hits > 0,
            "delta Path rounds should fan out a shared prefix"
        );
        assert!(
            on.join_probes < off.join_probes,
            "shared prefix should save probes ({} vs {})",
            on.join_probes,
            off.join_probes
        );
        for threads in [2, 4, 8] {
            let (rows, stats) = run(true, threads);
            assert_eq!(rows, rows_on, "rows diverged at {threads} threads");
            assert_eq!(stats, on, "stats diverged at {threads} threads");
        }
    }
}
