//! The exact engine: exhaustive safety checking ([`CompactExplorer`]) and
//! the adaptive adversary as a Markov decision process ([`CompactMdp`]),
//! both over one hash-consed, symmetry-reduced configuration space.
//!
//! The paper proves consistency (Theorems 6 and 8) and bounds termination
//! under *every* adaptive adversary (Theorem 7 and its Corollary) by hand.
//! Both become computations here: the explorer enumerates every reachable
//! configuration — all schedules × all coin outcomes — and the MDP lets the
//! adversary pick the next processor (knowing everything but future coins)
//! while the coins resolve probabilistically, so value iteration yields the
//! exact worst case.
//!
//! * **Hash-consing** — processor states and register contents are interned
//!   once into u32-indexed arenas; a configuration key is a flat `Box<[u32]>`
//!   of arena ids, so the visited-set stores words, not cloned structs.
//! * **Symmetry reduction** — before interning, a configuration is
//!   canonicalized under the protocol's [`Symmetric`] automorphisms
//!   (value-relabeling and processor swaps): one representative per orbit.
//! * **Bisimulation merging** — in full (non-depth-bounded) builds, decided
//!   processor states collapse to a single `MERGED` token (the dynamics
//!   never read a decided state, and the objectives only need the decided
//!   *bit*, kept separately per class), and a register whose every allowed
//!   reader has decided collapses to a `DEAD` token (no eligible processor
//!   can ever observe it again).
//! * **CSR transitions** — moves and probabilistic branches live in flat
//!   offset-indexed vectors, cache-friendly for value iteration.
//! * **Parallel Jacobi value iteration** — sweeps fill a scratch vector
//!   from the previous iterate across a scoped thread pool; each entry is a
//!   pure function of the previous vector, and the convergence delta is
//!   reduced serially, so the [`Solve`] is byte-identical at any job count.
//!
//! Protocols with unbounded registers (the paper's §5 family) get
//! **depth-bounded** builds: configurations at the depth limit keep an
//! empty move list, so their value stays 0 under every objective.
//! Depth-bounded builds key on the activation mask and switch bisimulation
//! merging off — BFS depth is preserved by initial-configuration-fixing
//! automorphisms but not by the coarser merges, and truncation must cut
//! exactly where a plain BFS over raw configurations would.
//!
//! With symmetry and merging off, both walks visit exactly the raw
//! configurations of a breadth-first enumeration. An independent dense
//! enumeration in `tests/tests/mdp_compact_cross_validation.rs` checks this
//! module's expected steps, survival curves, policies and configuration
//! counts.

use crate::config::{successors, Config};
use crate::symmetry::{applicable_elems, automorphism_elems, SymElem, Symmetric};
use cil_obs::metrics::Registry;
use cil_registers::ReaderSet;
use cil_sim::{Adversary, Val, View};
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// A safety violation found during exploration.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Two processors decided differently.
    Inconsistent {
        /// The distinct decision values present.
        values: Vec<Val>,
        /// BFS depth at which the configuration was reached.
        depth: usize,
    },
    /// A decision value is not the input of any activated processor.
    Trivial {
        /// The offending decision value.
        value: Val,
        /// BFS depth.
        depth: usize,
    },
    /// A caller-supplied invariant failed.
    Invariant {
        /// The invariant's description.
        message: String,
        /// BFS depth.
        depth: usize,
    },
}

/// Per-level BFS statistics: how wide each level was and how effective
/// the seen-set deduplication was there.
///
/// `generated - fresh` successors were duplicates of already-visited
/// classes (or fell past the `max_configs` cutoff); the dedup hit rate at
/// a level is `1 - fresh / generated`. Only levels processed to completion
/// get a record — a mid-level stop (the violation cap) leaves that level
/// out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelStats {
    /// BFS depth of this level (0 = the initial configuration).
    pub depth: usize,
    /// Number of configurations processed at this depth.
    pub frontier: usize,
    /// Successor configurations generated from this level, before
    /// deduplication.
    pub generated: usize,
    /// Successors that were genuinely new (inserted into the seen-set and
    /// carried into the next level).
    pub fresh: usize,
}

/// Result of an exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Number of distinct configuration classes visited.
    pub explored: usize,
    /// Violations found (empty = safe within bounds).
    pub violations: Vec<Violation>,
    /// `true` if the reachable space was exhausted (the verdict is then
    /// complete, not merely bounded).
    pub complete: bool,
    /// Maximum BFS depth reached.
    pub max_depth: usize,
    /// Per-level frontier/dedup statistics, one entry per completed BFS
    /// level in depth order.
    pub levels: Vec<LevelStats>,
}

impl Report {
    /// Whether no violations were found.
    pub fn safe(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Which cost the adversary maximizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Expected number of activations of one processor until it decides.
    StepsOf(usize),
    /// Expected total number of steps until every processor has decided.
    TotalSteps,
}

/// Result of a value-iteration solve.
#[derive(Debug)]
pub struct Solve {
    /// Optimal (worst-case) value at the initial configuration.
    pub value: f64,
    /// Optimal value of every enumerated class.
    pub values: Vec<f64>,
    /// Argmax processor per class (None = absorbing).
    pub policy: Vec<Option<usize>>,
    /// Iterations used.
    pub iterations: usize,
    /// Sup-norm residual after each sweep (one entry per iteration). A
    /// deterministic function of the model — identical at any `--jobs` —
    /// so it exports as a convergence time series.
    pub residuals: Vec<f64>,
    /// Wall-clock nanoseconds per sweep (one entry per iteration). Real
    /// time: reproducible in shape, not in value.
    pub sweep_ns: Vec<u64>,
}

/// Arena token for a decided processor state (full builds only).
const MERGED: u32 = u32::MAX;
/// Arena token for a register none of whose allowed readers can still step.
/// Lives in register slots, so it cannot collide with [`MERGED`].
const DEAD: u32 = u32::MAX;

/// A deduplicating arena: each distinct value gets a dense u32 id.
struct Interner<T> {
    map: HashMap<T, u32>,
    items: Vec<T>,
}

impl<T: Clone + Eq + Hash> Interner<T> {
    fn new() -> Self {
        Interner {
            map: HashMap::new(),
            items: Vec::new(),
        }
    }

    fn intern(&mut self, t: &T) -> u32 {
        if let Some(&id) = self.map.get(t) {
            return id;
        }
        let id = u32::try_from(self.items.len()).expect("arena overflow");
        assert!(id < DEAD, "arena collides with the sentinel tokens");
        self.items.push(t.clone());
        self.map.insert(t.clone(), id);
        id
    }

    fn lookup(&self, t: &T) -> Option<u32> {
        self.map.get(t).copied()
    }

    fn len(&self) -> usize {
        self.items.len()
    }
}

/// Options for [`CompactMdp::build`].
#[derive(Debug, Clone)]
pub struct CompactOptions {
    /// Upper bound on the number of canonical classes; exceeding it is a
    /// build error rather than a panic.
    pub max_configs: usize,
    /// `Some(d)` truncates the BFS at depth `d`: configurations there keep
    /// an empty move list (their value stays 0). Required for protocols
    /// whose reachable space is infinite.
    pub max_depth: Option<usize>,
    /// The processor singled out by the intended objective
    /// ([`Objective::StepsOf`] or a survival target). Symmetry elements
    /// that move this processor are discarded; `None` (for
    /// [`Objective::TotalSteps`]) keeps them all.
    pub target: Option<usize>,
    /// Canonicalize under the protocol's [`Symmetric`] elements.
    pub use_symmetry: bool,
    /// Merge decided states and dead registers (full builds only; forced
    /// off under `max_depth`, which needs depth-exact classes).
    pub merge_decided: bool,
}

impl Default for CompactOptions {
    fn default() -> Self {
        CompactOptions {
            max_configs: 2_000_000,
            max_depth: None,
            target: None,
            use_symmetry: true,
            merge_decided: true,
        }
    }
}

/// Build statistics of a [`CompactMdp`] (or a [`CompactExplorer`] run).
#[derive(Debug, Clone, Copy, Default)]
pub struct CompactStats {
    /// Canonical configuration classes enumerated.
    pub classes: usize,
    /// Adversary moves (config × eligible pid pairs).
    pub moves: usize,
    /// Probabilistic branches after merging by target class.
    pub transitions: usize,
    /// Successor encodings that hit an existing class.
    pub dedup_hits: u64,
    /// Canonicalizations where a non-identity symmetry produced the key.
    pub sym_hits: u64,
    /// Peak size of the BFS queue.
    pub frontier_peak: usize,
    /// Configurations whose expansion was suppressed by the depth bound.
    pub truncated: usize,
    /// Distinct processor states interned.
    pub interned_states: usize,
    /// Distinct register contents interned.
    pub interned_regs: usize,
}

/// Shared key-encoding machinery: interners plus the merge/canonicalize
/// policy. A key is `n` state words, then `m` register words, then (when
/// `include_active`) the two halves of the activation mask.
struct Encoder<P: Symmetric> {
    states: Interner<P::State>,
    regs: Interner<P::Reg>,
    /// Allowed readers per register; `None` = every processor.
    reg_readers: Vec<Option<Vec<usize>>>,
    n: usize,
    include_active: bool,
    merge_decided: bool,
    merge_dead_regs: bool,
    elems: Vec<SymElem<P>>,
}

impl<P: Symmetric> Encoder<P> {
    fn new(
        protocol: &P,
        elems: Vec<SymElem<P>>,
        include_active: bool,
        merge_decided: bool,
        merge_dead_regs: bool,
    ) -> Self {
        let reg_readers = protocol
            .registers()
            .into_iter()
            .map(|spec| match spec.readers {
                ReaderSet::All => None,
                ReaderSet::Only(pids) => Some(pids.into_iter().map(|p| p.0).collect()),
            })
            .collect();
        Encoder {
            states: Interner::new(),
            regs: Interner::new(),
            reg_readers,
            n: protocol.processes(),
            include_active,
            merge_decided,
            merge_dead_regs,
            elems,
        }
    }

    fn decided_mask(&self, protocol: &P, cfg: &Config<P>) -> u64 {
        let mut mask = 0u64;
        for (i, s) in cfg.states.iter().enumerate() {
            if protocol.decision(s).is_some() {
                mask |= 1 << i;
            }
        }
        mask
    }

    /// A register is dead when every allowed reader has decided, or when
    /// the protocol's [`Symmetric::register_dead`] liveness hint claims it
    /// can never be read again.
    fn reg_dead(&self, protocol: &P, cfg: &Config<P>, reg: usize, decided: u64) -> bool {
        let readers_done = match &self.reg_readers[reg] {
            None => decided.count_ones() as usize == self.n,
            Some(readers) => readers.iter().all(|&p| decided & (1 << p) != 0),
        };
        readers_done || protocol.register_dead(reg, cfg)
    }

    fn push_active(&self, key: &mut Vec<u32>, active: u64) {
        if self.include_active {
            key.push(active as u32);
            key.push((active >> 32) as u32);
        }
    }

    /// Encodes one configuration, interning fresh states and registers.
    fn encode(&mut self, protocol: &P, cfg: &Config<P>) -> (Vec<u32>, u64) {
        let decided = self.decided_mask(protocol, cfg);
        let mut key = Vec::with_capacity(cfg.states.len() + cfg.regs.len() + 2);
        for (i, s) in cfg.states.iter().enumerate() {
            if self.merge_decided && decided & (1 << i) != 0 {
                key.push(MERGED);
            } else {
                key.push(self.states.intern(s));
            }
        }
        for (j, r) in cfg.regs.iter().enumerate() {
            if self.merge_dead_regs && self.reg_dead(protocol, cfg, j, decided) {
                key.push(DEAD);
            } else {
                key.push(self.regs.intern(r));
            }
        }
        self.push_active(&mut key, cfg.active);
        (key, decided)
    }

    /// The canonical (minimal) key over the identity and every symmetry
    /// element, its decided mask, and the index of the winning non-identity
    /// element (`None` = the configuration already encodes minimally).
    ///
    /// Every variant's states and registers are interned, so later
    /// read-only lookups of any orbit member can succeed.
    fn canonical(&mut self, protocol: &P, cfg: &Config<P>) -> (Box<[u32]>, u64, Option<usize>) {
        let variants: Vec<Config<P>> = self.elems.iter().map(|e| e.apply(cfg)).collect();
        let (mut best, mut best_decided) = self.encode(protocol, cfg);
        let mut winner = None;
        for (ei, v) in variants.iter().enumerate() {
            let (key, decided) = self.encode(protocol, v);
            if key < best {
                best = key;
                best_decided = decided;
                winner = Some(ei);
            }
        }
        (best.into_boxed_slice(), best_decided, winner)
    }

    /// Encodes without interning; `None` if some state or register was
    /// never interned during the build (the configuration is off-graph).
    fn encode_readonly(&self, protocol: &P, cfg: &Config<P>) -> Option<Vec<u32>> {
        let decided = self.decided_mask(protocol, cfg);
        let mut key = Vec::with_capacity(cfg.states.len() + cfg.regs.len() + 2);
        for (i, s) in cfg.states.iter().enumerate() {
            if self.merge_decided && decided & (1 << i) != 0 {
                key.push(MERGED);
            } else {
                key.push(self.states.lookup(s)?);
            }
        }
        for (j, r) in cfg.regs.iter().enumerate() {
            if self.merge_dead_regs && self.reg_dead(protocol, cfg, j, decided) {
                key.push(DEAD);
            } else {
                key.push(self.regs.lookup(r)?);
            }
        }
        self.push_active(&mut key, cfg.active);
        Some(key)
    }

    /// Read-only canonicalization: the minimal encodable key over the
    /// identity and all elements, plus the index of the winning element
    /// (`None` = identity). Used by the policy adversary at replay time.
    fn canonical_readonly(
        &self,
        protocol: &P,
        cfg: &Config<P>,
    ) -> Option<(Vec<u32>, Option<usize>)> {
        let mut best: Option<(Vec<u32>, Option<usize>)> =
            self.encode_readonly(protocol, cfg).map(|k| (k, None));
        for (ei, e) in self.elems.iter().enumerate() {
            let variant = e.apply(cfg);
            if let Some(key) = self.encode_readonly(protocol, &variant) {
                if best.as_ref().is_none_or(|(b, _)| key < *b) {
                    best = Some((key, Some(ei)));
                }
            }
        }
        best
    }
}

/// The compact exact-adversary engine: a hash-consed, symmetry-reduced
/// MDP over canonical configuration classes, with CSR transitions.
pub struct CompactMdp<P: Symmetric> {
    enc: Encoder<P>,
    class_of: HashMap<Box<[u32]>, u32>,
    /// Move rows per class: moves of class `i` are
    /// `row_off[i]..row_off[i+1]`.
    row_off: Vec<usize>,
    /// Stepping processor per move.
    move_pid: Vec<u32>,
    /// Branches of move `m` are `branch_off[m]..branch_off[m+1]`.
    branch_off: Vec<usize>,
    branch_p: Vec<f64>,
    branch_to: Vec<u32>,
    /// Decided-processor bitmask per class.
    key_decided: Vec<u64>,
    /// The symmetry element that mapped each class's first-seen
    /// representative onto the canonical key (`None` = the representative
    /// encodes minimally itself). CSR move pids live in the
    /// *representative's* frame; policy lookups compose this with the query
    /// configuration's own winning element to translate between frames.
    rep_winner: Vec<Option<usize>>,
    n_procs: usize,
    target: Option<usize>,
    stats: CompactStats,
}

impl<P: Symmetric> CompactMdp<P> {
    /// Enumerates the canonical class space by BFS and builds the CSR
    /// transition structure. Class 0 is the initial configuration's class.
    ///
    /// # Errors
    ///
    /// Returns an error when the class count exceeds
    /// [`CompactOptions::max_configs`] — callers either raise the bound or
    /// switch to a depth-bounded build.
    pub fn build(protocol: &P, inputs: &[Val], opts: &CompactOptions) -> Result<Self, String> {
        let depth_bounded = opts.max_depth.is_some();
        // Full builds quotient by every dynamics automorphism compatible
        // with the objective: the value of a class depends only on its
        // future, so the elements need not fix the initial configuration.
        // Depth-bounded builds must stay depth-exact (the truncation
        // frontier has to match a raw BFS's), which only init-fixing
        // elements guarantee.
        let elems = if !opts.use_symmetry {
            Vec::new()
        } else if depth_bounded {
            applicable_elems(protocol, inputs, opts.target)
        } else {
            automorphism_elems(protocol, inputs, opts.target)
        };
        let merge = opts.merge_decided && !depth_bounded;
        let mut enc = Encoder::new(protocol, elems, depth_bounded, merge, merge);
        let mut class_of: HashMap<Box<[u32]>, u32> = HashMap::new();
        let mut key_decided: Vec<u64> = Vec::new();
        let mut rep_winner: Vec<Option<usize>> = Vec::new();
        let mut row_off = vec![0usize];
        let mut move_pid: Vec<u32> = Vec::new();
        let mut branch_off = vec![0usize];
        let mut branch_p: Vec<f64> = Vec::new();
        let mut branch_to: Vec<u32> = Vec::new();
        let mut stats = CompactStats::default();

        let init = Config::initial(protocol, inputs);
        let (k0, d0, w0) = enc.canonical(protocol, &init);
        class_of.insert(k0, 0);
        key_decided.push(d0);
        rep_winner.push(w0);
        // FIFO: classes are processed in id order, so CSR rows line up.
        let mut queue: VecDeque<(Config<P>, usize)> = VecDeque::new();
        queue.push_back((init, 0));
        stats.frontier_peak = 1;

        while let Some((cfg, depth)) = queue.pop_front() {
            if opts.max_depth.is_some_and(|d| depth >= d) {
                stats.truncated += 1;
                row_off.push(move_pid.len());
                continue;
            }
            for pid in cfg.eligible(protocol) {
                move_pid.push(pid as u32);
                let mut acc: Vec<(u32, f64)> = Vec::new();
                for (p, succ) in successors(protocol, &cfg, pid) {
                    let (key, decided, winner) = enc.canonical(protocol, &succ);
                    if winner.is_some() {
                        stats.sym_hits += 1;
                    }
                    let id = match class_of.get(&key) {
                        Some(&id) => {
                            stats.dedup_hits += 1;
                            id
                        }
                        None => {
                            if key_decided.len() >= opts.max_configs {
                                return Err(format!(
                                    "class space exceeds {} configurations; raise \
                                     max_configs or bound the depth",
                                    opts.max_configs
                                ));
                            }
                            let id = key_decided.len() as u32;
                            class_of.insert(key, id);
                            key_decided.push(decided);
                            rep_winner.push(winner);
                            queue.push_back((succ, depth + 1));
                            id
                        }
                    };
                    match acc.iter_mut().find(|(to, _)| *to == id) {
                        Some((_, q)) => *q += p,
                        None => acc.push((id, p)),
                    }
                }
                for (to, p) in acc {
                    branch_to.push(to);
                    branch_p.push(p);
                }
                branch_off.push(branch_to.len());
            }
            row_off.push(move_pid.len());
            stats.frontier_peak = stats.frontier_peak.max(queue.len());
        }

        stats.classes = key_decided.len();
        stats.moves = move_pid.len();
        stats.transitions = branch_to.len();
        stats.interned_states = enc.states.len();
        stats.interned_regs = enc.regs.len();
        debug_assert_eq!(row_off.len(), key_decided.len() + 1);
        Ok(CompactMdp {
            enc,
            class_of,
            row_off,
            move_pid,
            branch_off,
            branch_p,
            branch_to,
            key_decided,
            rep_winner,
            n_procs: protocol.processes(),
            target: opts.target,
            stats,
        })
    }

    /// Number of canonical classes.
    pub fn size(&self) -> usize {
        self.key_decided.len()
    }

    /// Build statistics.
    pub fn stats(&self) -> &CompactStats {
        &self.stats
    }

    /// Publishes the build statistics as `mdp.*` gauges and counters.
    pub fn export_metrics(&self, registry: &Registry) {
        registry.gauge("mdp.configs").set(self.stats.classes as u64);
        registry
            .gauge("mdp.transitions")
            .set(self.stats.transitions as u64);
        registry
            .gauge("mdp.frontier_peak")
            .set(self.stats.frontier_peak as u64);
        registry
            .counter("mdp.dedup_hits")
            .add(self.stats.dedup_hits);
        registry.counter("mdp.sym_hits").add(self.stats.sym_hits);
    }

    /// The class of a raw configuration, if it is on the enumerated graph.
    pub fn find(&self, protocol: &P, cfg: &Config<P>) -> Option<u32> {
        let (key, _) = self.enc.canonical_readonly(protocol, cfg)?;
        self.class_of.get(key.as_slice()).copied()
    }

    fn check_target(&self, wanted: usize) {
        assert!(
            self.enc.elems.is_empty() || self.target == Some(wanted),
            "this build canonicalized with target {:?}; rebuild with target \
             Some({wanted}) before analyzing that processor",
            self.target
        );
    }

    /// A borrowed view of the CSR arrays. `Copy`, and `Sync` independent of
    /// `P` — parallel sweeps capture this instead of `&self`, so value
    /// iteration needs no `Send`/`Sync` bounds on protocol types.
    fn csr(&self) -> CsrView<'_> {
        CsrView {
            row_off: &self.row_off,
            move_pid: &self.move_pid,
            branch_off: &self.branch_off,
            branch_p: &self.branch_p,
            branch_to: &self.branch_to,
            key_decided: &self.key_decided,
            n_procs: self.n_procs,
        }
    }

    /// Worst-case expected cost by parallel Jacobi value iteration.
    ///
    /// Converges monotonically from below to the least fixpoint, which for
    /// nonnegative total-cost MDPs equals the supremum over all adversary
    /// strategies; stops at sup-norm `tol` or `max_iter` sweeps. Every
    /// scratch entry is a pure function of the previous iterate and the
    /// convergence delta is reduced serially, so the result is
    /// byte-identical at any `jobs` count (`0` = available parallelism).
    ///
    /// # Panics
    ///
    /// Panics if the objective singles out a processor the build's
    /// symmetry target does not fix.
    pub fn expected_steps(
        &self,
        objective: Objective,
        tol: f64,
        max_iter: usize,
        jobs: usize,
    ) -> Solve {
        if let Objective::StepsOf(t) = objective {
            self.check_target(t);
        }
        let jobs = cil_sim::resolve_jobs(jobs);
        let csr = self.csr();
        let n = self.size();
        let mut v = vec![0.0f64; n];
        let mut v_next = vec![0.0f64; n];
        let mut iterations = 0;
        let mut residuals = Vec::new();
        let mut sweep_ns = Vec::new();
        for it in 0..max_iter {
            iterations = it + 1;
            let sweep_started = std::time::Instant::now();
            {
                let v = &v;
                fill_parallel(&mut v_next, jobs, |i| csr.sweep_value(i, objective, v));
            }
            let mut delta = 0.0f64;
            for i in 0..n {
                delta = delta.max((v_next[i] - v[i]).abs());
            }
            std::mem::swap(&mut v, &mut v_next);
            residuals.push(delta);
            sweep_ns.push(u64::try_from(sweep_started.elapsed().as_nanos()).unwrap_or(u64::MAX));
            if delta < tol {
                break;
            }
        }
        let policy = (0..n)
            .map(|i| {
                csr.best_move(i, objective, &v)
                    .map(|m| self.move_pid[m] as usize)
            })
            .collect();
        Solve {
            value: v[0],
            values: v,
            policy,
            iterations,
            residuals,
            sweep_ns,
        }
    }

    /// Worst-case survival curve: for `k = 0..=k_max`, the supremum over
    /// adversaries of `P[target undecided after k more of its own
    /// activations]` from the initial class. Layered least fixpoints, each
    /// solved by the same deterministic parallel Jacobi sweep.
    ///
    /// # Panics
    ///
    /// Panics if the build's symmetry target does not fix `target`.
    pub fn survival(
        &self,
        target: usize,
        k_max: usize,
        tol: f64,
        max_iter: usize,
        jobs: usize,
    ) -> Vec<f64> {
        self.check_target(target);
        let jobs = cil_sim::resolve_jobs(jobs);
        let csr = self.csr();
        let n = self.size();
        let undecided = |i: usize| self.key_decided[i] & (1 << target) == 0;
        let mut prev: Vec<f64> = (0..n).map(|i| f64::from(u8::from(undecided(i)))).collect();
        let mut curve = vec![prev[0]];
        for _k in 1..=k_max {
            let mut g = vec![0.0f64; n];
            let mut g_next = vec![0.0f64; n];
            for _ in 0..max_iter {
                {
                    let (g, prev) = (&g, &prev);
                    fill_parallel(&mut g_next, jobs, |i| {
                        csr.survival_sweep(i, target, prev, g)
                    });
                }
                let mut delta = 0.0f64;
                for i in 0..n {
                    delta = delta.max((g_next[i] - g[i]).abs());
                }
                std::mem::swap(&mut g, &mut g_next);
                if delta < tol {
                    break;
                }
            }
            curve.push(g[0]);
            prev = g;
        }
        curve
    }

    /// The optimal adversary of a solve, replayable in Monte-Carlo runs.
    /// At pick time the observed configuration is canonicalized, the class
    /// policy is looked up, and the chosen processor is mapped back through
    /// the winning symmetry element.
    ///
    /// # Panics
    ///
    /// Panics on depth-bounded builds: their keys embed the activation
    /// mask, which a simulator view does not carry.
    pub fn policy_adversary<'m>(
        &'m self,
        protocol: &'m P,
        solve: &Solve,
    ) -> CompactPolicyAdversary<'m, P> {
        assert!(
            !self.enc.include_active,
            "policy export needs a full (non-depth-bounded) build"
        );
        CompactPolicyAdversary {
            mdp: self,
            protocol,
            policy: solve.policy.clone(),
        }
    }

    /// The policy's decision for a raw configuration: the processor the
    /// optimal adversary schedules there, mapped back from the canonical
    /// class, or `None` for off-graph or absorbing configurations.
    pub fn decide_config(
        &self,
        protocol: &P,
        cfg: &Config<P>,
        policy: &[Option<usize>],
    ) -> Option<usize> {
        let (key, winner) = self.enc.canonical_readonly(protocol, cfg)?;
        let class = self.class_of.get(key.as_slice()).copied()?;
        let policy_pid = policy[class as usize]?;
        // CSR moves are recorded in the frame of the class's first-seen
        // representative r. Translate to the canonical frame with r's
        // winning element σ_r, then back to `cfg`'s frame with σ_c⁻¹.
        let pid_canon = match self.rep_winner[class as usize] {
            None => policy_pid,
            Some(ri) => self.enc.elems[ri].proc_perm[policy_pid],
        };
        Some(match winner {
            None => pid_canon,
            Some(ei) => self.enc.elems[ei].preimage_pid(pid_canon),
        })
    }
}

/// Borrowed CSR arrays of a [`CompactMdp`]: everything a value-iteration
/// sweep reads, with no protocol types attached (so it is `Sync` for any
/// `P` and parallel sweeps need no bounds on protocol states).
#[derive(Clone, Copy)]
struct CsrView<'a> {
    row_off: &'a [usize],
    move_pid: &'a [u32],
    branch_off: &'a [usize],
    branch_p: &'a [f64],
    branch_to: &'a [u32],
    key_decided: &'a [u64],
    n_procs: usize,
}

impl CsrView<'_> {
    fn absorbing(&self, class: usize, objective: Objective) -> bool {
        match objective {
            Objective::StepsOf(t) => self.key_decided[class] & (1 << t) != 0,
            Objective::TotalSteps => self.key_decided[class].count_ones() as usize == self.n_procs,
        }
    }

    fn move_value(&self, m: usize, cost: f64, v: &[f64]) -> f64 {
        let mut val = cost;
        for b in self.branch_off[m]..self.branch_off[m + 1] {
            val += self.branch_p[b] * v[self.branch_to[b] as usize];
        }
        val
    }

    fn cost(&self, m: usize, objective: Objective) -> f64 {
        match objective {
            Objective::StepsOf(t) => f64::from(u8::from(self.move_pid[m] as usize == t)),
            Objective::TotalSteps => 1.0,
        }
    }

    /// One Jacobi update: the best move value of `class` against `v`.
    fn sweep_value(&self, class: usize, objective: Objective, v: &[f64]) -> f64 {
        if self.absorbing(class, objective) {
            return 0.0;
        }
        let (lo, hi) = (self.row_off[class], self.row_off[class + 1]);
        if lo == hi {
            // Depth-truncated: the value stays put (0).
            return v[class];
        }
        let mut best = f64::NEG_INFINITY;
        for m in lo..hi {
            let val = self.move_value(m, self.cost(m, objective), v);
            if val > best {
                best = val;
            }
        }
        best
    }

    /// The argmax move of `class` under `v` (first maximum in CSR order).
    fn best_move(&self, class: usize, objective: Objective, v: &[f64]) -> Option<usize> {
        if self.absorbing(class, objective) {
            return None;
        }
        let mut best = f64::NEG_INFINITY;
        let mut best_move = None;
        for m in self.row_off[class]..self.row_off[class + 1] {
            let val = self.move_value(m, self.cost(m, objective), v);
            if val > best {
                best = val;
                best_move = Some(m);
            }
        }
        best_move
    }

    /// One survival-layer Jacobi update: target moves read the previous
    /// layer `prev`, non-target moves the current iterate `g`.
    fn survival_sweep(&self, class: usize, target: usize, prev: &[f64], g: &[f64]) -> f64 {
        if self.key_decided[class] & (1 << target) != 0 {
            return 0.0;
        }
        let mut best = 0.0f64;
        for m in self.row_off[class]..self.row_off[class + 1] {
            let src = if self.move_pid[m] as usize == target {
                prev
            } else {
                g
            };
            best = best.max(self.move_value(m, 0.0, src));
        }
        best
    }
}

/// Fills `out[i] = f(i)` over a scoped thread pool. Chunked by index range,
/// so the result is independent of the job count; small problems and
/// `jobs <= 1` fall back to the serial loop.
fn fill_parallel<F: Fn(usize) -> f64 + Sync>(out: &mut [f64], jobs: usize, f: F) {
    let n = out.len();
    if jobs <= 1 || n < 4096 {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = f(i);
        }
        return;
    }
    let chunk = n.div_ceil(jobs);
    std::thread::scope(|scope| {
        let f = &f;
        let mut rest = out;
        let mut base = 0usize;
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            let start = base;
            scope.spawn(move || {
                for (i, slot) in head.iter_mut().enumerate() {
                    *slot = f(start + i);
                }
            });
            base += take;
            rest = tail;
        }
    });
}

/// The optimal adversary of a [`CompactMdp`] solve, usable as a
/// [`cil_sim::Adversary`]. Borrows the engine for canonical lookups.
pub struct CompactPolicyAdversary<'m, P: Symmetric> {
    mdp: &'m CompactMdp<P>,
    protocol: &'m P,
    policy: Vec<Option<usize>>,
}

impl<P: Symmetric> std::fmt::Debug for CompactPolicyAdversary<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CompactPolicyAdversary({} classes)", self.mdp.size())
    }
}

impl<P: Symmetric> Adversary<P> for CompactPolicyAdversary<'_, P> {
    fn pick(&mut self, view: &View<'_, P>) -> usize {
        let cfg = Config {
            states: view.states.to_vec(),
            regs: view.regs.to_vec(),
            active: 0, // full builds do not key on activation
        };
        if let Some(pid) = self.mdp.decide_config(self.protocol, &cfg, &self.policy) {
            if view.is_eligible(pid) {
                return pid;
            }
        }
        view.eligible().next().expect("no eligible processor")
    }

    fn name(&self) -> String {
        "compact-mdp-optimal".into()
    }
}

/// Symmetry-reduced exhaustive safety checking, up to a depth/size bound.
///
/// Checked on every visited class:
///
/// * **Consistency** — no reachable configuration has two decision values;
/// * **Nontriviality** — every decision value is the input of some
///   processor that was activated on the way there;
/// * optional caller-supplied invariants via
///   [`CompactExplorer::check_invariant`].
///
/// Fig. 1's reachable space is finite and closed, so its verdict is
/// complete, not just bounded; the three-processor protocols are bounded by
/// depth. Decided states and dead registers are **not** merged (consistency
/// needs decision values), and keys embed the activation mask
/// (nontriviality needs it); only symmetry quotients the space. Checks run
/// on class representatives, which is sound because every checked property
/// is invariant under initial-configuration-fixing automorphisms.
pub struct CompactExplorer<'p, P: Symmetric> {
    protocol: &'p P,
    inputs: Vec<Val>,
    max_depth: usize,
    max_configs: usize,
    use_symmetry: bool,
    #[allow(clippy::type_complexity)]
    invariant: Option<Box<dyn Fn(&Config<P>) -> Result<(), String> + 'p>>,
    #[allow(clippy::type_complexity)]
    on_level: Option<Box<dyn Fn(&LevelStats) + 'p>>,
}

impl<'p, P: Symmetric> CompactExplorer<'p, P> {
    /// Creates an explorer from the given initial inputs.
    pub fn new(protocol: &'p P, inputs: &[Val]) -> Self {
        CompactExplorer {
            protocol,
            inputs: inputs.to_vec(),
            max_depth: usize::MAX,
            max_configs: 5_000_000,
            use_symmetry: true,
            invariant: None,
            on_level: None,
        }
    }

    /// Bounds the BFS depth.
    pub fn max_depth(mut self, d: usize) -> Self {
        self.max_depth = d;
        self
    }

    /// Bounds the number of distinct canonical classes.
    pub fn max_configs(mut self, m: usize) -> Self {
        self.max_configs = m;
        self
    }

    /// Disables symmetry reduction: the run then visits exactly the raw
    /// configurations (one class each).
    pub fn use_symmetry(mut self, on: bool) -> Self {
        self.use_symmetry = on;
        self
    }

    /// Adds an invariant checked on every class representative. It must be
    /// invariant under the protocol's symmetries, like the built-in checks.
    pub fn check_invariant(mut self, f: impl Fn(&Config<P>) -> Result<(), String> + 'p) -> Self {
        self.invariant = Some(Box::new(f));
        self
    }

    /// Registers a callback invoked once per completed BFS level.
    pub fn on_level(mut self, f: impl Fn(&LevelStats) + 'p) -> Self {
        self.on_level = Some(Box::new(f));
        self
    }

    /// Runs the exploration, returning the report and build statistics.
    ///
    /// A FIFO BFS over canonical classes. It stops after more than 100
    /// violations (that level then gets no record); the depth bound and the
    /// class-count cutoff each mark the report incomplete.
    pub fn run_with_stats(self) -> (Report, CompactStats) {
        let protocol = self.protocol;
        let elems = if self.use_symmetry {
            applicable_elems(protocol, &self.inputs, None)
        } else {
            Vec::new()
        };
        let mut enc = Encoder::new(protocol, elems, true, false, false);
        let mut stats = CompactStats::default();
        let mut seen: HashMap<Box<[u32]>, ()> = HashMap::new();
        let mut queue: VecDeque<(Config<P>, usize)> = VecDeque::new();
        let mut violations = Vec::new();
        let mut complete = true;
        let mut max_depth_seen = 0;
        let mut levels: Vec<LevelStats> = Vec::new();
        let mut level = LevelStats {
            depth: 0,
            frontier: 0,
            generated: 0,
            fresh: 0,
        };
        let mut stopped_mid_level = false;

        let init = Config::initial(protocol, &self.inputs);
        let (k0, _, _) = enc.canonical(protocol, &init);
        seen.insert(k0, ());
        queue.push_back((init, 0));
        stats.frontier_peak = 1;

        while let Some((cfg, depth)) = queue.pop_front() {
            if depth > level.depth {
                levels.push(level);
                if let Some(f) = &self.on_level {
                    f(&level);
                }
                level = LevelStats {
                    depth,
                    frontier: 0,
                    generated: 0,
                    fresh: 0,
                };
            }
            level.frontier += 1;
            max_depth_seen = max_depth_seen.max(depth);
            let dvals = cfg.decision_values(protocol);
            if dvals.len() > 1 {
                violations.push(Violation::Inconsistent {
                    values: dvals.clone(),
                    depth,
                });
            }
            for v in &dvals {
                let ok = self
                    .inputs
                    .iter()
                    .enumerate()
                    .any(|(i, inp)| cfg.active & (1 << i) != 0 && inp == v);
                if !ok {
                    violations.push(Violation::Trivial { value: *v, depth });
                }
            }
            if let Some(inv) = &self.invariant {
                if let Err(message) = inv(&cfg) {
                    violations.push(Violation::Invariant { message, depth });
                }
            }
            if violations.len() > 100 {
                complete = false;
                stopped_mid_level = true;
                break;
            }
            if depth >= self.max_depth {
                complete = false;
                continue;
            }
            for pid in cfg.eligible(protocol) {
                for (_, succ) in successors(protocol, &cfg, pid) {
                    level.generated += 1;
                    if seen.len() >= self.max_configs {
                        complete = false;
                        continue;
                    }
                    let (key, _, winner) = enc.canonical(protocol, &succ);
                    if winner.is_some() {
                        stats.sym_hits += 1;
                    }
                    if seen.insert(key, ()).is_none() {
                        level.fresh += 1;
                        queue.push_back((succ, depth + 1));
                    } else {
                        stats.dedup_hits += 1;
                    }
                }
            }
            stats.frontier_peak = stats.frontier_peak.max(queue.len());
        }
        if !stopped_mid_level && level.frontier > 0 {
            levels.push(level);
            if let Some(f) = &self.on_level {
                f(&level);
            }
        }

        stats.classes = seen.len();
        stats.interned_states = enc.states.len();
        stats.interned_regs = enc.regs.len();
        let report = Report {
            explored: seen.len(),
            violations,
            complete,
            max_depth: max_depth_seen,
            levels,
        };
        (report, stats)
    }

    /// Runs the exploration.
    pub fn run(self) -> Report {
        self.run_with_stats().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cil_core::deterministic::{DetRule, DetTwo};
    use cil_core::kvalued::KValued;
    use cil_core::two::TwoProcessor;
    use cil_sim::{Protocol, Runner, StopWhen};
    use std::cell::RefCell;
    use std::collections::HashSet;

    fn opts(target: Option<usize>) -> CompactOptions {
        CompactOptions {
            target,
            ..CompactOptions::default()
        }
    }

    /// Raw configurations reachable from `inputs`: the unreduced explorer
    /// keeps one class per configuration.
    fn raw_configs<P: Symmetric>(p: &P, inputs: &[Val]) -> usize {
        let report = CompactExplorer::new(p, inputs).use_symmetry(false).run();
        assert!(report.complete);
        report.explored
    }

    /// The unreduced build: no symmetry quotient, decided states kept
    /// distinct. Its classes are the raw configurations minus the
    /// activation mask.
    fn unreduced() -> CompactOptions {
        CompactOptions {
            use_symmetry: false,
            merge_decided: false,
            ..CompactOptions::default()
        }
    }

    #[test]
    fn space_is_small_and_closed() {
        // The reachable space of Fig. 1 is finite and small: the unreduced
        // build closes well inside the cap, and no successor of a raw
        // configuration falls outside it.
        let p = TwoProcessor::new();
        let inputs = [Val::A, Val::B];
        let o = CompactOptions {
            max_configs: 100_000,
            ..unreduced()
        };
        let m = CompactMdp::build(&p, &inputs, &o).unwrap();
        assert!(m.size() < 2_000, "space size {}", m.size());
        let report = CompactExplorer::new(&p, &inputs)
            .use_symmetry(false)
            .check_invariant(|cfg| {
                for pid in cfg.eligible(&p) {
                    for (_, succ) in successors(&p, cfg, pid) {
                        if m.find(&p, &succ).is_none() {
                            return Err(format!("successor by p{pid} escapes the build"));
                        }
                    }
                }
                Ok(())
            })
            .run();
        assert!(report.complete);
        assert!(report.safe(), "{:?}", report.violations);
    }

    #[test]
    fn theorem_7_corollary_is_exactly_tight() {
        // The paper's Corollary bounds the expectation by 2 + 4·2 = 10.
        // The exact optimal adaptive adversary achieves it with equality —
        // the bound is tight, which the paper does not state — for either
        // processor and either input order.
        let p = TwoProcessor::new();
        for inputs in [[Val::A, Val::B], [Val::B, Val::A]] {
            for pid in 0..2 {
                let m = CompactMdp::build(&p, &inputs, &opts(Some(pid))).unwrap();
                let s = m.expected_steps(Objective::StepsOf(pid), 1e-12, 100_000, 1);
                assert!(
                    (s.value - 10.0).abs() < 1e-6,
                    "{inputs:?} p{pid}: exact optimum should be 10, got {}",
                    s.value
                );
            }
        }
    }

    #[test]
    fn theorem_7_corollary_survives_the_compact_backend() {
        let p = TwoProcessor::new();
        let m = CompactMdp::build(&p, &[Val::A, Val::B], &opts(Some(0))).unwrap();
        let s = m.expected_steps(Objective::StepsOf(0), 1e-12, 100_000, 1);
        assert!((s.value - 10.0).abs() < 1e-6, "value {}", s.value);
        // Fewer classes than raw configurations.
        let raw = raw_configs(&p, &[Val::A, Val::B]);
        assert!(m.size() < raw, "{} !< {raw}", m.size());
    }

    #[test]
    fn survival_curve_is_exactly_three_quarters_per_pair() {
        // Theorem 7's proof: every read–write pair after the initial write
        // decides with probability ≥ 1/4, so
        // P[not decided after k+2 own steps] ≤ (3/4)^{k/2}. (The paper's
        // text displays (1/4)^{k/2}, an evident slip: it would contradict
        // the paper's own Corollary E ≤ 2 + 4·2.) The exact worst case over
        // the raw configuration space meets (3/4)^{k/2} with equality at
        // even k.
        let p = TwoProcessor::new();
        let m = CompactMdp::build(&p, &[Val::A, Val::B], &unreduced()).unwrap();
        let curve = m.survival(0, 20, 1e-13, 200_000, 1);
        assert!((curve[0] - 1.0).abs() < 1e-12);
        for w in curve.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "curve must be nonincreasing");
        }
        for j in 0..=9 {
            let expect = 0.75f64.powi(j as i32);
            let got = curve[2 + 2 * j];
            assert!(
                (got - expect).abs() < 1e-9,
                "survival({}) = {got}, expected (3/4)^{j} = {expect}",
                2 + 2 * j
            );
        }
        // Odd steps are writes and cannot decide: the curve is flat between
        // consecutive even ks.
        for j in 1..=9 {
            assert!((curve[2 * j + 1] - curve[2 * j]).abs() < 1e-9);
        }
    }

    #[test]
    fn survival_curve_still_pins_three_quarters() {
        let p = TwoProcessor::new();
        let m = CompactMdp::build(&p, &[Val::A, Val::B], &opts(Some(0))).unwrap();
        let curve = m.survival(0, 20, 1e-13, 200_000, 1);
        for j in 0..=9 {
            let expect = 0.75f64.powi(j as i32);
            assert!(
                (curve[2 + 2 * j] - expect).abs() < 1e-9,
                "survival({}) = {}, want {expect}",
                2 + 2 * j,
                curve[2 + 2 * j],
            );
        }
    }

    #[test]
    fn optimal_policy_replays_in_the_simulator() {
        let p = TwoProcessor::new();
        let m = CompactMdp::build(&p, &[Val::A, Val::B], &opts(Some(0))).unwrap();
        let s = m.expected_steps(Objective::StepsOf(0), 1e-12, 100_000, 1);
        let runs = 4_000u64;
        let mut total0 = 0u64;
        for seed in 0..runs {
            let out = Runner::new(&p, &[Val::A, Val::B], m.policy_adversary(&p, &s))
                .seed(seed)
                .stop_when(StopWhen::PidDecided(0))
                .max_steps(100_000)
                .run();
            assert!(out.consistent());
            total0 += out.steps[0];
        }
        let mean = total0 as f64 / runs as f64;
        // Monte-Carlo mean under the optimal policy ≈ the exact value.
        assert!(
            (mean - s.value).abs() < 0.4,
            "MC mean {mean} vs exact {}",
            s.value
        );
    }

    #[test]
    fn equal_inputs_cost_exactly_two_steps() {
        let p = TwoProcessor::new();
        let m = CompactMdp::build(&p, &[Val::A, Val::A], &opts(Some(0))).unwrap();
        let s = m.expected_steps(Objective::StepsOf(0), 1e-12, 10_000, 1);
        assert!((s.value - 2.0).abs() < 1e-9, "value {}", s.value);
    }

    #[test]
    fn total_steps_objective_is_at_least_per_processor() {
        let p = TwoProcessor::new();
        let inputs = [Val::A, Val::B];
        let p0 = CompactMdp::build(&p, &inputs, &opts(Some(0))).unwrap();
        let any = CompactMdp::build(&p, &inputs, &opts(None)).unwrap();
        let per = p0.expected_steps(Objective::StepsOf(0), 1e-10, 100_000, 1);
        let tot = any.expected_steps(Objective::TotalSteps, 1e-10, 100_000, 1);
        assert!(tot.value >= per.value - 1e-9);
        assert!(tot.value <= 20.0 + 1e-9, "total {}", tot.value);
    }

    #[test]
    fn jacobi_is_jobs_invariant_to_the_bit() {
        let p = KValued::new(TwoProcessor::new(), 4);
        let m = CompactMdp::build(&p, &[Val(0), Val(3)], &opts(None)).unwrap();
        let s1 = m.expected_steps(Objective::TotalSteps, 1e-12, 100_000, 1);
        let s8 = m.expected_steps(Objective::TotalSteps, 1e-12, 100_000, 8);
        assert_eq!(s1.iterations, s8.iterations);
        for (a, b) in s1.values.iter().zip(&s8.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(s1.policy, s8.policy);
    }

    #[test]
    fn kvalued_class_space_is_at_least_halved() {
        let p = KValued::new(TwoProcessor::new(), 4);
        let inputs = [Val(0), Val(3)];
        let raw = raw_configs(&p, &inputs);
        let compact = CompactMdp::build(&p, &inputs, &opts(None)).unwrap();
        assert!(
            compact.size() * 2 <= raw,
            "compact {} vs raw {raw}: reduction below 2x",
            compact.size(),
        );
        assert!(compact.stats().sym_hits > 0);
        assert!(compact.stats().dedup_hits > 0);
    }

    #[test]
    fn values_match_dense_on_kvalued_total_steps() {
        // The quotient against the unreduced build: no symmetry, no merging.
        let p = KValued::new(TwoProcessor::new(), 4);
        let inputs = [Val(1), Val(2)];
        let dense = CompactMdp::build(&p, &inputs, &unreduced()).unwrap();
        let dv = dense.expected_steps(Objective::TotalSteps, 1e-12, 100_000, 1);
        let compact = CompactMdp::build(&p, &inputs, &opts(None)).unwrap();
        let cv = compact.expected_steps(Objective::TotalSteps, 1e-12, 100_000, 2);
        assert!(compact.size() < dense.size());
        assert!(
            (dv.value - cv.value).abs() < 1e-8,
            "dense {} vs compact {}",
            dv.value,
            cv.value
        );
    }

    #[test]
    fn off_symmetry_off_merging_reproduces_dense_size() {
        let p = TwoProcessor::new();
        let compact = CompactMdp::build(&p, &[Val::A, Val::B], &unreduced()).unwrap();
        // Without merging, classes differ from raw configurations only by
        // the dropped activation mask.
        assert!(compact.size() <= raw_configs(&p, &[Val::A, Val::B]));
        let s = compact.expected_steps(Objective::StepsOf(0), 1e-12, 100_000, 1);
        assert!((s.value - 10.0).abs() < 1e-6);
    }

    #[test]
    fn exceeding_max_configs_is_an_error_not_a_panic() {
        let p = TwoProcessor::new();
        let o = CompactOptions {
            max_configs: 3,
            ..CompactOptions::default()
        };
        assert!(CompactMdp::build(&p, &[Val::A, Val::B], &o).is_err());
    }

    #[test]
    fn two_processor_protocol_is_consistent_completely() {
        // The full reachable space of Fig. 1 is finite: the verdict is
        // complete — this mechanizes Theorem 6.
        let p = TwoProcessor::new();
        for inputs in [[Val::A, Val::B], [Val::A, Val::A], [Val::B, Val::A]] {
            let report = CompactExplorer::new(&p, &inputs).run();
            assert!(report.safe(), "violations: {:?}", report.violations);
            assert!(report.complete, "space unexpectedly unbounded");
            // The unanimous space is tiny (9 configs); the split one larger.
            let raw = raw_configs(&p, &inputs);
            assert!(raw >= 9, "explored {raw}");
        }
    }

    #[test]
    fn deterministic_victims_are_consistent_too() {
        for rule in DetRule::ALL {
            let p = DetTwo::new(rule);
            let report = CompactExplorer::new(&p, &[Val::A, Val::B]).run();
            assert!(report.safe(), "{rule}: {:?}", report.violations);
            assert!(report.complete, "{rule}");
        }
    }

    #[test]
    fn compact_explorer_matches_dense_verdict() {
        let p = TwoProcessor::new();
        for inputs in [[Val::A, Val::B], [Val::A, Val::A]] {
            let dense = CompactExplorer::new(&p, &inputs).use_symmetry(false).run();
            let (compact, stats) = CompactExplorer::new(&p, &inputs).run_with_stats();
            assert_eq!(compact.safe(), dense.safe());
            assert_eq!(compact.complete, dense.complete);
            assert_eq!(compact.max_depth, dense.max_depth);
            assert!(compact.explored <= dense.explored);
            assert_eq!(stats.classes, compact.explored);
        }
    }

    #[test]
    fn compact_explorer_without_symmetry_counts_dense_configs() {
        // With symmetry off, classes biject with raw configurations: the
        // representatives are pairwise distinct, and they are closed under
        // the successor relation, so they are the whole reachable space.
        let p = TwoProcessor::new();
        let inputs = [Val::A, Val::B];
        let visited = RefCell::new(HashSet::new());
        let report = CompactExplorer::new(&p, &inputs)
            .use_symmetry(false)
            .check_invariant(|cfg| {
                visited.borrow_mut().insert(cfg.clone());
                Ok(())
            })
            .run();
        let visited = visited.into_inner();
        assert!(report.complete);
        assert_eq!(report.explored, 37);
        assert_eq!(visited.len(), report.explored);
        for cfg in &visited {
            for pid in cfg.eligible(&p) {
                for (_, succ) in successors(&p, cfg, pid) {
                    assert!(visited.contains(&succ), "successor escaped the walk");
                }
            }
        }
    }

    #[test]
    fn depth_and_config_bounds_mark_the_report_incomplete() {
        let p = TwoProcessor::new();
        let report = CompactExplorer::new(&p, &[Val::A, Val::B])
            .max_depth(2)
            .run();
        assert!(!report.complete);
        assert!(report.max_depth <= 2);
        let report = CompactExplorer::new(&p, &[Val::A, Val::B])
            .use_symmetry(false)
            .max_configs(20)
            .run();
        assert!(!report.complete);
        assert_eq!(report.explored, 20);
    }

    #[test]
    fn invariant_violations_are_reported() {
        let p = TwoProcessor::new();
        let report = CompactExplorer::new(&p, &[Val::A, Val::B])
            .check_invariant(|cfg| {
                if cfg.active == 0b11 {
                    Err("both stepped".into())
                } else {
                    Ok(())
                }
            })
            .run();
        assert!(!report.safe());
        assert!(matches!(report.violations[0], Violation::Invariant { .. }));
    }

    #[test]
    fn violation_cap_stops_mid_level() {
        // More than 100 violations end the walk at once; the level it
        // stopped in gets no record.
        let p = KValued::new(TwoProcessor::new(), 8);
        let report = CompactExplorer::new(&p, &[Val(0), Val(7)])
            .use_symmetry(false)
            .check_invariant(|_| Err("always".into()))
            .run();
        assert_eq!(report.violations.len(), 101);
        assert!(!report.complete);
        let recorded: usize = report.levels.iter().map(|l| l.frontier).sum();
        assert!(recorded < 101, "{recorded} configurations in full levels");
    }

    /// A deliberately broken protocol: each processor decides its own input
    /// immediately. The explorer must catch the inconsistency.
    #[derive(Debug, Clone)]
    struct DecideOwn;

    impl Protocol for DecideOwn {
        type State = (Val, bool);
        type Reg = u8;

        fn processes(&self) -> usize {
            2
        }
        fn registers(&self) -> Vec<cil_registers::RegisterSpec<u8>> {
            cil_registers::access::per_process_registers(2, 0, |_| ReaderSet::All)
        }
        fn init(&self, _pid: usize, input: Val) -> (Val, bool) {
            (input, false)
        }
        fn choose(&self, pid: usize, _s: &(Val, bool)) -> cil_sim::Choice<cil_sim::Op<u8>> {
            cil_sim::Choice::det(cil_sim::Op::Write(cil_registers::RegId(pid), 1))
        }
        fn transit(
            &self,
            _pid: usize,
            s: &(Val, bool),
            _op: &cil_sim::Op<u8>,
            _read: Option<&u8>,
        ) -> cil_sim::Choice<(Val, bool)> {
            cil_sim::Choice::det((s.0, true))
        }
        fn decision(&self, s: &(Val, bool)) -> Option<Val> {
            s.1.then_some(s.0)
        }
    }

    impl Symmetric for DecideOwn {}

    #[test]
    fn broken_protocol_is_caught() {
        let report = CompactExplorer::new(&DecideOwn, &[Val::A, Val::B]).run();
        assert!(!report.safe());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Inconsistent { .. })));
    }

    #[test]
    fn level_stats_account_for_the_whole_exploration() {
        let p = TwoProcessor::new();
        let report = CompactExplorer::new(&p, &[Val::A, Val::B]).run();
        assert!(!report.levels.is_empty());
        // Frontiers partition the explored set; fresh counts seed the next
        // frontier; depths are consecutive from 0.
        let popped: usize = report.levels.iter().map(|l| l.frontier).sum();
        assert_eq!(popped, report.explored);
        for (i, l) in report.levels.iter().enumerate() {
            assert_eq!(l.depth, i);
            assert!(l.fresh <= l.generated, "level {i}");
            let next_frontier = report.levels.get(i + 1).map_or(0, |n| n.frontier);
            assert_eq!(l.fresh, next_frontier, "level {i}");
        }
    }

    #[test]
    fn on_level_streams_the_report_levels() {
        let p = TwoProcessor::new();
        let streamed = RefCell::new(Vec::new());
        let report = CompactExplorer::new(&p, &[Val::A, Val::B])
            .on_level(|l| streamed.borrow_mut().push(*l))
            .run();
        assert_eq!(streamed.into_inner(), report.levels);
    }

    #[test]
    fn metrics_are_exported() {
        let p = TwoProcessor::new();
        let m = CompactMdp::build(&p, &[Val::A, Val::B], &opts(Some(0))).unwrap();
        let reg = Registry::new();
        m.export_metrics(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.gauges.get("mdp.configs"), Some(&(m.size() as u64)));
        assert!(snap.counters.contains_key("mdp.dedup_hits"));
    }
}
