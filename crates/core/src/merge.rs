//! The merge stage: iterative mutual-choice merging on the RAG.
//!
//! One merge iteration (the paper's steps 3–4):
//!
//! 1. every region selects the neighbouring region that best satisfies the
//!    homogeneity criterion (minimum edge weight), breaking ties by the
//!    configured [`TieBreak`] policy;
//! 2. two regions merge iff they selected each other (*mutual* choices);
//!    several pairs merge in the same iteration without conflict because
//!    each region makes exactly one choice;
//! 3. the region with the smaller ID becomes the representative;
//! 4. vertices and edges are updated: statistics fold, edge endpoints
//!    relabel to representatives, self-loops disappear, and edges that no
//!    longer satisfy the criterion are de-activated (dropped — under the
//!    pixel-range criterion weights grow monotonically with merging, so
//!    de-activation is permanent, exactly as in the paper; under the
//!    mean-difference extension we keep the paper's drop-on-violation
//!    semantics even though the mean distance is not monotone).
//!
//! The loop repeats while active edges exist.
//!
//! ### Backends
//!
//! Two interchangeable merge backends implement step 4
//! ([`crate::config::MergeBackend`]):
//!
//! * **CSR** (default): a compressed-sparse-row adjacency structure in the
//!   spirit of the CM implementations' flat arrays, kept over the
//!   *current* regions only. Its lifecycle is linear:
//!   - *build*: [`Merger::reset_from_split`] scans the split's pixel →
//!     square map twice (count degrees, scatter slots) and
//!     [`Merger::reset_from`] streams an edge list the same way; one row
//!     pass then drops duplicate and criterion-violating slots and folds
//!     iteration 0's choices. No pair list, no sort.
//!   - *end of step*: one pass redirects endpoints through the
//!     iteration's one-level redirect table (exact, because a
//!     representative never loses in the iteration it wins), drops
//!     self-loops / duplicates / criterion-violating slots, squeezes the
//!     survivors and pre-folds the next iteration's choices — no
//!     per-iteration edge-list rebuild, no global sort, no steady-state
//!     allocation. Under a deterministic tie policy, when few regions
//!     merged, an incremental pass rescans only the merged pairs'
//!     neighbourhoods; otherwise a full sweep walks the live owners in
//!     ascending order.
//!   - *contraction*: every full sweep after a productive iteration
//!     renumbers the surviving owners onto a dense, order-preserving
//!     vertex space and gives each one a single contiguous row, so the
//!     arrays shrink with the graph and the next sweep streams them in
//!     order. The merge history and trace stay in original indices.
//!
//!   The build's row pass, the full sweep (in place or contracting) and
//!   the incremental pass share one rescan kernel (`Csr::rescan`, whose
//!   per-slot loop `scan_row` runs on slices borrowed from disjoint
//!   fields): the paper's segmented min over flat arrays. Under the
//!   deterministic tie policies its per-slot loop has no data-dependent
//!   branch and folds a packed integer key with `min`; under
//!   [`TieBreak::Random`] it hashes only the slots that survive the
//!   filter.
//! * **Reference**: the original edge-list engine that rebuilds, re-sorts
//!   and re-dedups the whole list every iteration. Kept for differential
//!   testing and as the perf baseline pinned in `tests/bench_guards.rs`.
//!
//! Both backends produce byte-identical merge histories: the candidate
//! argmin is order-invariant (strict total order per chooser, see
//! `prop_tiebreak.rs`), every CSR pass dedups each owner's neighbours
//! exactly, and the CSR backend filters criterion-violating slots
//! *eagerly* at the end of each iteration — exactly when the reference
//! filters — so the de-activation schedule, the active-edge counts, the
//! iteration count, and the stall/fallback behaviour coincide.
//!
//! The CSR kernel ranks candidates by keys *order-isomorphic* to the
//! reference backend's [`CandKey`] `(weight, tie0, tie1, c)`, not by the
//! tuple itself. Canonical IDs strictly increase with the dense index, and
//! contraction preserves the order, so a candidate's ID ranks exactly as
//! its index `c`; and the pixel-range weight is the union range shifted
//! left by 16, so the range ranks exactly as the weight. Hence
//! `range << 32 | c` ([`TieBreak::SmallestId`]), `range << 32 | (u32::MAX
//! − c)` ([`TieBreak::LargestId`]) and `(range, hash, c)`
//! ([`TieBreak::Random`]) order candidates as `CandKey` does; the
//! mean-difference criterion packs its 16.16 weight the same way, in a
//! `u128` because on 32-bit pixels its weights need 48 bits.
//!
//! ### Termination
//!
//! With [`TieBreak::SmallestId`] / [`TieBreak::LargestId`] at least one
//! mutual pair exists in every iteration (the globally minimal edge under
//! the induced total order is always mutual), so the stage terminates in at
//! most `R − 1` iterations. With [`TieBreak::Random`] an iteration may
//! produce no merge (choices can form cycles); the engine re-randomises
//! every iteration and, after [`Config::max_stall`] consecutive empty
//! iterations, runs a single smallest-ID iteration to force progress.
//!
//! ### Determinism across engines
//!
//! All tie-break decisions hash *canonical region IDs* (the linear index of
//! a region's top-left pixel — [`crate::split::Square::id`]), not dense
//! vertex indices, so the sequential, rayon, data-parallel, and
//! message-passing engines make identical random decisions given the same
//! seed. The CSR kernel's packed keys drop the IDs only where their order
//! is the dense index order (see above), so every engine still picks the
//! same candidate.

use crate::config::{
    mean_satisfies, mean_weight_fp16, range_satisfies, range_weight_fp16, Config, Connectivity,
    Criterion, MergeBackend, RegionStats, TieBreak,
};
use crate::graph::{bucket_label_pairs, for_each_boundary_pair, pixel_pairs_bound, Rag};
use crate::hierarchy::{MergeEvent, MergeTrace};
use crate::split::SplitResult;
use crate::telemetry::{NullTelemetry, SpanGuard, SpanKind, Telemetry};
use rg_dsu::DisjointSets;
use rg_imaging::Intensity;
use std::marker::PhantomData;

/// Deterministic tie-break priority: a splitmix64-style hash of
/// `(seed, iteration, chooser, candidate)`.
///
/// Public so the data-parallel and message-passing implementations can make
/// bit-identical random choices.
#[inline]
pub fn tie_priority(seed: u64, iteration: u32, chooser: u64, candidate: u64) -> u64 {
    let mut x = seed
        .wrapping_add((iteration as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(chooser.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(candidate.wrapping_mul(0x94D0_49BB_1331_11EB));
    // splitmix64 finaliser.
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// The key a chooser uses to rank `candidate` among equal-weight
/// neighbours; smaller is better. Shared by every engine.
#[inline]
pub fn tie_key(policy: TieBreak, iteration: u32, chooser_id: u64, candidate_id: u64) -> (u64, u64) {
    match policy {
        TieBreak::SmallestId => (candidate_id, 0),
        TieBreak::LargestId => (u64::MAX - candidate_id, 0),
        TieBreak::Random { seed } => (
            tie_priority(seed, iteration, chooser_id, candidate_id),
            candidate_id,
        ),
    }
}

/// The full candidate ranking key `(weight, tie0, tie1, candidate)`: a
/// chooser picks the candidate minimising this tuple. The trailing dense
/// candidate index makes the order strict, so the argmin is invariant
/// under any scan order — the property every backend's segmented-min
/// relies on.
pub type CandKey = (u64, u64, u64, u32);

/// Identity element of the [`CandKey`] min-fold ("no candidate seen").
const KEY_SENTINEL: CandKey = (u64::MAX, u64::MAX, u64::MAX, u32::MAX);

/// Builds the full [`CandKey`] for one directed candidate. Shared by the
/// in-core backends and the message-passing engine so every implementation
/// ranks candidates identically.
#[inline]
pub fn choice_key(
    policy: TieBreak,
    iteration: u32,
    chooser_id: u64,
    candidate_id: u64,
    weight: u64,
    candidate: u32,
) -> CandKey {
    let (k0, k1) = tie_key(policy, iteration, chooser_id, candidate_id);
    (weight, k0, k1, candidate)
}

/// Deterministic-tie CSR iterations take the incremental end-of-step pass
/// only while `INCREMENTAL_MAX_SHARE · losers < live slots`, and the full
/// sweep otherwise. Each merged pair dirties its own rows and every
/// neighbour's, which the incremental pass reads in random order (twice
/// for the pair's own rows); once the merges cover more than about one
/// live slot in this many, those neighbourhoods overlap into most of the
/// graph and one sequential sweep over every live slot is cheaper.
const INCREMENTAL_MAX_SHARE: usize = 16;

/// What one call to [`Merger::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepReport {
    /// Number of region pairs merged this iteration.
    pub merges: u32,
    /// `true` when the stall guard forced a smallest-ID iteration.
    pub used_fallback: bool,
    /// Active undirected edges remaining *after* this iteration (the same
    /// deduplicated count under both backends).
    pub active_edges: u64,
    /// `true` when the CSR backend compacted its slot array this
    /// iteration.
    pub compacted: bool,
}

/// Summary of a completed merge stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeSummary {
    /// Total merge iterations executed (including zero-merge iterations
    /// under random tie-breaking).
    pub iterations: u32,
    /// Merges performed in each iteration.
    pub merges_per_iteration: Vec<u32>,
    /// Regions remaining at termination.
    pub num_regions: usize,
}

/// Region statistics in structure-of-arrays layout: `min`/`max`/`sum`/
/// `count` as separate slices so the hot weight/criterion kernels touch
/// only the fields the active criterion needs (and autovectorise).
#[derive(Debug)]
struct SoaStats<P: Intensity> {
    min: Vec<P>,
    max: Vec<P>,
    sum: Vec<u64>,
    cnt: Vec<u64>,
}

impl<P: Intensity> SoaStats<P> {
    /// An empty SoA (no allocation until [`SoaStats::refill`]).
    fn empty() -> Self {
        Self {
            min: Vec::new(),
            max: Vec::new(),
            sum: Vec::new(),
            cnt: Vec::new(),
        }
    }

    /// Re-fills the SoA from an AoS slice in place, reusing capacity.
    fn refill(&mut self, stats: &[RegionStats<P>]) {
        self.min.clear();
        self.min.extend(stats.iter().map(|s| s.min));
        self.max.clear();
        self.max.extend(stats.iter().map(|s| s.max));
        self.sum.clear();
        self.sum.extend(stats.iter().map(|s| s.sum));
        self.cnt.clear();
        self.cnt.extend(stats.iter().map(|s| s.count));
    }

    /// 16.16 fixed-point merge weight of regions `a` and `b`.
    #[inline]
    fn weight(&self, crit: Criterion, a: usize, b: usize) -> u64 {
        match crit {
            Criterion::PixelRange => range_weight_fp16(
                self.min[a].min(self.min[b]).to_u32(),
                self.max[a].max(self.max[b]).to_u32(),
            ),
            Criterion::MeanDifference => {
                mean_weight_fp16(self.sum[a], self.cnt[a], self.sum[b], self.cnt[b])
            }
        }
    }

    /// `true` iff merging `a` and `b` satisfies the criterion at `t`.
    #[inline]
    fn satisfies(&self, crit: Criterion, t: u32, a: usize, b: usize) -> bool {
        match crit {
            Criterion::PixelRange => range_satisfies(
                self.min[a].min(self.min[b]).to_u32(),
                self.max[a].max(self.max[b]).to_u32(),
                t,
            ),
            Criterion::MeanDifference => {
                mean_satisfies(self.sum[a], self.cnt[a], self.sum[b], self.cnt[b], t)
            }
        }
    }

    /// Folds `loser`'s statistics into `winner` (region union).
    #[inline]
    fn fold(&mut self, winner: usize, loser: usize) {
        self.min[winner] = self.min[winner].min(self.min[loser]);
        self.max[winner] = self.max[winner].max(self.max[loser]);
        self.sum[winner] += self.sum[loser];
        self.cnt[winner] += self.cnt[loser];
    }

    /// Reassembles the AoS view of vertex `i`.
    #[inline]
    fn get(&self, i: usize) -> RegionStats<P> {
        RegionStats {
            min: self.min[i],
            max: self.max[i],
            sum: self.sum[i],
            count: self.cnt[i],
        }
    }
}

/// Hot per-vertex record for the CSR kernels: the pixel-range extrema and
/// the canonical tie-break ID packed into one 16-byte slot, so ranking a
/// candidate costs a single gather instead of three (min, max, id from
/// separate arrays). Updated alongside [`SoaStats`] on every merge.
#[derive(Debug, Clone, Copy)]
struct HotVertex {
    /// Current region minimum, widened to `u32`.
    min: u32,
    /// Current region maximum, widened to `u32`.
    max: u32,
    /// Canonical region ID (see [`crate::split::Square::id`]).
    id: u64,
}

/// The per-criterion half of the CSR rescan kernel: the rank that orders a
/// chooser's candidates and the de-activation predicate.
///
/// The rank is order-isomorphic to the 16.16 weight of [`CandKey`]: the
/// union range itself under the pixel-range criterion (its 16.16 weight
/// is `range << 16`, with the low 16 bits always zero), the 16.16 mean
/// distance under the mean-difference one.
trait Rank: Copy {
    /// What the kernel needs of the chooser, read once per owner.
    type Owner: Copy;
    fn owner(&self, o: usize) -> Self::Owner;
    fn rank(&self, o: Self::Owner, c: usize) -> u64;
    /// `true` iff merging the chooser and `c` satisfies the criterion.
    fn keeps(&self, o: Self::Owner, c: usize, rank: u64) -> bool;
}

/// [`Rank`] under [`Criterion::PixelRange`]: the union range, from the
/// packed extrema of [`HotVertex`], so one gather serves both the filter
/// and the argmin.
#[derive(Clone, Copy)]
struct RangeRank<'a> {
    hot: &'a [HotVertex],
    t: u32,
}

impl Rank for RangeRank<'_> {
    type Owner = HotVertex;
    #[inline(always)]
    fn owner(&self, o: usize) -> HotVertex {
        self.hot[o]
    }
    #[inline(always)]
    fn rank(&self, a: HotVertex, c: usize) -> u64 {
        let b = self.hot[c];
        u64::from(a.max.max(b.max) - a.min.min(b.min))
    }
    #[inline(always)]
    fn keeps(&self, _: HotVertex, _: usize, range: u64) -> bool {
        range <= u64::from(self.t)
    }
}

/// [`Rank`] under [`Criterion::MeanDifference`]. Floor division makes the
/// 16.16 mean distance an inexact proxy for the criterion, so the filter
/// keeps the exact integer predicate.
#[derive(Clone, Copy)]
struct MeanRank<'a> {
    sum: &'a [u64],
    cnt: &'a [u64],
    t: u32,
}

impl Rank for MeanRank<'_> {
    type Owner = (u64, u64);
    #[inline(always)]
    fn owner(&self, o: usize) -> (u64, u64) {
        (self.sum[o], self.cnt[o])
    }
    #[inline(always)]
    fn rank(&self, (sum, cnt): (u64, u64), c: usize) -> u64 {
        mean_weight_fp16(sum, cnt, self.sum[c], self.cnt[c])
    }
    #[inline(always)]
    fn keeps(&self, (sum, cnt): (u64, u64), c: usize, _: u64) -> bool {
        mean_satisfies(sum, cnt, self.sum[c], self.cnt[c], self.t)
    }
}

/// The per-tie-policy half of the CSR rescan kernel: a chooser's argmin
/// fold over its slots.
trait Choose: Copy {
    /// The running minimum.
    type Best: Copy;
    /// The fold's identity for chooser `o`.
    fn start(&self, o: usize) -> Self::Best;
    /// Folds candidate `c` of rank `rank` into `best` iff `keep`.
    fn fold(&self, best: &mut Self::Best, keep: bool, rank: u64, c: usize);
    /// The chosen candidate; meaningful only if some slot was kept.
    fn pick(best: Self::Best) -> u32;
}

/// An integer key `rank << 32 | low` whose unsigned order is the
/// lexicographic order of `(rank, low)`. `u64` holds every rank below
/// 2^32 (every union range); `u128` holds every mean-difference rank,
/// which takes 48 bits on 32-bit pixels.
trait PackedKey: Copy + Ord {
    /// All ones: the identity of the `min` fold.
    const DEAD: Self;
    fn pack(rank: u64, low: u32) -> Self;
    fn low(self) -> u32;
    /// `self` if `keep`, [`PackedKey::DEAD`] otherwise.
    fn or_dead(self, keep: bool) -> Self;
}

impl PackedKey for u64 {
    const DEAD: u64 = u64::MAX;
    #[inline(always)]
    fn pack(rank: u64, low: u32) -> u64 {
        debug_assert!(rank >> 32 == 0, "rank {rank} does not fit a u64 key");
        rank << 32 | u64::from(low)
    }
    #[inline(always)]
    fn low(self) -> u32 {
        self as u32
    }
    #[inline(always)]
    fn or_dead(self, keep: bool) -> u64 {
        self | u64::from(keep).wrapping_sub(1)
    }
}

impl PackedKey for u128 {
    const DEAD: u128 = u128::MAX;
    #[inline(always)]
    fn pack(rank: u64, low: u32) -> u128 {
        u128::from(rank) << 32 | u128::from(low)
    }
    #[inline(always)]
    fn low(self) -> u32 {
        self as u32
    }
    #[inline(always)]
    fn or_dead(self, keep: bool) -> u128 {
        self | u128::from(keep).wrapping_sub(1)
    }
}

/// [`TieBreak::SmallestId`] as a packed key `rank << 32 | c`. Canonical
/// IDs strictly increase with the dense index (and contraction preserves
/// the order), so `(rank, c)` orders candidates exactly as the
/// [`CandKey`] `(weight, id, 0, c)` does.
#[derive(Clone, Copy)]
struct SmallestFirst<K>(PhantomData<K>);

impl<K: PackedKey> Choose for SmallestFirst<K> {
    type Best = K;
    #[inline(always)]
    fn start(&self, _: usize) -> K {
        K::DEAD
    }
    #[inline(always)]
    fn fold(&self, best: &mut K, keep: bool, rank: u64, c: usize) {
        *best = (*best).min(K::pack(rank, c as u32).or_dead(keep));
    }
    #[inline(always)]
    fn pick(best: K) -> u32 {
        best.low()
    }
}

/// [`TieBreak::LargestId`] as a packed key `rank << 32 | (u32::MAX − c)`,
/// the same order as the [`CandKey`] `(weight, u64::MAX − id, 0, c)`. A
/// kept candidate may pack to all ones (`c = 0` at `rank = u32::MAX`), so
/// the all-ones identity cannot tell "no candidate": callers count the
/// survivors instead, and an all-ones minimum decodes to `c = 0` either
/// way.
#[derive(Clone, Copy)]
struct LargestFirst<K>(PhantomData<K>);

impl<K: PackedKey> Choose for LargestFirst<K> {
    type Best = K;
    #[inline(always)]
    fn start(&self, _: usize) -> K {
        K::DEAD
    }
    #[inline(always)]
    fn fold(&self, best: &mut K, keep: bool, rank: u64, c: usize) {
        *best = (*best).min(K::pack(rank, !(c as u32)).or_dead(keep));
    }
    #[inline(always)]
    fn pick(best: K) -> u32 {
        !best.low()
    }
}

/// [`TieBreak::Random`]: the tuple `(rank, hash, c)`, the same order as
/// the [`CandKey`] `(weight, hash, id, c)`. The fold branches before the
/// hash, so the splitmix hash is paid per surviving slot, not per slot.
#[derive(Clone, Copy)]
struct RandomTie<'a> {
    seed: u64,
    iteration: u32,
    hot: &'a [HotVertex],
}

impl Choose for RandomTie<'_> {
    /// The running `(rank, hash, c)` minimum and the chooser's ID.
    type Best = ((u64, u64, u32), u64);
    #[inline(always)]
    fn start(&self, o: usize) -> Self::Best {
        ((u64::MAX, u64::MAX, u32::MAX), self.hot[o].id)
    }
    #[inline(always)]
    fn fold(&self, best: &mut Self::Best, keep: bool, rank: u64, c: usize) {
        if !keep {
            return;
        }
        let hash = tie_priority(self.seed, self.iteration, best.1, self.hot[c].id);
        let k = (rank, hash, c as u32);
        if k < best.0 {
            best.0 = k;
        }
    }
    #[inline(always)]
    fn pick(best: Self::Best) -> u32 {
        best.0 .2
    }
}

/// Binds `$rank` (the criterion's [`Rank`]) and `$choose` (`$policy`'s
/// [`Choose`] at `$iteration`) and evaluates `$body` with them, so the CSR
/// passes monomorphise per criterion and tie policy with no per-slot
/// dispatch. The packed key is `u64` under the pixel-range criterion,
/// whose rank is a union range below 2^32, and `u128` under the
/// mean-difference one, whose 16.16 distances need 48 bits on 32-bit
/// pixels. `$ties` is `any`, or `deterministic` for a pass that never
/// runs under [`TieBreak::Random`] (no [`RandomTie`] body is generated).
macro_rules! with_kernel {
    ($ties:ident: $stats:expr, $hot:expr, $crit:expr, $t:expr, $policy:expr,
     $iteration:expr, |$rank:ident, $choose:ident| $body:expr) => {{
        let (stats, hot, t) = ($stats, $hot, $t);
        match $crit {
            Criterion::PixelRange => {
                let $rank = RangeRank { hot, t };
                with_kernel!(@$ties u64, hot, $policy, $iteration, |$choose| $body)
            }
            Criterion::MeanDifference => {
                let $rank = MeanRank {
                    sum: &stats.sum,
                    cnt: &stats.cnt,
                    t,
                };
                with_kernel!(@$ties u128, hot, $policy, $iteration, |$choose| $body)
            }
        }
    }};
    (@any $key:ty, $hot:expr, $policy:expr, $iteration:expr, |$choose:ident| $body:expr) => {
        match $policy {
            TieBreak::Random { seed } => {
                let $choose = RandomTie {
                    seed,
                    iteration: $iteration,
                    hot: $hot,
                };
                $body
            }
            policy => with_kernel!(@deterministic $key, $hot, policy, $iteration, |$choose| $body),
        }
    };
    (@deterministic $key:ty, $hot:expr, $policy:expr, $iteration:expr, |$choose:ident| $body:expr) => {
        match $policy {
            TieBreak::SmallestId => {
                let $choose = SmallestFirst::<$key>(PhantomData);
                $body
            }
            TieBreak::LargestId => {
                let $choose = LargestFirst::<$key>(PhantomData);
                $body
            }
            TieBreak::Random { .. } => unreachable!("this pass runs under deterministic ties only"),
        }
    };
}

/// "No row" marker for the owner→rows linked lists.
const NO_ROW: u32 = u32::MAX;

/// Undirected adjacency pairs the CSR build streams twice: once to count
/// row degrees, once to scatter the slots.
trait PairSource {
    fn for_each(&self, f: impl FnMut(u32, u32));
}

impl PairSource for [(u32, u32)] {
    fn for_each(&self, mut f: impl FnMut(u32, u32)) {
        for &(u, v) in self {
            f(u, v);
        }
    }
}

/// The boundary pairs of a split's pixel → square map
/// ([`crate::graph::for_each_boundary_pair`]), duplicates and all.
struct PixelPairs<'a> {
    labels: &'a [u32],
    width: usize,
    height: usize,
    connectivity: Connectivity,
}

impl PairSource for PixelPairs<'_> {
    fn for_each(&self, f: impl FnMut(u32, u32)) {
        for_each_boundary_pair(self.labels, self.width, self.height, self.connectivity, f);
    }
}

/// The CSR adjacency state plus all persistent scratch, so steady-state
/// iterations perform no heap allocation.
///
/// Everything here is indexed in the merger's *current* vertex space: the
/// original vertices until the first contraction, the live owners it kept
/// afterwards (see [`Merger`]'s `orig`).
#[derive(Debug)]
struct Csr {
    /// Row extents, one row per vertex (`len = vertices + 1`): row `r`'s
    /// slots live in `col[row_ptr[r] .. row_ptr[r] + row_len[r]]`. Fixed
    /// between contractions; a contraction lays out one gap-free row per
    /// kept owner.
    row_ptr: Vec<u32>,
    /// Live slots of each row. Survivors are squeezed to the row start by
    /// every pass, so the dead tail of an extent is never rescanned (no
    /// tombstones).
    row_len: Vec<u32>,
    /// Directed neighbour slots. Every slot holds the *current
    /// representative* of the neighbouring region.
    col: Vec<u32>,
    /// The owners the full sweep walks, ascending: every region holding a
    /// live slot, possibly plus regions merged away or emptied by an
    /// incremental pass since the last sweep (their row lists are empty,
    /// and the sweep drops them). Squeezed by every full sweep, so its
    /// cost is O(live slots + live owners), never O(vertices).
    owners: Vec<u32>,
    /// Number of live directed slots (`== row_len` sum). Each owner names
    /// each neighbour at most once after every pass, so this is twice the
    /// active undirected edge count.
    live: usize,
    /// Head of each vertex's list of owned rows (`NO_ROW` = owns none).
    /// Loser lists are spliced onto the winner's on every merge, so every
    /// pass reaches all of a region's slots — and, through them, its
    /// neighbours — by walking one list. Emptied rows are unlinked.
    row_head: Vec<u32>,
    /// Tail of each vertex's row list (for O(1) splicing).
    row_tail: Vec<u32>,
    /// Next row in the owning vertex's list.
    row_next: Vec<u32>,
    /// Per-vertex marks: `seen[v] == iteration + 1` iff the current
    /// incremental pass has put `v` in its dirty set. A contraction
    /// borrows it as the old → new vertex map and clears it.
    seen: Vec<u32>,
    /// Scratch: dirty vertices of the current incremental pass.
    dirty: Vec<u32>,
    /// Per-neighbour stamp for per-owner duplicate detection; a fresh
    /// token per (owner, pass) makes the check exact with no clearing,
    /// because every pass visits each owner's rows consecutively.
    stamp: Vec<u64>,
    /// Next stamp token block (monotonically increasing, starts at 1
    /// because `stamp` is zero-initialised).
    next_token: u64,
    /// Owners whose `choice` the last pass recomputed, each listed once:
    /// every live owner after the build or a full sweep, the dirty set
    /// after an incremental pass. The next apply step scans only these —
    /// every other owner's choice is unchanged, so it cannot be part of a
    /// new mutual pair.
    touched: Vec<u32>,
    /// The (policy, iteration) the last pass folded the choice minima
    /// under — cross-checked against the choice pass in debug builds.
    precomputed_for: (TieBreak, u32),
    /// Contraction scratch: the old index of each kept owner, ascending.
    kept: Vec<u32>,
    /// Contraction target for the kept owners' row extents, swapped with
    /// `row_ptr` when the contraction is installed.
    next_ptr: Vec<u32>,
    /// Contraction target for the kept owners' slots, swapped with `col`.
    next_col: Vec<u32>,
    /// `false` only in unit tests that compare against the uncontracted
    /// layout.
    #[cfg(test)]
    contracts: bool,
    /// Kind of every end-of-step pass so far (`true` = incremental), so
    /// unit tests can assert which traversals a run exercised.
    #[cfg(test)]
    incremental_log: Vec<bool>,
    /// Vertex-space size after every contraction so far.
    #[cfg(test)]
    contraction_log: Vec<usize>,
}

impl Csr {
    /// An empty CSR (no allocation until [`Csr::fill`]).
    fn empty() -> Self {
        Self {
            row_ptr: Vec::new(),
            row_len: Vec::new(),
            col: Vec::new(),
            owners: Vec::new(),
            live: 0,
            row_head: Vec::new(),
            row_tail: Vec::new(),
            row_next: Vec::new(),
            seen: Vec::new(),
            dirty: Vec::new(),
            stamp: Vec::new(),
            next_token: 1,
            touched: Vec::new(),
            precomputed_for: (TieBreak::SmallestId, u32::MAX),
            kept: Vec::new(),
            next_ptr: Vec::new(),
            next_col: Vec::new(),
            #[cfg(test)]
            contracts: true,
            #[cfg(test)]
            incremental_log: Vec::new(),
            #[cfg(test)]
            contraction_log: Vec::new(),
        }
    }

    /// Re-initialises the CSR over `n` vertices **in place**, reusing every
    /// array's capacity: one stream of `pairs` counts both directions'
    /// degrees, a second scatters the slots (`row_len` doubles as the fill
    /// cursor, so no temporary is needed). Duplicate and
    /// criterion-violating slots stay until the build's first
    /// [`Csr::sweep`].
    fn fill(&mut self, n: usize, pairs: &(impl PairSource + ?Sized)) {
        // Contractions swap the layout buffers; build in the larger pair
        // so that, once warm, neither ever has to grow.
        if self.col.capacity() < self.next_col.capacity() {
            std::mem::swap(&mut self.col, &mut self.next_col);
            std::mem::swap(&mut self.row_ptr, &mut self.next_ptr);
        }
        self.row_ptr.clear();
        self.row_ptr.resize(n + 1, 0);
        pairs.for_each(|u, v| {
            self.row_ptr[u as usize + 1] += 1;
            self.row_ptr[v as usize + 1] += 1;
        });
        for i in 0..n {
            self.row_ptr[i + 1] += self.row_ptr[i];
        }
        let slots = self.row_ptr[n] as usize;
        // `row_len` serves as the per-row fill cursor during scatter...
        self.row_len.clear();
        self.row_len.extend_from_slice(&self.row_ptr[..n]);
        self.col.clear();
        self.col.resize(slots, 0);
        pairs.for_each(|u, v| {
            self.col[self.row_len[u as usize] as usize] = v;
            self.row_len[u as usize] += 1;
            self.col[self.row_len[v as usize] as usize] = u;
            self.row_len[v as usize] += 1;
        });
        // ...then becomes the slot count of each row.
        for r in 0..n {
            self.row_len[r] = self.row_ptr[r + 1] - self.row_ptr[r];
        }
        self.live = slots;
        // Tokens restart, so no stale stamp may survive.
        self.stamp.clear();
        self.reset_vertices(n);
        self.next_token = 1;
        #[cfg(test)]
        self.incremental_log.clear();
        #[cfg(test)]
        self.contraction_log.clear();
    }

    /// Per-vertex state for `n` vertices that each own row `v` alone:
    /// singleton row lists, the owner list (rows with a slot), clean marks.
    /// Stale stamps are harmless (below every future token) but the array
    /// must span the space.
    fn reset_vertices(&mut self, n: usize) {
        self.row_head.clear();
        self.row_head.extend(0..n as u32);
        self.row_tail.clear();
        self.row_tail.extend(0..n as u32);
        self.row_next.clear();
        self.row_next.resize(n, NO_ROW);
        let row_len = &self.row_len;
        self.owners.clear();
        self.owners
            .extend((0..n as u32).filter(|&r| row_len[r as usize] > 0));
        self.seen.clear();
        self.seen.resize(n, 0);
        self.stamp.resize(n, 0);
        self.stamp.truncate(n);
        self.dirty.clear();
    }

    /// Appends loser `v`'s row list to winner `u`'s (O(1)).
    fn splice(&mut self, u: usize, v: usize) {
        let vh = self.row_head[v];
        if vh == NO_ROW {
            return;
        }
        let vt = self.row_tail[v];
        if self.row_head[u] == NO_ROW {
            self.row_head[u] = vh;
        } else {
            self.row_next[self.row_tail[u] as usize] = vh;
        }
        self.row_tail[u] = vt;
        self.row_head[v] = NO_ROW;
        self.row_tail[v] = NO_ROW;
    }

    /// Plans an order-preserving contraction for the coming full sweep
    /// from the owner list alone (no slot is read): the kept vertices are
    /// the owners that still own rows — by slot symmetry, every vertex a
    /// live slot names after this iteration's redirect is one of them —
    /// and kept owner `o` becomes `seen[o]`, its rank among them, so
    /// "representative = smaller index" and the [`CandKey`] candidate
    /// order carry over unchanged. The sweep visits the kept owners in
    /// that same order and writes each one's survivors to `next_col`,
    /// which is sized to the live slots here so the kernel's unconditional
    /// store always lands in bounds.
    fn plan_contraction(&mut self) {
        self.kept.clear();
        for &o in &self.owners {
            if self.row_head[o as usize] != NO_ROW {
                self.seen[o as usize] = self.kept.len() as u32;
                self.kept.push(o);
            }
        }
        self.next_ptr.clear();
        self.next_col.clear();
        self.next_col.resize(self.live, 0);
    }

    /// Installs the layout a contracting sweep wrote: kept owner `k` owns
    /// row `k` alone, with no dead tail, and every per-vertex array shrinks
    /// to the kept owners. The caller gathers its own per-vertex arrays
    /// through `kept`.
    fn finish_contraction(&mut self) {
        let nk = self.kept.len();
        self.next_ptr.push(self.next_col.len() as u32);
        std::mem::swap(&mut self.row_ptr, &mut self.next_ptr);
        std::mem::swap(&mut self.col, &mut self.next_col);
        self.row_len.clear();
        self.row_len
            .extend(self.row_ptr.windows(2).map(|w| w[1] - w[0]));
        self.reset_vertices(nk);
        self.touched.clear();
        self.touched.extend_from_slice(&self.owners);
        #[cfg(test)]
        self.contraction_log.push(nk);
    }

    /// The full end-of-step sweep: [`Csr::rescan`] over every live owner
    /// in ascending order, in **one** pass over the owner list — so reading
    /// every live slot once — that also
    ///
    /// * squeezes the owner list, dropping merged losers and owners left
    ///   without a slot (afterwards no dead slot, empty row or dead owner
    ///   is left to be rescanned — compaction happens *every* productive
    ///   pass for free, because the pass touches every live slot anyway);
    /// * derives `choice` for the *next* iteration from each owner's best
    ///   key, so the next choice pass is a no-op.
    ///
    /// With `contract` (planned by [`Csr::plan_contraction`]) the owners
    /// are renumbered as they are visited: each one's survivors form its
    /// new row in `next_col`, and `choice` is written in the new numbering
    /// (no old entry is read, and new index ≤ old index).
    ///
    /// On a stall iteration (no merge: identity redirect, no statistic
    /// changed) nothing is dropped and the pass is the pure argmin rescan
    /// that re-randomised tie keys require. The build runs this pass too,
    /// with the identity redirect, to dedup and filter the raw rows
    /// [`Csr::fill`] scattered and to fold iteration 0's choices.
    ///
    /// Returns `(ops, reclaimed)`: live slots read (the relabel-work
    /// counter) and dead slots squeezed out.
    #[allow(clippy::too_many_arguments)]
    fn sweep<P: Intensity>(
        &mut self,
        stats: &SoaStats<P>,
        hot: &[HotVertex],
        crit: Criterion,
        t: u32,
        redirect: &[u32],
        contract: bool,
        policy: TieBreak,
        iteration: u32,
        choice: &mut [u32],
    ) -> (u64, usize) {
        let (ops, reclaimed) = with_kernel!(
            any: stats,
            hot,
            crit,
            t,
            policy,
            iteration,
            |rank, choose| if contract {
                self.sweep_impl::<true, _, _>(redirect, choice, rank, choose)
            } else {
                self.sweep_impl::<false, _, _>(redirect, choice, rank, choose)
            }
        );
        self.precomputed_for = (policy, iteration);
        (ops, reclaimed)
    }

    /// Criterion- and policy-monomorphised body of [`Csr::sweep`].
    fn sweep_impl<const CONTRACT: bool, R: Rank, C: Choose>(
        &mut self,
        redirect: &[u32],
        choice: &mut [u32],
        rank: R,
        choose: C,
    ) -> (u64, usize) {
        // Token `base + o` is unique to (pass, owner `o`).
        let base = self.next_token;
        self.next_token += self.stamp.len() as u64;
        let (mut ops, mut reclaimed) = (0u64, 0usize);
        let mut kept_owners = 0usize;
        let mut cursor = 0usize;
        for i in 0..self.owners.len() {
            let o = self.owners[i] as usize;
            if self.row_head[o] == NO_ROW {
                continue; // merged away, or emptied by an incremental pass
            }
            if CONTRACT {
                self.next_ptr.push(cursor as u32);
            }
            let (b, read, dropped) = self.rescan::<CONTRACT, _, _>(
                rank,
                choose,
                redirect,
                o,
                base + o as u64,
                &mut cursor,
            );
            ops += read;
            if CONTRACT {
                let nc = if b == u32::MAX {
                    b
                } else {
                    self.seen[b as usize]
                };
                choice[self.seen[o] as usize] = nc;
            } else {
                reclaimed += dropped;
                choice[o] = b;
                if self.row_head[o] != NO_ROW {
                    self.owners[kept_owners] = o as u32;
                    kept_owners += 1;
                }
            }
        }
        if CONTRACT {
            self.next_col.truncate(cursor);
            reclaimed = self.live - cursor;
            self.live = cursor;
        } else {
            self.owners.truncate(kept_owners);
            self.live -= reclaimed;
            self.touched.clear();
            self.touched.extend_from_slice(&self.owners);
        }
        (ops, reclaimed)
    }

    /// The incremental end-of-step pass for deterministic tie policies
    /// ([`TieBreak::SmallestId`] / [`TieBreak::LargestId`]): instead of
    /// rescanning every live owner, it rescans only the *dirty
    /// neighbourhood* of this iteration's merges.
    ///
    /// Validity: deterministic tie keys do not depend on the iteration, a
    /// region's statistics change only when it merges, and a slot's
    /// endpoints change only when one of them merges. Hence an owner that
    /// did not merge and whose slots name no merged region has an
    /// unchanged candidate list, unchanged weights, and unchanged ranking
    /// — its `choice` from the previous iteration stays exact. The dirty
    /// set is therefore `winners ∪ losers ∪ their neighbours`; the
    /// owner→rows lists enumerate it in O(dirty slots), and every dirty
    /// owner is rescanned by the same [`Csr::rescan`] as in the full sweep.
    ///
    /// A new mutual pair must involve a vertex whose choice changed (two
    /// unchanged mutual choices would have merged an iteration earlier),
    /// so handing `dirty` to the next [`Merger::apply_mutual_merges`] as
    /// its candidate list keeps the apply step O(dirty) too. (Random
    /// tie-breaking re-randomises every ranking each iteration, which
    /// forces the full rescan — the same global work the reference
    /// backend's choice pass does — so it stays on [`Csr::sweep`].)
    ///
    /// The pass pays off only while the dirty set is a small share of the
    /// graph: it reads every seed row twice (marking walk, then rescan)
    /// and visits owners in random order, where the full sweep streams
    /// them in ascending order. [`Merger::end_of_step`] therefore runs it
    /// only when few regions merged (see [`INCREMENTAL_MAX_SHARE`]).
    ///
    /// Returns `(ops, reclaimed)` like [`Csr::sweep`]; `ops` counts the
    /// slots read by the marking walk as well as by the rescan.
    #[allow(clippy::too_many_arguments)]
    fn fast_pass<P: Intensity>(
        &mut self,
        stats: &SoaStats<P>,
        hot: &[HotVertex],
        crit: Criterion,
        t: u32,
        redirect: &[u32],
        losers: &[u32],
        policy: TieBreak,
        iteration: u32,
        choice: &mut [u32],
    ) -> (u64, usize) {
        let (ops, reclaimed) = with_kernel!(
            deterministic: stats,
            hot,
            crit,
            t,
            policy,
            iteration,
            |rank, choose| self.fast_pass_impl(redirect, losers, iteration, choice, rank, choose)
        );
        self.precomputed_for = (policy, iteration);
        (ops, reclaimed)
    }

    /// Criterion- and policy-monomorphised body of [`Csr::fast_pass`].
    fn fast_pass_impl<R: Rank, C: Choose>(
        &mut self,
        redirect: &[u32],
        losers: &[u32],
        iteration: u32,
        choice: &mut [u32],
        rank: R,
        choose: C,
    ) -> (u64, usize) {
        let base = self.next_token;
        self.next_token += self.stamp.len() as u64;
        // `iteration` is the next step's index — strictly increasing, so
        // `iteration + 1` is a unique epoch (and clears the zero init).
        let epoch = iteration + 1;
        let mut ops = 0u64;
        {
            let Csr {
                row_ptr,
                row_len,
                col,
                row_head,
                row_next,
                seen,
                dirty,
                ..
            } = &mut *self;
            dirty.clear();
            let mark = |dirty: &mut Vec<u32>, seen: &mut [u32], x: u32| {
                if seen[x as usize] != epoch {
                    seen[x as usize] = epoch;
                    dirty.push(x);
                }
            };
            // Seed with this iteration's winners and losers, then mark their
            // neighbours by walking the winners' row lists (loser rows were
            // spliced in before this pass, so one walk covers the pair).
            for &v in losers {
                mark(dirty, seen, v);
                mark(dirty, seen, redirect[v as usize]);
            }
            let seeds = dirty.len();
            for i in 0..seeds {
                let mut r = row_head[dirty[i] as usize];
                while r != NO_ROW {
                    let ri = r as usize;
                    let s = row_ptr[ri] as usize;
                    let row = &col[s..s + row_len[ri] as usize];
                    ops += row.len() as u64;
                    for &c in row {
                        mark(dirty, seen, redirect[c as usize]);
                    }
                    r = row_next[ri];
                }
            }
        }
        // Recompute the dirty owners from scratch; everyone else keeps
        // last iteration's `choice` (still exact — see above).
        let mut reclaimed = 0usize;
        for i in 0..self.dirty.len() {
            let d = self.dirty[i] as usize;
            let (b, read, dropped) =
                self.rescan::<false, _, _>(rank, choose, redirect, d, base + d as u64, &mut 0);
            ops += read;
            reclaimed += dropped;
            choice[d] = b; // `u32::MAX` when no candidate survived
        }
        self.live -= reclaimed;
        // Hand the dirty list to the next apply step as its candidates.
        std::mem::swap(&mut self.touched, &mut self.dirty);
        (ops, reclaimed)
    }

    /// The rescan kernel: rescans every row owner `o` holds, in list
    /// order, under stamp `token`:
    ///
    /// 1. redirects each slot through the one-level `redirect` (exact,
    ///    because an iteration's mutual pairs form a matching: a
    ///    representative never loses in the iteration it wins);
    /// 2. drops self-loops, duplicate neighbours (across all of `o`'s rows,
    ///    since they are visited back to back) and slots whose merged
    ///    endpoints no longer satisfy the criterion under `rank`;
    /// 3. squeezes the survivors to the front of their row and unlinks rows
    ///    left empty — or, with `CONTRACT`, writes them renumbered
    ///    (`seen`) to `next_col` from `cursor` on, leaving the old layout
    ///    to be dropped;
    /// 4. folds every survivor into `o`'s best candidate under `choose`,
    ///    in the *old* numbering.
    ///
    /// The per-slot work runs in [`scan_row`] on slices borrowed from
    /// disjoint fields, so no field is re-read through `&mut self` inside
    /// the per-slot loop.
    ///
    /// Dropping a duplicate slot is free of semantic effect: the argmin is
    /// invariant under duplicates, and the criterion filter would kill
    /// every copy together.
    ///
    /// Returns `(choice, slots read, slots dropped)`, with `choice =
    /// u32::MAX` when no slot survived; `dropped` is counted only in place
    /// (a contraction's caller reads it off `cursor`).
    #[inline(always)]
    fn rescan<const CONTRACT: bool, R: Rank, C: Choose>(
        &mut self,
        rank: R,
        choose: C,
        redirect: &[u32],
        o: usize,
        token: u64,
        cursor: &mut usize,
    ) -> (u32, u64, usize) {
        let owner = rank.owner(o);
        let mut best = choose.start(o);
        let (mut read, mut dropped, mut survivors) = (0u64, 0usize, 0usize);
        let first = *cursor;
        let mut r = self.row_head[o];
        let mut prev = NO_ROW;
        while r != NO_ROW {
            let ri = r as usize;
            let next = self.row_next[ri];
            let s = self.row_ptr[ri] as usize;
            let len = self.row_len[ri] as usize;
            read += len as u64;
            let (out, from) = if CONTRACT {
                (&mut self.next_col[..], *cursor)
            } else {
                (&mut [][..], 0)
            };
            let end = scan_row::<CONTRACT, R, C>(
                &rank,
                &choose,
                o,
                owner,
                token,
                &mut self.col[s..s + len],
                out,
                from,
                redirect,
                &mut self.stamp,
                &self.seen,
                &self.kept,
                &mut best,
            );
            if CONTRACT {
                *cursor = end;
            } else {
                let kept = end;
                survivors += kept;
                dropped += len - kept;
                self.row_len[ri] = kept as u32;
                if kept == 0 {
                    // Unlink the emptied row so no future walk revisits it.
                    if prev == NO_ROW {
                        self.row_head[o] = next;
                    } else {
                        self.row_next[prev as usize] = next;
                    }
                    if next == NO_ROW {
                        self.row_tail[o] = prev;
                    }
                } else {
                    prev = r;
                }
            }
            r = next;
        }
        if CONTRACT {
            survivors = *cursor - first;
        }
        let choice = if survivors > 0 {
            C::pick(best)
        } else {
            u32::MAX
        };
        (choice, read, dropped)
    }
}

/// The per-slot loop of the rescan kernel over one row, on local slices
/// only. Under the deterministic tie policies it has no data-dependent
/// branch: every slot stamps its neighbour, computes
/// `keep = (c ≠ o) & fresh & keeps(..)`, stores the neighbour at the write
/// cursor (`row` itself in place, `out` renumbered by `seen` when
/// `CONTRACT`) and advances the cursor by `keep`; the tie policy folds
/// the slot into `best` ([`Choose::fold`], a packed-integer `min` except
/// under [`TieBreak::Random`]). Stamping a slot that is not kept changes
/// nothing: a self-loop never survives, and a later copy of a neighbour
/// that failed the criterion would fail it too.
///
/// Returns the write cursor after the row.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn scan_row<const CONTRACT: bool, R: Rank, C: Choose>(
    rank: &R,
    choose: &C,
    o: usize,
    owner: R::Owner,
    token: u64,
    row: &mut [u32],
    out: &mut [u32],
    mut w: usize,
    redirect: &[u32],
    stamp: &mut [u64],
    seen: &[u32],
    kept: &[u32],
    best: &mut C::Best,
) -> usize {
    for j in 0..row.len() {
        let c = redirect[row[j] as usize] as usize;
        let fresh = stamp[c] != token;
        stamp[c] = token;
        let rk = rank.rank(owner, c);
        let keep = (c != o) & fresh & rank.keeps(owner, c, rk);
        if CONTRACT {
            debug_assert!(
                !keep || kept[seen[c] as usize] == c as u32,
                "slot names a dropped vertex"
            );
            out[w] = seen[c];
        } else {
            row[w] = c as u32;
        }
        w += usize::from(keep);
        choose.fold(best, keep, rk, c);
    }
    w
}

/// The backend-specific adjacency state.
///
/// Exactly one `BackendState` exists per [`Merger`], so the size gap
/// between the thin reference variant and the many-vector CSR variant
/// costs nothing — boxing would only add a pointer chase to every pass.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum BackendState {
    /// Canonical sorted-unique edge list, rebuilt every iteration, plus
    /// the per-vertex best candidate key of the choice pass and the bucket
    /// counters of the pixel-map build.
    Reference {
        edges: Vec<(u32, u32)>,
        best: Vec<CandKey>,
        buckets: Vec<u32>,
    },
    /// Incremental CSR, squeezed (and contracted) by the end-of-step pass.
    Csr(Csr),
}

/// The stepping merge engine over a RAG.
///
/// Construct with [`Merger::new`] (from an edge list) or
/// [`Merger::from_split`] (straight from a split's pixel map), then either
/// [`Merger::run`] to completion or [`Merger::step`] repeatedly (the
/// paper's Figure 2 walkthrough is validated this way).
///
/// Vertex indices in the public API — [`Merger::labels_by_vertex`],
/// [`MergeTrace`] events, [`Merger::stats_of`] — are always the original
/// dense indices. Internally the CSR backend contracts its vertex space
/// onto the live regions as the graph shrinks; `orig` maps back.
#[derive(Debug)]
pub struct Merger<P: Intensity> {
    threshold: u32,
    criterion: Criterion,
    tie: TieBreak,
    max_stall: u32,
    parallel: bool,

    /// Region statistics in SoA layout, current at representative indices.
    stats: SoaStats<P>,
    /// Packed (min, max, id) per vertex: the canonical tie-break ID every
    /// backend hashes, and the extrema the CSR kernels rank by (folded
    /// alongside `stats` on every merge).
    hot: Vec<HotVertex>,
    /// Original dense index of each current vertex (ascending; the
    /// identity until the first contraction).
    orig: Vec<u32>,
    /// Backend adjacency state.
    backend: BackendState,
    /// Full merge history over the original vertices (original vertex →
    /// representative).
    history: DisjointSets,
    /// One-iteration redirect table (identity outside merged losers).
    redirect: Vec<u32>,
    /// Losers of the current iteration, pending redirect reset.
    pending_losers: Vec<u32>,

    /// Persistent scratch: per-representative chosen neighbour.
    choice: Vec<u32>,

    iterations: u32,
    merges_per_iteration: Vec<u32>,
    num_regions: usize,
    stalls: u32,
    trace: Option<MergeTrace>,

    /// Total endpoint relabels / slot moves performed (the counter
    /// `tests/bench_guards.rs` compares across backends).
    relabel_ops: u64,
    /// Maximum of [`Merger::active_edges`] observed over the run.
    peak_active_edges: u64,
    /// Number of CSR compaction passes performed.
    compactions: u64,
}

impl<P: Intensity> Merger<P> {
    /// Creates the engine. `ids[v]` is the canonical ID of dense vertex
    /// `v`; IDs must be strictly increasing (raster order of the regions).
    ///
    /// Edges of `rag` that do not satisfy the criterion are de-activated
    /// immediately (the paper's step 2). The backend is chosen by
    /// [`Config::merge_backend`].
    pub fn new(rag: Rag<'_, P>, ids: Vec<u64>, config: &Config, parallel: bool) -> Self {
        let mut m = Self::hollow(config);
        m.reset_from(&rag.stats, &rag.edges, &ids, config, parallel);
        m
    }

    /// Creates the engine over the squares of a split result, building the
    /// adjacency straight from its pixel map (see
    /// [`Merger::reset_from_split`]). Equivalent to
    /// `Merger::new(Rag::from_split(split, ..), ids, ..)` with the
    /// squares' canonical IDs.
    pub fn from_split(split: &SplitResult<P>, config: &Config, parallel: bool) -> Self {
        let mut m = Self::hollow(config);
        m.reset_from_split(split, config, parallel);
        m
    }

    /// A merger with every buffer empty; must be initialised by
    /// [`Merger::reset_from`] or [`Merger::reset_from_split`] before
    /// stepping.
    pub(crate) fn hollow(config: &Config) -> Self {
        Self {
            threshold: config.threshold,
            criterion: config.criterion,
            tie: config.tie_break,
            max_stall: config.max_stall,
            parallel: false,
            stats: SoaStats::empty(),
            hot: Vec::new(),
            orig: Vec::new(),
            backend: BackendState::Reference {
                edges: Vec::new(),
                best: Vec::new(),
                buckets: Vec::new(),
            },
            history: DisjointSets::new(0),
            redirect: Vec::new(),
            pending_losers: Vec::new(),
            choice: Vec::new(),
            iterations: 0,
            merges_per_iteration: Vec::new(),
            num_regions: 0,
            stalls: 0,
            trace: None,
            relabel_ops: 0,
            peak_active_edges: 0,
            compactions: 0,
        }
    }

    /// Re-initialises the engine **in place** for a new graph, reusing
    /// every internal buffer's capacity: in steady state (same-shape
    /// graphs through one merger) this performs **zero** heap allocations.
    ///
    /// Semantically equivalent to `*self = Merger::new(rag, ids, config,
    /// parallel)` — edges that do not satisfy the criterion are
    /// de-activated immediately (the paper's step 2), the backend is
    /// rebuilt per [`Config::merge_backend`] (switching variants
    /// reallocates once), and any enabled trace is dropped.
    pub fn reset_from(
        &mut self,
        stats: &[RegionStats<P>],
        edges: &[(u32, u32)],
        ids: &[u64],
        config: &Config,
        parallel: bool,
    ) {
        assert_eq!(ids.len(), stats.len(), "ids length mismatch");
        assert!(
            2 * edges.len() < u32::MAX as usize,
            "{} edges exceed the u32 CSR slot index",
            edges.len()
        );
        self.init(stats, ids.iter().copied(), config, parallel);
        match &mut self.backend {
            BackendState::Reference { edges: own, .. } => {
                own.clear();
                own.extend_from_slice(edges);
            }
            BackendState::Csr(csr) => csr.fill(stats.len(), edges),
        }
        self.first_pass();
    }

    /// [`Merger::reset_from`] for the squares of a split result, with the
    /// squares' canonical IDs, building the adjacency straight from the
    /// split's pixel → square map:
    ///
    /// * CSR: two scans of [`for_each_boundary_pair`] count and scatter
    ///   both directions of every boundary pair into the rows, then one
    ///   row pass dedups and filters them and folds iteration 0's choices
    ///   — no pair list, no sort;
    /// * reference: the canonical edge list, bucketed by smaller label
    ///   ([`crate::graph::adjacent_label_pairs_into`]).
    ///
    /// The resulting engine is indistinguishable from
    /// `Merger::new(Rag::from_split(split, ..), ..)`: same merge history,
    /// step reports and work counters.
    pub fn reset_from_split(&mut self, split: &SplitResult<P>, config: &Config, parallel: bool) {
        let (w, h) = (split.width, split.height);
        let bound = pixel_pairs_bound(w, h, config.connectivity);
        assert!(
            2 * bound <= u32::MAX as usize,
            "a {w}x{h} image needs up to {} adjacency slots, more than the u32 CSR index holds",
            2 * bound
        );
        let stride = w as u32;
        let ids = split.squares.iter().map(|s| s.id(stride) as u64);
        self.init(&split.stats, ids, config, parallel);
        match &mut self.backend {
            BackendState::Reference { edges, buckets, .. } => {
                bucket_label_pairs(&split.square_of, w, h, config.connectivity, buckets, edges);
            }
            BackendState::Csr(csr) => csr.fill(
                split.stats.len(),
                &PixelPairs {
                    labels: &split.square_of,
                    width: w,
                    height: h,
                    connectivity: config.connectivity,
                },
            ),
        }
        self.first_pass();
    }

    /// The backend-independent part of a reset: configuration, SoA/hot
    /// vertex data (from `stats` and the canonical `ids`), history,
    /// scratch and counters; switches the backend variant if needed.
    fn init(
        &mut self,
        stats: &[RegionStats<P>],
        ids: impl Iterator<Item = u64>,
        config: &Config,
        parallel: bool,
    ) {
        let n = stats.len();
        self.threshold = config.threshold;
        self.criterion = config.criterion;
        self.tie = config.tie_break;
        self.max_stall = config.max_stall;
        self.parallel = parallel;
        self.stats.refill(stats);
        self.hot.clear();
        self.hot
            .extend(stats.iter().zip(ids).map(|(s, id)| HotVertex {
                min: s.min.to_u32(),
                max: s.max.to_u32(),
                id,
            }));
        debug_assert!(
            self.hot.windows(2).all(|w| w[0].id < w[1].id),
            "ids must increase"
        );
        self.orig.clear();
        self.orig.extend(0..n as u32);
        match (&self.backend, config.merge_backend) {
            (BackendState::Csr(_), MergeBackend::Csr)
            | (BackendState::Reference { .. }, MergeBackend::Reference) => {}
            // Backend switch: a one-off reallocation is acceptable.
            (_, MergeBackend::Csr) => self.backend = BackendState::Csr(Csr::empty()),
            (_, MergeBackend::Reference) => {
                self.backend = BackendState::Reference {
                    edges: Vec::new(),
                    best: Vec::new(),
                    buckets: Vec::new(),
                }
            }
        }
        if let BackendState::Reference { best, .. } = &mut self.backend {
            best.clear();
            best.resize(n, KEY_SENTINEL);
        }
        self.history.reset(n);
        self.redirect.clear();
        self.redirect.extend(0..n as u32);
        self.pending_losers.clear();
        self.choice.clear();
        self.choice.resize(n, u32::MAX);
        self.iterations = 0;
        self.merges_per_iteration.clear();
        self.num_regions = n;
        self.stalls = 0;
        self.trace = None;
        self.relabel_ops = 0;
        self.compactions = 0;
    }

    /// The build's last step, after the backend holds the raw adjacency:
    /// de-activates the edges that do not satisfy the criterion (the
    /// paper's step 2). The CSR backend does it in one [`Csr::sweep`]
    /// over the raw rows (identity redirect), which also drops duplicate
    /// slots and folds iteration 0's choices.
    fn first_pass(&mut self) {
        let crit = self.criterion;
        let t = self.threshold;
        let policy = self.next_policy();
        let Self {
            backend,
            stats,
            hot,
            redirect,
            choice,
            ..
        } = self;
        match backend {
            BackendState::Reference { edges, .. } => {
                edges.retain(|&(u, v)| stats.satisfies(crit, t, u as usize, v as usize));
            }
            BackendState::Csr(csr) => {
                csr.sweep(stats, hot, crit, t, redirect, false, policy, 0, choice);
            }
        }
        self.peak_active_edges = self.active_edges() as u64;
    }

    /// The tie policy the next step's prologue will select: the stall
    /// guard's smallest-ID fallback after `max_stall` empty random
    /// iterations, the configured policy otherwise.
    fn next_policy(&self) -> TieBreak {
        if matches!(self.tie, TieBreak::Random { .. }) && self.stalls >= self.max_stall {
            TieBreak::SmallestId
        } else {
            self.tie
        }
    }

    /// Keeps the CSR layout of the build for the whole run: no sweep
    /// contracts.
    #[cfg(test)]
    fn never_contract(&mut self) {
        if let BackendState::Csr(csr) = &mut self.backend {
            csr.contracts = false;
        }
    }

    /// Vertex-space size after each contraction so far.
    #[cfg(test)]
    fn contraction_log(&self) -> Vec<usize> {
        match &self.backend {
            BackendState::Csr(csr) => csr.contraction_log.clone(),
            BackendState::Reference { .. } => Vec::new(),
        }
    }

    /// Starts recording a [`MergeTrace`] (call before the first step).
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(MergeTrace::new(self.history.len()));
        }
    }

    /// Takes the recorded trace, if tracing was enabled.
    pub fn take_trace(&mut self) -> Option<MergeTrace> {
        self.trace.take()
    }

    /// `true` when no active edges remain.
    pub fn is_done(&self) -> bool {
        match &self.backend {
            BackendState::Reference { edges, .. } => edges.is_empty(),
            BackendState::Csr(csr) => csr.live == 0,
        }
    }

    /// Active undirected edge count (for the CSR backend: half the live
    /// directed slot count; every pass dedups each owner it rescans,
    /// mirroring the reference backend's rebuild).
    pub fn active_edges(&self) -> usize {
        match &self.backend {
            BackendState::Reference { edges, .. } => edges.len(),
            BackendState::Csr(csr) => csr.live / 2,
        }
    }

    /// Which backend this engine runs.
    pub fn backend(&self) -> MergeBackend {
        match self.backend {
            BackendState::Reference { .. } => MergeBackend::Reference,
            BackendState::Csr(_) => MergeBackend::Csr,
        }
    }

    /// Total edge-relabel data movement performed so far — the counter
    /// `tests/bench_guards.rs` compares across backends. For the CSR backend:
    /// one op per slot read by the end-of-step pass of each productive
    /// iteration — every live slot for a full sweep; for an incremental
    /// pass, the slots its marking walk reads plus the dirty rows' slots
    /// it rescans. For the reference backend: two
    /// endpoint maps per edge plus the per-iteration canonicalising sort
    /// (`E·⌈log₂E⌉` element moves) and dedup scan it performs to rebuild
    /// the edge list.
    pub fn relabel_work(&self) -> u64 {
        self.relabel_ops
    }

    /// Maximum active-edge count observed over the run.
    pub fn peak_active_edges(&self) -> u64 {
        self.peak_active_edges
    }

    /// CSR passes that reclaimed dead slots (0 under the reference
    /// backend): the productive iterations whose slot array actually
    /// shrank.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Iterations executed so far.
    pub fn iterations(&self) -> u32 {
        self.iterations
    }

    /// Regions currently alive.
    pub fn num_regions(&self) -> usize {
        self.num_regions
    }

    /// Merges performed in each iteration so far.
    pub fn merges_per_iteration(&self) -> &[u32] {
        &self.merges_per_iteration
    }

    /// Statistics of the region represented by original dense vertex
    /// `rep`, or `None` once `rep` has left the merger's vertex space: the
    /// CSR backend retires a region when a contraction finds it without an
    /// active edge. Meaningful only while `rep` is a representative.
    pub fn stats_of(&self, rep: u32) -> Option<RegionStats<P>> {
        let v = self.orig.binary_search(&rep).ok()?;
        Some(self.stats.get(v))
    }

    /// Representative (dense index) of each original vertex, resolved with
    /// one batched pointer-jumping pass over the whole history forest
    /// instead of per-vertex `find` calls.
    pub fn labels_by_vertex(&self) -> Vec<u32> {
        if self.parallel {
            self.history.resolve_all_par()
        } else {
            self.history.resolve_all()
        }
    }

    /// [`Merger::labels_by_vertex`] into a caller-owned buffer (cleared
    /// first). Always uses the sequential batched resolve — its output is
    /// bit-identical to the parallel variant (see `rg_dsu` tests) — and
    /// performs no allocation once `out` has warmed up.
    pub fn labels_by_vertex_into(&self, out: &mut Vec<u32>) {
        self.history.resolve_all_into(out);
    }

    /// Executes one merge iteration; no-op when already done.
    pub fn step(&mut self) -> StepReport {
        self.step_traced(&mut NullTelemetry)
    }

    /// Like [`Merger::step`], bracketing the three phases of the iteration
    /// — candidate selection, mutual-merge apply, end-of-step
    /// relabel/filter/squeeze — in [`SpanKind::Choice`] /
    /// [`SpanKind::Apply`] / [`SpanKind::Compact`] spans on `tel`. On a
    /// disabled sink (the default [`NullTelemetry`] path through
    /// [`Merger::step`]) the guards emit nothing.
    ///
    /// The caller is expected to hold the enclosing
    /// [`SpanKind::MergeIteration`] span open around this call (see
    /// `engine::merge_from_split_with`).
    pub fn step_traced(&mut self, tel: &mut dyn Telemetry) -> StepReport {
        if self.is_done() {
            return StepReport {
                merges: 0,
                used_fallback: false,
                active_edges: 0,
                compacted: false,
            };
        }
        let policy = self.next_policy();
        let used_fallback = policy != self.tie;

        {
            let _span = SpanGuard::enter(&mut *tel, SpanKind::Choice);
            self.compute_choices(policy);
        }
        let merges = {
            let _span = SpanGuard::enter(&mut *tel, SpanKind::Apply);
            let mut choice = std::mem::take(&mut self.choice);
            let merges = self.apply_mutual_merges(&mut choice);
            self.choice = choice;
            merges
        };
        // Under a deterministic policy the globally minimal edge is always
        // a mutual pair (see "Termination"), so an empty iteration means a
        // lost pair — and a loop that would never end.
        debug_assert!(
            merges > 0 || matches!(policy, TieBreak::Random { .. }),
            "{policy:?} iteration {} merged nothing with {} active edges",
            self.iterations,
            self.active_edges()
        );
        // Advance the iteration/stall counters *before* the end-of-step
        // pass: the CSR backend folds the next iteration's choice minima in
        // the same sweep, and needs the next step's policy and index.
        self.iterations += 1;
        self.merges_per_iteration.push(merges);
        if merges == 0 {
            self.stalls += 1;
        } else {
            self.stalls = 0;
        }
        let compacted = {
            let _span = SpanGuard::enter(&mut *tel, SpanKind::Compact);
            self.end_of_step(merges)
        };
        let active_edges = self.active_edges() as u64;
        self.peak_active_edges = self.peak_active_edges.max(active_edges);
        StepReport {
            merges,
            used_fallback,
            active_edges,
            compacted,
        }
    }

    /// Runs to completion.
    pub fn run(&mut self) -> MergeSummary {
        while !self.is_done() {
            self.step();
        }
        MergeSummary {
            iterations: self.iterations,
            merges_per_iteration: self.merges_per_iteration.clone(),
            num_regions: self.num_regions,
        }
    }

    /// Fills `self.choice`: for every vertex incident to an active edge,
    /// its chosen neighbour (`u32::MAX` = no choice). The choice minimises
    /// the [`CandKey`] `(weight, tie_key, neighbour)`.
    ///
    /// The CSR backend has nothing to do here: its build and every
    /// end-of-step pass already folded this iteration's minima into
    /// `choice`.
    fn compute_choices(&mut self, policy: TieBreak) {
        let iteration = self.iterations;
        let crit = self.criterion;
        let Self {
            hot,
            stats,
            backend,
            choice,
            ..
        } = self;
        let (edges, best) = match backend {
            BackendState::Reference { edges, best, .. } => (edges, best),
            BackendState::Csr(csr) => {
                debug_assert_eq!(
                    csr.precomputed_for,
                    (policy, iteration),
                    "stale precomputed choice minima"
                );
                return;
            }
        };
        let cand = |chooser: u32, nb: u32| -> CandKey {
            let w = stats.weight(crit, chooser as usize, nb as usize);
            let (k0, k1) = tie_key(
                policy,
                iteration,
                hot[chooser as usize].id,
                hot[nb as usize].id,
            );
            (w, k0, k1, nb)
        };
        best.fill(KEY_SENTINEL);
        for &(u, v) in edges.iter() {
            let ku = cand(u, v);
            if ku < best[u as usize] {
                best[u as usize] = ku;
            }
            let kv = cand(v, u);
            if kv < best[v as usize] {
                best[v as usize] = kv;
            }
        }
        for (c, b) in choice.iter_mut().zip(best.iter()) {
            *c = b.3;
        }
    }

    /// Merges every mutual pair; returns the number of merges.
    ///
    /// Under the CSR backend only the last pass's `touched` owners can
    /// have a new choice (after the build or a full sweep they are every
    /// owner that has one at all), so the scan visits exactly those
    /// vertices — no O(vertices) sweep. The full scan remains for the
    /// reference backend and when tracing (trace events are emitted in
    /// ascending-winner order, which the `touched` list does not
    /// guarantee; the merges themselves are a matching, so application
    /// order is otherwise irrelevant).
    fn apply_mutual_merges(&mut self, choice: &mut [u32]) -> u32 {
        let touched = match &mut self.backend {
            BackendState::Csr(csr) if self.trace.is_none() => {
                Some(std::mem::take(&mut csr.touched))
            }
            _ => None,
        };
        let mut merges = 0u32;
        match &touched {
            Some(list) => {
                for &u in list {
                    merges += u32::from(self.try_merge(u, choice));
                }
            }
            None => {
                for u in 0..choice.len() as u32 {
                    merges += u32::from(self.try_merge(u, choice));
                }
            }
        }
        if let (Some(list), BackendState::Csr(csr)) = (touched, &mut self.backend) {
            csr.touched = list;
        }
        merges
    }

    /// Merges `x` with its choice if the choice is mutual; disarms
    /// `choice[winner]` afterwards so the pair cannot re-apply when the
    /// scan (or a duplicate `touched` entry) reaches the other endpoint.
    ///
    /// The check is bidirectional — either endpoint of a mutual pair
    /// triggers the merge — because the incremental fast pass only
    /// guarantees that at least one endpoint of any *new* mutual pair is
    /// in the dirty list, not which one. In full-scan (ascending) order
    /// the smaller endpoint is always reached first, so trace-event order
    /// is unchanged.
    #[inline]
    fn try_merge(&mut self, x: u32, choice: &mut [u32]) -> bool {
        let y = choice[x as usize];
        if y == u32::MAX || choice[y as usize] != x {
            return false;
        }
        let (u, v) = (x.min(y), x.max(y));
        // `orig` ascends, so the current order is the original order.
        let (ou, ov) = (self.orig[u as usize], self.orig[v as usize]);
        if let Some(trace) = &mut self.trace {
            trace.events.push(MergeEvent {
                iteration: self.iterations,
                winner: ou,
                loser: ov,
                weight_fp16: self.stats.weight(self.criterion, u as usize, v as usize),
            });
        }
        // Representative = smaller dense index = smaller ID.
        self.stats.fold(u as usize, v as usize);
        let l = self.hot[v as usize];
        let hw = &mut self.hot[u as usize];
        hw.min = hw.min.min(l.min);
        hw.max = hw.max.max(l.max);
        self.redirect[v as usize] = u;
        self.pending_losers.push(v);
        self.history.union_min_rep(ou, ov);
        self.num_regions -= 1;
        choice[u as usize] = u32::MAX;
        true
    }

    /// Backend-specific step 4 (plus the CSR backend's choice prefetch).
    ///
    /// Reference: relabel endpoints through this iteration's redirects,
    /// drop self-loops and criterion-violating edges, re-sort and dedup —
    /// skipped on stall iterations (`merges == 0`), which change no
    /// statistic and no representative, so every edge survives unchanged.
    ///
    /// CSR: splices each loser's row list onto its winner's, then one pass
    /// that performs the same relabel / filter / squeeze *and* folds the
    /// next iteration's choices under the policy the next step's prologue
    /// will select (the stall counter is already updated and
    /// `self.iterations` is the next step's index). The pass is chosen per
    /// iteration: the incremental [`Csr::fast_pass`] when the tie policy
    /// is deterministic and few regions merged (`INCREMENTAL_MAX_SHARE ·
    /// losers < live slots`), the full [`Csr::sweep`] otherwise. Both
    /// leave identical slots and `choice` for every live owner, so the
    /// choice changes only the cost. On stall iterations the full sweep
    /// runs as a pure rescan: the re-randomised tie keys still demand it,
    /// but no relabel work is counted — the reference backend does that
    /// same rescan inside its own choice pass.
    ///
    /// Every productive full sweep also contracts the vertex space onto
    /// the live owners: the sweep writes each owner's survivors into one
    /// fresh contiguous row, and this step gathers the per-vertex arrays
    /// onto the kept owners (order-preserving, so the merge history is
    /// unchanged). A contraction costs O(owners + live slots), the order
    /// of the sweep it rides on, so it never adds an O(vertices) term.
    ///
    /// Returns `true` if the CSR backend reclaimed dead slots.
    fn end_of_step(&mut self, merges: u32) -> bool {
        let crit = self.criterion;
        let t = self.threshold;
        let next_policy = self.next_policy();
        let mut compacted = false;
        let Self {
            backend,
            stats,
            hot,
            orig,
            redirect,
            choice,
            tie,
            iterations,
            pending_losers,
            relabel_ops,
            compactions,
            ..
        } = self;
        match backend {
            BackendState::Reference { edges, .. } => {
                if merges > 0 {
                    let stats = &*stats;
                    let redirect = &*redirect;
                    let map = |&(u, v): &(u32, u32)| -> Option<(u32, u32)> {
                        let (mut a, mut b) = (redirect[u as usize], redirect[v as usize]);
                        if a == b {
                            return None;
                        }
                        if a > b {
                            std::mem::swap(&mut a, &mut b);
                        }
                        if stats.satisfies(crit, t, a as usize, b as usize) {
                            Some((a, b))
                        } else {
                            None
                        }
                    };
                    // Two endpoint maps per edge …
                    *relabel_ops += 2 * edges.len() as u64;
                    let mut next: Vec<(u32, u32)> = edges.iter().filter_map(map).collect();
                    next.sort_unstable();
                    // … plus the canonicalising sort (⌈log₂ E⌉ element
                    // moves per edge) and the dedup scan (one more) — the
                    // O(E log E) term the CSR backend exists to eliminate.
                    let e = next.len() as u64;
                    if e > 0 {
                        *relabel_ops += e * u64::from(e.ilog2() + 1) + e;
                    }
                    next.dedup();
                    *edges = next;
                }
            }
            BackendState::Csr(csr) => {
                for &v in pending_losers.iter() {
                    csr.splice(redirect[v as usize] as usize, v as usize);
                }
                // Deterministic policies have iteration-independent tie
                // keys, so only the merged pairs' neighbourhoods can change
                // their choice: when those neighbourhoods are a small share
                // of the graph, run the incremental pass over the dirty
                // set. Random re-randomises every key each iteration — the
                // full sweep is mandatory (the reference backend pays the
                // same sweep inside its choice pass).
                let deterministic = !matches!(*tie, TieBreak::Random { .. });
                let incremental =
                    deterministic && INCREMENTAL_MAX_SHARE * pending_losers.len() < csr.live;
                let contract = !incremental && merges > 0;
                #[cfg(test)]
                let contract = contract && csr.contracts;
                #[cfg(test)]
                csr.incremental_log.push(incremental);
                if contract {
                    csr.plan_contraction();
                }
                let (ops, reclaimed) = if incremental {
                    csr.fast_pass(
                        stats,
                        hot,
                        crit,
                        t,
                        redirect,
                        pending_losers,
                        next_policy,
                        *iterations,
                        choice,
                    )
                } else {
                    csr.sweep(
                        stats,
                        hot,
                        crit,
                        t,
                        redirect,
                        contract,
                        next_policy,
                        *iterations,
                        choice,
                    )
                };
                if merges > 0 {
                    *relabel_ops += ops;
                    if reclaimed > 0 {
                        *compactions += 1;
                        compacted = true;
                    }
                }
                if contract {
                    // The sweep wrote `choice` in the new numbering.
                    let kept = &csr.kept;
                    gather(hot, kept);
                    gather(orig, kept);
                    gather(&mut stats.min, kept);
                    gather(&mut stats.max, kept);
                    gather(&mut stats.sum, kept);
                    gather(&mut stats.cnt, kept);
                    choice.truncate(kept.len());
                    redirect.clear();
                    redirect.extend(0..kept.len() as u32);
                    pending_losers.clear();
                    csr.finish_contraction();
                }
            }
        }
        // Reset redirects for the merged losers.
        for l in pending_losers.drain(..) {
            redirect[l as usize] = l;
        }
        compacted
    }
}

/// Keeps `v[kept[k]]` at index `k` and drops the rest, in place: `kept`
/// ascends, so `kept[k] >= k` and each source is read before any write
/// reaches it.
fn gather<T: Copy>(v: &mut Vec<T>, kept: &[u32]) {
    for (k, &o) in kept.iter().enumerate() {
        v[k] = v[o as usize];
    }
    v.truncate(kept.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Connectivity;
    use crate::split::split;
    use rg_imaging::{synth, Image};

    fn make_merger_on(t: u32, tie: TieBreak, parallel: bool, backend: MergeBackend) -> Merger<u8> {
        let img = synth::figure1_image();
        let cfg = Config::with_threshold(t)
            .tie_break(tie)
            .merge_backend(backend);
        let s = split(&img, &cfg);
        let rag = Rag::from_split(&s, Connectivity::Four);
        let ids: Vec<u64> = s.squares.iter().map(|sq| sq.id(4) as u64).collect();
        Merger::new(rag, ids, &cfg, parallel)
    }

    fn make_merger(t: u32, tie: TieBreak, parallel: bool) -> Merger<u8> {
        make_merger_on(t, tie, parallel, MergeBackend::Csr)
    }

    fn figure2_walkthrough(mut m: Merger<u8>) {
        assert_eq!(m.num_regions(), 7);

        let r1 = m.step();
        assert_eq!(r1.merges, 2);
        assert_eq!(m.num_regions(), 5);
        let labels = m.labels_by_vertex();
        assert_eq!(labels[5], 0); // B merged into A
        assert_eq!(labels[4], 2); // pixel 4 merged into pixel 3's region

        let r2 = m.step();
        assert_eq!(r2.merges, 1);
        assert_eq!(m.num_regions(), 4);
        assert_eq!(m.labels_by_vertex()[6], 3); // C merged into region 3

        let r3 = m.step();
        assert_eq!(r3.merges, 2);
        assert_eq!(m.num_regions(), 2);
        assert!(m.is_done());
        assert_eq!(r3.active_edges, 0);
        assert_eq!(m.iterations(), 3);

        let labels = m.labels_by_vertex();
        assert_eq!(labels, vec![0, 1, 1, 0, 1, 0, 0]);
        // Final stats: region 0 = {6..8} ∪ {5} ∪ {7,8} ∪ {5,6}, range 3.
        assert_eq!(m.stats_of(0).unwrap().min, 5);
        assert_eq!(m.stats_of(0).unwrap().max, 8);
        assert_eq!(m.stats_of(1).unwrap().min, 1);
        assert_eq!(m.stats_of(1).unwrap().max, 4);
    }

    #[test]
    fn figure2_walkthrough_smallest_id() {
        // Hand-verified against the paper's Figure 2 (see DESIGN.md):
        // start: 7 regions; iter 1 merges {0,5} and {2,4}; iter 2 merges
        // {3,6}; iter 3 merges {0,3} and {1,2}; done with 2 regions.
        figure2_walkthrough(make_merger(3, TieBreak::SmallestId, false));
    }

    #[test]
    fn figure2_walkthrough_reference_backend() {
        figure2_walkthrough(make_merger_on(
            3,
            TieBreak::SmallestId,
            false,
            MergeBackend::Reference,
        ));
    }

    #[test]
    fn parallel_step_identical() {
        for backend in [MergeBackend::Csr, MergeBackend::Reference] {
            for tie in [
                TieBreak::SmallestId,
                TieBreak::LargestId,
                TieBreak::Random { seed: 7 },
            ] {
                let mut a = make_merger_on(3, tie, false, backend);
                let mut b = make_merger_on(3, tie, true, backend);
                let sa = a.run();
                let sb = b.run();
                assert_eq!(sa, sb, "{backend:?} {tie:?}");
                assert_eq!(a.labels_by_vertex(), b.labels_by_vertex());
            }
        }
    }

    #[test]
    fn csr_matches_reference_on_synthetic_images() {
        for (name, img) in [
            ("circles", synth::circle_collection(48)),
            ("rects", synth::random_rects(64, 40, 11, 5)),
            ("nested", synth::nested_rects(32)),
        ] {
            for tie in [
                TieBreak::SmallestId,
                TieBreak::LargestId,
                TieBreak::Random { seed: 17 },
            ] {
                let run = |backend: MergeBackend| {
                    let cfg = Config::with_threshold(12)
                        .tie_break(tie)
                        .merge_backend(backend);
                    let s = split(&img, &cfg);
                    let rag = Rag::from_split(&s, Connectivity::Four);
                    let stride = s.width as u32;
                    let ids: Vec<u64> = s.squares.iter().map(|sq| sq.id(stride) as u64).collect();
                    let mut m = Merger::new(rag, ids, &cfg, false);
                    m.enable_trace();
                    let summary = m.run();
                    let trace = m.take_trace().unwrap();
                    (summary, trace, m.labels_by_vertex())
                };
                let csr = run(MergeBackend::Csr);
                let reference = run(MergeBackend::Reference);
                assert_eq!(csr, reference, "{name} {tie:?}");
            }
        }
    }

    #[test]
    fn compaction_triggers_and_preserves_parity() {
        // Merge-only on a uniform image: singleton squares collapse to one
        // region over many iterations, shedding edges fast enough to force
        // several compaction passes.
        let img: rg_imaging::Image<u8> = rg_imaging::Image::new(32, 32, 50);
        let run = |backend: MergeBackend| {
            let cfg = Config::with_threshold(0)
                .tie_break(TieBreak::SmallestId)
                .max_square_log2(Some(0))
                .merge_backend(backend);
            let s = split(&img, &cfg);
            let rag = Rag::from_split(&s, Connectivity::Four);
            let ids: Vec<u64> = s.squares.iter().map(|sq| sq.id(32) as u64).collect();
            let mut m = Merger::new(rag, ids, &cfg, false);
            let summary = m.run();
            (
                summary,
                m.labels_by_vertex(),
                m.compactions(),
                m.relabel_work(),
            )
        };
        let (s_csr, l_csr, compactions, work_csr) = run(MergeBackend::Csr);
        let (s_ref, l_ref, _, work_ref) = run(MergeBackend::Reference);
        assert_eq!(s_csr, s_ref);
        assert_eq!(l_csr, l_ref);
        assert!(compactions > 0, "expected at least one compaction pass");
        assert!(
            work_csr <= work_ref,
            "CSR relabel work {work_csr} exceeds reference {work_ref}"
        );
    }

    #[test]
    fn pass_choice_switches_both_ways_and_matches_reference() {
        // On small noise the merged share of the graph swings around the
        // switch point, so one deterministic run sweeps fully, goes
        // incremental, and sweeps fully again — the switch back is where
        // stale `best`/`choice` entries left by incremental passes would
        // surface as lost mutual pairs.
        let img = synth::uniform_noise(64, 64, 120, 135, 3);
        for tie in [TieBreak::SmallestId, TieBreak::LargestId] {
            let run = |backend: MergeBackend, trace: bool| {
                let cfg = Config::with_threshold(12)
                    .tie_break(tie)
                    .merge_backend(backend);
                let s = split(&img, &cfg);
                let rag = Rag::from_split(&s, Connectivity::Four);
                let ids: Vec<u64> = s.squares.iter().map(|q| q.id(64) as u64).collect();
                let mut m = Merger::new(rag, ids, &cfg, false);
                if trace {
                    m.enable_trace();
                }
                let summary = m.run();
                let kinds = match &m.backend {
                    BackendState::Csr(csr) => csr.incremental_log.clone(),
                    BackendState::Reference { .. } => Vec::new(),
                };
                (summary, m.take_trace(), m.labels_by_vertex(), kinds)
            };
            // Untraced, apply scans only the `touched` lists.
            let (summary, _, labels, kinds) = run(MergeBackend::Csr, false);
            let full_inc_full = kinds
                .iter()
                .position(|&inc| !inc)
                .and_then(|f| kinds[f..].iter().position(|&inc| inc).map(|i| f + i))
                .is_some_and(|i| kinds[i..].iter().any(|&inc| !inc));
            assert!(
                full_inc_full,
                "{tie:?}: no full → incremental → full run in {kinds:?}"
            );
            let (ref_summary, ref_trace, ref_labels, _) = run(MergeBackend::Reference, true);
            assert_eq!(summary, ref_summary, "{tie:?}");
            assert_eq!(labels, ref_labels, "{tie:?}");
            // Traced, the full merge history matches event by event.
            let (_, trace, _, _) = run(MergeBackend::Csr, true);
            assert_eq!(trace, ref_trace, "{tie:?}");
        }
    }

    /// Everything a merge run exposes, step by step: per-iteration
    /// `(merges, active_edges, compacted)`, final labels, trace events and
    /// the work counters `(relabel_work, peak_active_edges, compactions)`.
    type Observed = (
        Vec<(u32, u64, bool)>,
        Vec<u32>,
        Option<MergeTrace>,
        (u64, u64, u64),
    );

    fn observe(mut m: Merger<u8>, trace: bool) -> (Observed, Vec<usize>) {
        if trace {
            m.enable_trace();
        }
        let mut steps = Vec::new();
        while !m.is_done() {
            let r = m.step();
            steps.push((r.merges, r.active_edges, r.compacted));
        }
        let counters = (m.relabel_work(), m.peak_active_edges(), m.compactions());
        let log = m.contraction_log();
        ((steps, m.labels_by_vertex(), m.take_trace(), counters), log)
    }

    /// The direct pixel-map build and the contraction change no
    /// observable of a run: step reports, labels, trace events and work
    /// counters all equal those of `Merger::new(Rag::from_split(..))` on
    /// the uncontracted layout, across connectivity × criterion × tie
    /// policy, traced and untraced.
    #[test]
    fn direct_build_and_contraction_match_merger_new() {
        let scenes = [
            (synth::uniform_noise(48, 40, 120, 135, 3), 10),
            (synth::random_rects(64, 48, 12, 5), 12),
            (synth::circle_collection(48), 12),
        ];
        for (img, t) in &scenes {
            for conn in [Connectivity::Four, Connectivity::Eight] {
                for crit in [Criterion::PixelRange, Criterion::MeanDifference] {
                    for tie in [
                        TieBreak::SmallestId,
                        TieBreak::LargestId,
                        TieBreak::Random { seed: 11 },
                    ] {
                        let cfg = Config::with_threshold(*t)
                            .tie_break(tie)
                            .connectivity(conn)
                            .criterion(crit);
                        let s = split(img, &cfg);
                        let ids: Vec<u64> = s
                            .squares
                            .iter()
                            .map(|q| q.id(s.width as u32) as u64)
                            .collect();
                        let what = format!("{conn:?} {crit:?} {tie:?} t={t}");
                        for trace in [false, true] {
                            let new =
                                || Merger::new(Rag::from_split(&s, conn), ids.clone(), &cfg, false);
                            let mut flat = new();
                            flat.never_contract();
                            let (want, _) = observe(flat, trace);
                            let mut direct = Merger::from_split(&s, &cfg, false);
                            direct.never_contract();
                            let (got, _) = observe(direct, trace);
                            assert_eq!(got, want, "direct build: {what} trace={trace}");
                            let (got, log) = observe(Merger::from_split(&s, &cfg, false), trace);
                            assert_eq!(got, want, "contraction: {what} trace={trace}");
                            assert_eq!(observe(new(), trace).0, want, "{what}");
                            if want.0.len() > 2 {
                                assert!(log.len() > 1, "{what}: contracted {log:?}");
                                assert!(log.windows(2).all(|w| w[1] < w[0]), "{log:?}");
                            }
                        }
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// Random scenes and settings: the contracting direct build
        /// reproduces the uncontracted `Merger::new` exactly, and its
        /// merges, labels and merge trace equal the reference backend's.
        #[test]
        fn contracting_direct_build_is_invisible(
            w in 4usize..40,
            h in 4usize..40,
            noise in proptest::prelude::any::<bool>(),
            spread in 0u8..40,
            img_seed in 0u64..1_000,
            threshold in 0u32..40,
            eight in proptest::prelude::any::<bool>(),
            mean in proptest::prelude::any::<bool>(),
            policy in 0usize..3,
            seed in 0u64..1_000,
        ) {
            let img = if noise {
                synth::uniform_noise(w, h, 100, 100 + spread, img_seed)
            } else {
                synth::random_rects(w, h, 6, img_seed)
            };
            let tie = [TieBreak::SmallestId, TieBreak::LargestId, TieBreak::Random { seed }][policy];
            let conn = if eight { Connectivity::Eight } else { Connectivity::Four };
            let crit = if mean { Criterion::MeanDifference } else { Criterion::PixelRange };
            let cfg = Config::with_threshold(threshold)
                .tie_break(tie)
                .connectivity(conn)
                .criterion(crit);
            let s = split(&img, &cfg);
            let ids: Vec<u64> = s.squares.iter().map(|q| q.id(w as u32) as u64).collect();
            let mut flat = Merger::new(Rag::from_split(&s, conn), ids, &cfg, false);
            flat.never_contract();
            let (want, _) = observe(flat, true);
            let (got, _) = observe(Merger::from_split(&s, &cfg, false), true);
            proptest::prop_assert_eq!(&got, &want);
            let reference = cfg.merge_backend(MergeBackend::Reference);
            let (r, _) = observe(Merger::from_split(&s, &reference, false), true);
            proptest::prop_assert_eq!((&got.1, &got.2), (&r.1, &r.2));
            // Every pass dedups each owner exactly, so the CSR's active
            // edge count is the reference backend's deduplicated one.
            let steps = |o: &Observed| o.0.iter().map(|x| (x.0, x.1)).collect::<Vec<_>>();
            proptest::prop_assert_eq!(steps(&got), steps(&r));
        }
    }

    /// Builds a CSR merger over `pairs` and checks that the build's first
    /// pass — the rescan kernel with packed keys under the deterministic
    /// policies, `(rank, hash, c)` tuples under Random — gives every vertex
    /// the [`CandKey`] argmin over its neighbours that satisfy the
    /// criterion (`u32::MAX` when none does).
    fn check_kernel_choices<P: Intensity>(
        stats: Vec<RegionStats<P>>,
        pairs: Vec<(u32, u32)>,
        crit: Criterion,
        t: u32,
        tie: TieBreak,
    ) -> Result<(), String> {
        let n = stats.len();
        // Strictly increasing canonical IDs with uneven gaps.
        let ids: Vec<u64> = (0..n as u64).map(|v| v * v + 3 * v).collect();
        let mut want = vec![KEY_SENTINEL; n];
        for &(u, v) in &pairs {
            for (a, b) in [(u, v), (v, u)] {
                let (sa, sb) = (&stats[a as usize], &stats[b as usize]);
                if a == b || !crit.satisfies(sa, sb, t) {
                    continue;
                }
                let w = crit.weight(sa, sb);
                let k = choice_key(tie, 0, ids[a as usize], ids[b as usize], w, b);
                want[a as usize] = want[a as usize].min(k);
            }
        }
        let want: Vec<u32> = want.iter().map(|k| k.3).collect();
        let cfg = Config::with_threshold(t).tie_break(tie).criterion(crit);
        let m = Merger::new(Rag::from_parts(stats, pairs), ids, &cfg, false);
        if m.choice == want {
            Ok(())
        } else {
            Err(format!(
                "{crit:?} {tie:?} t={t}: kernel {:?} != CandKey {want:?}",
                m.choice
            ))
        }
    }

    /// Region statistics spanning `0..=P::MAX`: extrema pinned to the
    /// ends of the range half the time, so unions reach the full range.
    fn stats_strategy<P: Intensity>(
        n: usize,
    ) -> impl proptest::Strategy<Value = Vec<RegionStats<P>>> {
        use proptest::prelude::*;
        let top = P::MAX_VALUE.to_u32();
        let value = || prop_oneof![Just(0u32), Just(top), 0..=top, 0..=top.min(40)];
        proptest::collection::vec((value(), value(), 1u64..4, 0u64..=8), n).prop_map(|v| {
            v.into_iter()
                .map(|(a, b, count, k)| {
                    let (lo, hi) = (a.min(b), a.max(b));
                    // Any sum between the extrema's; the kernels do
                    // not check consistency.
                    let sum = u64::from(lo) * count + u64::from(hi - lo) * count * k / 8;
                    RegionStats {
                        min: P::from_u32_saturating(lo),
                        max: P::from_u32_saturating(hi),
                        sum,
                        count,
                    }
                })
                .collect()
        })
    }

    /// Thresholds around the packing limits: small, at the 16.16 mean
    /// weight's 32-bit boundary (`2^16`), and the whole `u32` range.
    fn threshold_strategy() -> impl proptest::Strategy<Value = u32> {
        use proptest::prelude::*;
        prop_oneof![
            0u32..40,
            (1u32 << 16) - 2..(1 << 16) + 2,
            Just(u32::MAX),
            proptest::prelude::any::<u32>(),
        ]
    }

    /// Candidate sets over `n` vertices: duplicates and self-loops
    /// included, every pair in both orientations.
    fn pairs_strategy(n: u32) -> impl proptest::Strategy<Value = Vec<(u32, u32)>> {
        proptest::collection::vec((0..n, 0..n), 1..48)
    }

    fn kernel_case<P: Intensity>(
        stats: Vec<RegionStats<P>>,
        pairs: Vec<(u32, u32)>,
        t: u32,
        seed: u64,
    ) -> Result<(), String> {
        for crit in [Criterion::PixelRange, Criterion::MeanDifference] {
            for tie in [
                TieBreak::SmallestId,
                TieBreak::LargestId,
                TieBreak::Random { seed },
            ] {
                check_kernel_choices(stats.clone(), pairs.clone(), crit, t, tie)?;
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// The packed-key argmin equals the `CandKey` argmin for every tie
        /// policy × criterion on 8-, 16- and 32-bit pixels.
        #[test]
        fn packed_keys_rank_like_cand_keys(
            s8 in stats_strategy::<u8>(12),
            s16 in stats_strategy::<u16>(12),
            s32 in stats_strategy::<u32>(12),
            pairs in pairs_strategy(12),
            t in threshold_strategy(),
            seed in 0u64..1_000,
        ) {
            let run = || -> Result<(), String> {
                kernel_case(s8.clone(), pairs.clone(), t, seed)?;
                kernel_case(s16.clone(), pairs.clone(), t, seed)?;
                kernel_case(s32.clone(), pairs.clone(), t, seed)
            };
            proptest::prop_assert_eq!(run(), Ok(()));
        }
    }

    /// The packing limits, pinned: a union range of `u32::MAX`; the
    /// `LargestId` key of candidate 0 at that range, which packs to
    /// `u64::MAX` — the fold's all-ones identity — and must still be
    /// chosen; and mean distances of `2^16` and more on 32-bit pixels,
    /// whose 16.16 weights need the `u128` key.
    #[test]
    fn packed_keys_at_the_packing_limits() {
        let region = |min: u32, max: u32, count: u64| RegionStats::<u32> {
            min,
            max,
            sum: (u64::from(min) + u64::from(max)) * count / 2,
            count,
        };
        let corners = vec![
            region(0, 0, 1),
            region(u32::MAX, u32::MAX, 1),
            region(1 << 16, 1 << 16, 2),
            region(u32::MAX - 1, u32::MAX, 2),
            region(0, 1, 2),
        ];
        let pairs = vec![(0, 1), (1, 2), (1, 3), (0, 4), (2, 4), (0, 1)];
        for crit in [Criterion::PixelRange, Criterion::MeanDifference] {
            for tie in [
                TieBreak::SmallestId,
                TieBreak::LargestId,
                TieBreak::Random { seed: 3 },
            ] {
                for t in [u32::MAX, u32::MAX - 1, 1 << 16, (1 << 16) - 1, 2] {
                    check_kernel_choices(corners.clone(), pairs.clone(), crit, t, tie).unwrap();
                }
            }
        }
        // Vertex 1's only neighbour 0 under LargestId at the full range:
        // the packed key is all ones and must still decode to 0.
        let cfg = Config::with_threshold(u32::MAX).tie_break(TieBreak::LargestId);
        let m = Merger::new(
            Rag::from_parts(corners[..2].to_vec(), vec![(0, 1)]),
            vec![0, 1],
            &cfg,
            false,
        );
        assert_eq!(m.choice, vec![1, 0]);
    }

    /// `w × h` noise of `P` in `lo..=hi` with the full-range extremes
    /// planted at two pixels, so a merged region can span `0..=P::MAX`.
    fn wide_noise<P: Intensity>(w: usize, h: usize, lo: u32, hi: u32, seed: u64) -> Image<P> {
        let span = u64::from(hi - lo) + 1;
        Image::from_fn(w, h, |x, y| {
            let v = match (x, y) {
                (0, 0) => 0,
                (1, 0) => P::MAX_VALUE.to_u32(),
                _ => lo + (tie_priority(seed, 0, x as u64, y as u64) % span) as u32,
            };
            P::from_u32_saturating(v)
        })
    }

    /// CSR and the reference backend agree on labels, merges per
    /// iteration and per-step active edges for `img` under every
    /// criterion × tie policy × threshold.
    fn assert_backends_agree<P: Intensity>(img: &Image<P>, thresholds: &[u32]) {
        for &t in thresholds {
            for crit in [Criterion::PixelRange, Criterion::MeanDifference] {
                for tie in [
                    TieBreak::SmallestId,
                    TieBreak::LargestId,
                    TieBreak::Random { seed: 5 },
                ] {
                    let run = |backend: MergeBackend| {
                        let cfg = Config::with_threshold(t)
                            .tie_break(tie)
                            .criterion(crit)
                            .merge_backend(backend);
                        let mut m = Merger::from_split(&split(img, &cfg), &cfg, false);
                        let mut active = Vec::new();
                        while !m.is_done() {
                            active.push(m.step().active_edges);
                        }
                        let merges = m.merges_per_iteration().to_vec();
                        (m.labels_by_vertex(), merges, active)
                    };
                    let csr = run(MergeBackend::Csr);
                    assert!(!csr.1.is_empty(), "{crit:?} {tie:?} t={t}: nothing merged");
                    assert_eq!(csr, run(MergeBackend::Reference), "{crit:?} {tie:?} t={t}");
                }
            }
        }
    }

    #[test]
    fn u16_merges_match_reference() {
        let top = u32::from(u16::MAX);
        assert_backends_agree(&wide_noise::<u16>(40, 36, 0, 4095, 1), &[255, 1024, 4096]);
        // Every edge is kept and mean weights reach `2^32 − 2^16`.
        assert_backends_agree(&wide_noise::<u16>(24, 20, 0, top, 2), &[top]);
    }

    #[test]
    fn u32_merges_match_reference() {
        let lo = u32::MAX - (1 << 19);
        // Mean distances around 2^16 straddle the 32-bit weight limit.
        assert_backends_agree(
            &wide_noise::<u32>(40, 36, lo, u32::MAX, 3),
            &[(1 << 16) - 1, 1 << 16, 1 << 17],
        );
        // Full range: unions reach `u32::MAX`, mean weights 48 bits.
        assert_backends_agree(&wide_noise::<u32>(24, 20, 0, u32::MAX, 4), &[u32::MAX]);
    }

    #[test]
    fn step_reports_active_edges_monotone_under_smallest_id() {
        let mut m = make_merger(3, TieBreak::SmallestId, false);
        let mut prev = m.active_edges() as u64;
        let peak0 = m.peak_active_edges();
        assert_eq!(peak0, prev);
        while !m.is_done() {
            let r = m.step();
            assert!(r.active_edges <= prev, "active edges must not grow");
            prev = r.active_edges;
        }
        assert_eq!(m.peak_active_edges(), peak0);
    }

    #[test]
    fn random_seeds_are_deterministic() {
        let run = |seed| {
            let mut m = make_merger(3, TieBreak::Random { seed }, false);
            m.run();
            m.labels_by_vertex()
        };
        assert_eq!(run(1), run(1));
        assert_eq!(run(2), run(2));
    }

    #[test]
    fn smallest_id_always_progresses() {
        // A ring of equal-intensity singleton regions: every edge has equal
        // weight, the worst case for ties. Smallest-ID must still merge at
        // least one pair per iteration.
        let img = synth::checkerboard(16, 1, 100, 100); // uniform, actually
        let cfg = Config::with_threshold(0)
            .tie_break(TieBreak::SmallestId)
            .max_square_log2(Some(0));
        let s = split(&img, &cfg);
        let rag = Rag::from_split(&s, Connectivity::Four);
        let ids: Vec<u64> = s.squares.iter().map(|sq| sq.id(16) as u64).collect();
        let mut m = Merger::new(rag, ids, &cfg, false);
        while !m.is_done() {
            let r = m.step();
            assert!(r.merges >= 1, "smallest-ID iteration with zero merges");
        }
        assert_eq!(m.num_regions(), 1);
    }

    #[test]
    fn random_ties_merge_faster_on_tie_heavy_input() {
        // Uniform image, merge-only: every edge weight is 0, so every
        // choice is a tie. Random tie-breaking should finish in fewer
        // iterations than smallest-ID (the paper's central claim).
        let img: rg_imaging::Image<u8> = rg_imaging::Image::new(32, 32, 50);
        let run = |tie| {
            let cfg = Config::with_threshold(0)
                .tie_break(tie)
                .max_square_log2(Some(0));
            let s = split(&img, &cfg);
            let rag = Rag::from_split(&s, Connectivity::Four);
            let ids: Vec<u64> = s.squares.iter().map(|sq| sq.id(32) as u64).collect();
            let mut m = Merger::new(rag, ids, &cfg, false);
            let summary = m.run();
            assert_eq!(summary.num_regions, 1);
            summary.iterations
        };
        let random = run(TieBreak::Random { seed: 42 });
        let smallest = run(TieBreak::SmallestId);
        assert!(
            random < smallest,
            "random ({random}) should beat smallest-ID ({smallest})"
        );
    }

    #[test]
    fn no_active_edges_means_zero_iterations() {
        let mut m = make_merger(0, TieBreak::SmallestId, false);
        // T = 0: which edges are active? Only pairs with identical
        // min=max. Figure-1 squares have ranges > 0, so most edges die;
        // run must terminate quickly regardless.
        let summary = m.run();
        assert_eq!(
            summary.iterations as usize,
            summary.merges_per_iteration.len()
        );
    }

    #[test]
    fn tie_priority_spreads() {
        // Sanity: the hash separates close inputs.
        let a = tie_priority(0, 0, 1, 2);
        let b = tie_priority(0, 0, 1, 3);
        let c = tie_priority(0, 1, 1, 2);
        let d = tie_priority(1, 0, 1, 2);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn choice_key_matches_tie_key() {
        let k = choice_key(TieBreak::Random { seed: 5 }, 2, 10, 20, 7, 3);
        let (k0, k1) = tie_key(TieBreak::Random { seed: 5 }, 2, 10, 20);
        assert_eq!(k, (7, k0, k1, 3));
    }

    #[test]
    fn merge_summary_consistency() {
        let mut m = make_merger(3, TieBreak::Random { seed: 9 }, false);
        let start = m.num_regions();
        let summary = m.run();
        let merged: u32 = summary.merges_per_iteration.iter().sum();
        assert_eq!(start - merged as usize, summary.num_regions);
    }
}
