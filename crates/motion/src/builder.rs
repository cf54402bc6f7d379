//! Crowdsourced motion-database construction (paper Sec. IV-B).
//!
//! [`MotionDbBuilder`] ingests raw RLMs — whose endpoints are *location
//! estimates* from the fingerprint engine and whose direction/offset
//! come from noisy sensors — reassembles them, applies the coarse
//! map-based filter on ingestion, and at [`MotionDbBuilder::build`] time
//! applies the fine Gaussian filter and fits the per-pair statistics.
//! The builder keeps each pair's last fit, running sums of its samples
//! and its last two builds, each a database and the database's
//! [`PairTable`]. A snapshot of a builder that is still ingesting
//! refits only the pairs that RLMs touched since the last one. When
//! those refits only move the statistics of built pairs, it writes them
//! into the retired build's buffers at the positions it remembers for
//! each pair, so it costs what its delta touched; when a pair appears
//! or vanishes, it merges the refits into the previous database and
//! lays out a new table, recording where every built pair now sits. A
//! fresh builder's first build is the same call, with every pair
//! touched and an empty database to merge into.
//!
//! The coarse filter's map offsets come from [`MapReference`], which
//! keeps the walk graph and one connected-component label per node and
//! answers each walk distance with a Dijkstra that stops at the pair's
//! far end. The filter bounds that search by the measured offset plus
//! the threshold and runs it in one scratch the builder reuses, so a
//! search costs the nodes within that radius: no `n × n` table, and no
//! per-search allocation or `O(n)` reset. Within one ingest call
//! ([`MotionDbBuilder::observe_all`]) the builder remembers each
//! canonical pair's bearing and what its searches found, so a pair that
//! many RLMs name is searched once, or again only for a larger radius;
//! the memo is emptied when the call returns.

use crate::filter::{SanitationConfig, SanitationError};
use crate::kernel::{PairTable, TableSlots};
use crate::matrix::{MotionDb, PairStats};
use crate::rlm::Rlm;
use moloc_geometry::{LocationId, ReferenceGrid, WalkGraph};
use moloc_stats::circular::{
    abs_diff_deg, circular_mean_deg, deviation_std_deg, normalize_deg, ResultantSum,
};
use moloc_stats::gaussian::Gaussian;
use moloc_stats::online::Welford;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering::Greater;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

/// Map-derived reference values for the coarse filter: straight-line
/// bearings from location coordinates and walkable offsets from the
/// aisle graph (falling back to straight-line distance for unreachable
/// pairs).
#[derive(Debug, Clone)]
pub struct MapReference {
    grid: ReferenceGrid,
    graph: WalkGraph,
    /// Per graph node, the lowest node index of its connected
    /// component. Grid ids the graph lacks are connected to nothing.
    component: Vec<usize>,
}

impl MapReference {
    /// Builds the reference from the grid and its walkable graph, in
    /// `O(n + edges)`.
    pub fn new(grid: &ReferenceGrid, graph: &WalkGraph) -> Self {
        let n = graph.node_count();
        let mut component = vec![usize::MAX; n];
        let mut stack = Vec::new();
        for root in 0..n {
            if component[root] != usize::MAX {
                continue;
            }
            component[root] = root;
            stack.push(root);
            while let Some(node) = stack.pop() {
                for (next, _) in graph.neighbors(LocationId::from_index(node)) {
                    if component[next.index()] == usize::MAX {
                        component[next.index()] = root;
                        stack.push(next.index());
                    }
                }
            }
        }
        Self {
            grid: grid.clone(),
            graph: graph.clone(),
            component,
        }
    }

    /// Whether the reference covers this pair at all: both endpoints on
    /// the grid. Crowdsourced RLMs carry *estimated* endpoints, so ids
    /// outside the surveyed grid are expected hostile input, not a
    /// programming error.
    pub fn covers(&self, a: LocationId, b: LocationId) -> bool {
        self.grid.contains(a) && self.grid.contains(b)
    }

    /// The map direction from `a` to `b` (straight-line compass
    /// bearing), `None` for identical locations or endpoints off the
    /// grid.
    pub fn direction_deg(&self, a: LocationId, b: LocationId) -> Option<f64> {
        if !self.covers(a, b) {
            return None;
        }
        self.grid.bearing_deg(a, b)
    }

    /// The map offset from `a` to `b`: walkable distance when the graph
    /// connects them, straight-line distance otherwise. Infinite for
    /// endpoints off the grid (no measured offset can sit within a
    /// finite threshold of it). Each call runs its own search with a
    /// scratch sized to the graph; the builder's coarse filter reuses
    /// one instead.
    pub fn offset_m(&self, a: LocationId, b: LocationId) -> f64 {
        if !self.covers(a, b) {
            return f64::INFINITY;
        }
        self.offset_within(
            a,
            b,
            f64::INFINITY,
            &mut WalkScratch::new(self.graph.node_count()),
        )
        .within(f64::INFINITY)
        .flatten()
        .expect("an unbounded search settles every connected node")
    }

    /// Whether the pair is connected on the walkable graph (always
    /// false for endpoints off the grid or missing from the graph).
    pub fn walkably_connected(&self, a: LocationId, b: LocationId) -> bool {
        if !self.covers(a, b) {
            return false;
        }
        match (self.component.get(a.index()), self.component.get(b.index())) {
            (Some(ca), Some(cb)) => ca == cb,
            _ => false,
        }
    }

    /// The map offset of a covered pair: the straight line when the
    /// graph does not connect it, else the walk distance by a Dijkstra
    /// from `a` that stops once `b` is settled, or [`MapOffset::Beyond`]
    /// `limit` once the nearest unsettled node lies beyond it. Only the
    /// nodes within that radius are visited. The pop order (distance,
    /// then node index) and the strict relaxation are those of
    /// [`moloc_geometry::shortest_path::dijkstra`], so a settled
    /// distance has the same bits as a full search from `a`, at any
    /// limit that settles it.
    fn offset_within(
        &self,
        a: LocationId,
        b: LocationId,
        limit: f64,
        scratch: &mut WalkScratch,
    ) -> MapOffset {
        if !self.walkably_connected(a, b) {
            return MapOffset::Line(self.grid.distance(a, b));
        }
        scratch.begin();
        scratch.relax(a.index(), 0.0);
        while let Some(Reverse((bits, node))) = scratch.heap.pop() {
            let d = f64::from_bits(bits);
            if d > limit {
                return MapOffset::Beyond(limit);
            }
            if node == b.index() {
                return MapOffset::Walk(d);
            }
            if d > scratch.dist(node) {
                continue;
            }
            for (next, length) in self.graph.neighbors(LocationId::from_index(node)) {
                let nd = d + length;
                if nd < scratch.dist(next.index()) {
                    scratch.relax(next.index(), nd);
                }
            }
        }
        MapOffset::Beyond(limit)
    }

    /// The reference grid.
    pub fn grid(&self) -> &ReferenceGrid {
        &self.grid
    }
}

/// What a bounded search found of a covered pair's map offset, and so
/// what every later search of the pair returns, up to a limit.
#[derive(Debug, Clone, Copy)]
enum MapOffset {
    /// The straight line of a pair the walk graph does not connect,
    /// returned at every limit.
    Line(f64),
    /// The walk distance, settled: a search at any limit returns these
    /// bits, or nothing when the limit is below them.
    Walk(f64),
    /// The walk is longer than this limit: a search at this limit or a
    /// smaller one returns nothing, and only a search can answer a
    /// larger one.
    Beyond(f64),
}

impl MapOffset {
    /// What [`MapReference::offset_within`] returns at `limit`: the
    /// offset, or `None` when the search gives up first. The outer
    /// `None` is a limit only a new search can answer.
    fn within(self, limit: f64) -> Option<Option<f64>> {
        match self {
            MapOffset::Line(d) => Some(Some(d)),
            // The search's own test: it gives up on `d > limit` only,
            // so a NaN limit still settles.
            MapOffset::Walk(d) => Some((d.partial_cmp(&limit) != Some(Greater)).then_some(d)),
            MapOffset::Beyond(searched) => (limit <= searched).then_some(None),
        }
    }
}

/// One canonical pair's map facts, as far as one ingest call asked.
#[derive(Debug, Clone, Copy)]
struct PairFacts {
    /// [`MapReference::direction_deg`] of the pair.
    bearing: Option<f64>,
    /// What the pair's walk searches found; `None` before the first.
    offset: Option<MapOffset>,
}

/// The coarse filter's memo: each canonical pair's [`PairFacts`], kept
/// for one ingest call, in a chained table of at least four buckets
/// per grid location. A pair's bucket is `from · K + to` modulo the
/// bucket count, so for one first location every second location has a
/// bucket of its own: whatever pairs a call names, a chain holds at
/// most one pair per first location, and a lookup compares at most as
/// many pairs as the grid has locations. It needs no hasher and no
/// seed. Each bucket is stamped with the call that last started its
/// chain, so emptying the memo between calls is `O(1)` and keeps its
/// capacity.
#[derive(Debug)]
struct FactsMemo {
    /// Per bucket, the call that last started its chain and the chain's
    /// head in `entries`.
    heads: Vec<(u32, u32)>,
    call: u32,
    /// This call's pairs: the pair, the next entry in its bucket, and
    /// its facts.
    entries: Vec<((LocationId, LocationId), u32, PairFacts)>,
}

/// The end of a [`FactsMemo`] chain.
const CHAIN_END: u32 = u32::MAX;

/// The multiplier of a pair's first location in its [`FactsMemo`]
/// bucket: odd, so consecutive first locations land far apart.
const BUCKET_SPREAD: usize = 0x9E37_79B9;

impl FactsMemo {
    fn new(locations: usize) -> Self {
        Self {
            heads: vec![(0, CHAIN_END); (4 * locations).next_power_of_two()],
            call: 1,
            entries: Vec::new(),
        }
    }

    /// The facts of the pair `(from, to)`, made by `fresh` when this
    /// call has not met the pair. Both ids must be on the grid.
    fn facts(
        &mut self,
        from: LocationId,
        to: LocationId,
        fresh: impl FnOnce() -> PairFacts,
    ) -> &mut PairFacts {
        let bucket = from
            .index()
            .wrapping_mul(BUCKET_SPREAD)
            .wrapping_add(to.index())
            & (self.heads.len() - 1);
        let (call, head) = &mut self.heads[bucket];
        if *call != self.call {
            (*call, *head) = (self.call, CHAIN_END);
        }
        let mut at = *head;
        while at != CHAIN_END {
            let (pair, next, _) = self.entries[at as usize];
            if pair == (from, to) {
                return &mut self.entries[at as usize].2;
            }
            at = next;
        }
        let at = u32::try_from(self.entries.len())
            .ok()
            .filter(|&at| at != CHAIN_END)
            .expect("one call names fewer than 2^32 - 1 pairs");
        self.entries.push(((from, to), *head, fresh()));
        *head = at;
        &mut self.entries[at as usize].2
    }

    /// Forgets this call's pairs, keeping the capacity.
    fn clear(&mut self) {
        self.entries.clear();
        self.call = self.call.wrapping_add(1);
        if self.call == 0 {
            self.heads.fill((0, CHAIN_END));
            self.call = 1;
        }
    }
}

/// The working set of [`MapReference`]'s bounded Dijkstra, reused
/// across searches. Each tentative distance is stamped with the search
/// that wrote it, so starting a search is `O(1)` rather than a reset of
/// all `n` entries.
#[derive(Debug)]
struct WalkScratch {
    dist: Vec<f64>,
    stamp: Vec<u32>,
    search: u32,
    /// Min-heap of `(distance bits, node)`: non-negative distances
    /// order like their bit patterns, ties go to the lower node.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl WalkScratch {
    fn new(nodes: usize) -> Self {
        Self {
            dist: vec![f64::INFINITY; nodes],
            stamp: vec![0; nodes],
            search: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// Forgets the previous search.
    fn begin(&mut self) {
        self.search = self.search.wrapping_add(1);
        if self.search == 0 {
            self.stamp.fill(0);
            self.search = 1;
        }
        self.heap.clear();
    }

    /// The tentative distance of `node` in this search.
    fn dist(&self, node: usize) -> f64 {
        if self.stamp[node] == self.search {
            self.dist[node]
        } else {
            f64::INFINITY
        }
    }

    fn relax(&mut self, node: usize, d: f64) {
        self.dist[node] = d;
        self.stamp[node] = self.search;
        self.heap.push(Reverse((d.to_bits(), node)));
    }
}

/// Counters describing a construction run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BuildReport {
    /// RLMs offered to the builder.
    pub observed: u64,
    /// RLMs dropped by the coarse filter for exceeding the direction or
    /// offset thresholds of a pair the map *does* cover.
    pub rejected_coarse: u64,
    /// RLMs dropped because they name a pair the database cannot hold:
    /// an endpoint off the surveyed grid, or a self-loop. Previously
    /// misattributed to `rejected_coarse`, which made threshold tuning
    /// runs look far stricter than they were on corrupt-endpoint data.
    pub rejected_unmapped: u64,
    /// Measurements dropped by the fine (2σ) filter.
    pub rejected_fine: u64,
    /// Pairs dropped for having fewer than `min_samples` measurements,
    /// or no finite fit: an undefined mean direction, or offsets so far
    /// apart that their spread overflows.
    pub underpopulated_pairs: u64,
    /// Pairs that made it into the database.
    pub pairs_built: u64,
}

/// Accumulates crowdsourced RLMs into a [`MotionDb`].
///
/// The builder keeps its last two builds. A build that only changes
/// the statistics of pairs the last one built writes the build before
/// it in place (`Arc::make_mut`: a copy only while someone still holds
/// that build), writing the pairs that either of the last two builds
/// changed at their remembered positions. A build that makes a pair
/// appear or vanish merges a new database and lays out a new table.
///
/// # Examples
///
/// ```
/// use moloc_geometry::polygon::Aabb;
/// use moloc_geometry::{FloorPlan, LocationId, ReferenceGrid, Vec2, WalkGraph};
/// use moloc_motion::builder::{MapReference, MotionDbBuilder};
/// use moloc_motion::filter::SanitationConfig;
/// use moloc_motion::rlm::Rlm;
///
/// let grid = ReferenceGrid::new(Vec2::new(1.0, 3.0), 3, 2, 2.0, 2.0)?;
/// let plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(8.0, 5.0)).unwrap());
/// let graph = WalkGraph::from_grid(&grid, &plan);
/// let map = MapReference::new(&grid, &graph);
/// let mut builder = MotionDbBuilder::new(map, SanitationConfig::paper())?;
/// for _ in 0..5 {
///     builder.observe(Rlm::new(LocationId::new(1), LocationId::new(2), 91.0, 2.05).unwrap());
/// }
/// let (db, report) = builder.build();
/// assert_eq!(report.pairs_built, 1);
/// assert!(db.get(LocationId::new(1), LocationId::new(2)).is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct MotionDbBuilder {
    map: MapReference,
    config: SanitationConfig,
    /// Per canonical pair, its place in `pairs`.
    pending: BTreeMap<(u32, u32), u32>,
    /// Each pending pair's accepted measurements and their last fit, in
    /// the order of their first accepted RLM.
    pairs: Vec<PairSamples>,
    /// Canonical keys of the pairs `observe` accumulated into since the
    /// last build, in arrival order, with their places in `pairs`: a
    /// build reaches them without searching `pending`.
    touched: Vec<((u32, u32), u32)>,
    /// The ingest counters, and the fit counters summed over every
    /// pair's last fit.
    report: BuildReport,
    /// The last build's database: the pairs whose last fit is built.
    db: Arc<MotionDb>,
    /// [`PairTable::build`] of `db`, kept in step with it.
    table: Arc<PairTable>,
    /// The build before the last one, when the last build kept every
    /// pair it had: the buffers the next such build writes.
    spare: Option<Spare>,
    /// The coarse filter's search scratch, sized once to the graph.
    walk: WalkScratch,
    /// Per canonical pair, its map facts: kept for one ingest call,
    /// then emptied (its capacity stays), so the memo holds no more
    /// pairs than the largest call named.
    memo: FactsMemo,
    /// The fine filter's keep mask, reused across fits.
    keep: Vec<bool>,
}

/// A retired build and what it lacks of the current one.
#[derive(Debug)]
struct Spare {
    db: Arc<MotionDb>,
    table: Arc<PairTable>,
    /// The pairs the last build wrote, where it wrote them and what:
    /// the current build's values where the spare differs. The spare
    /// has the last build's layout, so the positions hold for it.
    stale: Vec<PairWrite>,
}

/// One built pair's statistics and where they go.
#[derive(Debug, Clone, Copy)]
struct PairWrite {
    key: (u32, u32),
    at: PairSlots,
    stats: PairStats,
}

/// Where a built pair sits in the database and its table: its database
/// entry and the table slots of its two orientations. They move only
/// when a pair appears or vanishes.
#[derive(Debug, Clone, Copy, Default)]
struct PairSlots {
    entry: u32,
    table: TableSlots,
}

/// One canonical pair's accepted measurements and what the last build
/// made of them.
#[derive(Debug, Default)]
struct PairSamples {
    /// The directions, normalized into `[0, 360)`, in arrival order.
    directions: Vec<f64>,
    offsets: Vec<f64>,
    /// The unit vectors of `directions` and the moments of `offsets`,
    /// summed in arrival order: a fit's first pass, without a sine,
    /// cosine or division per sample.
    resultant: ResultantSum,
    offset_moments: Welford,
    /// [`MotionDbBuilder::fit`] of the measurements as the last build
    /// saw them, `None` before the pair's first build.
    fit: Option<Fit>,
    /// Whether the pair's key is on the builder's touched list.
    touched: bool,
    /// Where the pair sits while it is built: recorded by every build
    /// that lays out a new table.
    slots: PairSlots,
}

/// What the fine filter and the Gaussian fit made of one pair.
#[derive(Debug, Clone, Copy)]
struct Fit {
    /// Measurements the fine filter dropped.
    rejected_fine: u64,
    /// The fitted statistics, `None` for a pair that is not built.
    stats: Option<PairStats>,
}

impl Fit {
    /// What the fit adds to the report's `rejected_fine`,
    /// `underpopulated_pairs` and `pairs_built`.
    fn counts(&self) -> [u64; 3] {
        [
            self.rejected_fine,
            u64::from(self.stats.is_none()),
            u64::from(self.stats.is_some()),
        ]
    }
}

impl MotionDbBuilder {
    /// Creates a builder.
    ///
    /// # Errors
    ///
    /// Returns [`SanitationError`] when the configuration fails
    /// [`SanitationConfig::validate`] — an invalid threshold is a
    /// caller-input problem, reported as a value rather than a panic.
    pub fn new(map: MapReference, config: SanitationConfig) -> Result<Self, SanitationError> {
        config.validate()?;
        let db = MotionDb::new(map.grid.len());
        Ok(Self {
            walk: WalkScratch::new(map.graph.node_count()),
            memo: FactsMemo::new(map.grid.len()),
            map,
            config,
            pending: BTreeMap::new(),
            pairs: Vec::new(),
            touched: Vec::new(),
            report: BuildReport::default(),
            table: Arc::new(PairTable::build(&db)),
            db: Arc::new(db),
            spare: None,
            keep: Vec::new(),
        })
    }

    /// The map reference used for coarse filtering.
    pub fn map(&self) -> &MapReference {
        &self.map
    }

    /// Offers one crowdsourced RLM: [`MotionDbBuilder::observe_all`]
    /// of a batch of one. Returns whether it was accepted.
    pub fn observe(&mut self, rlm: Rlm) -> bool {
        self.observe_all([rlm]) == 1
    }

    /// Offers crowdsourced RLMs in order. Each is reassembled, checked
    /// by the coarse filter and accumulated; the report counts every
    /// one. Returns how many were accepted.
    ///
    /// The coarse filter computes a pair's bearing once per call, and
    /// searches its walk distance once, or again for an RLM whose
    /// search radius passes the one a search gave up at. Every answer
    /// is the one a search of its own would give, so a batch builds
    /// what offering its RLMs one at a time builds. The memo holds the
    /// pairs this call named and is emptied before it returns.
    pub fn observe_all(&mut self, rlms: impl IntoIterator<Item = Rlm>) -> usize {
        let accepted = rlms.into_iter().filter(|&rlm| self.ingest(rlm)).count();
        self.memo.clear();
        accepted
    }

    /// Reassembles, filters and accumulates one RLM.
    fn ingest(&mut self, rlm: Rlm) -> bool {
        self.report.observed += 1;
        let canon = rlm.canonical();
        // A pair the database cannot hold is dropped regardless of the
        // coarse toggle — off-grid endpoints index nothing in the
        // grid-sized database, and it keeps no self-pairs (`Rlm::new`
        // refuses a self-loop, but the fields are public) — and
        // attributed to its own counter: it says nothing about the
        // coarse thresholds.
        if canon.from == canon.to || !self.map.covers(canon.from, canon.to) {
            self.report.rejected_unmapped += 1;
            return false;
        }
        if self.config.coarse_enabled && !self.coarse_accepts(&canon) {
            self.report.rejected_coarse += 1;
            return false;
        }
        let key = (canon.from.get(), canon.to.get());
        let next = self.pairs.len() as u32;
        let at = *self.pending.entry(key).or_insert(next);
        if at == next {
            self.pairs.push(PairSamples::default());
        }
        let pair = &mut self.pairs[at as usize];
        let direction = normalize_deg(canon.direction_deg);
        pair.directions.push(direction);
        pair.resultant.push(direction);
        pair.offsets.push(canon.offset_m);
        pair.offset_moments.push(canon.offset_m);
        if !pair.touched {
            pair.touched = true;
            self.touched.push((key, at));
        }
        true
    }

    /// The coarse filter of a covered canonical pair, reading and
    /// filling the pair's map facts.
    fn coarse_accepts(&mut self, canon: &Rlm) -> bool {
        let map = &self.map;
        let facts = self.memo.facts(canon.from, canon.to, || PairFacts {
            bearing: map.direction_deg(canon.from, canon.to),
            offset: None,
        });
        let Some(map_dir) = facts.bearing else {
            return false;
        };
        if abs_diff_deg(canon.direction_deg, map_dir) > self.config.coarse_direction_deg {
            return false;
        }
        // Only a map offset up to offset + threshold can pass, so the
        // walk search gives up beyond it. The margin dwarfs the rounding
        // of `radius` and of the test below, so the search never gives
        // up on a distance the exact test would accept.
        let radius = canon.offset_m + self.config.coarse_offset_m;
        let limit = radius + 1e-9 * (1.0 + radius);
        let map_off = match facts.offset.and_then(|known| known.within(limit)) {
            Some(answer) => answer,
            None => {
                let found = map.offset_within(canon.from, canon.to, limit, &mut self.walk);
                facts.offset = Some(found);
                found.within(limit).expect("a search answers its own limit")
            }
        };
        map_off
            .is_some_and(|map_off| (canon.offset_m - map_off).abs() <= self.config.coarse_offset_m)
    }

    /// Applies the fine filter, fits per-pair Gaussians, and produces
    /// the database plus a construction report.
    pub fn build(mut self) -> (MotionDb, BuildReport) {
        let (db, _, report) = self.build_snapshot();
        drop(self);
        (Arc::unwrap_or_clone(db), report)
    }

    /// [`MotionDbBuilder::build`] without consuming the builder: fits a
    /// database from the measurements accumulated *so far*, and the
    /// [`PairTable`] of that database, leaving the builder open for
    /// more. The live-update path calls this once per published epoch.
    ///
    /// Only the pairs that `observe` touched since the last build are
    /// refitted, in key order, by the unchanged fine filter and fit;
    /// the report's fit counters take back each one's previous fit and
    /// add its new one. When no refit changes the database (no pair
    /// built before or now), the previous `Arc`s are returned.
    ///
    /// When every changed pair was built before and still is, the
    /// pair set and the table's runs stay, and the next build is the
    /// spare (the build before the last one) with the pairs that either
    /// of the last two builds changed written in place, in both the
    /// database and the table, by the arithmetic of [`PairTable::build`].
    /// Each pair is written where it sits, at the database entry and
    /// table slots remembered with the pair. A spare that someone still
    /// holds is copied first, so a held build never changes; with no
    /// spare, the last build is copied. When a pair appeared or
    /// vanished, the changes are merged into the previous database in
    /// one pass ([`MotionDb`] keeps its pairs sorted), its table is laid
    /// out from scratch, every built pair's position is recorded as it
    /// is placed, and there is no spare until the next build.
    ///
    /// A pair's fit reads only that pair's measurements, so the result
    /// is bit-identical to consuming a builder fed the same RLM
    /// sequence (the incremental-vs-rebuild equivalence contract).
    pub fn build_snapshot(&mut self) -> (Arc<MotionDb>, Arc<PairTable>, BuildReport) {
        self.touched.sort_unstable();
        // Every refit that changes the database, for a merge; and those
        // of pairs that stay built, for writes in place.
        let mut changes = Vec::new();
        let mut writes = Vec::new();
        let mut reshaped = false;
        for (key, at) in &self.touched {
            let pair = &mut self.pairs[*at as usize];
            let fit = Self::fit(&self.config, pair, &mut self.keep);
            let before = pair.fit.replace(fit);
            let sums = [
                &mut self.report.rejected_fine,
                &mut self.report.underpopulated_pairs,
                &mut self.report.pairs_built,
            ];
            let old = before.map_or([0; 3], |f| f.counts());
            for ((sum, old), new) in sums.into_iter().zip(old).zip(fit.counts()) {
                *sum = *sum - old + new;
            }
            let was_built = before.is_some_and(|f| f.stats.is_some());
            if was_built || fit.stats.is_some() {
                changes.push((*key, fit.stats));
                reshaped |= was_built != fit.stats.is_some();
            }
            if let (true, Some(stats)) = (was_built, fit.stats) {
                writes.push(PairWrite {
                    key: *key,
                    at: pair.slots,
                    stats,
                });
            }
            pair.touched = false;
        }
        self.touched.clear();
        if reshaped {
            let db = self.db.patched(&changes);
            self.table = Arc::new(self.lay_out(&db));
            self.db = Arc::new(db);
            self.spare = None;
        } else if !writes.is_empty() {
            let (mut db, mut table, stale) = match self.spare.take() {
                Some(spare) => (spare.db, spare.table, spare.stale),
                None => (Arc::clone(&self.db), Arc::clone(&self.table), Vec::new()),
            };
            let (db_mut, table_mut) = (Arc::make_mut(&mut db), Arc::make_mut(&mut table));
            for w in stale.iter().chain(&writes) {
                db_mut.write(w.at.entry as usize, w.key, w.stats);
                table_mut.write(w.at.table, &w.stats);
            }
            self.spare = Some(Spare {
                db: std::mem::replace(&mut self.db, db),
                table: std::mem::replace(&mut self.table, table),
                stale: writes,
            });
        }
        (Arc::clone(&self.db), Arc::clone(&self.table), self.report)
    }

    /// [`PairTable::build`] of a database whose pair set changed,
    /// recording where each of its pairs now sits.
    fn lay_out(&mut self, db: &MotionDb) -> PairTable {
        // Pairs are placed in key order, the order `pending` iterates.
        let mut entries = db.iter().enumerate();
        let mut pending = self.pending.iter();
        PairTable::build_placing(db, |table| {
            let (entry, (i, j, _)) = entries.next().expect("one placement per entry");
            let key = (i.get(), j.get());
            let (_, &at) = pending
                .find(|&(&pending, _)| pending == key)
                .expect("a built pair is pending");
            self.pairs[at as usize].slots = PairSlots {
                entry: entry as u32,
                table,
            };
        })
    }

    /// Applies the fine filter to one pair's measurements and fits its
    /// Gaussians, reading the measurements in place.
    ///
    /// The fine filter drops each measurement beyond `k·σ` of the mean
    /// in either channel, from both (the RLM as a whole is the outlier),
    /// and marks what it keeps in `keep`. It filters by the mean
    /// direction and offset moments of the pair's running sums, which
    /// hold the bits a pass over the samples would, and by the std of
    /// the directions' deviations from that mean. They are the fit's
    /// when it drops nothing; otherwise all three are recomputed over
    /// the kept measurements, in their order.
    ///
    /// The pair is not built when fewer than `min_samples` measurements
    /// survive, or when a fitted mean or std is not finite: offsets far
    /// enough apart overflow Welford's sum of squares, and
    /// `Gaussian::new` refuses the infinite std.
    fn fit(config: &SanitationConfig, pair: &PairSamples, keep: &mut Vec<bool>) -> Fit {
        let (dirs, offsets) = (&pair.directions, &pair.offsets);
        let mut moments = Moments::around(
            pair.resultant.mean_deg(),
            dirs.iter().copied(),
            pair.offset_moments,
        );
        let mut rejected_fine = 0;
        if let (true, Some((mu_d, sigma_d))) = (config.fine_enabled, moments.direction) {
            let k = config.fine_sigma;
            let (mu_o, sigma_o) = (moments.offsets.mean(), moments.offsets.std());
            keep.clear();
            keep.extend(dirs.iter().zip(offsets).map(|(&d, &o)| {
                let dir_ok = sigma_d == 0.0 || abs_diff_deg(d, mu_d) <= k * sigma_d;
                let off_ok = sigma_o == 0.0 || (o - mu_o).abs() <= k * sigma_o;
                dir_ok && off_ok
            }));
            rejected_fine = keep.iter().filter(|&&kept| !kept).count();
            if rejected_fine > 0 {
                moments = Moments::of(
                    dirs.iter()
                        .zip(keep.iter())
                        .filter_map(|(&d, &kept)| kept.then_some(d)),
                    offsets
                        .iter()
                        .zip(keep.iter())
                        .filter_map(|(&o, &kept)| kept.then_some(o)),
                );
            }
        }
        let count = offsets.len() - rejected_fine;
        let stats = if count < config.min_samples {
            None
        } else {
            moments.direction.and_then(|(mu_d, sigma_d)| {
                let sigma_d = sigma_d.max(config.min_direction_std_deg);
                let sigma_o = moments.offsets.std().max(config.min_offset_std_m);
                Some(PairStats {
                    direction: Gaussian::new(mu_d, sigma_d).ok()?,
                    offset: Gaussian::new(moments.offsets.mean(), sigma_o).ok()?,
                    sample_count: count as u64,
                })
            })
        };
        Fit {
            rejected_fine: rejected_fine as u64,
            stats,
        }
    }
}

/// What the fine filter and the fit read of a pair's measurements: the
/// circular mean of the directions and the std of their deviations from
/// it (`None` when the mean is undefined), and the offsets' Welford
/// accumulator.
struct Moments {
    direction: Option<(f64, f64)>,
    offsets: Welford,
}

impl Moments {
    /// The moments of samples, in one pass for each sum.
    fn of(
        directions: impl Iterator<Item = f64> + Clone,
        offsets: impl Iterator<Item = f64>,
    ) -> Self {
        Self::around(
            circular_mean_deg(directions.clone()),
            directions,
            offsets.collect(),
        )
    }

    /// The moments of samples whose circular mean and offset
    /// accumulator are already summed.
    fn around(mean: Option<f64>, directions: impl Iterator<Item = f64>, offsets: Welford) -> Self {
        Self {
            direction: mean.map(|mean| (mean, deviation_std_deg(mean, directions))),
            offsets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moloc_geometry::polygon::Aabb;
    use moloc_geometry::{FloorPlan, Vec2};

    fn l(i: u32) -> LocationId {
        LocationId::new(i)
    }

    /// 3×2 grid spaced 2 m in an open hall; 1→2 runs east (90°).
    fn map() -> MapReference {
        let grid = ReferenceGrid::new(Vec2::new(1.0, 3.0), 3, 2, 2.0, 2.0).unwrap();
        let plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(8.0, 5.0)).unwrap());
        let graph = WalkGraph::from_grid(&grid, &plan);
        MapReference::new(&grid, &graph)
    }

    fn rlm(from: u32, to: u32, d: f64, o: f64) -> Rlm {
        Rlm::new(l(from), l(to), d, o).unwrap()
    }

    #[test]
    fn map_reference_values() {
        let m = map();
        assert!((m.direction_deg(l(1), l(2)).unwrap() - 90.0).abs() < 1e-9);
        assert!((m.offset_m(l(1), l(2)) - 2.0).abs() < 1e-9);
        // Non-adjacent but reachable: walkable distance (L-shaped).
        assert!((m.offset_m(l(1), l(5)) - 4.0).abs() < 1e-9);
        assert!(m.walkably_connected(l(1), l(6)));
    }

    #[test]
    fn clean_measurements_build_a_pair() {
        let mut b = MotionDbBuilder::new(map(), SanitationConfig::paper()).unwrap();
        for k in 0..6 {
            assert!(b.observe(rlm(1, 2, 88.0 + k as f64, 2.0 + 0.02 * k as f64)));
        }
        let (db, report) = b.build();
        assert_eq!(report.pairs_built, 1);
        assert_eq!(report.rejected_coarse, 0);
        let s = db.get(l(1), l(2)).unwrap();
        assert!((s.direction.mean() - 90.5).abs() < 1.0);
        assert!((s.offset.mean() - 2.05).abs() < 0.05);
        assert_eq!(s.sample_count, 6);
    }

    #[test]
    fn coarse_filter_drops_wild_directions_and_offsets() {
        let mut b = MotionDbBuilder::new(map(), SanitationConfig::paper()).unwrap();
        // 1→2 map direction is 90°; 150° is 60° off → rejected.
        assert!(!b.observe(rlm(1, 2, 150.0, 2.0)));
        // Offset 6 m differs from map 2 m by 4 m > 3 m → rejected.
        assert!(!b.observe(rlm(1, 2, 90.0, 6.0)));
        assert_eq!(b.report.rejected_coarse, 2);
    }

    #[test]
    fn coarse_filter_can_be_disabled() {
        let mut b = MotionDbBuilder::new(map(), SanitationConfig::disabled()).unwrap();
        assert!(b.observe(rlm(1, 2, 150.0, 6.0)));
    }

    #[test]
    fn fine_filter_removes_2_sigma_outliers() {
        let mut cfg = SanitationConfig::paper();
        cfg.coarse_enabled = false; // isolate the fine filter
        let mut b = MotionDbBuilder::new(map(), cfg).unwrap();
        // Cluster at 90° / 2 m with one wild outlier.
        for _ in 0..10 {
            b.observe(rlm(1, 2, 90.0, 2.0));
        }
        for _ in 0..10 {
            b.observe(rlm(1, 2, 94.0, 2.1));
        }
        b.observe(rlm(1, 2, 140.0, 2.05));
        let (db, report) = b.build();
        assert_eq!(report.rejected_fine, 1);
        let s = db.get(l(1), l(2)).unwrap();
        assert_eq!(s.sample_count, 20);
        assert!(s.direction.mean() < 95.0);
    }

    #[test]
    fn reversed_observations_train_the_same_pair() {
        let mut b = MotionDbBuilder::new(map(), SanitationConfig::paper()).unwrap();
        for _ in 0..3 {
            b.observe(rlm(1, 2, 90.0, 2.0)); // east
            b.observe(rlm(2, 1, 270.0, 2.0)); // back west
        }
        let (db, report) = b.build();
        assert_eq!(report.pairs_built, 1);
        assert_eq!(db.get(l(1), l(2)).unwrap().sample_count, 6);
    }

    #[test]
    fn underpopulated_pairs_are_dropped() {
        let mut b = MotionDbBuilder::new(map(), SanitationConfig::paper()).unwrap();
        b.observe(rlm(1, 2, 90.0, 2.0));
        b.observe(rlm(1, 2, 90.0, 2.0)); // only 2 < min_samples = 3
        let (db, report) = b.build();
        assert!(db.is_empty());
        assert_eq!(report.underpopulated_pairs, 1);
        assert_eq!(report.pairs_built, 0);
    }

    #[test]
    fn std_floors_apply() {
        let mut b = MotionDbBuilder::new(map(), SanitationConfig::paper()).unwrap();
        for _ in 0..5 {
            b.observe(rlm(1, 2, 90.0, 2.0)); // identical → zero variance
        }
        let (db, _) = b.build();
        let s = db.get(l(1), l(2)).unwrap();
        assert_eq!(s.direction.std(), 2.0);
        assert_eq!(s.offset.std(), 0.05);
    }

    /// Every bit of a database: each pair's ids, Gaussians and count.
    fn bits(db: &MotionDb) -> Vec<(u32, u32, u64, u64, u64, u64, u64)> {
        db.iter()
            .map(|(a, b, s)| {
                (
                    a.get(),
                    b.get(),
                    s.direction.mean().to_bits(),
                    s.direction.std().to_bits(),
                    s.offset.mean().to_bits(),
                    s.offset.std().to_bits(),
                    s.sample_count,
                )
            })
            .collect()
    }

    /// Asserts that `live`'s snapshot equals, bit for bit, consuming a
    /// fresh builder fed `prefix`, and that the table it keeps equals a
    /// scatter over its database. Returns the snapshot.
    fn assert_snapshot_matches_fresh(
        live: &mut MotionDbBuilder,
        prefix: &[Rlm],
    ) -> (Arc<MotionDb>, Arc<PairTable>, BuildReport) {
        let (snap_db, snap_table, snap_report) = live.build_snapshot();
        let mut fresh = MotionDbBuilder::new(map(), live.config).unwrap();
        for r in prefix {
            fresh.observe(*r);
        }
        let (fresh_db, fresh_report) = fresh.build();
        assert_eq!(bits(&snap_db), bits(&fresh_db), "prefix {}", prefix.len());
        assert_eq!(snap_report, fresh_report, "prefix {}", prefix.len());
        assert_eq!(
            *snap_table,
            PairTable::build(&snap_db),
            "prefix {}",
            prefix.len()
        );
        (snap_db, snap_table, snap_report)
    }

    #[test]
    fn build_snapshot_matches_consuming_build_at_every_prefix() {
        // The live-update contract: a non-consuming snapshot after N
        // observations is bit-identical to consuming a fresh builder
        // fed the same N observations, and the builder stays open. One
        // builder snapshots after every observation, another after
        // every third, so several observations land between two of its
        // snapshots. A refit that a touched pair missed, or one that a
        // rejected RLM caused, would show here, and so would a table
        // that did not follow its database.
        let stream = [
            rlm(1, 2, 90.0, 2.0),
            rlm(2, 3, 89.5, 2.02),
            rlm(1, 2, 90.5, 2.01),  // 1-2 one short of built
            rlm(2, 1, 270.0, 1.99), // reversed: 1-2 crosses min_samples
            rlm(2, 3, 90.5, 1.98),
            rlm(3, 2, 269.0, 2.0), // reversed: 2-3 crosses min_samples
            rlm(1, 2, 150.0, 2.0), // coarse direction reject: report only
            rlm(1, 7, 90.0, 2.0),  // unmapped: report only
            rlm(1, 2, 89.0, 2.0),
            rlm(2, 1, 270.5, 2.01),
            rlm(2, 3, 90.0, 6.03), // coarse offset reject: report only
            rlm(1, 2, 90.0, 1.99),
            rlm(4, 5, 90.0, 2.0),
            rlm(1, 2, 105.0, 2.0), // late outlier: fine-rejected
            rlm(6, 5, 270.0, 2.0),
            rlm(2, 3, 90.0, 2.0),
        ];
        for stride in [1, 3] {
            let mut live = MotionDbBuilder::new(map(), SanitationConfig::paper()).unwrap();
            for (n, r) in stream.iter().enumerate() {
                live.observe(*r);
                if n % stride == stride - 1 {
                    assert_snapshot_matches_fresh(&mut live, &stream[..=n]);
                }
            }
            let (db, _, report) = live.build_snapshot();
            assert_eq!((report.rejected_coarse, report.rejected_unmapped), (2, 1));
            assert_eq!(report.rejected_fine, 1, "the late outlier");
            assert_eq!(db.get(l(1), l(2)).unwrap().sample_count, 6);
            assert_eq!((report.pairs_built, report.underpopulated_pairs), (2, 2));
        }
    }

    #[test]
    fn a_build_refits_only_the_touched_pairs() {
        let mut b = MotionDbBuilder::new(map(), SanitationConfig::paper()).unwrap();
        for k in 0..4 {
            let jitter = f64::from(k) * 0.5;
            b.observe(rlm(1, 2, 89.0 + jitter, 2.0));
            b.observe(rlm(2, 3, 90.0 - jitter, 2.1));
            b.observe(rlm(4, 5, 91.0, 1.9 + 0.1 * jitter));
        }
        let keys = |b: &MotionDbBuilder| b.touched.iter().map(|&(key, _)| key).collect::<Vec<_>>();
        assert_eq!(keys(&b), [(1, 2), (2, 3), (4, 5)], "each pair listed once");
        let (db, table, first) = b.build_snapshot();
        assert!(b.touched.is_empty());
        assert_eq!(first.pairs_built, 3);

        // An accepted RLM, reversed, and another on the same pair touch
        // exactly that pair; rejected RLMs change only the report.
        assert!(b.observe(rlm(3, 2, 270.0, 2.1)));
        assert!(b.observe(rlm(2, 3, 90.0, 2.1)));
        assert!(!b.observe(rlm(1, 2, 150.0, 2.0)));
        assert!(!b.observe(rlm(4, 9, 90.0, 2.0)));
        assert_eq!(keys(&b), [(2, 3)]);

        // Marks on the untouched pairs' fits: a build that refitted
        // them would take the marks back out of the report.
        for key in [(1, 2), (4, 5)] {
            let fit = b.pairs[b.pending[&key] as usize].fit.as_mut().unwrap();
            fit.rejected_fine += 1000;
        }
        let (next_db, next_table, second) = b.build_snapshot();
        assert_eq!(
            second,
            BuildReport {
                observed: first.observed + 4,
                rejected_coarse: first.rejected_coarse + 1,
                rejected_unmapped: first.rejected_unmapped + 1,
                ..first
            },
            "no fine rejection, and no untouched pair refitted"
        );
        assert_eq!(next_db.get(l(2), l(3)).unwrap().sample_count, 6);
        assert_eq!(next_db.get(l(1), l(2)), db.get(l(1), l(2)));
        assert_eq!(next_db.get(l(4), l(5)), db.get(l(4), l(5)));
        assert!(!Arc::ptr_eq(&next_db, &db) && !Arc::ptr_eq(&next_table, &table));
        assert_eq!(*next_table, PairTable::build(&next_db));

        // Nothing touched: the previous `Arc`s and report.
        let (same_db, same_table, third) = b.build_snapshot();
        assert!(Arc::ptr_eq(&same_db, &next_db) && Arc::ptr_eq(&same_table, &next_table));
        assert_eq!(third, second);
    }

    #[test]
    fn the_table_follows_the_database_across_snapshots() {
        // With the coarse filter off, offsets 1e200 apart reach the fit
        // and unbuild the pair they land on.
        let config = SanitationConfig {
            coarse_enabled: false,
            ..SanitationConfig::paper()
        };
        let mut live = MotionDbBuilder::new(map(), config).unwrap();
        let mut seen = Vec::new();
        let mut feed = |live: &mut MotionDbBuilder, rlms: &[Rlm]| {
            for r in rlms {
                live.observe(*r);
                seen.push(*r);
            }
            assert_snapshot_matches_fresh(live, &seen)
        };
        let (db, _, _) = feed(
            &mut live,
            &[
                rlm(2, 3, 90.0, 2.0),
                rlm(3, 2, 270.0, 2.0),
                rlm(2, 3, 91.0, 2.1),
                rlm(1, 2, 90.0, 2.0),
                rlm(1, 2, 90.5, 2.0),
            ],
        );
        assert_eq!(db.pair_count(), 1, "1-2 is one short of built");

        // 1-2 crosses min_samples: a pair appears.
        let (db, _, report) = feed(&mut live, &[rlm(2, 1, 270.0, 2.0)]);
        assert!(db.get(l(1), l(2)).is_some());
        assert_eq!(report.pairs_built, 2);

        // A revisit of a built pair that stays built.
        let (db, _, _) = feed(&mut live, &[rlm(2, 3, 89.0, 2.05)]);
        assert_eq!(db.get(l(2), l(3)).unwrap().sample_count, 4);

        // 1-2 stops being built: its offset spread overflows.
        let (db, table, report) =
            feed(&mut live, &[rlm(1, 2, 90.0, 1e200), rlm(1, 2, 90.0, 1e200)]);
        assert_eq!(db.get(l(1), l(2)), None);
        assert_eq!((report.pairs_built, report.underpopulated_pairs), (1, 1));

        // Only rejected RLMs, then a revisit of the pair that stays
        // unbuilt: neither changes the database, so each build returns
        // the previous `Arc`s with a report that counts the RLMs.
        for (rlms, unmapped) in [
            (vec![rlm(1, 7, 90.0, 2.0), rlm(7, 3, 90.0, 2.0)], 2),
            (vec![rlm(2, 1, 270.0, 2.0)], 0),
        ] {
            let before = live.report;
            let (same_db, same_table, after) = feed(&mut live, &rlms);
            assert!(Arc::ptr_eq(&same_db, &db) && Arc::ptr_eq(&same_table, &table));
            assert_eq!(after.observed, before.observed + rlms.len() as u64);
            assert_eq!(after.rejected_unmapped, before.rejected_unmapped + unmapped);
        }
    }

    #[test]
    fn remembered_positions_move_with_a_reshape() {
        // Pair A = 2-3 is written in place at the positions the builder
        // remembers for it. Then 1-2, whose key sorts below A's, becomes
        // built: that reshape moves A's database entry and both its
        // table slots. Then A is revisited in place, into each buffer. A
        // builder that kept A's old positions across the reshape would
        // write A over 1-2, and one that wrote the new ones into the
        // wrong pair would write 1-2 over A.
        let mut live = MotionDbBuilder::new(map(), SanitationConfig::paper()).unwrap();
        let mut seen = Vec::new();
        let mut build = |live: &mut MotionDbBuilder, rlms: &[Rlm]| {
            for r in rlms {
                live.observe(*r);
                seen.push(*r);
            }
            let (db, table, _) = assert_snapshot_matches_fresh(live, &seen);
            (db, table)
        };
        let a = |k: u32| rlm(2, 3, 89.0 + 0.5 * f64::from(k), 2.0 + 0.01 * f64::from(k));
        let address = |db: &Arc<MotionDb>, table: &Arc<PairTable>| {
            (Arc::as_ptr(db) as usize, Arc::as_ptr(table) as usize)
        };

        // Build 1 lays out A and 4-5; 1-2 is one RLM short.
        let (db, table) = build(
            &mut live,
            &[
                a(0),
                a(1),
                a(2),
                rlm(4, 5, 90.0, 2.0),
                rlm(5, 4, 270.5, 2.05),
                rlm(4, 5, 91.0, 1.95),
                rlm(1, 2, 90.0, 2.0),
                rlm(2, 1, 270.5, 2.02),
            ],
        );
        let a_slots = |live: &MotionDbBuilder| live.pairs[live.pending[&(2, 3)] as usize].slots;
        let before = a_slots(&live);
        assert_eq!(before.entry, 0);
        let first = address(&db, &table);
        drop((db, table));

        // Build 2 copies build 1 and writes A where build 1 placed it;
        // build 3 writes A into build 1's buffers, at the same place.
        drop(build(&mut live, &[a(3)]));
        let (db, table) = build(&mut live, &[a(4)]);
        assert_eq!(address(&db, &table), first, "build 3 is written in place");
        drop((db, table));

        // Build 4: 1-2 is built, and A moves.
        let (db, table) = build(&mut live, &[rlm(1, 2, 89.5, 1.98)]);
        let after = a_slots(&live);
        assert_eq!(after.entry, 1);
        assert!(after.table.forward != before.table.forward);
        assert!(after.table.reverse != before.table.reverse);
        let reshaped = address(&db, &table);
        drop((db, table));

        // Build 5 copies build 4; builds 6 and 7 write A into build 4's
        // buffers and then build 5's, in place.
        let (db, table) = build(&mut live, &[a(5)]);
        let fifth = address(&db, &table);
        drop((db, table));
        let (db, table) = build(&mut live, &[a(6)]);
        assert_eq!(
            address(&db, &table),
            reshaped,
            "build 6 is written in place"
        );
        drop((db, table));
        let (db7, table7) = build(&mut live, &[a(7)]);
        assert_eq!(address(&db7, &table7), fifth, "build 7 is written in place");

        // Build 7 is held: build 8 writes build 6's buffers, and build 9
        // copies build 7's instead of writing them.
        let held = (bits(&db7), (*table7).clone());
        drop(build(&mut live, &[a(8)]));
        let (db, table) = build(&mut live, &[a(9)]);
        assert_ne!(address(&db, &table), address(&db7, &table7));
        assert_eq!(
            (bits(&db7), (*table7).clone()),
            held,
            "a held build changed"
        );
    }

    #[test]
    fn a_pair_whose_offset_spread_overflows_is_counted_not_built() {
        // Offsets 1e200 apart overflow Welford's sum of squares, so the
        // offset std is infinite; with the coarse filter off nothing
        // stops them before the fit. The fine filter, at k · ∞, keeps
        // them all.
        for config in [
            SanitationConfig::disabled(),
            SanitationConfig {
                coarse_enabled: false,
                ..SanitationConfig::paper()
            },
        ] {
            let mut b = MotionDbBuilder::new(map(), config).unwrap();
            for offset in [0.0, 1e200, 0.0, 1e200, 0.0] {
                assert!(b.observe(rlm(1, 2, 90.0, offset)));
            }
            for _ in 0..3 {
                b.observe(rlm(2, 3, 90.0, 2.0));
            }
            let (db, _, report) = b.build_snapshot();
            assert_eq!(db.get(l(1), l(2)), None);
            assert!(db.get(l(2), l(3)).is_some());
            assert_eq!(report.rejected_fine, 0);
            assert_eq!(report.underpopulated_pairs, 1);
            assert_eq!(report.pairs_built, 1);
        }
    }

    #[test]
    fn map_reference_is_total_for_off_grid_ids() {
        // The 3×2 fixture covers ids 1..=6; 7 is a corrupt estimate.
        let m = map();
        assert!(m.covers(l(1), l(6)));
        assert!(!m.covers(l(1), l(7)));
        assert_eq!(m.direction_deg(l(1), l(7)), None);
        assert_eq!(m.offset_m(l(7), l(1)), f64::INFINITY);
        assert!(!m.walkably_connected(l(1), l(7)));
    }

    #[test]
    fn grid_ids_missing_from_the_graph_use_the_straight_line() {
        // The 3×2 grid over the walk graph of its top row only: ids 4–6
        // are on the grid but connected to nothing.
        let grid = ReferenceGrid::new(Vec2::new(1.0, 3.0), 3, 2, 2.0, 2.0).unwrap();
        let row = ReferenceGrid::new(Vec2::new(1.0, 3.0), 3, 1, 2.0, 2.0).unwrap();
        let plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(8.0, 5.0)).unwrap());
        let m = MapReference::new(&grid, &WalkGraph::from_grid(&row, &plan));
        assert!(m.walkably_connected(l(1), l(3)));
        assert!(!m.walkably_connected(l(1), l(4)));
        assert!(!m.walkably_connected(l(4), l(4)));
        assert!((m.offset_m(l(1), l(4)) - 2.0).abs() < 1e-9);
        assert!((m.offset_m(l(6), l(1)) - grid.distance(l(6), l(1))).abs() < 1e-12);

        let mut b = MotionDbBuilder::new(m, SanitationConfig::paper()).unwrap();
        assert!(
            b.observe(rlm(1, 4, 180.0, 2.0)),
            "2 m measured against a 2 m straight line"
        );
        assert!(
            b.observe(rlm(4, 1, 0.0, 4.9)),
            "within 3 m of the straight line"
        );
        assert!(
            !b.observe(rlm(1, 4, 180.0, 6.0)),
            "4 m off the straight line"
        );
        assert_eq!(b.report.rejected_coarse, 1);
        assert_eq!(b.report.rejected_unmapped, 0);
    }

    #[test]
    fn bounded_walks_match_full_dijkstra() {
        // A partition between columns 1 and 2 (top aisle only) forces
        // 1 → 2 around it: 6 m walked against 2 m straight.
        let grid = ReferenceGrid::new(Vec2::new(1.0, 3.0), 3, 2, 2.0, 2.0).unwrap();
        let mut plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(8.0, 5.0)).unwrap());
        plan.add_wall(moloc_geometry::Wall::partition(
            Vec2::new(2.0, 2.0),
            Vec2::new(2.0, 5.0),
            5.0,
        ));
        let graph = WalkGraph::from_grid(&grid, &plan);
        let m = MapReference::new(&grid, &graph);
        for a in grid.ids() {
            let full = moloc_geometry::shortest_path::dijkstra(&graph, a);
            for b in grid.ids() {
                let walked = full.distance(b).unwrap();
                assert_eq!(m.offset_m(a, b).to_bits(), walked.to_bits(), "{a}->{b}");
            }
        }
        assert_eq!(m.offset_m(l(1), l(2)), 6.0);
        let mut b = MotionDbBuilder::new(m, SanitationConfig::paper()).unwrap();
        assert!(
            b.observe(rlm(1, 2, 90.0, 3.0)),
            "exactly 3 m short of the walk"
        );
        assert!(
            !b.observe(rlm(1, 2, 90.0, 2.0)),
            "the straight line is 4 m short"
        );
        assert!(
            b.observe(rlm(2, 1, 270.0, 9.0)),
            "exactly 3 m beyond the walk"
        );
        assert!(!b.observe(rlm(2, 1, 270.0, 9.5)));
    }

    /// Asserts that one `observe_all` of `stream` builds what offering
    /// it one RLM at a time builds (each `observe` is a call of its
    /// own, so it searches every RLM afresh), bit for bit, with the same
    /// report and acceptance count, and that the memo is empty after.
    fn assert_batch_matches_one_at_a_time(map: &MapReference, stream: &[Rlm]) -> BuildReport {
        let mut batch = MotionDbBuilder::new(map.clone(), SanitationConfig::paper()).unwrap();
        let accepted = batch.observe_all(stream.iter().copied());
        assert!(batch.memo.entries.is_empty(), "the memo outlived its call");
        let mut single = MotionDbBuilder::new(map.clone(), SanitationConfig::paper()).unwrap();
        let singly = stream.iter().filter(|&&r| single.observe(r)).count();
        assert_eq!(accepted, singly);
        let ((batch_db, batch_report), (single_db, single_report)) =
            (batch.build(), single.build());
        assert_eq!(bits(&batch_db), bits(&single_db));
        assert_eq!(batch_report, single_report);
        batch_report
    }

    #[test]
    fn a_batch_answers_each_rlm_as_its_own_search_would() {
        // The partition of `bounded_walks_match_full_dijkstra`: 1 → 2
        // walks 6 m around it against 2 m straight.
        let grid = ReferenceGrid::new(Vec2::new(1.0, 3.0), 3, 2, 2.0, 2.0).unwrap();
        let mut plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(8.0, 5.0)).unwrap());
        plan.add_wall(moloc_geometry::Wall::partition(
            Vec2::new(2.0, 2.0),
            Vec2::new(2.0, 5.0),
            5.0,
        ));
        let walled = MapReference::new(&grid, &WalkGraph::from_grid(&grid, &plan));
        let self_loop = Rlm {
            from: l(2),
            to: l(2),
            direction_deg: 0.0,
            offset_m: 0.0,
        };
        let stream = [
            // Radius 4 m: the search gives up short of the 6 m walk.
            rlm(1, 2, 90.0, 1.0),
            // Radius 3.2 m, inside the one given up at: rejected unsearched.
            rlm(1, 2, 90.0, 0.2),
            // Radius 6 m passes it: searched again, settles 6 m, accepted.
            rlm(2, 1, 270.0, 3.0),
            // Smaller and larger radii, both read off the settled walk.
            rlm(1, 2, 90.0, 2.0),
            rlm(1, 2, 90.0, 9.0),
            rlm(1, 2, 90.0, 9.5),
            rlm(2, 1, 270.0, 4.0),
            // A wild direction never searches; a revisit then does.
            rlm(1, 4, 90.0, 2.0),
            rlm(4, 1, 0.0, 2.0),
            rlm(1, 4, 180.0, 2.5),
            rlm(1, 7, 90.0, 2.0),
            self_loop,
            rlm(2, 1, 270.0, 6.0),
        ];
        let report = assert_batch_matches_one_at_a_time(&walled, &stream);
        assert_eq!(report.observed, 13);
        assert_eq!((report.rejected_unmapped, report.rejected_coarse), (2, 5));
        assert_eq!(report.pairs_built, 1, "1-2 from its four accepted RLMs");

        // The grid over the walk graph of its top row: 1 → 4 and 6 → 1
        // are not connected, so they take the straight line at every
        // radius.
        let row = ReferenceGrid::new(Vec2::new(1.0, 3.0), 3, 1, 2.0, 2.0).unwrap();
        let open = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(8.0, 5.0)).unwrap());
        let unconnected = MapReference::new(&grid, &WalkGraph::from_grid(&row, &open));
        let report = assert_batch_matches_one_at_a_time(
            &unconnected,
            &[
                rlm(1, 4, 180.0, 2.0),
                rlm(4, 1, 0.0, 4.9),
                rlm(1, 4, 180.0, 6.0),
                rlm(1, 4, 180.0, 0.1),
                rlm(1, 3, 90.0, 4.0),
                rlm(3, 1, 270.0, 9.0),
                rlm(1, 3, 90.0, 0.5),
                rlm(9, 4, 0.0, 2.0),
                self_loop,
            ],
        );
        assert_eq!((report.rejected_unmapped, report.rejected_coarse), (2, 3));
    }

    #[test]
    fn a_hostile_batch_leaves_no_memo_behind() {
        // A 64 × 32 open grid, 2,048 locations: every RLM of the batch
        // names a distinct pair across the hall, on its bearing (so the
        // walk is searched), with a measured offset short enough that
        // the search gives up.
        let grid = ReferenceGrid::new(Vec2::new(1.0, 1.0), 64, 32, 1.0, 1.0).unwrap();
        let plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(66.0, 34.0)).unwrap());
        let map = MapReference::new(&grid, &WalkGraph::from_grid(&grid, &plan));
        let n = grid.len() as u32;
        let rlms: Vec<Rlm> = (1..=n / 2)
            .flat_map(|a| [n + 1 - a, n / 2 + a].map(move |b| (a, b)))
            .filter(|&(a, b)| grid.distance(l(a), l(b)) > 8.0)
            .map(|(a, b)| {
                let bearing = map.direction_deg(l(a), l(b)).unwrap();
                rlm(a, b, bearing, 1.0)
            })
            .collect();
        let mut b = MotionDbBuilder::new(map, SanitationConfig::paper()).unwrap();
        assert_eq!(b.observe_all(rlms.iter().copied()), 0);
        let left = b.memo.entries.len();
        assert_eq!(left, 0, "{left} pairs left in the memo");
        assert_eq!(b.report.rejected_coarse, rlms.len() as u64);
        assert!(b.pairs.is_empty() && b.pending.is_empty());
    }

    #[test]
    fn off_grid_rlms_count_as_unmapped_not_coarse() {
        let mut b = MotionDbBuilder::new(map(), SanitationConfig::paper()).unwrap();
        assert!(!b.observe(rlm(1, 7, 90.0, 2.0)));
        assert_eq!(b.report.rejected_unmapped, 1);
        assert_eq!(
            b.report.rejected_coarse, 0,
            "unmapped must not masquerade as a threshold rejection"
        );
        // A genuine threshold rejection still lands in rejected_coarse.
        assert!(!b.observe(rlm(1, 2, 150.0, 2.0)));
        assert_eq!(b.report.rejected_coarse, 1);
        assert_eq!(b.report.rejected_unmapped, 1);
        let (db, report) = b.build();
        assert!(db.is_empty());
        assert_eq!(report.observed, 2);
    }

    #[test]
    fn unmapped_rlms_are_dropped_even_with_coarse_disabled() {
        // With the coarse filter off an off-grid pair used to flow into
        // the accumulator and blow up the grid-sized database at build.
        let mut b = MotionDbBuilder::new(map(), SanitationConfig::disabled()).unwrap();
        assert!(!b.observe(rlm(6, 7, 90.0, 2.0)));
        assert_eq!(b.report.rejected_unmapped, 1);
        let (db, report) = b.build();
        assert!(db.is_empty());
        assert_eq!(report.pairs_built, 0);
    }

    #[test]
    fn report_counts_are_consistent() {
        let mut b = MotionDbBuilder::new(map(), SanitationConfig::paper()).unwrap();
        for _ in 0..5 {
            b.observe(rlm(1, 2, 90.0, 2.0));
        }
        b.observe(rlm(1, 2, 10.0, 2.0)); // coarse reject
        let (_, report) = b.build();
        assert_eq!(report.observed, 6);
        assert_eq!(report.rejected_coarse, 1);
        assert_eq!(report.pairs_built, 1);
    }
}
