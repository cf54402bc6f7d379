//! Reference oracles: naive, obviously-correct implementations of the
//! math and wire formats the optimised crates reimplement.
//!
//! Every oracle takes primitive inputs — slices, `(id, value)` pairs,
//! plain Gaussian parameters, raw bytes — so `moloc-verify` sits at
//! the bottom of the crate graph (only `moloc-stats` and
//! `moloc-geometry` below it) and every higher crate can be compared
//! against it without a dependency cycle. The implementations favour
//! clarity over speed: full sorts instead of bounded selection, the
//! exact `erf`-based CDF instead of the tabulated one, per-call
//! allocation instead of scratch reuse.

use moloc_geometry::{LocationId, Vec2};
use moloc_stats::circular::{normalize_deg, signed_diff_deg};
use moloc_stats::erf::std_normal_cdf;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// Exhaustive k-NN (the reference for every optimised scan).
// ---------------------------------------------------------------------

/// Euclidean distance accumulated in slice order and rooted at the
/// end — the exact arithmetic of the optimised scalar scan
/// (`euclidean_sq` then `sqrt`), so clean-path comparisons can demand
/// bit-identity.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut sum = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        sum += d * d;
    }
    sum.sqrt()
}

/// Exhaustive k-NN over `(id, row)` pairs: ranks **every** row by
/// [`euclidean`] distance to `query`, sorts the full table, and keeps
/// the first `k`.
///
/// # Tie order
///
/// The result is ascending by dissimilarity; rows with *exactly*
/// equal dissimilarity are ordered by ascending [`LocationId`]. This
/// is the workspace-wide k-NN contract every optimised path
/// (selection tables, blocked tiles, f32 mirror rescore, sharded
/// merge) must reproduce.
///
/// # Panics
///
/// Panics if `k` is zero or any row's width differs from the query's.
pub fn k_nearest<'a, I>(rows: I, query: &[f64], k: usize) -> Vec<(LocationId, f64)>
where
    I: IntoIterator<Item = (LocationId, &'a [f64])>,
{
    assert!(k > 0, "k must be positive");
    let mut ranked: Vec<(LocationId, f64)> = rows
        .into_iter()
        .map(|(id, row)| (id, euclidean(query, row)))
        .collect();
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    ranked.truncate(k);
    ranked
}

/// Exhaustive masked k-NN for queries with missing (non-finite) APs:
/// a dimension contributes only when both the query and the row are
/// finite, and partial sums are rescaled by
/// `query_len / observed_query_dims` so dissimilarities stay
/// comparable to the full-width metric — the same semantics as the
/// optimised masked scan. Returns the ranked table and the observed
/// query-dimension count (zero means every row ranks 0).
///
/// # Panics
///
/// Panics if `k` is zero or any row's width differs from the query's.
pub fn k_nearest_masked<'a, I>(
    rows: I,
    query: &[f64],
    k: usize,
) -> (Vec<(LocationId, f64)>, usize)
where
    I: IntoIterator<Item = (LocationId, &'a [f64])>,
{
    assert!(k > 0, "k must be positive");
    let observed = query.iter().filter(|v| v.is_finite()).count();
    let scale = if observed == 0 {
        0.0
    } else {
        query.len() as f64 / observed as f64
    };
    let mut ranked: Vec<(LocationId, f64)> = rows
        .into_iter()
        .map(|(id, row)| {
            assert_eq!(row.len(), query.len(), "dimension mismatch");
            let mut sum = 0.0;
            for (x, y) in query.iter().zip(row) {
                if x.is_finite() && y.is_finite() {
                    let d = x - y;
                    sum += d * d;
                }
            }
            (id, (sum * scale).sqrt())
        })
        .collect();
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    ranked.truncate(k);
    (ranked, observed)
}

// ---------------------------------------------------------------------
// Eq. 4 — candidate probabilities from k-NN dissimilarities.
// ---------------------------------------------------------------------

/// Eq. 4 candidate probabilities: `P(x = lᵢ | F) = (1/mᵢ) / Σⱼ (1/mⱼ)`
/// over the k-NN dissimilarities, with an exact match
/// (`mᵢ <= f64::EPSILON`) absorbing all mass, split evenly among tied
/// exact matches. Returns `None` when the input is empty or the
/// inverse-dissimilarity total is non-finite or non-positive (the
/// degenerate case the engine handles with a uniform reset).
pub fn candidate_probabilities(
    neighbors: &[(LocationId, f64)],
) -> Option<Vec<(LocationId, f64)>> {
    if neighbors.is_empty() {
        return None;
    }
    let exact = neighbors
        .iter()
        .filter(|(_, m)| *m <= f64::EPSILON)
        .count();
    if exact > 0 {
        let p = 1.0 / exact as f64;
        return Some(
            neighbors
                .iter()
                .map(|&(id, m)| (id, if m <= f64::EPSILON { p } else { 0.0 }))
                .collect(),
        );
    }
    let total: f64 = neighbors.iter().map(|(_, m)| 1.0 / m).sum();
    if !total.is_finite() || total <= 0.0 {
        return None;
    }
    Some(
        neighbors
            .iter()
            .map(|&(id, m)| (id, (1.0 / m) / total))
            .collect(),
    )
}

// ---------------------------------------------------------------------
// Eq. 5 / Eq. 6 — motion matching through the exact erf-based CDF.
// ---------------------------------------------------------------------

/// Probability mass of the window `[center - width/2, center + width/2]`
/// under `N(mean, std²)`, through the **exact** [`std_normal_cdf`]
/// (the optimised kernel uses the tabulated CDF, accurate to `1.3e-7`
/// per evaluation).
pub fn window_mass(mean: f64, std: f64, center: f64, width: f64) -> f64 {
    let lo = (center - width / 2.0 - mean) / std;
    let hi = (center + width / 2.0 - mean) / std;
    (std_normal_cdf(hi) - std_normal_cdf(lo)).max(0.0)
}

/// The stay-in-place probability `P_{i,i}(d, o)`: uninformative
/// direction mass `(α/360) · min(1)` times the `β` window of a
/// zero-mean offset Gaussian with std `stationary_offset_std_m`.
pub fn stationary_probability(
    offset_m: f64,
    alpha_deg: f64,
    beta_m: f64,
    stationary_offset_std_m: f64,
) -> f64 {
    (alpha_deg / 360.0).min(1.0) * window_mass(0.0, stationary_offset_std_m, offset_m, beta_m)
}

/// The trained-pair motion probability `P_{i,j}(d, o)` (Eq. 5) from
/// plain pair parameters: the direction window is evaluated on the
/// signed deviation from the pair's mean direction (so the 0°/360°
/// wrap never splits a window), the offset window directly on the
/// measured offset.
#[allow(clippy::too_many_arguments)]
pub fn pair_probability(
    dir_mean_deg: f64,
    dir_std_deg: f64,
    off_mean_m: f64,
    off_std_m: f64,
    direction_deg: f64,
    offset_m: f64,
    alpha_deg: f64,
    beta_m: f64,
) -> f64 {
    let dev = signed_diff_deg(dir_mean_deg, direction_deg);
    let d_mass = window_mass(0.0, dir_std_deg, dev, alpha_deg);
    let o_mass = window_mass(off_mean_m, off_std_m, offset_m, beta_m);
    d_mass * o_mass
}

// ---------------------------------------------------------------------
// Eq. 7 — posterior fusion with the degenerate fallback.
// ---------------------------------------------------------------------

/// Eq. 7 posterior fusion: reweights `current` fingerprint candidates
/// by the Eq. 6 motion evidence from `previous`, normalizing at the
/// end. `motion(from, to)` supplies `P_{from,to}(d, o)` — callers
/// close over whichever Eq. 5 source (exact oracle, database, kernel)
/// they are auditing. When the total weight is non-finite or at most
/// `degenerate_floor`, returns the fingerprint-only `current`
/// unchanged — the engine's documented fallback.
pub fn fuse_posterior(
    current: &[(LocationId, f64)],
    previous: &[(LocationId, f64)],
    motion: impl Fn(LocationId, LocationId) -> f64,
    degenerate_floor: f64,
) -> Vec<(LocationId, f64)> {
    let weights: Vec<(LocationId, f64)> = current
        .iter()
        .map(|&(to, p_fingerprint)| {
            let p_motion: f64 = previous.iter().map(|&(from, p)| p * motion(from, to)).sum();
            (to, p_fingerprint * p_motion)
        })
        .collect();
    let total: f64 = weights.iter().map(|(_, w)| w).sum();
    if !total.is_finite() || total <= degenerate_floor {
        return current.to_vec();
    }
    weights.into_iter().map(|(id, w)| (id, w / total)).collect()
}

// ---------------------------------------------------------------------
// Circular statistics — two-pass references for the accumulators.
// ---------------------------------------------------------------------

/// Circular mean of directions in degrees, or `None` when empty or
/// the mean resultant vector is numerically zero (length below
/// `1e-12`) — the same degeneracy rule as the production accumulator.
pub fn circular_mean_deg(angles: &[f64]) -> Option<f64> {
    if angles.is_empty() {
        return None;
    }
    let mut s = 0.0;
    let mut c = 0.0;
    for &a in angles {
        let r = a.to_radians();
        s += r.sin();
        c += r.cos();
    }
    let n = angles.len() as f64;
    let (s, c) = (s / n, c / n);
    if s.hypot(c) < 1e-12 {
        return None;
    }
    Some(normalize_deg(s.atan2(c).to_degrees()))
}

/// Circular standard deviation in degrees: the population standard
/// deviation of the signed deviations from the circular mean, in a
/// plain second pass. `None` when the mean is undefined.
pub fn circular_std_deg(angles: &[f64]) -> Option<f64> {
    let mean = circular_mean_deg(angles)?;
    let n = angles.len() as f64;
    let ss: f64 = angles
        .iter()
        .map(|&a| signed_diff_deg(mean, a).powi(2))
        .sum();
    Some((ss / n).sqrt())
}

// ---------------------------------------------------------------------
// Motion-database sanitation — the paper's reassembly, coarse and fine
// filters re-decided per RLM (Sec. IV-B).
// ---------------------------------------------------------------------

/// The sanitation thresholds as plain numbers (the fields of
/// `moloc-motion`'s `SanitationConfig`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SanitationRules {
    /// Whether the coarse map filter runs.
    pub coarse_enabled: bool,
    /// Coarse direction threshold, degrees.
    pub coarse_direction_deg: f64,
    /// Coarse offset threshold, meters.
    pub coarse_offset_m: f64,
    /// Whether the fine `k·σ` filter runs.
    pub fine_enabled: bool,
    /// The fine filter's `k`.
    pub fine_sigma: f64,
    /// Measurements a pair needs to enter the database.
    pub min_samples: usize,
    /// Floor of a fitted direction std, degrees.
    pub min_direction_std_deg: f64,
    /// Floor of a fitted offset std, meters.
    pub min_offset_std_m: f64,
}

/// The sanitation counters (the fields of `moloc-motion`'s
/// `BuildReport`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SanitationCounts {
    /// RLMs offered.
    pub observed: u64,
    /// RLMs beyond the direction or offset threshold of a mapped pair.
    pub rejected_coarse: u64,
    /// RLMs with an endpoint off the grid, or from a location to
    /// itself.
    pub rejected_unmapped: u64,
    /// Measurements dropped by the fine filter.
    pub rejected_fine: u64,
    /// Pairs left with fewer than `min_samples` measurements, or
    /// without a finite fit.
    pub underpopulated_pairs: u64,
    /// Pairs fitted.
    pub pairs_built: u64,
}

/// One fitted canonical pair (`from < to`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SanitizedPair {
    /// The smaller endpoint.
    pub from: LocationId,
    /// The larger endpoint.
    pub to: LocationId,
    /// Mean direction, compass degrees.
    pub direction_mean_deg: f64,
    /// Floored direction std, degrees.
    pub direction_std_deg: f64,
    /// Mean offset, meters.
    pub offset_mean_m: f64,
    /// Floored offset std, meters.
    pub offset_std_m: f64,
    /// Measurements behind the fit.
    pub samples: u64,
}

/// Walkable distances from `source` by the textbook array Dijkstra:
/// each round settles the nearest unsettled node (ties to the lower
/// index) in an O(n) scan over a dense `n × n` adjacency matrix.
/// Unreachable nodes stay infinite.
fn dense_dijkstra(adjacency: &[Vec<Option<f64>>], source: usize) -> Vec<f64> {
    let n = adjacency.len();
    let mut dist = vec![f64::INFINITY; n];
    let mut settled = vec![false; n];
    dist[source] = 0.0;
    for _ in 0..n {
        let Some(u) = (0..n)
            .filter(|&v| !settled[v] && dist[v].is_finite())
            .min_by(|&a, &b| dist[a].total_cmp(&dist[b]).then(a.cmp(&b)))
        else {
            break;
        };
        settled[u] = true;
        for v in 0..n {
            if let Some(length) = adjacency[u][v] {
                if dist[u] + length < dist[v] {
                    dist[v] = dist[u] + length;
                }
            }
        }
    }
    dist
}

/// Re-decides every RLM of a motion-database build from the paper's
/// rules, in order:
///
/// 1. reassemble the RLM to start at the smaller id (the reverse
///    direction is `d + 180° mod 360°`, the offset unchanged);
/// 2. drop it as unmapped when an endpoint is off the grid or both
///    endpoints are the same location, whatever the coarse toggle says;
/// 3. coarse, when enabled: drop it when the grid bearing is undefined
///    or more than `coarse_direction_deg` away by circular difference,
///    or when its offset is more than `coarse_offset_m` from the map
///    offset — the walkable distance by a textbook array Dijkstra, or the
///    straight line when the graph does not connect the pair;
/// 4. per pair in id order: the fine filter drops every measurement
///    beyond `fine_sigma` standard deviations in direction or offset
///    (a zero std drops nothing), then a pair with fewer than
///    `min_samples` measurements, or an undefined mean direction, is
///    underpopulated; the rest are fitted with floored stds, and a pair
///    whose fitted mean or std is not finite counts as underpopulated
///    too.
///
/// `positions[i]` is the position of id `i + 1`; `edges` are the
/// walkable graph's undirected edges. Ids without a position are off
/// the grid; grid ids no edge touches are connected to nothing.
pub fn sanitize(
    positions: &[Vec2],
    edges: &[(LocationId, LocationId, f64)],
    rlms: &[(LocationId, LocationId, f64, f64)],
    rules: &SanitationRules,
) -> (SanitationCounts, Vec<SanitizedPair>) {
    let n = positions.len();
    let mut adjacency = vec![vec![None; n]; n];
    for &(a, b, length) in edges {
        adjacency[a.index()][b.index()] = Some(length);
        adjacency[b.index()][a.index()] = Some(length);
    }
    let walk: Vec<Vec<f64>> = (0..n).map(|s| dense_dijkstra(&adjacency, s)).collect();

    let mut counts = SanitationCounts::default();
    let mut accepted: BTreeMap<(LocationId, LocationId), Vec<(f64, f64)>> = BTreeMap::new();
    for &(from, to, direction, offset) in rlms {
        counts.observed += 1;
        let (a, b, direction) = if from < to {
            (from, to, direction)
        } else {
            (to, from, normalize_deg(direction + 180.0))
        };
        if a == b || a.index() >= n || b.index() >= n {
            counts.rejected_unmapped += 1;
            continue;
        }
        if rules.coarse_enabled {
            let (pa, pb) = (positions[a.index()], positions[b.index()]);
            let direction_ok = pa.bearing_deg_to_checked(pb).is_some_and(|map_direction| {
                signed_diff_deg(direction, map_direction).abs() <= rules.coarse_direction_deg
            });
            let walked = walk[a.index()][b.index()];
            let map_offset = if walked.is_finite() {
                walked
            } else {
                pa.dist(pb)
            };
            if !direction_ok || (offset - map_offset).abs() > rules.coarse_offset_m {
                counts.rejected_coarse += 1;
                continue;
            }
        }
        accepted
            .entry((a, b))
            .or_default()
            .push((direction, offset));
    }

    let mut pairs = Vec::new();
    for ((from, to), mut samples) in accepted {
        if rules.fine_enabled {
            let directions: Vec<f64> = samples.iter().map(|s| s.0).collect();
            if let Some(mean_d) = circular_mean_deg(&directions) {
                let std_d = circular_std_deg(&directions).unwrap_or(0.0);
                let (mean_o, std_o) = mean_std(samples.iter().map(|s| s.1));
                let before = samples.len();
                samples.retain(|&(d, o)| {
                    let d_ok = std_d == 0.0
                        || signed_diff_deg(d, mean_d).abs() <= rules.fine_sigma * std_d;
                    let o_ok = std_o == 0.0 || (o - mean_o).abs() <= rules.fine_sigma * std_o;
                    d_ok && o_ok
                });
                counts.rejected_fine += (before - samples.len()) as u64;
            }
        }
        let directions: Vec<f64> = samples.iter().map(|s| s.0).collect();
        let mean_d = circular_mean_deg(&directions);
        let Some(mean_d) = mean_d.filter(|_| samples.len() >= rules.min_samples) else {
            counts.underpopulated_pairs += 1;
            continue;
        };
        let std_d = circular_std_deg(&directions).unwrap_or(0.0);
        let (mean_o, std_o) = mean_std(samples.iter().map(|s| s.1));
        let pair = SanitizedPair {
            from,
            to,
            direction_mean_deg: mean_d,
            direction_std_deg: std_d.max(rules.min_direction_std_deg),
            offset_mean_m: mean_o,
            offset_std_m: std_o.max(rules.min_offset_std_m),
            samples: samples.len() as u64,
        };
        let fitted = [
            pair.direction_mean_deg,
            pair.direction_std_deg,
            pair.offset_mean_m,
            pair.offset_std_m,
        ];
        if !fitted.iter().all(|v| v.is_finite()) {
            counts.underpopulated_pairs += 1;
            continue;
        }
        pairs.push(pair);
        counts.pairs_built += 1;
    }
    (counts, pairs)
}

/// Two-pass population mean and standard deviation (`(0, 0)` when
/// empty).
fn mean_std(values: impl Iterator<Item = f64> + Clone) -> (f64, f64) {
    let n = values.clone().count();
    if n == 0 {
        return (0.0, 0.0);
    }
    let mean = values.clone().sum::<f64>() / n as f64;
    let ss: f64 = values.map(|v| (v - mean).powi(2)).sum();
    (mean, (ss / n as f64).sqrt())
}

// ---------------------------------------------------------------------
// Checkpoint record framing — an independent reimplementation of the
// session log's wire format for round-trip cross-checks.
// ---------------------------------------------------------------------

/// The checkpoint record magic (`moloc-session`'s `MLCK`).
pub const FRAME_MAGIC: [u8; 4] = *b"MLCK";

/// The checkpoint format version this oracle frames.
pub const FRAME_VERSION: u32 = 2;

/// Frame header length: magic + version `u32` + payload length `u64`.
pub const FRAME_HEADER_LEN: usize = 16;

/// Frame trailer length: one FNV-1a-64 checksum.
pub const FRAME_CHECKSUM_LEN: usize = 8;

/// FNV-1a-64 (the workspace checksum).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Frames `payload` into one checkpoint record: magic, version,
/// payload length, payload, then FNV-1a-64 over everything before the
/// checksum — byte-identical to `moloc-session`'s `frame_record`.
pub fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut record = Vec::with_capacity(FRAME_HEADER_LEN + payload.len() + FRAME_CHECKSUM_LEN);
    record.extend_from_slice(&FRAME_MAGIC);
    record.extend_from_slice(&FRAME_VERSION.to_le_bytes());
    record.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    record.extend_from_slice(payload);
    let checksum = fnv1a(&record);
    record.extend_from_slice(&checksum.to_le_bytes());
    record
}

/// Parses one framed record from the front of `bytes`: verifies the
/// magic, reads the declared payload length, and checks the trailing
/// FNV-1a-64. Returns `(version, payload, bytes_consumed)` on
/// success, `None` on any violation (short buffer, wrong magic,
/// checksum mismatch).
pub fn parse_record(bytes: &[u8]) -> Option<(u32, Vec<u8>, usize)> {
    if bytes.len() < FRAME_HEADER_LEN {
        return None;
    }
    if bytes[..4] != FRAME_MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
    let payload_len = usize::try_from(u64::from_le_bytes(bytes[8..16].try_into().ok()?)).ok()?;
    let total = FRAME_HEADER_LEN
        .checked_add(payload_len)?
        .checked_add(FRAME_CHECKSUM_LEN)?;
    if bytes.len() < total {
        return None;
    }
    let body_end = FRAME_HEADER_LEN + payload_len;
    let stored = u64::from_le_bytes(bytes[body_end..total].try_into().ok()?);
    if fnv1a(&bytes[..body_end]) != stored {
        return None;
    }
    Some((version, bytes[FRAME_HEADER_LEN..body_end].to_vec(), total))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LocationId {
        LocationId::new(i)
    }

    #[test]
    fn k_nearest_ranks_and_breaks_ties_by_id() {
        // Rows 2 and 3 are identical (exact tie); row 1 is closest.
        let rows: Vec<(LocationId, Vec<f64>)> = vec![
            (l(3), vec![-50.0, -50.0]),
            (l(1), vec![-40.0, -60.0]),
            (l(2), vec![-50.0, -50.0]),
        ];
        let got = k_nearest(
            rows.iter().map(|(id, r)| (*id, r.as_slice())),
            &[-41.0, -59.0],
            3,
        );
        let ids: Vec<u32> = got.iter().map(|(id, _)| id.get()).collect();
        assert_eq!(ids, [1, 2, 3], "tie between 2 and 3 must order by id");
        assert!(got[0].1 < got[1].1);
        assert_eq!(got[1].1.to_bits(), got[2].1.to_bits());
    }

    #[test]
    fn masked_k_nearest_rescales_by_observed() {
        let rows: Vec<(LocationId, Vec<f64>)> =
            vec![(l(1), vec![-40.0, -60.0]), (l(2), vec![-60.0, -40.0])];
        let query = [-40.0, f64::NAN];
        let (got, observed) =
            k_nearest_masked(rows.iter().map(|(id, r)| (*id, r.as_slice())), &query, 2);
        assert_eq!(observed, 1);
        assert_eq!(got[0].0, l(1));
        // One observed dim of two: (q - r)² · 2, rooted.
        assert!((got[1].1 - (2.0f64 * 400.0).sqrt()).abs() < 1e-12);
        // No observed dims: every row ranks 0, ids ascending.
        let (zeros, observed) = k_nearest_masked(
            rows.iter().map(|(id, r)| (*id, r.as_slice())),
            &[f64::NAN, f64::NAN],
            2,
        );
        assert_eq!(observed, 0);
        assert_eq!(zeros, vec![(l(1), 0.0), (l(2), 0.0)]);
    }

    #[test]
    fn eq4_exact_match_absorbs_all_mass() {
        let got = candidate_probabilities(&[(l(1), 0.0), (l(2), 0.0), (l(3), 3.0)])
            .expect("non-degenerate");
        assert_eq!(got, vec![(l(1), 0.5), (l(2), 0.5), (l(3), 0.0)]);
    }

    #[test]
    fn eq4_inverse_dissimilarity_normalizes() {
        let got = candidate_probabilities(&[(l(1), 1.0), (l(2), 3.0)]).expect("non-degenerate");
        let total: f64 = got.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-15);
        assert!((got[0].1 / got[1].1 - 3.0).abs() < 1e-12, "1/1 vs 1/3");
    }

    #[test]
    fn eq4_degenerate_inputs_are_none() {
        assert_eq!(candidate_probabilities(&[]), None);
        assert_eq!(candidate_probabilities(&[(l(1), f64::NAN)]), None);
        // 1/inf = 0 total → degenerate.
        assert_eq!(candidate_probabilities(&[(l(1), f64::INFINITY)]), None);
    }

    #[test]
    fn eq5_windows_behave() {
        // A wide window centred on the mean captures almost all mass.
        assert!(window_mass(90.0, 5.0, 90.0, 40.0) > 0.99);
        // Stay-in-place prefers small offsets.
        let near = stationary_probability(0.1, 20.0, 1.0, 0.5);
        let far = stationary_probability(5.0, 20.0, 1.0, 0.5);
        assert!(near > 100.0 * far);
        // Wraparound: 359.5° measured against a 0.5° mean is 1° off.
        let p = pair_probability(0.5, 5.0, 5.0, 0.3, 359.5, 5.0, 20.0, 1.0);
        assert!(p > 0.8, "p = {p}");
    }

    #[test]
    fn eq7_normalizes_and_falls_back() {
        let current = [(l(2), 0.5), (l(3), 0.5)];
        let previous = [(l(1), 1.0)];
        // Motion prefers 1→2 strongly.
        let strong = |from: LocationId, to: LocationId| {
            if from == l(1) && to == l(2) {
                0.9
            } else {
                1e-6
            }
        };
        let posterior = fuse_posterior(&current, &previous, strong, 1e-12);
        let total: f64 = posterior.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(posterior[0].1 > 0.99);
        // All-zero motion: degenerate fallback returns current.
        let zero = |_: LocationId, _: LocationId| 0.0;
        assert_eq!(fuse_posterior(&current, &previous, zero, 1e-12), current);
        // NaN motion: also the fallback, never a NaN posterior.
        let nan = |_: LocationId, _: LocationId| f64::NAN;
        assert_eq!(fuse_posterior(&current, &previous, nan, 1e-12), current);
    }

    #[test]
    fn circular_references_handle_wrap_and_degeneracy() {
        let m = circular_mean_deg(&[350.0, 10.0]).expect("defined");
        assert!(!(1.0..=359.0).contains(&m), "m = {m}");
        let s = circular_std_deg(&[80.0, 100.0]).expect("defined");
        assert!((s - 10.0).abs() < 1e-9, "s = {s}");
        assert_eq!(circular_mean_deg(&[]), None);
        // Antipodal pair: zero resultant.
        assert_eq!(circular_mean_deg(&[0.0, 180.0]), None);
    }

    #[test]
    fn sanitize_counts_a_pair_without_a_finite_fit_as_underpopulated() {
        // Three points 2 m apart along an east-west aisle, coarse off:
        // offsets 1e200 apart square past f64::MAX, so the offset std
        // is infinite and 1-2 is not built; 2-3 is.
        let positions = [0.0, 2.0, 4.0].map(|x| Vec2::new(x, 0.0));
        let edges = [(l(1), l(2), 2.0), (l(2), l(3), 2.0)];
        let mut rlms: Vec<_> = [0.0, 1e200, 0.0, 1e200, 0.0]
            .into_iter()
            .map(|offset| (l(1), l(2), 90.0, offset))
            .collect();
        rlms.extend([(l(2), l(3), 90.0, 2.0); 3]);
        let rules = SanitationRules {
            coarse_enabled: false,
            coarse_direction_deg: 20.0,
            coarse_offset_m: 3.0,
            fine_enabled: true,
            fine_sigma: 2.0,
            min_samples: 3,
            min_direction_std_deg: 2.0,
            min_offset_std_m: 0.05,
        };
        let (counts, pairs) = sanitize(&positions, &edges, &rlms, &rules);
        assert_eq!(counts.underpopulated_pairs, 1);
        assert_eq!(counts.pairs_built, 1);
        assert_eq!(counts.rejected_fine, 0);
        assert_eq!((pairs[0].from, pairs[0].to), (l(2), l(3)));
    }

    #[test]
    fn sanitize_drops_self_loops_as_unmapped_whatever_the_coarse_toggle() {
        // Five RLMs from L2 to itself beside three good 2-3 ones: the
        // database holds no self-pairs, so the loops are unmapped.
        let positions = [0.0, 2.0, 4.0].map(|x| Vec2::new(x, 0.0));
        let edges = [(l(1), l(2), 2.0), (l(2), l(3), 2.0)];
        let mut rlms = vec![(l(2), l(2), 90.0, 0.5); 5];
        rlms.extend([(l(2), l(3), 90.0, 2.0); 3]);
        for coarse_enabled in [false, true] {
            let rules = SanitationRules {
                coarse_enabled,
                coarse_direction_deg: 20.0,
                coarse_offset_m: 3.0,
                fine_enabled: true,
                fine_sigma: 2.0,
                min_samples: 3,
                min_direction_std_deg: 2.0,
                min_offset_std_m: 0.05,
            };
            let (counts, pairs) = sanitize(&positions, &edges, &rlms, &rules);
            assert_eq!((counts.rejected_unmapped, counts.rejected_coarse), (5, 0));
            assert_eq!(counts.pairs_built, 1);
            assert_eq!((pairs[0].from, pairs[0].to), (l(2), l(3)));
        }
    }

    #[test]
    fn frame_round_trips_and_rejects_corruption() {
        let payload = b"checkpoint payload bytes";
        let record = frame_record(payload);
        let (version, parsed, consumed) = parse_record(&record).expect("round trip");
        assert_eq!(version, FRAME_VERSION);
        assert_eq!(parsed, payload);
        assert_eq!(consumed, record.len());
        // Every single-byte flip must be rejected.
        for i in 0..record.len() {
            let mut bad = record.clone();
            bad[i] ^= 0x01;
            assert!(parse_record(&bad).is_none(), "flip at byte {i} accepted");
        }
        // Truncations too.
        for end in 0..record.len() {
            assert!(parse_record(&record[..end]).is_none(), "truncation {end}");
        }
    }
}
