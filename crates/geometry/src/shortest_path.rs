//! Shortest walkable paths over a [`WalkGraph`].
//!
//! The motion database's *coarse filter* compares each crowdsourced
//! offset to the map-derived walkable distance, and the map-based
//! database ablation needs the same quantities; both use Dijkstra over
//! the walk graph.

use crate::graph::WalkGraph;
use crate::grid::LocationId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Result of a single-source shortest-path computation.
#[derive(Debug, Clone, PartialEq)]
pub struct ShortestPaths {
    source: LocationId,
    dist: Vec<f64>,
    prev: Vec<Option<usize>>,
}

impl ShortestPaths {
    /// The source node.
    pub fn source(&self) -> LocationId {
        self.source
    }

    /// The walkable distance to `target`, or `None` when unreachable.
    pub fn distance(&self, target: LocationId) -> Option<f64> {
        let d = self.dist[target.index()];
        d.is_finite().then_some(d)
    }

    /// The node sequence from the source to `target` inclusive, or
    /// `None` when unreachable.
    pub fn path(&self, target: LocationId) -> Option<Vec<LocationId>> {
        if !self.dist[target.index()].is_finite() {
            return None;
        }
        let mut out = vec![target];
        let mut cur = target.index();
        while let Some(p) = self.prev[cur] {
            out.push(LocationId::from_index(p));
            cur = p;
        }
        out.reverse();
        Some(out)
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance (reverse order), ties by node for
        // determinism.
        other
            .dist
            .partial_cmp(&self.dist)
            .expect("distances are finite")
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra's algorithm from `source`.
///
/// # Panics
///
/// Panics if `source` is out of range for the graph.
pub fn dijkstra(graph: &WalkGraph, source: LocationId) -> ShortestPaths {
    let n = graph.node_count();
    assert!(source.index() < n, "{source} out of range for graph");
    let mut dist = vec![f64::INFINITY; n];
    let mut prev = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source.index(),
    });
    while let Some(HeapEntry { dist: d, node }) = heap.pop() {
        if d > dist[node] {
            continue;
        }
        for (nb, len) in graph.neighbors(LocationId::from_index(node)) {
            let nd = d + len;
            if nd < dist[nb.index()] {
                dist[nb.index()] = nd;
                prev[nb.index()] = Some(node);
                heap.push(HeapEntry {
                    dist: nd,
                    node: nb.index(),
                });
            }
        }
    }
    ShortestPaths { source, dist, prev }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::{FloorPlan, Wall};
    use crate::grid::ReferenceGrid;
    use crate::polygon::Aabb;
    use crate::vec2::Vec2;

    fn l(i: u32) -> LocationId {
        LocationId::new(i)
    }

    /// 3×2 grid, spacing 2 m, partition between columns 1 and 2 except a
    /// gap handled by removing only the top edge.
    fn blocked_world() -> WalkGraph {
        let grid = ReferenceGrid::new(Vec2::new(1.0, 3.0), 3, 2, 2.0, 2.0).unwrap();
        let mut plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(8.0, 5.0)).unwrap());
        // Wall blocking only the top aisle between columns 0 and 1.
        plan.add_wall(Wall::partition(
            Vec2::new(2.0, 2.0),
            Vec2::new(2.0, 5.0),
            5.0,
        ));
        WalkGraph::from_grid(&grid, &plan)
    }

    #[test]
    fn direct_neighbors_have_edge_distance() {
        let g = blocked_world();
        let sp = dijkstra(&g, l(1));
        assert!((sp.distance(l(4)).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn detour_around_partition() {
        let g = blocked_world();
        // 1 → 2 straight is blocked; must go 1-4-5-2 (6 m) instead of 2 m.
        assert!(!g.are_adjacent(l(1), l(2)));
        let sp = dijkstra(&g, l(1));
        assert!((sp.distance(l(2)).unwrap() - 6.0).abs() < 1e-12);
        assert_eq!(sp.path(l(2)).unwrap(), vec![l(1), l(4), l(5), l(2)]);
    }

    #[test]
    fn source_distance_is_zero() {
        let g = blocked_world();
        let sp = dijkstra(&g, l(3));
        assert_eq!(sp.distance(l(3)), Some(0.0));
        assert_eq!(sp.path(l(3)).unwrap(), vec![l(3)]);
        assert_eq!(sp.source(), l(3));
    }

    #[test]
    fn unreachable_is_none() {
        let mut g = WalkGraph::with_nodes(3);
        g.add_edge(l(1), l(2), 1.0);
        let sp = dijkstra(&g, l(1));
        assert_eq!(sp.distance(l(3)), None);
        assert_eq!(sp.path(l(3)), None);
    }

    #[test]
    fn walk_distances_are_symmetric_and_satisfy_triangle_inequality() {
        let g = blocked_world();
        let n = g.node_count();
        let from: Vec<ShortestPaths> = (0..n)
            .map(|i| dijkstra(&g, LocationId::from_index(i)))
            .collect();
        let d = |i: usize, j: usize| from[i].distance(LocationId::from_index(j));
        for i in 0..n {
            assert_eq!(d(i, i), Some(0.0));
            for j in 0..n {
                assert_eq!(d(i, j), d(j, i));
                for k in 0..n {
                    if let (Some(ij), Some(ik), Some(kj)) = (d(i, j), d(i, k), d(k, j)) {
                        assert!(ij <= ik + kj + 1e-9);
                    }
                }
            }
        }
    }

    #[test]
    fn path_endpoints_are_correct() {
        let g = blocked_world();
        let sp = dijkstra(&g, l(1));
        for target in 1..=6 {
            let t = l(target);
            if let Some(p) = sp.path(t) {
                assert_eq!(*p.first().unwrap(), l(1));
                assert_eq!(*p.last().unwrap(), t);
                // Each consecutive pair adjacent.
                for w in p.windows(2) {
                    assert!(g.are_adjacent(w[0], w[1]));
                }
            }
        }
    }
}
