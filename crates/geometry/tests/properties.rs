//! Property-based tests for the geometry substrate.

use moloc_geometry::floorplan::FloorPlan;
use moloc_geometry::grid::{LocationId, ReferenceGrid};
use moloc_geometry::polygon::Aabb;
use moloc_geometry::segment::Segment;
use moloc_geometry::shortest_path::dijkstra;
use moloc_geometry::vec2::Vec2;
use moloc_geometry::WalkGraph;
use proptest::prelude::*;

fn coord() -> impl Strategy<Value = f64> {
    -100.0..100.0f64
}

fn point() -> impl Strategy<Value = Vec2> {
    (coord(), coord()).prop_map(|(x, y)| Vec2::new(x, y))
}

proptest! {
    #[test]
    fn bearing_walk_round_trip(p in point(), bearing in 0.0..360.0f64, dist in 0.01..50.0f64) {
        let q = p.walk(bearing, dist);
        prop_assert!((p.dist(q) - dist).abs() < 1e-9);
        let back = p.bearing_deg_to(q);
        prop_assert!(
            moloc_stats::circular::abs_diff_deg(back, bearing) < 1e-6,
            "bearing {bearing} vs recovered {back}"
        );
    }

    #[test]
    fn distance_is_a_metric(a in point(), b in point(), c in point()) {
        prop_assert!((a.dist(b) - b.dist(a)).abs() < 1e-9);
        prop_assert!(a.dist(c) <= a.dist(b) + b.dist(c) + 1e-9);
        prop_assert!(a.dist(a) < 1e-12);
    }

    #[test]
    fn segment_intersection_is_symmetric(a in point(), b in point(), c in point(), d in point()) {
        let s = Segment::new(a, b);
        let t = Segment::new(c, d);
        prop_assert_eq!(s.intersects(&t), t.intersects(&s));
    }

    #[test]
    fn segment_intersects_itself_and_shares_endpoints(a in point(), b in point(), c in point()) {
        let s = Segment::new(a, b);
        prop_assert!(s.intersects(&s));
        // A segment sharing endpoint `b` intersects.
        let t = Segment::new(b, c);
        prop_assert!(s.intersects(&t));
    }

    #[test]
    fn intersection_point_lies_on_both_segments(a in point(), b in point(), c in point(), d in point()) {
        let s = Segment::new(a, b);
        let t = Segment::new(c, d);
        if let Some(p) = s.intersection_point(&t) {
            prop_assert!(s.distance_to_point(p) < 1e-6);
            prop_assert!(t.distance_to_point(p) < 1e-6);
        }
    }

    #[test]
    fn grid_nearest_of_cell_center_is_the_cell(
        cols in 1u32..8, rows in 1u32..6,
        dx in 1.0..10.0f64, dy in 1.0..10.0f64,
        idx in 0usize..48,
    ) {
        let grid = ReferenceGrid::new(Vec2::new(5.0, 50.0), cols, rows, dx, dy).unwrap();
        let id = LocationId::from_index(idx % grid.len());
        prop_assert_eq!(grid.nearest(grid.position(id)), id);
    }

    #[test]
    fn grid_row_col_round_trip(
        cols in 1u32..8, rows in 1u32..6,
        idx in 0usize..48,
    ) {
        let grid = ReferenceGrid::new(Vec2::ZERO, cols, rows, 2.0, 2.0).unwrap();
        let id = LocationId::from_index(idx % grid.len());
        let (r, c) = grid.row_col(id);
        prop_assert_eq!(grid.id_at(r, c), id);
    }

    #[test]
    fn open_plan_walkability_is_symmetric(a in point(), b in point()) {
        let plan = FloorPlan::new(
            Aabb::new(Vec2::new(-150.0, -150.0), Vec2::new(150.0, 150.0)).unwrap(),
        );
        prop_assert_eq!(plan.is_walkable(a, b), plan.is_walkable(b, a));
        prop_assert!((plan.attenuation_db(a, b) - plan.attenuation_db(b, a)).abs() < 1e-12);
    }

    #[test]
    fn dijkstra_distances_satisfy_metric_axioms(
        cols in 2u32..6, rows in 2u32..5,
        seed_edges in prop::collection::vec((0usize..30, 0usize..30), 0..10),
    ) {
        // Grid graph plus a few random extra edges.
        let grid = ReferenceGrid::new(Vec2::new(1.0, 50.0), cols, rows, 3.0, 3.0).unwrap();
        let plan = FloorPlan::new(
            Aabb::new(Vec2::ZERO, Vec2::new(200.0, 200.0)).unwrap(),
        );
        let mut graph = WalkGraph::from_grid(&grid, &plan);
        let n = graph.node_count();
        for (a, b) in seed_edges {
            let (a, b) = (a % n, b % n);
            if a != b {
                let ia = LocationId::from_index(a);
                let ib = LocationId::from_index(b);
                graph.add_edge(ia, ib, grid.distance(ia, ib).max(0.1));
            }
        }
        let from: Vec<_> = (0..n)
            .map(|i| dijkstra(&graph, LocationId::from_index(i)))
            .collect();
        let d = |i: usize, j: usize| from[i].distance(LocationId::from_index(j));
        for i in 0..n {
            prop_assert_eq!(d(i, i), Some(0.0));
            for j in 0..n {
                // Symmetric up to summation order (different Dijkstra
                // sources add the same edge weights in different order).
                match (d(i, j), d(j, i)) {
                    (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9),
                    (x, y) => prop_assert_eq!(x, y),
                }
                if let (Some(dij), Some(dj)) = (d(i, j), d(j, 0)) {
                    if let Some(di) = d(i, 0) {
                        prop_assert!(di <= dij + dj + 1e-9);
                    }
                }
            }
        }
    }

    #[test]
    fn dijkstra_path_length_matches_distance(
        cols in 2u32..6, rows in 2u32..5, target in 0usize..30,
    ) {
        let grid = ReferenceGrid::new(Vec2::new(1.0, 50.0), cols, rows, 3.0, 3.0).unwrap();
        let plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(200.0, 200.0)).unwrap());
        let graph = WalkGraph::from_grid(&grid, &plan);
        let sp = dijkstra(&graph, LocationId::new(1));
        let t = LocationId::from_index(target % graph.node_count());
        if let (Some(dist), Some(path)) = (sp.distance(t), sp.path(t)) {
            let walked: f64 = path
                .windows(2)
                .map(|w| graph.edge_length(w[0], w[1]).unwrap())
                .sum();
            prop_assert!((walked - dist).abs() < 1e-9);
        }
    }
}
