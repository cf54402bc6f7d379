//! Bulk trace generation — the paper's 184-trace corpus.
//!
//! Sec. VI-A: four users, 184 traces covering every reference location
//! 30+ times; 150 traces train the motion database, 34 are held out for
//! localization. [`TraceCorpus::generate`] reproduces the protocol with
//! a single master seed; each trace draws only from its own stream
//! derived from it, so [`TraceCorpus::render_trace`] can render the
//! traces in any order.

use crate::render::{SensorTrace, TraceRenderer};
use crate::trajectory::Trajectory;
use crate::user::UserProfile;
use crate::walk::random_walk;
use moloc_geometry::WalkGraph;
use moloc_radio::RadioMap;
use moloc_stats::sampling::derive_seed;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Corpus generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorpusConfig {
    /// Total traces (paper: 184).
    pub total_traces: usize,
    /// Traces assigned to motion-database training (paper: 150).
    pub train_traces: usize,
    /// Aisle segments walked per trace.
    pub segments_per_trace: usize,
    /// Master seed; every trace derives its own stream.
    pub seed: u64,
}

impl CorpusConfig {
    /// The paper's corpus shape with a practical per-trace length.
    pub fn paper(seed: u64) -> Self {
        Self {
            total_traces: 184,
            train_traces: 150,
            segments_per_trace: 20,
            seed,
        }
    }

    /// A small corpus for fast tests: large enough that the motion
    /// database covers most aisles, small enough to build in
    /// milliseconds.
    pub fn small(seed: u64) -> Self {
        Self {
            total_traces: 90,
            train_traces: 75,
            segments_per_trace: 14,
            seed,
        }
    }
}

/// The generated trace corpus, split into train and test sets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceCorpus {
    /// Motion-database training traces.
    pub train: Vec<SensorTrace>,
    /// Held-out localization traces.
    pub test: Vec<SensorTrace>,
}

impl TraceCorpus {
    /// Generates the corpus: [`Self::render_trace`] for every index in
    /// order, then [`Self::from_traces`].
    ///
    /// # Panics
    ///
    /// Panics as [`Self::render_trace`] and [`Self::from_traces`] do.
    pub fn generate(
        map: &RadioMap<'_>,
        graph: &WalkGraph,
        users: &[UserProfile],
        config: CorpusConfig,
    ) -> Self {
        let traces = (0..config.total_traces)
            .map(|i| Self::render_trace(map, graph, users, config, i))
            .collect();
        Self::from_traces(traces, config.train_traces)
    }

    /// Renders trace `i` of the corpus: user `i` round-robin across
    /// `users` walks a random walk over `graph`, rendered against `map`,
    /// all drawn from the trace's own stream `derive_seed(config.seed,
    /// i)`. Trace `i` depends on nothing else, so traces can be rendered
    /// in any order or in parallel.
    ///
    /// # Panics
    ///
    /// Panics if `users` is empty, or if the walk does not time into a
    /// trajectory on the map's grid (a disconnected graph, a graph over
    /// another grid, or a user whose speed is not positive and finite).
    pub fn render_trace(
        map: &RadioMap<'_>,
        graph: &WalkGraph,
        users: &[UserProfile],
        config: CorpusConfig,
        i: usize,
    ) -> SensorTrace {
        assert!(!users.is_empty(), "corpus needs at least one user");
        let user = &users[i % users.len()];
        let mut rng = StdRng::seed_from_u64(derive_seed(config.seed, i as u64));
        let path = random_walk(graph, config.segments_per_trace, &mut rng);
        let trajectory = Trajectory::from_path(&path, map.grid(), user)
            .unwrap_or_else(|e| panic!("corpus trace {i}: {e}"));
        TraceRenderer::default().render(&trajectory, user, map, &mut rng)
    }

    /// Splits traces, in index order, into the first `train_traces` for
    /// training and the rest for testing.
    ///
    /// # Panics
    ///
    /// Panics if `train_traces` exceeds the number of traces.
    pub fn from_traces(mut traces: Vec<SensorTrace>, train_traces: usize) -> Self {
        assert!(
            train_traces <= traces.len(),
            "train split exceeds total traces"
        );
        let test = traces.split_off(train_traces);
        Self {
            train: traces,
            test,
        }
    }

    /// Total traces across both splits.
    pub fn len(&self) -> usize {
        self.train.len() + self.test.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.train.is_empty() && self.test.is_empty()
    }

    /// Iterates all traces (train then test).
    pub fn iter(&self) -> impl Iterator<Item = &SensorTrace> {
        self.train.iter().chain(self.test.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::user::paper_users;
    use moloc_geometry::polygon::Aabb;
    use moloc_geometry::{FloorPlan, ReferenceGrid, Vec2};
    use moloc_radio::ap::AccessPoint;
    use moloc_radio::RadioEnvironment;
    use std::collections::HashMap;

    fn world() -> (RadioEnvironment, ReferenceGrid, WalkGraph) {
        let plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(20.0, 10.0)).unwrap());
        let env = RadioEnvironment::builder(plan.clone())
            .ap(AccessPoint::new(0, Vec2::new(10.0, 5.0), -20.0))
            .build()
            .unwrap();
        let grid = ReferenceGrid::new(Vec2::new(2.0, 8.0), 4, 2, 4.0, 4.0).unwrap();
        let graph = WalkGraph::from_grid(&grid, &plan);
        (env, grid, graph)
    }

    #[test]
    fn split_sizes_match_config() {
        let (env, grid, graph) = world();
        let map = RadioMap::new(&env, &grid);
        let corpus = TraceCorpus::generate(&map, &graph, &paper_users(), CorpusConfig::small(1));
        assert_eq!(corpus.train.len(), 75);
        assert_eq!(corpus.test.len(), 15);
        assert_eq!(corpus.len(), 90);
        assert!(!corpus.is_empty());
    }

    #[test]
    fn users_rotate_round_robin() {
        let (env, grid, graph) = world();
        let map = RadioMap::new(&env, &grid);
        let corpus = TraceCorpus::generate(&map, &graph, &paper_users(), CorpusConfig::small(1));
        let ids: Vec<u32> = corpus.iter().map(|t| t.user.id).collect();
        assert_eq!(&ids[..4], &[1, 2, 3, 4]);
        assert_eq!(ids[4], 1);
    }

    #[test]
    fn traces_have_expected_pass_counts() {
        let (env, grid, graph) = world();
        let map = RadioMap::new(&env, &grid);
        let corpus = TraceCorpus::generate(&map, &graph, &paper_users(), CorpusConfig::small(2));
        for t in corpus.iter() {
            assert_eq!(t.pass_count(), 15); // segments + 1
        }
    }

    #[test]
    fn corpus_covers_all_locations() {
        let (env, grid, graph) = world();
        let config = CorpusConfig {
            total_traces: 30,
            train_traces: 24,
            segments_per_trace: 20,
            seed: 3,
        };
        let map = RadioMap::new(&env, &grid);
        let corpus = TraceCorpus::generate(&map, &graph, &paper_users(), config);
        let mut visits: HashMap<u32, usize> = HashMap::new();
        for t in corpus.iter() {
            for p in &t.passes {
                *visits.entry(p.location.get()).or_default() += 1;
            }
        }
        for id in grid.ids() {
            assert!(
                visits.get(&id.get()).copied().unwrap_or(0) > 0,
                "{id} never visited"
            );
        }
    }

    #[test]
    fn generation_is_reproducible() {
        let (env, grid, graph) = world();
        let map = RadioMap::new(&env, &grid);
        let a = TraceCorpus::generate(&map, &graph, &paper_users(), CorpusConfig::small(5));
        let b = TraceCorpus::generate(&map, &graph, &paper_users(), CorpusConfig::small(5));
        assert_eq!(a, b);
    }

    #[test]
    fn each_trace_depends_on_its_index_alone() {
        // Rendered last to first, one at a time, then assembled in
        // index order: the corpus `generate` builds, bit for bit.
        let (env, grid, graph) = world();
        let map = RadioMap::new(&env, &grid);
        let users = paper_users();
        let config = CorpusConfig::small(6);
        let corpus = TraceCorpus::generate(&map, &graph, &users, config);
        let mut traces: Vec<SensorTrace> = (0..config.total_traces)
            .rev()
            .map(|i| TraceCorpus::render_trace(&map, &graph, &users, config, i))
            .collect();
        traces.reverse();
        assert_eq!(
            TraceCorpus::from_traces(traces, config.train_traces),
            corpus
        );
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn empty_user_list_panics() {
        let (env, grid, graph) = world();
        let map = RadioMap::new(&env, &grid);
        let _ = TraceCorpus::render_trace(&map, &graph, &[], CorpusConfig::small(1), 0);
    }

    #[test]
    #[should_panic(expected = "train split")]
    fn oversized_train_split_panics() {
        let (env, grid, graph) = world();
        let config = CorpusConfig {
            total_traces: 5,
            train_traces: 6,
            segments_per_trace: 4,
            seed: 0,
        };
        let _ = TraceCorpus::generate(&RadioMap::new(&env, &grid), &graph, &paper_users(), config);
    }
}
