//! The in-memory benchmark store with import-time optimization.

use frost_core::clustering::Clustering;
use frost_core::dataset::{Dataset, Experiment, RoaringPairSet};
use frost_core::diagram::{ConfusionCurve, DiagramEngine, DiagramPoint};
use frost_core::metrics::confusion::ConfusionMatrix;
use frost_core::softkpi::ExperimentKpis;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Errors surfaced by store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// No dataset registered under this name.
    UnknownDataset(String),
    /// No experiment registered under this name.
    UnknownExperiment(String),
    /// No gold standard registered for this dataset.
    NoGoldStandard(String),
    /// The object exists already.
    AlreadyExists(String),
    /// The experiment references records outside the dataset.
    RecordOutOfRange {
        /// Experiment name.
        experiment: String,
        /// Dataset size.
        dataset_len: usize,
    },
    /// A write request carried an unusable payload (malformed CSV,
    /// unresolvable record ids, a bad name).
    InvalidInput(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownDataset(n) => write!(f, "unknown dataset {n:?}"),
            StoreError::UnknownExperiment(n) => write!(f, "unknown experiment {n:?}"),
            StoreError::NoGoldStandard(n) => write!(f, "dataset {n:?} has no gold standard"),
            StoreError::AlreadyExists(n) => write!(f, "{n:?} already exists"),
            StoreError::RecordOutOfRange {
                experiment,
                dataset_len,
            } => write!(
                f,
                "experiment {experiment:?} references records beyond the dataset ({dataset_len} records)"
            ),
            StoreError::InvalidInput(reason) => write!(f, "invalid input: {reason}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// An experiment as stored: the raw pairs plus the import-time
/// pre-computed clustering (§5.3's optimization).
#[derive(Debug, Clone)]
pub struct StoredExperiment {
    /// Dataset the experiment ran on.
    pub dataset: String,
    /// The experiment (pairs, scores, origins).
    pub experiment: Experiment,
    /// Pre-computed transitive-closure clustering.
    pub clustering: Clustering,
    /// The experiment's match pairs as a prebuilt two-level roaring
    /// set: the set-heavy views (N-Intersection comparisons, consensus
    /// signals) reuse these arenas instead of re-packing the pair list
    /// per request, and `FROSTB` snapshots persist them verbatim.
    pub pair_set: RoaringPairSet,
    /// Optional per-experiment soft KPIs (§3.3).
    pub kpis: Option<ExperimentKpis>,
}

/// The benchmark store: datasets, gold standards and experiments, with
/// cached evaluation results. Reads are lock-free snapshots; the caches
/// sit behind a [`RwLock`] so a shared (multi-user) deployment can
/// evaluate concurrently (§5.2 allows both local and shared hosting).
#[derive(Default)]
pub struct BenchmarkStore {
    datasets: HashMap<String, Dataset>,
    gold_standards: HashMap<String, Clustering>,
    experiments: HashMap<String, StoredExperiment>,
    /// One full-resolution confusion curve per experiment, built on the
    /// first optimized diagram request; every sample count is a slice.
    curves: RwLock<HashMap<String, Arc<ConfusionCurve>>>,
    matrix_cache: RwLock<HashMap<String, ConfusionMatrix>>,
}

impl fmt::Debug for BenchmarkStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BenchmarkStore")
            .field("datasets", &self.dataset_names())
            .field("experiments", &self.experiment_names(None))
            .finish_non_exhaustive()
    }
}

impl BenchmarkStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a dataset.
    pub fn add_dataset(&mut self, dataset: Dataset) -> Result<(), StoreError> {
        let name = dataset.name().to_string();
        if self.datasets.contains_key(&name) {
            return Err(StoreError::AlreadyExists(name));
        }
        self.datasets.insert(name, dataset);
        Ok(())
    }

    /// Registers (or replaces) the gold standard of a dataset.
    pub fn set_gold_standard(
        &mut self,
        dataset: &str,
        truth: Clustering,
    ) -> Result<(), StoreError> {
        let ds = self
            .datasets
            .get(dataset)
            .ok_or_else(|| StoreError::UnknownDataset(dataset.into()))?;
        assert_eq!(
            truth.num_records(),
            ds.len(),
            "gold standard covers {} records, dataset has {}",
            truth.num_records(),
            ds.len()
        );
        self.gold_standards.insert(dataset.into(), truth);
        self.matrix_cache.write().clear();
        let experiments = &self.experiments;
        self.curves
            .write()
            .retain(|name, _| experiments.get(name).is_some_and(|e| e.dataset != dataset));
        Ok(())
    }

    /// Imports an experiment, performing the §5.3 import-time
    /// optimization (clustering construction). `O(|Matches| · α(|D|))`
    /// after the dataset's ID interning.
    pub fn add_experiment(
        &mut self,
        dataset: &str,
        experiment: Experiment,
        kpis: Option<ExperimentKpis>,
    ) -> Result<(), StoreError> {
        let ds = self
            .datasets
            .get(dataset)
            .ok_or_else(|| StoreError::UnknownDataset(dataset.into()))?;
        let name = experiment.name().to_string();
        if self.experiments.contains_key(&name) {
            return Err(StoreError::AlreadyExists(name));
        }
        let n = ds.len();
        if experiment
            .pairs()
            .iter()
            .any(|sp| sp.pair.hi().index() >= n)
        {
            return Err(StoreError::RecordOutOfRange {
                experiment: name,
                dataset_len: n,
            });
        }
        let clustering = Clustering::from_experiment(n, &experiment);
        let pair_set = experiment.roaring_pair_set();
        self.experiments.insert(
            name,
            StoredExperiment {
                dataset: dataset.into(),
                experiment,
                clustering,
                pair_set,
                kpis,
            },
        );
        Ok(())
    }

    /// Inserts an experiment whose import-time artifacts (clustering,
    /// roaring pair set) are already built — the `FROSTB` snapshot
    /// loader's fast path, which skips the union-find and arena
    /// construction that [`add_experiment`](Self::add_experiment)
    /// performs. The caller vouches that the artifacts belong to the
    /// experiment; the cheap structural checks (record range, sizes)
    /// still run so a malformed source cannot plant ids that panic
    /// record lookups later.
    pub fn insert_stored(&mut self, stored: StoredExperiment) -> Result<(), StoreError> {
        let ds = self
            .datasets
            .get(&stored.dataset)
            .ok_or_else(|| StoreError::UnknownDataset(stored.dataset.clone()))?;
        let name = stored.experiment.name().to_string();
        if self.experiments.contains_key(&name) {
            return Err(StoreError::AlreadyExists(name));
        }
        let n = ds.len();
        // The prebuilt set must describe the same pair list: the pair
        // list is deduplicated, so the counts must agree (full
        // containment would cost a sort; the count catches a set that
        // was paired with the wrong experiment).
        if stored.clustering.num_records() != n
            || stored.pair_set.len() != stored.experiment.len()
            || stored
                .experiment
                .pairs()
                .iter()
                .any(|sp| sp.pair.hi().index() >= n)
        {
            return Err(StoreError::RecordOutOfRange {
                experiment: name,
                dataset_len: n,
            });
        }
        self.experiments.insert(name, stored);
        Ok(())
    }

    /// Removes an experiment and its cached results.
    pub fn remove_experiment(&mut self, name: &str) -> Result<(), StoreError> {
        self.experiments
            .remove(name)
            .ok_or_else(|| StoreError::UnknownExperiment(name.into()))?;
        self.matrix_cache.write().remove(name);
        self.curves.write().remove(name);
        Ok(())
    }

    /// Dataset lookup.
    pub fn dataset(&self, name: &str) -> Result<&Dataset, StoreError> {
        self.datasets
            .get(name)
            .ok_or_else(|| StoreError::UnknownDataset(name.into()))
    }

    /// Gold-standard lookup.
    pub fn gold_standard(&self, dataset: &str) -> Result<&Clustering, StoreError> {
        self.gold_standards
            .get(dataset)
            .ok_or_else(|| StoreError::NoGoldStandard(dataset.into()))
    }

    /// Experiment lookup.
    pub fn experiment(&self, name: &str) -> Result<&StoredExperiment, StoreError> {
        self.experiments
            .get(name)
            .ok_or_else(|| StoreError::UnknownExperiment(name.into()))
    }

    /// All dataset names, sorted.
    pub fn dataset_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.datasets.keys().cloned().collect();
        v.sort();
        v
    }

    /// All experiment names (optionally restricted to a dataset), sorted.
    pub fn experiment_names(&self, dataset: Option<&str>) -> Vec<String> {
        let mut v: Vec<String> = self
            .experiments
            .iter()
            .filter(|(_, e)| dataset.is_none_or(|d| e.dataset == d))
            .map(|(n, _)| n.clone())
            .collect();
        v.sort();
        v
    }

    /// The confusion matrix of an experiment against its dataset's gold
    /// standard, cached after the first computation.
    pub fn confusion_matrix(&self, experiment: &str) -> Result<ConfusionMatrix, StoreError> {
        if let Some(m) = self.matrix_cache.read().get(experiment) {
            return Ok(*m);
        }
        let stored = self.experiment(experiment)?;
        let truth = self.gold_standard(&stored.dataset)?;
        let matrix = ConfusionMatrix::from_clusterings(&stored.clustering, truth);
        self.matrix_cache
            .write()
            .insert(experiment.to_string(), matrix);
        Ok(matrix)
    }

    /// The experiment's full-resolution confusion curve against its
    /// dataset's gold standard: built by one Algorithm 1 pass on first
    /// use, then shared until the gold standard is replaced or the
    /// experiment is removed.
    pub fn confusion_curve(&self, experiment: &str) -> Result<Arc<ConfusionCurve>, StoreError> {
        if let Some(curve) = self.curves.read().get(experiment) {
            return Ok(Arc::clone(curve));
        }
        let stored = self.experiment(experiment)?;
        let ds = self.dataset(&stored.dataset)?;
        let truth = self.gold_standard(&stored.dataset)?;
        let curve = Arc::new(ConfusionCurve::build(ds.len(), truth, &stored.experiment));
        Ok(Arc::clone(
            self.curves
                .write()
                .entry(experiment.to_string())
                .or_insert(curve),
        ))
    }

    /// A metric/metric diagram series for an experiment: a slice of the
    /// cached [`confusion_curve`](Self::confusion_curve) for the
    /// optimized engine; the naive baseline recomputes every time.
    pub fn diagram_series(
        &self,
        experiment: &str,
        engine: DiagramEngine,
        s: usize,
    ) -> Result<Vec<DiagramPoint>, StoreError> {
        match engine {
            DiagramEngine::Optimized => Ok(self.confusion_curve(experiment)?.points(s)),
            DiagramEngine::Naive => {
                let stored = self.experiment(experiment)?;
                let ds = self.dataset(&stored.dataset)?;
                let truth = self.gold_standard(&stored.dataset)?;
                Ok(engine.confusion_series(ds.len(), truth, &stored.experiment, s))
            }
        }
    }

    /// Whether a diagram request for `experiment` would be served from
    /// the memo: for the optimized engine, whether its curve is built
    /// (any `s` is then a slice); the naive baseline is never memoized.
    pub fn diagram_cached(&self, experiment: &str, engine: DiagramEngine, _s: usize) -> bool {
        engine == DiagramEngine::Optimized && self.curves.read().contains_key(experiment)
    }

    /// Number of memoized confusion curves (one per experiment at most).
    #[cfg(test)]
    fn cached_curves(&self) -> usize {
        self.curves.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frost_core::dataset::Schema;

    fn store_with_data() -> BenchmarkStore {
        let mut ds = Dataset::new("people", Schema::new(["name"]));
        for (id, name) in [("a", "ann"), ("b", "anne"), ("c", "bob"), ("d", "bobby")] {
            ds.push_record(id, [name]);
        }
        let mut store = BenchmarkStore::new();
        store.add_dataset(ds).unwrap();
        store
            .set_gold_standard("people", Clustering::from_assignment(&[0, 0, 1, 1]))
            .unwrap();
        store
            .add_experiment(
                "people",
                Experiment::from_scored_pairs("run-1", [(0u32, 1u32, 0.9), (0, 2, 0.4)]),
                None,
            )
            .unwrap();
        store
    }

    #[test]
    fn crud_and_lookup() {
        let store = store_with_data();
        assert_eq!(store.dataset_names(), vec!["people"]);
        assert_eq!(store.experiment_names(None), vec!["run-1"]);
        assert_eq!(store.experiment_names(Some("people")), vec!["run-1"]);
        assert_eq!(store.experiment_names(Some("other")), Vec::<String>::new());
        assert!(store.dataset("nope").is_err());
        assert!(store.experiment("nope").is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut store = store_with_data();
        let err = store
            .add_dataset(Dataset::new("people", Schema::new(["x"])))
            .unwrap_err();
        assert_eq!(err, StoreError::AlreadyExists("people".into()));
        let err = store
            .add_experiment(
                "people",
                Experiment::from_pairs("run-1", [(0u32, 1u32)]),
                None,
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::AlreadyExists(_)));
    }

    #[test]
    fn insert_stored_validates_ranges_and_names() {
        let mut store = store_with_data();
        let make = |name: &str, hi: u32| {
            // Clustering built directly (not via union-find) so even
            // out-of-range pairs reach insert_stored's own checks.
            let experiment = Experiment::from_pairs(name, [(0u32, hi)]);
            StoredExperiment {
                dataset: "people".into(),
                clustering: Clustering::from_assignment(&[0, 0, 1, 1]),
                pair_set: experiment.roaring_pair_set(),
                experiment,
                kpis: None,
            }
        };
        // Out-of-range pair ids must be rejected even on the trusted
        // path — they would panic record lookups later.
        assert!(matches!(
            store.insert_stored(make("evil", 99)),
            Err(StoreError::RecordOutOfRange { .. })
        ));
        // Clustering size mismatch likewise.
        let mut mismatched = make("off", 1);
        mismatched.clustering = Clustering::from_assignment(&[0, 0]);
        assert!(matches!(
            store.insert_stored(mismatched),
            Err(StoreError::RecordOutOfRange { .. })
        ));
        // A prebuilt set that does not match the pair list (wrong
        // cardinality) is rejected too.
        let mut wrong_set = make("swapped", 1);
        wrong_set.pair_set =
            Experiment::from_pairs("other", [(0u32, 1u32), (2, 3)]).roaring_pair_set();
        assert!(matches!(
            store.insert_stored(wrong_set),
            Err(StoreError::RecordOutOfRange { .. })
        ));
        let mut unknown = make("ghost", 1);
        unknown.dataset = "nope".into();
        assert!(matches!(
            store.insert_stored(unknown),
            Err(StoreError::UnknownDataset(_))
        ));
        store.insert_stored(make("ok", 1)).unwrap();
        assert!(matches!(
            store.insert_stored(make("ok", 1)),
            Err(StoreError::AlreadyExists(_))
        ));
        assert_eq!(store.experiment("ok").unwrap().experiment.len(), 1);
    }

    #[test]
    fn out_of_range_experiment_rejected() {
        let mut store = store_with_data();
        let err = store
            .add_experiment(
                "people",
                Experiment::from_pairs("bad", [(0u32, 99u32)]),
                None,
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::RecordOutOfRange { .. }));
    }

    #[test]
    fn import_precomputes_clustering() {
        let store = store_with_data();
        let stored = store.experiment("run-1").unwrap();
        assert_eq!(stored.clustering.num_records(), 4);
        // 0-1 and 0-2 connect into one cluster of 3 → closed.
        assert_eq!(stored.clustering.num_clusters(), 2);
    }

    #[test]
    fn confusion_matrix_cached() {
        let store = store_with_data();
        let m1 = store.confusion_matrix("run-1").unwrap();
        // Clustered experiment {0,1,2} → TP 1 ({0,1}), FP 2 ({0,2},{1,2}), FN 1.
        assert_eq!(m1, ConfusionMatrix::new(1, 2, 1, 2));
        let m2 = store.confusion_matrix("run-1").unwrap();
        assert_eq!(m1, m2);
    }

    #[test]
    fn diagram_cache_round_trip() {
        let store = store_with_data();
        assert!(!store.diagram_cached("run-1", DiagramEngine::Optimized, 3));
        let a = store
            .diagram_series("run-1", DiagramEngine::Optimized, 3)
            .unwrap();
        assert!(store.diagram_cached("run-1", DiagramEngine::Optimized, 3));
        let b = store
            .diagram_series("run-1", DiagramEngine::Optimized, 3)
            .unwrap();
        assert_eq!(a, b);
        // Both engines agree; the naive baseline is never memoized.
        let naive = store
            .diagram_series("run-1", DiagramEngine::Naive, 3)
            .unwrap();
        assert_eq!(a, naive);
        assert!(!store.diagram_cached("run-1", DiagramEngine::Naive, 3));
    }

    /// Every sample count is a slice of one curve: 100 distinct `s`
    /// leave exactly one memo entry per experiment, and each slice
    /// equals the naive baseline.
    #[test]
    fn distinct_sample_counts_share_one_curve() {
        let mut store = store_with_data();
        store
            .add_experiment(
                "people",
                Experiment::from_scored_pairs("run-2", [(2u32, 3u32, 0.8), (1, 3, 0.2)]),
                None,
            )
            .unwrap();
        for s in 2..102 {
            for name in ["run-1", "run-2"] {
                let optimized = store
                    .diagram_series(name, DiagramEngine::Optimized, s)
                    .unwrap();
                let naive = store.diagram_series(name, DiagramEngine::Naive, s).unwrap();
                assert_eq!(optimized, naive, "{name} s={s}");
            }
        }
        assert_eq!(store.cached_curves(), 2);
        assert!(store.diagram_cached("run-1", DiagramEngine::Optimized, 7_777));
    }

    #[test]
    fn remove_experiment_clears_caches() {
        let mut store = store_with_data();
        store.confusion_matrix("run-1").unwrap();
        store
            .diagram_series("run-1", DiagramEngine::Optimized, 3)
            .unwrap();
        store.remove_experiment("run-1").unwrap();
        assert!(store.experiment("run-1").is_err());
        assert!(!store.diagram_cached("run-1", DiagramEngine::Optimized, 3));
        assert_eq!(store.cached_curves(), 0);
        assert!(matches!(
            store.remove_experiment("run-1"),
            Err(StoreError::UnknownExperiment(_))
        ));
    }

    #[test]
    fn gold_standard_replacement_invalidates_cache() {
        let mut store = store_with_data();
        let before = store.confusion_matrix("run-1").unwrap();
        store
            .set_gold_standard("people", Clustering::from_assignment(&[0, 1, 2, 3]))
            .unwrap();
        let after = store.confusion_matrix("run-1").unwrap();
        assert_ne!(before, after);
    }

    #[test]
    fn gold_standard_replacement_drops_only_that_datasets_curves() {
        let mut store = store_with_data();
        let mut other = Dataset::new("other", Schema::new(["name"]));
        for id in ["p", "q"] {
            other.push_record(id, [id]);
        }
        store.add_dataset(other).unwrap();
        store
            .set_gold_standard("other", Clustering::from_assignment(&[0, 0]))
            .unwrap();
        store
            .add_experiment(
                "other",
                Experiment::from_scored_pairs("run-o", [(0u32, 1u32, 0.5)]),
                None,
            )
            .unwrap();
        let before = store
            .diagram_series("run-1", DiagramEngine::Optimized, 3)
            .unwrap();
        store
            .diagram_series("run-o", DiagramEngine::Optimized, 3)
            .unwrap();
        store
            .set_gold_standard("people", Clustering::from_assignment(&[0, 1, 2, 3]))
            .unwrap();
        assert!(!store.diagram_cached("run-1", DiagramEngine::Optimized, 3));
        assert!(store.diagram_cached("run-o", DiagramEngine::Optimized, 3));
        // The rebuilt curve reflects the new gold standard.
        let after = store
            .diagram_series("run-1", DiagramEngine::Optimized, 3)
            .unwrap();
        assert_ne!(before, after);
        assert_eq!(
            after,
            store
                .diagram_series("run-1", DiagramEngine::Naive, 3)
                .unwrap()
        );
    }

    #[test]
    fn error_display() {
        let e = StoreError::UnknownDataset("x".into());
        assert!(e.to_string().contains("unknown dataset"));
    }
}
