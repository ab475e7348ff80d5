//! Snowman's optimized confusion-matrix-series algorithm (Appendix D),
//! run once at full resolution.
//!
//! Algorithm 1 walks the matches once in descending similarity order,
//! maintaining the experiment clustering in a tracked union-find and the
//! *intersection* of experiment and ground-truth clusterings in a
//! [`DynamicIntersection`] (Algorithm 2). After every match the
//! confusion matrix is read off in constant time:
//!
//! * `TP` = pair count of the intersection clustering,
//! * `TP + FP` = pair count of the experiment clustering,
//! * `TP + FN` = pair count of the ground truth (constant),
//! * `TN` = `|[D]²| − (TP + FP) − FN`.
//!
//! [`ConfusionCurve`] records the two varying counts after *every*
//! prefix, so any sampled series is a slice of it.
//!
//! The subtle part is that a match can affect the intersection *later*
//! (Figure 9): merging `{b,c}` changes nothing when `b`, `c` sit in
//! different ground-truth clusters, but a subsequent `{a,c}` merge then
//! joins `a` and `b` — which *do* share a ground-truth cluster. The
//! dynamic intersection handles this by regrouping, per merged experiment
//! cluster, all involved intersection clusters by ground-truth cluster.

use super::{sample_boundary, DiagramPoint};
use crate::clustering::{ClusterId, Clustering, Merge, UnionFind};
use crate::dataset::{Experiment, RecordId};
use crate::metrics::confusion::{total_pairs, ConfusionMatrix};
use std::collections::HashMap;

/// Ground-truth cluster → any member record of the intersection
/// cluster it identifies within one experiment cluster.
type Groups = HashMap<u32, RecordId>;

/// The dynamically maintained intersection clustering of Appendix D.3.
///
/// Stored as a pair of structures:
/// * a [`UnionFind`] over records whose clusters are the intersection
///   clusters (providing the pair count = `TP`), and
/// * a map from every merged *experiment* cluster id to a map from every
///   involved *ground-truth* cluster to a representative record of the
///   corresponding intersection cluster.
///
/// Singleton experiment clusters have no map entry: an absent id
/// `i < n` is record `i` on its own (the union-find numbers its initial
/// clusters `0..n`), so building the structure allocates nothing per
/// record.
#[derive(Debug)]
pub struct DynamicIntersection<'t> {
    truth: &'t Clustering,
    uf: UnionFind,
    map: HashMap<ClusterId, Groups>,
}

impl<'t> DynamicIntersection<'t> {
    /// Initial state for singleton experiment clusters over the ground
    /// truth's records: every record is its own intersection cluster
    /// (Appendix D.3, Figure 10 row 0).
    pub fn new(truth: &'t Clustering) -> Self {
        Self {
            truth,
            uf: UnionFind::new(truth.num_records()),
            map: HashMap::new(),
        }
    }

    /// Number of intra-cluster pairs in the intersection — exactly the
    /// current true-positive count.
    pub fn true_positives(&self) -> u64 {
        self.uf.total_pairs()
    }

    /// Applies the merges reported by a `tracked_union` on the experiment
    /// clustering (Algorithm 2).
    pub fn apply_merges(&mut self, merges: &[Merge]) {
        for merge in merges {
            self.merge(&merge.sources, merge.target);
        }
    }

    /// Merges the experiment clusters `sources` into `target`: the
    /// intersection clusters of the sources that share a ground-truth
    /// cluster are united. Smaller group maps are folded into the
    /// largest, so a record's entry moves `O(log n)` times overall.
    fn merge(&mut self, sources: &[ClusterId], target: ClusterId) {
        let mut merged = Groups::new();
        for &source in sources {
            let mut groups = match self.map.remove(&source) {
                Some(groups) => groups,
                None => {
                    assert!(
                        (source.0 as usize) < self.uf.len(),
                        "source experiment cluster must be live"
                    );
                    let r = RecordId(source.0);
                    Groups::from([(self.truth.cluster_of(r), r)])
                }
            };
            if groups.len() > merged.len() {
                std::mem::swap(&mut groups, &mut merged);
            }
            for (truth_cluster, rep) in groups {
                match merged.get(&truth_cluster) {
                    Some(&other) => {
                        self.uf.union(other, rep);
                    }
                    None => {
                        merged.insert(truth_cluster, rep);
                    }
                }
            }
        }
        self.map.insert(target, merged);
    }

    /// The current intersection clustering as a snapshot (test support).
    pub fn snapshot(&mut self) -> Clustering {
        Clustering::from_union_find(&mut self.uf)
    }
}

/// The full-resolution confusion series of one experiment: the
/// confusion matrix after every prefix `k = 0..=m` of its matches in
/// descending similarity order, built by one pass of Algorithm 1.
///
/// Every sampled diagram, best threshold and Appendix D.5 timeline
/// query is a read of this curve: a point is a pure function of `k`,
/// so [`points`](Self::points) returns exactly what a sweep with the
/// same sample count would, in `O(s)`.
///
/// ```
/// use frost_core::clustering::Clustering;
/// use frost_core::dataset::Experiment;
/// use frost_core::diagram::{ConfusionCurve, DiagramEngine};
///
/// let truth = Clustering::from_assignment(&[0, 0, 1, 1]);
/// let run = Experiment::from_scored_pairs("r", [(0u32, 1u32, 0.9), (0, 2, 0.4)]);
/// let curve = ConfusionCurve::build(4, &truth, &run);
/// assert_eq!(curve.matches(), 2);
/// for s in [2, 3, 7] {
///     assert_eq!(
///         curve.points(s),
///         DiagramEngine::Naive.confusion_series(4, &truth, &run, s)
///     );
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ConfusionCurve {
    /// `|[D]²|` over the dataset's records.
    all_pairs: u64,
    /// `TP + FN`: the ground truth's pair count.
    truth_pairs: u64,
    /// Similarity of each match in applied order (`-∞` when unscored).
    scores: Vec<f64>,
    /// `(TP, TP + FP)` after each prefix `k = 0..=m`.
    counts: Vec<(u64, u64)>,
}

impl ConfusionCurve {
    /// Builds the curve of `experiment` against the ground truth over a
    /// dataset of `n` records: one sort plus one Algorithm 1 pass,
    /// `O(|Matches| · (log |Matches| + α(|D|)))`.
    ///
    /// # Panics
    /// Panics if the ground truth does not cover `n` records.
    pub fn build(n: usize, truth: &Clustering, experiment: &Experiment) -> Self {
        assert_eq!(
            truth.num_records(),
            n,
            "ground truth covers {} records, dataset has {n}",
            truth.num_records()
        );
        let matches = experiment.pairs_by_similarity_desc();
        let mut clustering = UnionFind::new(n);
        let mut intersection = DynamicIntersection::new(truth);
        let mut counts = Vec::with_capacity(matches.len() + 1);
        counts.push((0, 0));
        for sp in &matches {
            let (a, b) = (sp.pair.lo(), sp.pair.hi());
            let sources = [clustering.cluster_id(a), clustering.cluster_id(b)];
            if let Some(target) = clustering.union(a, b) {
                intersection.merge(&sources, target);
            }
            counts.push((intersection.true_positives(), clustering.total_pairs()));
        }
        Self {
            all_pairs: total_pairs(n),
            truth_pairs: truth.pair_count(),
            scores: matches
                .iter()
                .map(|sp| sp.similarity.unwrap_or(f64::NEG_INFINITY))
                .collect(),
            counts,
        }
    }

    /// Builds the curves of several experiments against the same ground
    /// truth — the multi-experiment sweep behind the N-Metrics view.
    /// Experiments are independent, so they are sharded across rayon
    /// tasks once the total work reaches
    /// [`PARALLEL_SWEEP_MIN_MATCHES`](super::PARALLEL_SWEEP_MIN_MATCHES);
    /// below it, spawning costs more than it saves. Input order.
    pub fn build_multi(n: usize, truth: &Clustering, experiments: &[&Experiment]) -> Vec<Self> {
        use rayon::prelude::*;
        let total_work: usize = experiments.iter().map(|e| e.len() + n).sum();
        if total_work < super::PARALLEL_SWEEP_MIN_MATCHES || experiments.len() < 2 {
            return experiments
                .iter()
                .map(|e| Self::build(n, truth, e))
                .collect();
        }
        experiments
            .par_iter()
            .with_min_len(1)
            .map(|e| Self::build(n, truth, e))
            .collect()
    }

    /// Number of matches `m`; the curve has `m + 1` points.
    pub fn matches(&self) -> usize {
        self.scores.len()
    }

    /// The similarity threshold of prefix `k`: the score of the last
    /// applied match (`+∞` for the empty prefix).
    fn threshold_at(&self, k: usize) -> f64 {
        if k == 0 {
            f64::INFINITY
        } else {
            self.scores[k - 1]
        }
    }

    /// The diagram point after the `k` highest-scoring matches.
    ///
    /// # Panics
    /// Panics if `k` exceeds the number of matches.
    pub fn point(&self, k: usize) -> DiagramPoint {
        let (tp, predicted) = self.counts[k];
        let fn_ = self.truth_pairs - tp;
        DiagramPoint {
            threshold: self.threshold_at(k),
            matches_applied: k,
            matrix: ConfusionMatrix::new(tp, predicted - tp, fn_, self.all_pairs - predicted - fn_),
        }
    }

    /// The `s`-point sampled series (see the module docs of
    /// [`diagram`](super) for the sampling rule), in `O(s)`.
    ///
    /// # Panics
    /// Panics if `s < 2`.
    pub fn points(&self, s: usize) -> Vec<DiagramPoint> {
        self.range(s, 0, s.saturating_sub(1))
    }

    /// Points `from_point..=to_point` of the `s`-point series — the
    /// Appendix D.5 threshold-range query. The paper's sweep must
    /// reset its clusterings in `O(|D|)` whenever a range starts before
    /// the previous one ended; on the curve every range, forward or
    /// backward, costs `O(to_point − from_point)`.
    ///
    /// # Panics
    /// Panics if `s < 2` or the range is empty or out of bounds.
    pub fn range(&self, s: usize, from_point: usize, to_point: usize) -> Vec<DiagramPoint> {
        assert!(s >= 2, "a diagram needs at least two sample points");
        assert!(
            from_point <= to_point && to_point < s,
            "invalid range [{from_point}, {to_point}] over {s} points"
        );
        (from_point..=to_point)
            .map(|i| self.point(sample_boundary(self.matches(), s, i)))
            .collect()
    }

    /// The new true and false positives gained between sample points
    /// `point` and `point + 1` of the `s`-point series — the "timeline
    /// feature in which new true positives and false positives between
    /// two similarity thresholds are shown" (Appendix D.5). Returns
    /// `(new_tp, new_fp)`.
    ///
    /// # Panics
    /// Panics if `point + 1` is not a sample point.
    pub fn delta(&self, s: usize, point: usize) -> (u64, u64) {
        assert!(point + 1 < s, "no next point after {point}");
        let pts = self.range(s, point, point + 1);
        let (a, b) = (pts[0].matrix, pts[1].matrix);
        (
            b.true_positives - a.true_positives,
            b.false_positives - a.false_positives,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::RecordPair;

    fn step(exp: &mut UnionFind, inter: &mut DynamicIntersection, a: u32, b: u32) {
        let merges = exp.tracked_union([RecordPair::from((a, b))]);
        inter.apply_merges(&merges);
    }

    /// Figure 9: the match {b,c} does not change the intersection, but the
    /// later {a,c} does — because b and c were already merged, the
    /// intersection then contains {a,b}.
    #[test]
    fn deferred_intersection_effect_fig9() {
        // a=0, b=1, c=2; truth {a,b},{c}.
        let truth = Clustering::from_assignment(&[0, 0, 1]);
        let mut exp = UnionFind::new(3);
        let mut inter = DynamicIntersection::new(&truth);

        step(&mut exp, &mut inter, 1, 2);
        assert_eq!(inter.true_positives(), 0);

        step(&mut exp, &mut inter, 0, 2);
        // Intersection now contains the cluster {a,b}: one pair.
        assert_eq!(inter.true_positives(), 1);
        let snap = inter.snapshot();
        assert!(snap.same_cluster(RecordId(0), RecordId(1)));
        assert!(!snap.same_cluster(RecordId(0), RecordId(2)));
    }

    /// Figure 10, step by step: the dynamic intersection's map state is
    /// exercised through the resulting TP counts of every step.
    #[test]
    fn fig10_stepwise_tp() {
        let truth = Clustering::from_assignment(&[0, 0, 1, 1]); // g0{a,b} g1{c,d}
        let mut exp = UnionFind::new(4);
        let mut inter = DynamicIntersection::new(&truth);
        let steps: [(u32, u32, u64, u64); 3] = [
            (0, 2, 0, 1), // merge {a,c}: TP 0, E-pairs 1
            (1, 3, 0, 2), // merge {b,d}: TP 0, E-pairs 2
            (0, 1, 2, 6), // merge {a,b}: TP 2, E-pairs 6
        ];
        for (a, b, tp, epairs) in steps {
            step(&mut exp, &mut inter, a, b);
            assert_eq!(inter.true_positives(), tp);
            assert_eq!(exp.total_pairs(), epairs);
        }
    }

    #[test]
    fn dynamic_intersection_matches_static_intersection() {
        // Apply a fixed match sequence; after every step the dynamic
        // intersection must equal Clustering::intersect.
        let truth = Clustering::from_assignment(&[0, 0, 0, 1, 1, 2, 2, 3]);
        let seq: [(u32, u32); 6] = [(0, 1), (3, 4), (5, 7), (1, 2), (2, 3), (6, 7)];
        let mut exp = UnionFind::new(8);
        let mut inter = DynamicIntersection::new(&truth);
        for (a, b) in seq {
            step(&mut exp, &mut inter, a, b);
            let exp_snapshot = Clustering::from_union_find(&mut exp);
            let expected = exp_snapshot.intersect(&truth);
            assert_eq!(inter.true_positives(), expected.pair_count());
        }
    }

    #[test]
    fn batched_merges_equal_single_steps() {
        let truth = Clustering::from_assignment(&[0, 0, 1, 1, 2]);
        let seq: [(u32, u32); 4] = [(0, 2), (1, 3), (0, 1), (3, 4)];
        // Single-step application.
        let mut exp1 = UnionFind::new(5);
        let mut int1 = DynamicIntersection::new(&truth);
        for (a, b) in seq {
            step(&mut exp1, &mut int1, a, b);
        }
        // One batch: a single merge with several sources.
        let mut exp2 = UnionFind::new(5);
        let mut int2 = DynamicIntersection::new(&truth);
        let m = exp2.tracked_union(seq.iter().map(|&(a, b)| RecordPair::from((a, b))));
        int2.apply_merges(&m);
        assert_eq!(int1.true_positives(), int2.true_positives());
        assert_eq!(exp1.total_pairs(), exp2.total_pairs());
    }

    fn timeline_setup() -> (Clustering, Experiment) {
        let truth = Clustering::from_assignment(&[0, 0, 0, 1, 1, 2, 3, 3, 4, 4]);
        let e = Experiment::from_scored_pairs(
            "t",
            [
                (0u32, 1u32, 0.95),
                (3, 4, 0.9),
                (1, 2, 0.85),
                (6, 7, 0.8),
                (8, 9, 0.75),
                (2, 5, 0.4),
                (0, 6, 0.3),
                (5, 8, 0.2),
            ],
        );
        (truth, e)
    }

    /// Appendix D.5: every range, in any (including backward) order, is
    /// the matching slice of the full series.
    #[test]
    fn ranges_are_slices_of_points() {
        let (truth, e) = timeline_setup();
        let curve = ConfusionCurve::build(10, &truth, &e);
        for s in [2, 5, 9, 12] {
            let full = curve.points(s);
            assert_eq!(full.len(), s);
            for (from, to) in [(4, 7), (1, 3), (6, 8), (0, 0), (2, 6), (0, 1)] {
                if to < s {
                    assert_eq!(
                        curve.range(s, from, to),
                        &full[from..=to],
                        "s={s} [{from},{to}]"
                    );
                }
            }
        }
    }

    /// Appendix D.5: the deltas are the differences of consecutive
    /// points, so they sum to the final counts.
    #[test]
    fn deltas_are_differences_of_points() {
        let (truth, e) = timeline_setup();
        let curve = ConfusionCurve::build(10, &truth, &e);
        for s in [2, 5, 9, 12] {
            let full = curve.points(s);
            let (mut tp, mut fp) = (0, 0);
            for point in 0..s - 1 {
                let (dtp, dfp) = curve.delta(s, point);
                let (a, b) = (full[point].matrix, full[point + 1].matrix);
                assert_eq!(dtp, b.true_positives - a.true_positives);
                assert_eq!(dfp, b.false_positives - a.false_positives);
                tp += dtp;
                fp += dfp;
            }
            let last = full.last().unwrap().matrix;
            assert_eq!((tp, fp), (last.true_positives, last.false_positives));
        }
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn out_of_bounds_range_panics() {
        let (truth, e) = timeline_setup();
        ConfusionCurve::build(10, &truth, &e).range(5, 2, 9);
    }

    /// One cluster spanning many ground-truth clusters: the small-into-
    /// large fold must still unite every shared truth cluster.
    #[test]
    fn chain_over_many_truth_clusters() {
        let n = 200u32;
        let assignment: Vec<u32> = (0..n).map(|i| i % 7).collect();
        let truth = Clustering::from_assignment(&assignment);
        let e = Experiment::from_scored_pairs(
            "chain",
            (0..n - 1).map(|i| (i, i + 1, 1.0 - f64::from(i) / f64::from(n))),
        );
        let curve = ConfusionCurve::build(n as usize, &truth, &e);
        let last = curve.point(curve.matches()).matrix;
        assert_eq!(last.true_positives, truth.pair_count());
        assert_eq!(last.false_negatives, 0);
        assert_eq!(
            curve.points(13),
            super::super::naive::confusion_series(
                n as usize,
                &truth,
                &e.pairs_by_similarity_desc(),
                13
            )
        );
    }
}
