//! Property-based tests on the platform's core invariants.

use frost::core::clustering::{closure, Clustering, UnionFind};
use frost::core::dataset::ScoredPair;
use frost::core::dataset::{
    parse_csv, write_csv, CsvOptions, Experiment, PairSet, RecordId, RecordPair,
};
use frost::core::diagram::{naive, ConfusionCurve, DiagramEngine};
use frost::core::explore::setops::venn_regions;
use frost::core::metrics::cluster as cm;
use frost::core::metrics::confusion::{total_pairs, ConfusionMatrix};
use frost::core::metrics::pair as pm;
use proptest::prelude::*;

/// A random clustering over `n` records as an assignment vector.
fn clustering_strategy(n: usize) -> impl Strategy<Value = Clustering> {
    prop::collection::vec(0u32..(n as u32 / 2).max(1), n)
        .prop_map(|labels| Clustering::from_assignment(&labels))
}

/// Random scored match pairs over `n` records.
fn pairs_strategy(n: u32, max_pairs: usize) -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    prop::collection::vec(
        (0..n, 0..n, 0.0f64..1.0).prop_filter("distinct records", |(a, b, _)| a != b),
        0..max_pairs,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The optimized Appendix D algorithm and the naïve baseline agree
    /// on every input and sample count.
    #[test]
    fn diagram_engines_agree(
        truth in clustering_strategy(24),
        pairs in pairs_strategy(24, 40),
        s in 2usize..9,
    ) {
        let e = Experiment::from_scored_pairs("p", pairs);
        let a = DiagramEngine::Naive.confusion_series(24, &truth, &e, s);
        let b = DiagramEngine::Optimized.confusion_series(24, &truth, &e, s);
        prop_assert_eq!(a, b);
    }

    /// Every slice of the full-resolution curve equals the naive
    /// per-threshold baseline: scores drawn from four values (ties),
    /// unscored pairs, empty experiments, and sample counts from 2 to
    /// well past `matches + 1`.
    #[test]
    fn curve_slices_equal_naive_series(
        truth in clustering_strategy(20),
        pairs in prop::collection::vec(
            (0u32..20, 0u32..20, 0u8..5)
                .prop_filter("distinct records", |(a, b, _)| a != b),
            0..30,
        ),
    ) {
        let e = Experiment::new(
            "curve",
            // Score 4 stands for "unscored".
            pairs.into_iter().map(|(a, b, q)| match q {
                4 => ScoredPair::unscored((a, b)),
                _ => ScoredPair::scored((a, b), f64::from(q) / 4.0),
            }),
        );
        let curve = ConfusionCurve::build(20, &truth, &e);
        let matches = e.pairs_by_similarity_desc();
        prop_assert_eq!(curve.matches(), e.len());
        for s in [2, 3, 5, e.len() + 1, e.len() + 2, 3 * e.len() + 7].map(|s| s.max(2)) {
            prop_assert_eq!(
                curve.points(s),
                naive::confusion_series(20, &truth, &matches, s),
                "s = {}", s
            );
        }
    }

    /// Union-find pair counting equals the count derived from cluster
    /// sizes, and cluster count + merges = n.
    #[test]
    fn union_find_invariants(pairs in pairs_strategy(32, 60)) {
        let mut uf = UnionFind::new(32);
        let mut merges = 0usize;
        for (a, b, _) in pairs {
            if uf.union(RecordId(a), RecordId(b)).is_some() {
                merges += 1;
            }
        }
        prop_assert_eq!(uf.num_clusters(), 32 - merges);
        let from_sizes: u64 = uf
            .clusters()
            .iter()
            .map(|c| {
                let s = c.len() as u64;
                s * (s - 1) / 2
            })
            .sum();
        prop_assert_eq!(uf.total_pairs(), from_sizes);
    }

    /// `tracked_union` reports merges whose sources partition exactly
    /// the pre-batch clusters that changed.
    #[test]
    fn tracked_union_sources_are_consistent(pairs in pairs_strategy(20, 30)) {
        let mut before = UnionFind::new(20);
        let mut after = UnionFind::new(20);
        let record_pairs: Vec<RecordPair> = pairs
            .iter()
            .map(|&(a, b, _)| RecordPair::from((a, b)))
            .collect();
        let merges = after.tracked_union(record_pairs.iter().copied());
        let mut all_sources = std::collections::HashSet::new();
        for m in &merges {
            prop_assert!(m.sources.len() >= 2, "a merge joins at least two clusters");
            for s in &m.sources {
                prop_assert!(all_sources.insert(*s), "source listed twice");
            }
        }
        // Number of vanished clusters equals Σ (|sources| − 1).
        let vanished: usize = merges.iter().map(|m| m.sources.len() - 1).sum();
        prop_assert_eq!(before.num_clusters() - after.num_clusters(), vanished);
        let _ = &mut before;
    }

    /// Transitive closure is idempotent and only ever adds pairs.
    #[test]
    fn closure_idempotent(pairs in pairs_strategy(16, 24)) {
        let e = Experiment::from_scored_pairs("p", pairs);
        let closed = closure::close_experiment(16, &e);
        prop_assert!(closed.len() >= e.len());
        prop_assert!(closure::is_transitively_closed(16, &closed));
        let twice = closure::close_experiment(16, &closed);
        prop_assert_eq!(closed.pair_set(), twice.pair_set());
        prop_assert!(e.pair_set().is_subset(&closed.pair_set()));
    }

    /// Pair metrics stay in range and the confusion matrix sums to the
    /// full pair space.
    #[test]
    fn metric_bounds(
        truth in clustering_strategy(20),
        pairs in pairs_strategy(20, 30),
    ) {
        let e = Experiment::from_scored_pairs("p", pairs);
        let m = ConfusionMatrix::from_experiment(&e, &truth, 20);
        prop_assert_eq!(m.total(), total_pairs(20));
        for metric in frost::core::metrics::pair::PairMetric::ALL {
            let v = metric.compute(&m);
            prop_assert!(v.is_finite());
            if metric == frost::core::metrics::pair::PairMetric::MatthewsCorrelation {
                prop_assert!((-1.0..=1.0).contains(&v), "{} = {}", metric, v);
            } else {
                prop_assert!((0.0..=1.0).contains(&v), "{} = {}", metric, v);
            }
        }
        // f* = f1 / (2 − f1) always.
        let f1 = pm::f1(&m);
        prop_assert!((pm::f_star(&m) - f1 / (2.0 - f1)).abs() < 1e-9);
    }

    /// Cluster metrics: identity is perfect, VI is symmetric and
    /// non-negative, BMD triangle-ish sanity.
    #[test]
    fn cluster_metric_properties(
        a in clustering_strategy(18),
        b in clustering_strategy(18),
    ) {
        prop_assert!(cm::variation_of_information(&a, &b) >= 0.0);
        prop_assert!(
            (cm::variation_of_information(&a, &b) - cm::variation_of_information(&b, &a)).abs()
                < 1e-9
        );
        prop_assert!(cm::variation_of_information(&a, &a) < 1e-9);
        prop_assert_eq!(cm::basic_merge_distance(&a, &a), 0.0);
        let f = cm::closest_cluster_f1(&a, &b);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&f));
        let ari = cm::adjusted_rand_index(&a, &b);
        prop_assert!(ari <= 1.0 + 1e-9);
        // GMD-derived pairwise metrics equal the confusion-matrix route.
        let m = ConfusionMatrix::from_clusterings(&a, &b);
        prop_assert!((cm::gmd_pairwise_precision(&a, &b) - pm::precision(&m)).abs() < 1e-9);
        prop_assert!((cm::gmd_pairwise_recall(&a, &b) - pm::recall(&m)).abs() < 1e-9);
    }

    /// The static intersection's pair count equals TP from the pair
    /// route, for closed experiments.
    #[test]
    fn intersection_is_tp(
        a in clustering_strategy(16),
        b in clustering_strategy(16),
    ) {
        let inter = a.intersect(&b);
        let m = ConfusionMatrix::from_clusterings(&a, &b);
        prop_assert_eq!(inter.pair_count(), m.true_positives);
    }

    /// Venn regions are disjoint and cover exactly the union.
    #[test]
    fn venn_regions_partition(
        raw in prop::collection::vec(
            prop::collection::vec((0u32..12, 0u32..12), 0..20),
            1..4
        ),
    ) {
        // Reference model: plain hash sets; engine under test: PairSet.
        let reference: Vec<std::collections::HashSet<RecordPair>> = raw
            .into_iter()
            .map(|pairs| {
                pairs
                    .into_iter()
                    .filter(|(a, b)| a != b)
                    .map(RecordPair::from)
                    .collect()
            })
            .collect();
        let sets: Vec<PairSet> = reference
            .iter()
            .map(|s| s.iter().copied().collect())
            .collect();
        let regions = venn_regions(&sets);
        let mut seen = std::collections::HashSet::new();
        for r in &regions {
            prop_assert!(r.membership != 0);
            for p in &r.pairs {
                prop_assert!(seen.insert(p), "pair in two regions");
                // Membership mask is truthful against the reference.
                for (i, s) in reference.iter().enumerate() {
                    prop_assert_eq!(r.contains_set(i), s.contains(&p));
                }
            }
        }
        let union: std::collections::HashSet<RecordPair> =
            reference.iter().flatten().copied().collect();
        prop_assert_eq!(seen, union);
    }

    /// CSV writer/parser round-trip for arbitrary field content.
    #[test]
    fn csv_round_trip(
        rows in prop::collection::vec(
            prop::collection::vec("[ -~]{0,12}", 1..5),
            1..6
        ),
    ) {
        // All rows must share the first row's width for a valid table.
        let width = rows[0].len();
        let rows: Vec<Vec<String>> = rows
            .into_iter()
            .map(|mut r| {
                r.resize(width, String::new());
                r
            })
            .collect();
        // Skip tables whose single field is empty-only first row, which
        // serializes to a blank line (not a row).
        prop_assume!(!(width == 1 && rows.iter().all(|r| r[0].is_empty())));
        let text = write_csv(rows.clone(), CsvOptions::comma());
        let parsed = parse_csv(&text, CsvOptions::comma()).unwrap();
        let kept: Vec<Vec<String>> = rows
            .into_iter()
            .filter(|r| !(width == 1 && r[0].is_empty()))
            .collect();
        prop_assert_eq!(parsed, kept);
    }

    /// Clustering round-trip: pairs → clustering → pairs is the closure.
    #[test]
    fn clustering_pair_round_trip(pairs in pairs_strategy(14, 20)) {
        let e = Experiment::from_scored_pairs("p", pairs);
        let c = Clustering::from_experiment(14, &e);
        let back = Clustering::from_pairs(
            14,
            c.intra_pairs().map(|p| (p.lo(), p.hi())),
        );
        prop_assert_eq!(c, back);
    }
}
