//! Seeded inputs: the sample store (cora, freedb-cds and altosight-x4
//! at scale 1.0) with four synthetic experiments per dataset, the
//! views a workload requests, and the import CSVs of `import-mixed`.
//!
//! The program only ever receives what is generated here: a `FROSTB`
//! snapshot plus `FROSTW` WAL on disk, and HTTP requests.

use crate::trace::Tracer;
use crate::util::{hash_of, Rng};
use frost_core::clustering::Clustering;
use frost_core::dataset::CsvOptions;
use frost_core::diagram::DiagramEngine;
use frost_core::metrics::pair::PairMetric;
use frost_datagen::experiments::synthetic_experiment;
use frost_datagen::generator::generate;
use frost_datagen::presets;
use frost_storage::api::{self, RatioKind, Request};
use frost_storage::store::StoredExperiment;
use frost_storage::wal::WalOp;
use frost_storage::{BenchmarkStore, DurableStore, FsyncPolicy};
use std::path::{Path, PathBuf};

/// Experiments generated per dataset.
pub const EXPERIMENTS_PER_DATASET: usize = 4;

/// Matches per record and true-match share of each dataset's
/// experiments. The seed picks the pairs and scores; fixed shapes keep
/// the cost of a view the same from seed to seed. Densities stay below
/// one match per two records: past that a giant cluster forms and
/// `/quality` grows from milliseconds to seconds.
const SHAPES: [(f64, f64); EXPERIMENTS_PER_DATASET] =
    [(0.2, 0.9), (0.26, 0.75), (0.33, 0.6), (0.4, 0.5)];

/// Of each dataset's experiments, this many are folded into the
/// snapshot; the rest stay in the WAL, so every set-up replays a WAL.
const IN_SNAPSHOT_PER_DATASET: usize = 2;

/// Diagram axes whose display names are URL-safe.
pub const AXES: [PairMetric; 7] = [
    PairMetric::Precision,
    PairMetric::Recall,
    PairMetric::F1,
    PairMetric::Accuracy,
    PairMetric::Specificity,
    PairMetric::MatthewsCorrelation,
    PairMetric::FowlkesMallows,
];

pub struct ExperimentInput {
    pub name: String,
    pub dataset: String,
    pub csv: String,
    /// Distinct similarity scores: the number of thresholds a diagram
    /// sweep can distinguish.
    pub distinct_thresholds: usize,
}

pub struct Inputs {
    /// Datasets and gold standards only.
    pub base: BenchmarkStore,
    pub datasets: Vec<String>,
    /// `EXPERIMENTS_PER_DATASET` per dataset, in dataset order.
    pub experiments: Vec<ExperimentInput>,
    /// Hash of every generated input (dataset shapes + experiment CSVs).
    pub hash: u64,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let mut base = BenchmarkStore::new();
        for preset in [
            presets::cora(1.0),
            presets::freedb_cds(1.0),
            presets::altosight_x4(1.0),
        ] {
            let generated = generate(&preset.config);
            let name = generated.dataset.name().to_string();
            base.add_dataset(generated.dataset)
                .expect("distinct presets");
            base.set_gold_standard(&name, generated.truth)
                .expect("dataset just added");
        }
        let datasets = base.dataset_names();
        let mut rng = Rng::derived(seed, "experiments");
        let mut experiments = Vec::new();
        let mut hash_parts: Vec<u64> = Vec::new();
        for dataset in &datasets {
            let ds = base.dataset(dataset).expect("listed");
            let truth = base.gold_standard(dataset).expect("gold set");
            hash_parts.push(hash_of(&(dataset, ds.len(), truth.pair_count())));
            for (i, (density, fraction)) in SHAPES.into_iter().enumerate() {
                let matches = (ds.len() as f64 * density) as usize;
                let name = format!("{dataset}-x{i}");
                let exp = synthetic_experiment(
                    name.clone(),
                    truth,
                    matches.max(64),
                    fraction,
                    rng.next_u64(),
                );
                let csv = frost_storage::import::export_experiment(ds, &exp, CsvOptions::comma());
                hash_parts.push(hash_of(&csv));
                experiments.push(ExperimentInput {
                    name,
                    dataset: dataset.clone(),
                    distinct_thresholds: distinct_thresholds(&exp),
                    csv,
                });
            }
        }
        Inputs {
            base,
            datasets,
            experiments,
            hash: hash_of(&hash_parts),
        }
    }

    pub fn experiments_of(&self, dataset: &str) -> Vec<&ExperimentInput> {
        self.experiments
            .iter()
            .filter(|e| e.dataset == dataset)
            .collect()
    }
}

fn distinct_thresholds(exp: &frost_core::dataset::Experiment) -> usize {
    let mut scores: Vec<u64> = exp
        .pairs()
        .iter()
        .filter_map(|p| p.similarity.map(f64::to_bits))
        .collect();
    scores.sort_unstable();
    scores.dedup();
    scores.len()
}

/// The on-disk store a server opens, plus the same state in memory
/// (the correctness oracle).
pub struct Built {
    pub snapshot: PathBuf,
    pub store: BenchmarkStore,
}

/// Writes the inputs as a durable store under `dir`: a snapshot of the
/// datasets, then every experiment imported through the import and
/// durable layers; the first experiments of each dataset are compacted
/// into the snapshot, the rest stay in the WAL.
pub fn materialize(inputs: &Inputs, dir: &Path, tr: &mut Tracer) -> Result<Built, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let snapshot = dir.join("store.frostb");
    frost_storage::snapshot::save(&inputs.base, &snapshot).map_err(|e| e.to_string())?;
    let (mut store, mut durable, _) =
        DurableStore::open(&snapshot, FsyncPolicy::Always).map_err(|e| e.to_string())?;
    let (first, rest): (Vec<_>, Vec<_>) = inputs
        .experiments
        .iter()
        .enumerate()
        .partition(|(i, _)| i % EXPERIMENTS_PER_DATASET < IN_SNAPSHOT_PER_DATASET);
    for (i, exp) in first {
        import_durably(tr, i as u32, &mut store, &mut durable, exp)?;
    }
    let root = tr.begin("build.compact", 0, 0);
    tr.span("durable.compact", root.id, 0, || durable.compact(&store))
        .map_err(|e| e.to_string())?;
    tr.end(root);
    for (i, exp) in rest {
        import_durably(tr, i as u32, &mut store, &mut durable, exp)?;
    }
    Ok(Built { snapshot, store })
}

fn import_durably(
    tr: &mut Tracer,
    req: u32,
    store: &mut BenchmarkStore,
    durable: &mut DurableStore,
    exp: &ExperimentInput,
) -> Result<(), String> {
    let root = tr.begin("build.import", 0, req);
    let stored = import_layers(tr, root.id, req, store, &exp.dataset, &exp.name, &exp.csv)?;
    append_op(
        tr,
        root.id,
        req,
        durable,
        &WalOp::add_experiment(&exp.dataset, &stored.experiment, None),
    )?;
    store.insert_stored(stored).map_err(|e| e.to_string())?;
    tr.end(root);
    Ok(())
}

/// The import path of `POST /experiments` through the layers' public
/// functions: CSV parse + validation, clustering, pair-set build.
pub fn import_layers(
    tr: &mut Tracer,
    parent: u32,
    req: u32,
    store: &BenchmarkStore,
    dataset: &str,
    name: &str,
    csv: &str,
) -> Result<StoredExperiment, String> {
    let experiment = tr
        .span("import.parse", parent, req, || {
            api::parse_experiment_csv(store, dataset, name, csv)
        })
        .map_err(|e| e.to_string())?;
    let n = store.dataset(dataset).map_err(|e| e.to_string())?.len();
    let clustering = tr.span("import.cluster", parent, req, || {
        Clustering::from_experiment(n, &experiment)
    });
    let pair_set = tr.span("import.pairset_build", parent, req, || {
        experiment.roaring_pair_set()
    });
    Ok(StoredExperiment {
        dataset: dataset.to_string(),
        experiment,
        clustering,
        pair_set,
        kpis: None,
    })
}

/// One WAL append (+ fsync under `FsyncPolicy::Always`), recording the
/// frame's size.
pub fn append_op(
    tr: &mut Tracer,
    parent: u32,
    req: u32,
    durable: &mut DurableStore,
    op: &WalOp,
) -> Result<(), String> {
    let before = durable.wal_len();
    tr.span("durable.append", parent, req, || durable.append(op))
        .map_err(|e| e.to_string())?;
    tr.count("wal.bytes", durable.wal_len() - before);
    tr.count("wal.records", 1);
    Ok(())
}

/// One client-visible view: the target string and the API request the
/// server resolves it to.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum View {
    Metrics(String),
    Matrix(String),
    /// `/diagram` with the server's defaults (recall/precision, 20
    /// samples).
    DefaultDiagram(String),
    Diagram {
        experiment: String,
        x: usize,
        y: usize,
        samples: usize,
    },
    /// `/compare` (experiments only) or `/venn` (gold standard added).
    Compare {
        experiments: Vec<String>,
        venn: bool,
    },
    ClusterMetrics(String),
    Errors(String),
    Quality(String),
    Ratios(String, bool),
    Profile(String),
    Experiments,
}

impl View {
    pub fn target(&self) -> String {
        match self {
            View::Metrics(e) => format!("/metrics?experiment={e}"),
            View::Matrix(e) => format!("/matrix?experiment={e}"),
            View::DefaultDiagram(e) => format!("/diagram?experiment={e}"),
            View::Diagram {
                experiment,
                x,
                y,
                samples,
            } => format!(
                "/diagram?experiment={experiment}&x={}&y={}&samples={samples}",
                AXES[*x], AXES[*y]
            ),
            View::Compare { experiments, venn } => format!(
                "/{}?experiments={}",
                if *venn { "venn" } else { "compare" },
                experiments.join(",")
            ),
            View::ClusterMetrics(e) => format!("/cluster-metrics?experiment={e}"),
            View::Errors(e) => format!("/errors?experiment={e}"),
            View::Quality(e) => format!("/quality?experiment={e}"),
            View::Ratios(e, equal) => format!(
                "/ratios?experiment={e}&kind={}",
                if *equal { "equal" } else { "null" }
            ),
            View::Profile(d) => format!("/profile?dataset={d}"),
            View::Experiments => "/experiments".to_string(),
        }
    }

    pub fn request(&self) -> Request {
        match self.clone() {
            View::Metrics(experiment) => Request::GetMetrics { experiment },
            View::Matrix(experiment) => Request::GetConfusionMatrix { experiment },
            View::DefaultDiagram(experiment) => Request::GetDiagram {
                experiment,
                x: PairMetric::Recall,
                y: PairMetric::Precision,
                engine: DiagramEngine::Optimized,
                samples: 20,
            },
            View::Diagram {
                experiment,
                x,
                y,
                samples,
            } => Request::GetDiagram {
                experiment,
                x: AXES[x],
                y: AXES[y],
                engine: DiagramEngine::Optimized,
                samples,
            },
            View::Compare { experiments, venn } => Request::CompareExperiments {
                experiments,
                include_gold: venn,
            },
            View::ClusterMetrics(experiment) => Request::GetClusterMetrics { experiment },
            View::Errors(experiment) => Request::GetErrorProfile { experiment },
            View::Quality(experiment) => Request::GetQualitySignals { experiment },
            View::Ratios(experiment, equal) => Request::GetAttributeRatios {
                experiment,
                kind: if equal {
                    RatioKind::Equal
                } else {
                    RatioKind::Null
                },
            },
            View::Profile(dataset) => Request::ProfileDataset { dataset },
            View::Experiments => Request::ListExperiments { dataset: None },
        }
    }

    /// The per-endpoint label the latency and span tables use.
    pub fn endpoint(&self) -> &'static str {
        match self {
            View::Metrics(_) => "metrics",
            View::Matrix(_) => "matrix",
            View::DefaultDiagram(_) | View::Diagram { .. } => "diagram",
            View::Compare { .. } => "compare",
            View::ClusterMetrics(_) => "cluster_metrics",
            View::Errors(_) => "errors",
            View::Quality(_) => "quality",
            View::Ratios(..) => "ratios",
            View::Profile(_) => "profile",
            View::Experiments => "experiments",
        }
    }

    /// The `(experiment, samples)` a diagram view sweeps, if any.
    pub fn sweep(&self) -> Option<(&str, usize)> {
        match self {
            View::DefaultDiagram(e) => Some((e, 20)),
            View::Diagram {
                experiment,
                samples,
                ..
            } => Some((experiment, *samples)),
            _ => None,
        }
    }
}

/// The body the server must send for `view`: the in-process rendering
/// of `api::handle` on the same store state.
pub fn expected_body(store: &BenchmarkStore, view: &View) -> Result<Vec<u8>, String> {
    let response = api::handle(store, view.request()).map_err(|e| e.to_string())?;
    Ok(serde_json::to_string(&frost_server::json::response_to_json(&response)).into_bytes())
}
