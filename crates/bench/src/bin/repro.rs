//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run -p pv-bench --release --bin repro -- all
//! cargo run -p pv-bench --release --bin repro -- fig4 fig6
//! cargo run -p pv-bench --release --bin repro -- sweep --samples 5,10,25
//! ```
//!
//! Each exhibit prints a text rendition to stdout and writes CSV series
//! under `target/repro/` so the data can be re-plotted with any tool.
//! The `sweep` subcommand runs a declarative config grid through the
//! `pv_core::sweep` service with an on-disk cell cache (default
//! `target/repro/sweep-cache`), so re-running with a widened grid only
//! computes the new cells; see `sweep --help`.
//!
//! All exhibits share two process-wide caches per system: the collected
//! campaign corpus ([`intel_campaign`]/[`amd_campaign`]) and its
//! [`EncodedCorpus`] built from [`campaign_spec`] — profiles for every
//! swept sample count, target encodings for all three representations,
//! and use-case-2 joined rows. Every leave-one-group-out evaluation an
//! exhibit shows runs as a grid of cells through `pv_core::sweep`
//! ([`run_grid`]), the scheduler `repro sweep` uses, with no cell cache
//! and no retries. Every command reads its arguments through one
//! [`cli::Command`] flag table.

#![warn(clippy::unwrap_used)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use pv_bench::cli::{self, usage, Args, CliError, Command};
use pv_bench::{
    amd_campaign, campaign_grid, campaign_spec, intel_campaign, served_cell, uc1_config,
    uc2_config, ServedCorpora, CAMPAIGN_RUNS, CAMPAIGN_SEED, UC2_PROFILE_RUNS,
};
use pv_core::eval::EvalSummary;
use pv_core::pipeline::{EncodedCorpus, EncodingSpec};
use pv_core::report::{kde_curve, overlay, sparkline, summary_table, violin_row, write_csv};
use pv_core::resilience::{silence_injected_panics, FaultPlan, PvError};
use pv_core::shard::{CampaignSource, ShardSource, ShardedCorpus};
use pv_core::sweep::{
    CellCache, CellConfig, CellOutcome, CellResult, GridSpec, Sweep, SweepReport,
};
use pv_core::{FaultKind, ModelKind, Predictor, ReprKind};
use pv_stats::ks::ks2_statistic;
use pv_stats::rng::Xoshiro256pp;
use pv_sysmodel::{Corpus, MetricDef, SystemModel, AMD_METRICS, INTEL_METRICS};

fn out_dir() -> PathBuf {
    PathBuf::from("target/repro")
}

/// The Intel campaign, with a one-time setup-timing line.
fn intel() -> &'static Corpus {
    static TIMED: OnceLock<()> = OnceLock::new();
    TIMED.get_or_init(|| {
        let t = Instant::now();
        intel_campaign();
        println!("[setup] Intel campaign collected in {:.1?}", t.elapsed());
    });
    intel_campaign()
}

/// The AMD campaign, with a one-time setup-timing line.
fn amd() -> &'static Corpus {
    static TIMED: OnceLock<()> = OnceLock::new();
    TIMED.get_or_init(|| {
        let t = Instant::now();
        amd_campaign();
        println!("[setup] AMD campaign collected in {:.1?}", t.elapsed());
    });
    amd_campaign()
}

/// The Intel campaign encoded once for every exhibit.
fn intel_enc() -> &'static EncodedCorpus<'static> {
    static ENC: OnceLock<EncodedCorpus<'static>> = OnceLock::new();
    ENC.get_or_init(|| {
        let t = Instant::now();
        let enc = EncodedCorpus::build(intel(), &campaign_spec()).expect("encode");
        println!("[setup] Intel campaign encoded in {:.1?}", t.elapsed());
        enc
    })
}

/// The AMD campaign encoded once for every exhibit.
fn amd_enc() -> &'static EncodedCorpus<'static> {
    static ENC: OnceLock<EncodedCorpus<'static>> = OnceLock::new();
    ENC.get_or_init(|| {
        let t = Instant::now();
        let enc = EncodedCorpus::build(amd(), &campaign_spec()).expect("encode");
        println!("[setup] AMD campaign encoded in {:.1?}", t.elapsed());
        enc
    })
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let commands = [&SWEEP, &OBS_CHECK, &TRAIN, &LOAD_GEN];
    let sub = cli::subcommand_index(&argv)
        .and_then(|i| Some((i, *commands.iter().find(|c| c.name == argv[i])?)));
    match sub {
        Some((i, command)) => {
            argv.remove(i);
            command.run(&argv);
        }
        None => REPRO.run(&argv),
    }
}

const REPRO: Command = Command {
    name: "repro",
    help: "\
repro — regenerate the paper's tables and figures

USAGE:
    repro [EXHIBIT]...     run exhibits (default: all): all, table1, table2, table3,
                           fig1, fig3, fig4, fig5, fig6, fig7, fig8, fig9,
                           ablations, baselines
    repro COMMAND --help   sweep, train, load-gen, obs-check

Every command also takes --trace-out FILE, --metrics-out FILE and
--obs-summary, before or after its name.",
    values: "",
    switches: "",
    operands: true,
    main: exhibits_cmd,
};

/// An exhibit's name and the function that regenerates it.
type Exhibit = (&'static str, fn());

/// Every exhibit, in the order `all` runs them.
const EXHIBITS: [Exhibit; 13] = [
    ("table1", table1),
    ("table2", || {
        table_metrics("Table II (Intel, 68 metrics)", &INTEL_METRICS)
    }),
    ("table3", || {
        table_metrics("Table III (AMD, 75 metrics)", &AMD_METRICS)
    }),
    ("fig1", fig1),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("ablations", ablations),
    ("baselines", baselines),
];

/// The exhibit path: regenerate the named tables and figures, in
/// [`EXHIBITS`] order, or all of them for no operand or `all`.
fn exhibits_cmd(args: &Args) -> Result<(), CliError> {
    let named = |name: &str| args.operands.iter().any(|a| a == name);
    let known = |a: &String| a == "all" || EXHIBITS.iter().any(|(name, _)| name == a);
    if let Some(bad) = args.operands.iter().find(|a| !known(a)) {
        return Err(usage(format!("unknown exhibit {bad:?}")));
    }
    let all = args.operands.is_empty() || named("all");
    let started = Instant::now();
    let collector = args.install_obs();
    println!("perfvar reproduction harness — seed {CAMPAIGN_SEED:#x}");
    println!("outputs: {}", out_dir().display());
    println!();
    for (name, exhibit) in EXHIBITS {
        if all || named(name) {
            exhibit();
        }
    }
    println!("\ntotal: {:.1?}", started.elapsed());
    args.finalize_obs(collector, pv_core::sweep::SWEEP_OBS_COUNTERS);
    Ok(())
}

/// Table I: the benchmark roster.
fn table1() {
    println!("== Table I: benchmarks used in the evaluation ==");
    for suite in pv_sysmodel::Suite::ALL {
        println!("{:<12} {}", suite.name(), suite.benchmarks().join(", "));
    }
    println!("total: {} benchmarks\n", pv_sysmodel::roster().len());
}

/// Tables II/III: the metric catalogs.
fn table_metrics(title: &str, metrics: &[MetricDef]) {
    println!("== {title} ==");
    for (i, metric) in metrics.iter().enumerate() {
        print!("{i:>3} {:<42}", metric.name);
        if i % 2 == 1 {
            println!();
        }
    }
    if metrics.len() % 2 == 1 {
        println!();
    }
    println!();
}

/// Fig. 1: SPEC OMP 376 measured at 1000/2/3/5/10 samples + prediction
/// from 10 samples.
fn fig1() {
    println!("== Fig. 1: measured and predicted distributions of SPEC OMP 376 ==");
    let intel = intel();
    let idx = intel
        .benchmarks
        .iter()
        .position(|b| b.id.qualified() == "specomp/376")
        .expect("roster");
    let bench = &intel.benchmarks[idx];
    let rel = bench.runs.rel_times();
    let (lo, hi) = axis(&rel);
    let width = 64;

    let mut csv_rows: Vec<Vec<f64>> = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    let mut show = |label: &str, xs: &[f64]| {
        let curve = kde_curve(xs, lo, hi, width).expect("kde");
        println!("  {:<24} {}", label, sparkline(&curve));
        labels.push(label.replace(' ', "_"));
        csv_rows.push(curve);
    };

    show("(a) measured, 1000 runs", &rel);
    for (panel, s) in [("(b)", 2usize), ("(c)", 3), ("(d)", 5), ("(e)", 10)] {
        show(&format!("{panel} measured, {s} runs"), &rel[..s]);
    }

    // (f): LOGO prediction from 10 runs, PearsonRnd + kNN.
    let include: Vec<usize> = (0..intel.len()).filter(|&i| i != idx).collect();
    let cfg = uc1_config(ReprKind::PearsonRnd, ModelKind::Knn, 10);
    let predictor = Predictor::train_few_runs_encoded(intel_enc(), &include, cfg).expect("train");
    let predicted = predictor
        .predict_distribution(&bench.runs, 1000, 376)
        .expect("predict");
    let ks = ks2_statistic(&predicted, &rel).expect("ks");
    show(&format!("(f) predicted (KS={ks:.3})"), &predicted);

    write_csv(
        &out_dir().join("fig1.csv"),
        &["panel", "density_curve_over_axis"],
        &csv_rows,
        Some(&labels),
    )
    .expect("csv");
    println!("  axis: relative time in [{lo:.3}, {hi:.3}]\n");
}

/// Fig. 3: relative-time KDE of every benchmark on the Intel system.
fn fig3() {
    println!("== Fig. 3: relative execution time densities, all benchmarks (Intel) ==");
    let intel = intel();
    let width = 64;
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for b in &intel.benchmarks {
        let rel = b.runs.rel_times();
        let (lo, hi) = axis(&rel);
        let curve = kde_curve(&rel, lo, hi, width).expect("kde");
        println!("  {:<24} {}", b.id.qualified(), sparkline(&curve));
        labels.push(b.id.qualified());
        rows.push(curve);
    }
    write_csv(
        &out_dir().join("fig3.csv"),
        &["benchmark", "density_curve"],
        &rows,
        Some(&labels),
    )
    .expect("csv");
    println!();
}

/// Fig. 4: KS violins per (representation × model) for use case 1 at ten
/// runs, on the Intel system.
fn fig4() {
    println!("== Fig. 4: use case 1, representation × model (Intel, 10 runs) ==");
    let sweep = Sweep::few_runs(intel_enc());
    render_grid(
        &run_grid(sweep, &ReprKind::ALL, &ModelKind::ALL, &[10]),
        "fig4",
    );
}

/// Fig. 5: measured-vs-predicted overlays across the KS spectrum (UC1).
fn fig5() {
    println!(
        "== Fig. 5: prediction overlays across the KS spectrum (UC1, PearsonRnd+kNN, 10 runs) =="
    );
    let intel = intel();
    let enc = intel_enc();
    let cfg = uc1_config(ReprKind::PearsonRnd, ModelKind::Knn, 10);
    let summary = pearson_knn(Sweep::few_runs(enc), 10);
    overlays(&summary, "fig5", "measured", |bi| {
        let include: Vec<usize> = (0..intel.len()).filter(|&i| i != bi).collect();
        let p = Predictor::train_few_runs_encoded(enc, &include, cfg).expect("train");
        let runs = &intel.benchmarks[bi].runs;
        let predicted = p.predict_distribution(runs, 1000, bi as u64);
        (runs.rel_times(), predicted.expect("predict"))
    });
}

/// Fig. 6: KS score vs. number of profile runs (UC1, best repr+model).
fn fig6() {
    println!("== Fig. 6: KS vs number of samples (UC1, PearsonRnd+kNN, Intel) ==");
    let sweep = Sweep::few_runs(intel_enc());
    let counts = pv_bench::UC1_SAMPLE_COUNTS;
    let cells = run_grid(sweep, &[ReprKind::PearsonRnd], &[ModelKind::Knn], &counts);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for (cell, summary) in &cells {
        let s = cell.sample_count();
        println!(
            "{}",
            violin_row(&format!("{s} samples"), &summary.ks_values(), 44).expect("violin")
        );
        labels.push(format!("{s}"));
        let mut row = vec![summary.mean, summary.spread.median];
        row.extend(summary.ks_values());
        rows.push(row);
    }
    let mut header: Vec<&str> = vec!["samples", "mean", "median"];
    let bench_names: Vec<String> = intel()
        .benchmarks
        .iter()
        .map(|b| b.id.qualified())
        .collect();
    let name_refs: Vec<&str> = bench_names.iter().map(|s| s.as_str()).collect();
    header.extend(name_refs);
    write_csv(&out_dir().join("fig6.csv"), &header, &rows, Some(&labels)).expect("csv");
    println!();
}

/// Fig. 7: KS violins per (representation × model) for use case 2,
/// AMD → Intel.
fn fig7() {
    println!("== Fig. 7: use case 2, representation × model (AMD → Intel) ==");
    let sweep = Sweep::cross_system(amd_enc(), intel_enc());
    let cells = run_grid(sweep, &ReprKind::ALL, &ModelKind::ALL, &[UC2_PROFILE_RUNS]);
    render_grid(&cells, "fig7");
}

/// Fig. 8: prediction direction comparison (AMD→Intel vs Intel→AMD).
fn fig8() {
    println!("== Fig. 8: direction of prediction (PearsonRnd + kNN) ==");
    let [a2i, i2a] = [(amd_enc(), intel_enc()), (intel_enc(), amd_enc())]
        .map(|(src, dst)| pearson_knn(Sweep::cross_system(src, dst), UC2_PROFILE_RUNS));
    println!(
        "{}",
        violin_row("AMD -> Intel", &a2i.ks_values(), 44).expect("violin")
    );
    println!(
        "{}",
        violin_row("Intel -> AMD", &i2a.ks_values(), 44).expect("violin")
    );
    let rows = vec![
        {
            let mut r = vec![a2i.mean];
            r.extend(a2i.ks_values());
            r
        },
        {
            let mut r = vec![i2a.mean];
            r.extend(i2a.ks_values());
            r
        },
    ];
    write_csv(
        &out_dir().join("fig8.csv"),
        &["direction", "mean_ks", "per_benchmark_ks"],
        &rows,
        Some(&["amd_to_intel".into(), "intel_to_amd".into()]),
    )
    .expect("csv");
    println!(
        "  direction gap: AMD→Intel mean {:.3} vs Intel→AMD mean {:.3}\n",
        a2i.mean, i2a.mean
    );
}

/// Fig. 9: overlays for use case 2 (AMD → Intel).
fn fig9() {
    println!("== Fig. 9: prediction overlays across the KS spectrum (UC2, AMD → Intel) ==");
    let amd = amd();
    let intel = intel();
    let cfg = uc2_config(ReprKind::PearsonRnd, ModelKind::Knn);
    let sweep = Sweep::cross_system(amd_enc(), intel_enc());
    let summary = pearson_knn(sweep, UC2_PROFILE_RUNS);
    overlays(&summary, "fig9", "actual", |bi| {
        let include: Vec<usize> = (0..amd.len()).filter(|&i| i != bi).collect();
        let p = Predictor::train_cross_system_encoded(amd_enc(), intel_enc(), &include, cfg)
            .expect("train");
        let predicted = p.predict_distribution(&amd.benchmarks[bi].runs, 1000, bi as u64);
        (
            intel.benchmarks[bi].runs.rel_times(),
            predicted.expect("predict"),
        )
    });
}

/// Ablations of the paper's inline design claims: distance metric, k,
/// histogram bin count, and per-representation reconstruction floors.
fn ablations() {
    use pv_core::ablation::{evaluate_knn_variant_encoded, histogram_floor, reconstruction_floor};
    use pv_ml::Distance;

    let intel = intel();
    let enc = intel_enc();
    println!("== Ablation: kNN distance metric (PearsonRnd, k=15, 10 runs) ==");
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for dist in [
        Distance::Cosine,
        Distance::Euclidean,
        Distance::Manhattan,
        Distance::Chebyshev,
    ] {
        let s = evaluate_knn_variant_encoded(enc, dist, 15, 10, CAMPAIGN_SEED).expect("eval");
        println!(
            "  {dist:<12?} mean KS {:.3}  median {:.3}",
            s.mean, s.spread.median
        );
        labels.push(format!("{dist:?}"));
        rows.push(vec![s.mean, s.spread.median]);
    }
    write_csv(
        &out_dir().join("ablation_distance.csv"),
        &["distance", "mean_ks", "median_ks"],
        &rows,
        Some(&labels),
    )
    .expect("csv");

    println!("\n== Ablation: k (PearsonRnd, cosine, 10 runs) ==");
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for k in [1usize, 3, 5, 10, 15, 25, 40, 59] {
        let s = evaluate_knn_variant_encoded(enc, Distance::Cosine, k, 10, CAMPAIGN_SEED)
            .expect("eval");
        println!("  k = {k:<3} mean KS {:.3}", s.mean);
        labels.push(format!("{k}"));
        rows.push(vec![s.mean, s.spread.median]);
    }
    write_csv(
        &out_dir().join("ablation_k.csv"),
        &["k", "mean_ks", "median_ks"],
        &rows,
        Some(&labels),
    )
    .expect("csv");

    println!("\n== Ablation: reconstruction floors (oracle encodings, no model) ==");
    for repr in ReprKind::ALL {
        let built = repr.build();
        let s = reconstruction_floor(intel, built.as_ref(), CAMPAIGN_SEED).expect("eval");
        println!("  {:<12} floor mean KS {:.3}", repr.name(), s.mean);
    }

    println!("\n== Ablation: histogram bin count (oracle floor) ==");
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for bins in [5usize, 10, 15, 20, 40, 80] {
        let s = histogram_floor(intel, bins, CAMPAIGN_SEED).expect("eval");
        println!("  {bins:>3} bins: floor mean KS {:.3}", s.mean);
        labels.push(format!("{bins}"));
        rows.push(vec![s.mean]);
    }
    write_csv(
        &out_dir().join("ablation_bins.csv"),
        &["bins", "floor_mean_ks"],
        &rows,
        Some(&labels),
    )
    .expect("csv");
    println!();
}

/// Baselines: what does learning buy over (a) just using the s measured
/// runs, (b) predicting the population distribution?
fn baselines() {
    use pv_core::baseline::{empirical_baseline_encoded, population_baseline_encoded};
    let enc = intel_enc();
    println!("== Baselines vs the learned predictor (UC1, PearsonRnd + kNN) ==");
    let counts = [2usize, 5, 10, 25, 100];
    let cells = run_grid(
        Sweep::few_runs(enc),
        &[ReprKind::PearsonRnd],
        &[ModelKind::Knn],
        &counts,
    );
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for (&s, (_, learned)) in counts.iter().zip(&cells) {
        let raw = empirical_baseline_encoded(enc, s).expect("baseline");
        println!(
            "  s = {s:<4} raw-empirical {:.3}   learned {:.3}   gain {:+.3}",
            raw.mean,
            learned.mean,
            raw.mean - learned.mean
        );
        labels.push(format!("{s}"));
        rows.push(vec![raw.mean, learned.mean]);
    }
    let pop = population_baseline_encoded(enc, 5000).expect("baseline");
    println!("  population-pool baseline: {:.3}", pop.mean);
    write_csv(
        &out_dir().join("baselines.csv"),
        &["samples", "empirical_mean_ks", "learned_mean_ks"],
        &rows,
        Some(&labels),
    )
    .expect("csv");
    println!();
}

// ---------------------------------------------------------------------
// the obs-check subcommand

const OBS_CHECK_HELP: &str = "\
repro obs-check — validate observability artifacts (CI gate)

USAGE:
    repro -- obs-check TRACE.jsonl METRICS.json [--require COUNTER]...
                       [--access-log FILE] [--telemetry FILE]

Parses the JSONL trace line by line and the metrics snapshot, checks the
span tree is well-formed (every exit carries a duration and a matching
enter), and asserts every --require'd counter is present with a value
greater than zero. When the snapshot holds the pv.serve.latency_ns
histogram, its count must equal pv.serve.request: pv-serve observes
every answered line exactly once.

--access-log cross-checks a pv-serve access log: every line must be
parseable with total_ns == queue_ns + predict_ns + write_ns, and the
per-outcome tally must equal the pv.serve.request.* counters in the
metrics snapshot. --telemetry cross-checks a flushed stats document:
its exact totals must also equal those counters. Exits 1 on the first
violation.";

const OBS_CHECK: Command = Command {
    name: "obs-check",
    help: OBS_CHECK_HELP,
    values: "--require --access-log --telemetry",
    switches: "",
    operands: true,
    main: obs_check_cmd,
};

/// The `obs-check` subcommand: parse the two artifact files and assert
/// required counters are non-zero.
fn obs_check_cmd(args: &Args) -> Result<(), CliError> {
    let [trace_path, metrics_path] = args.operands.as_slice() else {
        return Err(usage("expected exactly TRACE.jsonl METRICS.json"));
    };
    let events = pv_obs::read_trace(Path::new(trace_path)).unwrap_or_else(|e| {
        eprintln!("obs-check: trace: {e}");
        std::process::exit(1);
    });
    let mut enters = 0usize;
    let mut exits = 0usize;
    for ev in &events {
        match ev.kind.as_str() {
            "enter" => enters += 1,
            "exit" => {
                exits += 1;
                if ev.dur_ns.is_none() {
                    eprintln!(
                        "obs-check: exit event {} ({}) has no duration",
                        ev.id, ev.name
                    );
                    std::process::exit(1);
                }
            }
            other => {
                eprintln!("obs-check: unknown event kind {other:?}");
                std::process::exit(1);
            }
        }
    }
    if enters != exits {
        eprintln!("obs-check: unbalanced span tree: {enters} enters, {exits} exits");
        std::process::exit(1);
    }
    println!(
        "obs-check: trace ok — {} events ({enters} spans) in {}",
        events.len(),
        trace_path
    );

    let metrics = pv_obs::read_metrics(Path::new(metrics_path)).unwrap_or_else(|e| {
        eprintln!("obs-check: metrics: {e}");
        std::process::exit(1);
    });
    println!(
        "obs-check: metrics ok — {} counters, {} gauges, {} histograms in {}",
        metrics.counters.len(),
        metrics.gauges.len(),
        metrics.histograms.len(),
        metrics_path
    );
    for name in args.all("--require") {
        match metrics.counter(name) {
            Some(v) if v > 0 => println!("obs-check: {name} = {v}"),
            Some(_) => {
                eprintln!("obs-check: required counter {name} is zero");
                std::process::exit(1);
            }
            None => {
                eprintln!("obs-check: required counter {name} is missing");
                std::process::exit(1);
            }
        }
    }

    if let Some(latency) = metrics.histogram("pv.serve.latency_ns") {
        let requests = metrics.counter("pv.serve.request").unwrap_or(0);
        if latency.count != requests {
            eprintln!(
                "obs-check: pv.serve.latency_ns holds {} observation(s) but pv.serve.request = \
                 {requests}",
                latency.count
            );
            std::process::exit(1);
        }
        println!("obs-check: pv.serve.latency_ns count = pv.serve.request = {requests}");
    }

    // The three planes a serving run records — pv.serve.* counters,
    // the per-request access log, and the flushed stats document —
    // count the same requests on the same code paths, so any pair that
    // is present must agree exactly.
    let tally = args.path("--access-log").map(|path| {
        let tally = check_access_log(&path);
        reconcile("access log", &tally, &metrics);
        tally
    });
    if let Some(path) = args.path("--telemetry") {
        let totals = read_telemetry_totals(&path);
        reconcile("telemetry totals", &totals, &metrics);
        if let Some(tally) = &tally {
            for (name, n) in &totals {
                let logged = tally.iter().find(|(k, _)| k == name).map_or(0, |(_, v)| *v);
                if logged != *n {
                    eprintln!(
                        "obs-check: telemetry says {name} = {n} but the access log holds {logged}"
                    );
                    std::process::exit(1);
                }
            }
            println!("obs-check: telemetry totals match the access log");
        }
    }
    Ok(())
}

/// Parses a pv-serve JSONL access log: every line must decode with
/// consistent latency arithmetic. Returns the per-counter tally, keyed
/// by the `pv.serve.*` counter each outcome increments.
fn check_access_log(path: &std::path::Path) -> Vec<(String, u64)> {
    use serde::Content;
    let body = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("obs-check: access log {}: {e}", path.display());
        std::process::exit(1);
    });
    let outcome_counter = |key: &str| -> Option<&'static str> {
        pv_bench::serve::Outcome::ALL
            .iter()
            .find(|o| o.key() == key)
            .map(|o| o.counter())
    };
    let mut tally: Vec<(String, u64)> = vec![("pv.serve.request".to_string(), 0)];
    for (lineno, line) in body.lines().enumerate() {
        let fields = parse_json_object(line).unwrap_or_else(|| {
            eprintln!(
                "obs-check: access log line {} is not a JSON object: {line}",
                lineno + 1
            );
            std::process::exit(1);
        });
        let num = |key: &str| -> u64 {
            match fields.iter().find(|(k, _)| k == key).map(|(_, v)| v) {
                Some(Content::U64(v)) => *v,
                Some(Content::I64(v)) if *v >= 0 => *v as u64,
                _ => {
                    eprintln!(
                        "obs-check: access log line {} lacks numeric {key:?}",
                        lineno + 1
                    );
                    std::process::exit(1);
                }
            }
        };
        let outcome = match fields.iter().find(|(k, _)| k == "outcome").map(|(_, v)| v) {
            Some(Content::Str(s)) => s.clone(),
            _ => {
                eprintln!("obs-check: access log line {} lacks an outcome", lineno + 1);
                std::process::exit(1);
            }
        };
        let (queue, predict, write, total) = (
            num("queue_ns"),
            num("predict_ns"),
            num("write_ns"),
            num("total_ns"),
        );
        if queue + predict + write != total {
            eprintln!(
                "obs-check: access log line {}: total_ns {total} != queue {queue} + \
                 predict {predict} + write {write}",
                lineno + 1
            );
            std::process::exit(1);
        }
        let Some(counter) = outcome_counter(&outcome) else {
            eprintln!(
                "obs-check: access log line {}: unknown outcome {outcome:?}",
                lineno + 1
            );
            std::process::exit(1);
        };
        tally[0].1 += 1;
        match tally.iter_mut().find(|(k, _)| k == counter) {
            Some((_, n)) => *n += 1,
            None => tally.push((counter.to_string(), 1)),
        }
    }
    println!(
        "obs-check: access log ok — {} request(s) in {}, latency arithmetic consistent",
        tally[0].1,
        path.display()
    );
    tally
}

/// Reads the `totals` block of a flushed stats document, keyed by the
/// `pv.serve.*` counter each total mirrors.
fn read_telemetry_totals(path: &std::path::Path) -> Vec<(String, u64)> {
    use serde::Content;
    let body = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("obs-check: telemetry {}: {e}", path.display());
        std::process::exit(1);
    });
    let doc = parse_json_object(body.trim()).unwrap_or_else(|| {
        eprintln!(
            "obs-check: telemetry {} is not a JSON object",
            path.display()
        );
        std::process::exit(1);
    });
    let Some(Content::Map(totals)) = doc.iter().find(|(k, _)| k == "totals").map(|(_, v)| v) else {
        eprintln!(
            "obs-check: telemetry {} lacks a totals block",
            path.display()
        );
        std::process::exit(1);
    };
    let mut out = Vec::new();
    for (key, value) in totals {
        let n = match value {
            Content::U64(v) => *v,
            Content::I64(v) if *v >= 0 => *v as u64,
            _ => continue,
        };
        let counter = if key == "requests" {
            "pv.serve.request".to_string()
        } else {
            match pv_bench::serve::Outcome::ALL
                .iter()
                .find(|o| o.key() == key)
            {
                Some(o) => o.counter().to_string(),
                None => continue,
            }
        };
        out.push((counter, n));
    }
    println!(
        "obs-check: telemetry ok — {} total(s) in {}",
        out.len(),
        path.display()
    );
    out
}

/// Asserts the tally and the metrics snapshot agree exactly on the
/// request-partition counters — in both directions, so a response
/// counted but never tallied (or vice versa) fails too. `source` names
/// the artifact in errors.
fn reconcile(source: &str, tally: &[(String, u64)], metrics: &pv_obs::MetricsSnapshot) {
    for (name, n) in tally {
        let counted = metrics.counter(name).unwrap_or(0);
        if counted != *n {
            eprintln!(
                "obs-check: {source} holds {n} × {name} but the metrics snapshot says {counted}"
            );
            std::process::exit(1);
        }
    }
    for c in &metrics.counters {
        if !(c.name.starts_with("pv.serve.request") || c.name == "pv.serve.shutdown") {
            continue;
        }
        let tallied = tally
            .iter()
            .find(|(k, _)| *k == c.name)
            .map_or(0, |(_, v)| *v);
        if tallied != c.value {
            eprintln!(
                "obs-check: metrics snapshot says {} = {} but {source} holds {tallied}",
                c.name, c.value
            );
            std::process::exit(1);
        }
    }
    println!("obs-check: {source} reconciles with the metrics snapshot");
}

/// Decodes one JSON object into its key/value fields via the lenient
/// Content tree (the same bridge the serve protocol uses).
fn parse_json_object(text: &str) -> Option<Vec<(String, serde::Content)>> {
    let pv_bench::serve::Json(content) = serde_json::from_str(text).ok()?;
    match content {
        serde::Content::Map(map) => Some(map),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// the train / load-gen subcommands (model registry + pv-serve)

const TRAIN_HELP: &str = "\
repro train — fit predictors and seal them into a model registry

USAGE:
    repro -- train --registry DIR [OPTIONS]

OPTIONS:
    --registry DIR    registry directory (required)
    --uc N            use case: 1 (few-runs, default) or 2 (cross-system)
    --reverse         use case 2 direction Intel->AMD (default AMD->Intel)
    --reprs LIST      comma list of pearsonrnd,pymaxent,histogram (default pearsonrnd)
    --models LIST     comma list of knn,randomforest,xgboost (default knn)
    --samples LIST    use-case-1 profile-run counts (default 10)
    --runs N          runs per benchmark in the training corpus (default 1000)
    --from-sweep DIR  also seal a model for every healthy (not failed)
                      cell a sweep cache holds for the same corpus
    --force           re-fit even when a verified entry already exists

A verified existing entry is reused (printed as 'verified'); a missing,
stale, or corrupt entry is healed by re-fitting (printed as 'trained').
Also accepts --trace-out/--metrics-out/--obs-summary.";

const TRAIN: Command = Command {
    name: "train",
    help: TRAIN_HELP,
    values: "--registry --uc --reprs --models --samples --runs --from-sweep",
    switches: "--reverse --force",
    operands: false,
    main: train_cmd,
};

/// `--uc`: use case 1 (the default) or 2.
fn use_case(args: &Args) -> Result<usize, CliError> {
    match args.get("--uc", 1)? {
        uc @ (1 | 2) => Ok(uc),
        uc => Err(usage(format!("--uc must be 1 or 2, got {uc}"))),
    }
}

/// The `train` subcommand: explicit model fitting into the registry,
/// with verified-entry reuse, corruption healing, and sweep scavenging.
fn train_cmd(args: &Args) -> Result<(), CliError> {
    use pv_core::registry::{ModelRegistry, REGISTRY_OBS_COUNTERS};

    let registry_dir = args
        .path("--registry")
        .ok_or_else(|| usage("--registry DIR is required"))?;
    let uc = use_case(args)?;
    let runs = args.get("--runs", CAMPAIGN_RUNS)?;
    let reprs = args
        .list("--reprs", str::parse)?
        .unwrap_or(vec![ReprKind::PearsonRnd]);
    let models = args
        .list("--models", str::parse)?
        .unwrap_or(vec![ModelKind::Knn]);
    let samples = args.list("--samples", str::parse)?.unwrap_or(vec![10]);
    let mut cells = Vec::new();
    for &repr in &reprs {
        for &model in &models {
            for &s in &samples {
                cells.push(served_cell(uc, repr, model, s, runs));
            }
        }
    }

    let collector = args.install_obs();
    pv_obs::metrics::preregister_counters(REGISTRY_OBS_COUNTERS);
    let registry = ModelRegistry::new(&registry_dir);
    let fail = |what: &str, e: PvError| -> ! {
        eprintln!("train: {what}: [{}] {e}", e.kind());
        std::process::exit(1);
    };

    let started = Instant::now();
    // Both campaigns are collected for either use case so --from-sweep
    // can seal whatever cell kinds the cache holds.
    let corpora = ServedCorpora::collect(runs, args.has("--reverse"));
    println!(
        "registry: {} ({} entries before)",
        registry_dir.display(),
        registry.keys().len()
    );

    if let Some(dir) = args.path("--from-sweep") {
        let cache = CellCache::new(&dir);
        let scavenged: Vec<CellConfig> = corpora
            .fingerprints
            .iter()
            .flat_map(|&fp| cache.configs(fp))
            .collect();
        println!(
            "from-sweep: {} completed cell(s) scavenged from {}",
            scavenged.len(),
            dir.display()
        );
        cells.extend(scavenged);
    }
    cells.sort_by_key(|c| format!("{c:?}"));
    cells.dedup();

    for cell in &cells {
        let (fp, key) = corpora.key(cell);
        if args.has("--force") {
            if let Ok(path) = registry.entry_path(fp, cell) {
                let _ = std::fs::remove_file(path);
            }
        }
        let (_, trained) = match *cell {
            CellConfig::FewRuns(cfg) => registry.ensure_few_runs(corpora.training(cell), cfg),
            CellConfig::CrossSystem(cfg) => {
                registry.ensure_cross_system(&corpora.src, &corpora.dst, cfg)
            }
        }
        .unwrap_or_else(|e| fail(&cell.label(), e));
        println!(
            "  {}  model-{key:016x}  {}",
            if trained { "trained " } else { "verified" },
            cell.label()
        );
    }
    println!(
        "train: {} model(s) ready in {:.1?} ({} entries now)",
        cells.len(),
        started.elapsed(),
        registry.keys().len()
    );
    args.finalize_obs(collector, REGISTRY_OBS_COUNTERS);
    Ok(())
}

const LOAD_GEN_HELP: &str = "\
repro load-gen — fire concurrent predictions at a running pv-serve

USAGE:
    repro -- load-gen --socket PATH [OPTIONS]

OPTIONS:
    --socket PATH     unix socket of a running pv-serve (required)
    --requests N      total requests to send (default 2000)
    --concurrency C   concurrent client connections (default 8)
    --expect-shed     treat overloaded/timeout/draining responses as
                      retryable backpressure (jittered exponential
                      backoff) instead of failures
    --retries N       retry budget per request under --expect-shed
                      (default 4; an exhausted budget is a failure)
    --repr R          model cell representation (default pearsonrnd)
    --model M         model cell regressor (default knn)
    --samples S       use-case-1 profile-run count (default 10)
    --runs N          runs per benchmark of the training corpus (default 1000)
    --uc N            use case: 1 (default) or 2
    --reverse         use case 2 direction Intel->AMD
    --n-samples N     reconstruction samples per request (default 1000)

Re-collects the training corpus (same seed) to derive the registry key
and build one profile per benchmark, then cycles benchmarks across the
connections. Prints the sustained rate plus shed/retry stats; exits 1 on
any failed response (the success line always ends in \"0 failed\").";

const LOAD_GEN: Command = Command {
    name: "load-gen",
    help: LOAD_GEN_HELP,
    values: "--socket --requests --concurrency --retries --repr --model --samples --runs --uc \
             --n-samples",
    switches: "--expect-shed --reverse",
    operands: false,
    main: load_gen_cmd,
};

/// The `load-gen` subcommand: a protocol client that doubles as the CI
/// smoke load for the serving path.
fn load_gen_cmd(args: &Args) -> Result<(), CliError> {
    use pv_core::Profile;
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let socket = args
        .path("--socket")
        .ok_or_else(|| usage("--socket PATH is required"))?;
    let requests: usize = args.get("--requests", 2000)?;
    let concurrency = args.get("--concurrency", 8usize)?.max(1);
    let expect_shed = args.has("--expect-shed");
    let retries: u32 = args.get("--retries", 4)?;
    let runs = args.get("--runs", CAMPAIGN_RUNS)?;
    let repr = args.get("--repr", ReprKind::PearsonRnd)?;
    let model = args.get("--model", ModelKind::Knn)?;
    let samples = args.get("--samples", 10)?;
    let cell = served_cell(use_case(args)?, repr, model, samples, runs);
    let n_samples: usize = args.get("--n-samples", 1000)?;

    // Derive the registry key exactly as `repro train` sealed it, and
    // profile the corpus the model predicts from.
    let corpora = ServedCorpora::collect(runs, args.has("--reverse"));
    let (_, key) = corpora.key(&cell);
    let uc2 = matches!(cell, CellConfig::CrossSystem(_));
    // One request line per benchmark, cycled.
    let lines: Vec<String> = corpora
        .training(&cell)
        .benchmarks
        .iter()
        .enumerate()
        .map(|(bi, b)| {
            let s = cell.sample_count().min(b.runs.len()).max(1);
            let profile = Profile::from_runs(&b.runs, s).expect("profile");
            let profile_json = serde_json::to_string(&profile).expect("profile json");
            let rel = if uc2 {
                let rel_json = serde_json::to_string(&b.runs.rel_times()).expect("rel json");
                format!(", \"rel_times\": {rel_json}")
            } else {
                String::new()
            };
            format!(
                "{{\"id\": {bi}, \"model\": \"{key:016x}\", \"profile\": {profile_json}{rel}, \
                 \"n_samples\": {n_samples}, \"sample_seed\": {bi}}}"
            )
        })
        .collect();

    println!(
        "load-gen: {requests} requests over {concurrency} connection(s) -> {} (model {key:016x}){}",
        socket.display(),
        if expect_shed {
            format!(" [expect-shed, {retries} retries]")
        } else {
            String::new()
        }
    );
    let started = Instant::now();
    let failed = AtomicUsize::new(0);
    let sent = AtomicUsize::new(0);
    let ok_count = AtomicUsize::new(0);
    let shed_seen = AtomicUsize::new(0);
    let retried = AtomicUsize::new(0);
    // Client-side latency per response: burst flush to reply read
    // (pipelined, so later replies in a burst include queueing behind
    // earlier ones — the latency a pipelined client actually sees).
    let latencies: std::sync::Mutex<Vec<u64>> = std::sync::Mutex::new(Vec::new());
    let first_failure: std::sync::Mutex<Option<String>> = std::sync::Mutex::new(None);
    // A response whose error kind marks backpressure, not breakage:
    // shed at admission, past its deadline, or refused during drain.
    let shed_class = |resp: &str| {
        ["\"overloaded\"", "\"timeout\"", "\"draining\""]
            .iter()
            .any(|kind| resp.contains(kind))
    };
    std::thread::scope(|scope| {
        for c in 0..concurrency {
            let lines = &lines;
            let failed = &failed;
            let sent = &sent;
            let ok_count = &ok_count;
            let shed_seen = &shed_seen;
            let retried = &retried;
            let first_failure = &first_failure;
            let socket = &socket;
            let shed_class = &shed_class;
            let latencies = &latencies;
            let share = requests / concurrency + usize::from(c < requests % concurrency);
            scope.spawn(move || {
                let record_failure = |resp: &str| {
                    failed.fetch_add(1, Ordering::Relaxed);
                    let mut slot = first_failure.lock().expect("lock");
                    slot.get_or_insert_with(|| resp.trim().to_string());
                };
                let Ok(stream) = UnixStream::connect(socket) else {
                    failed.fetch_add(share, Ordering::Relaxed);
                    let mut slot = first_failure.lock().expect("lock");
                    slot.get_or_insert_with(|| format!("cannot connect to {}", socket.display()));
                    return;
                };
                let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
                let mut writer = stream;
                let mut backoff_rng = Xoshiro256pp::from_seed_stream(load_gen_seed(), c as u64);
                // Each pending entry is (line index, attempts so far);
                // shed-class responses under --expect-shed re-queue
                // their request instead of failing it.
                let mut pending: std::collections::VecDeque<(usize, u32)> = (0..share)
                    .map(|j| ((c + j * concurrency) % lines.len(), 0))
                    .collect();
                while !pending.is_empty() {
                    // Pipeline in bursts so the daemon sees concurrent
                    // queued work worth batching. Responses come back
                    // in request order, so the k-th reply of the burst
                    // belongs to the k-th request sent.
                    let burst: Vec<(usize, u32)> = {
                        let n = pending.len().min(64);
                        pending.drain(..n).collect()
                    };
                    for (idx, _) in &burst {
                        if writer.write_all(lines[*idx].as_bytes()).is_err()
                            || writer.write_all(b"\n").is_err()
                        {
                            failed.fetch_add(burst.len() + pending.len(), Ordering::Relaxed);
                            return;
                        }
                    }
                    if writer.flush().is_err() {
                        failed.fetch_add(burst.len() + pending.len(), Ordering::Relaxed);
                        return;
                    }
                    let burst_start = Instant::now();
                    let mut max_requeued_attempt = None::<u32>;
                    for (idx, attempts) in &burst {
                        let mut resp = String::new();
                        match reader.read_line(&mut resp) {
                            Ok(n) if n > 0 => {
                                sent.fetch_add(1, Ordering::Relaxed);
                                latencies
                                    .lock()
                                    .expect("lock")
                                    .push(burst_start.elapsed().as_nanos() as u64);
                                if resp.contains("\"ok\":true") {
                                    ok_count.fetch_add(1, Ordering::Relaxed);
                                } else if shed_class(&resp) {
                                    shed_seen.fetch_add(1, Ordering::Relaxed);
                                    if expect_shed && *attempts < retries {
                                        retried.fetch_add(1, Ordering::Relaxed);
                                        pending.push_back((*idx, attempts + 1));
                                        let a = attempts + 1;
                                        max_requeued_attempt =
                                            Some(max_requeued_attempt.map_or(a, |m: u32| m.max(a)));
                                    } else {
                                        record_failure(&resp);
                                    }
                                } else {
                                    record_failure(&resp);
                                }
                            }
                            _ => {
                                failed.fetch_add(
                                    1 + burst.len().saturating_sub(1) + pending.len(),
                                    Ordering::Relaxed,
                                );
                                let mut slot = first_failure.lock().expect("lock");
                                slot.get_or_insert_with(|| "connection closed mid-burst".into());
                                return;
                            }
                        }
                    }
                    // Back off before retrying shed work: exponential
                    // in the deepest attempt, jittered so the
                    // connections don't re-flood in lockstep.
                    if let Some(attempt) = max_requeued_attempt {
                        let base_ms = 5u64 << attempt.min(6);
                        let jitter = (backoff_rng.next_f64() * base_ms as f64) as u64;
                        std::thread::sleep(Duration::from_millis(base_ms + jitter));
                    }
                }
            });
        }
    });
    let elapsed = started.elapsed();
    let answered = sent.load(Ordering::Relaxed);
    let oks = ok_count.load(Ordering::Relaxed);
    let sheds = shed_seen.load(Ordering::Relaxed);
    let retry_count = retried.load(Ordering::Relaxed);
    let failures = failed.load(Ordering::Relaxed);
    let rate = answered as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "load-gen: {answered} responses in {elapsed:.1?} ({rate:.0} req/s): \
         {oks} ok, {sheds} shed-class, {retry_count} retried, {failures} failed"
    );
    let mut lat = latencies.into_inner().expect("lock");
    if !lat.is_empty() {
        lat.sort_unstable();
        let q = |p: f64| {
            let idx = ((lat.len() - 1) as f64 * p).round() as usize;
            pv_obs::humanize_ns(lat[idx] as f64)
        };
        println!(
            "load-gen: latency min/p50/p95/p99/max = {}/{}/{}/{}/{} (client-side, pipelined)",
            q(0.0),
            q(0.50),
            q(0.95),
            q(0.99),
            q(1.0)
        );
        // Shape of the latency distribution via the chunked two-pass
        // moment kernel (a diagnostic summary, not a pinned encoding —
        // exactly the consumer `Moments::from_slice_chunked` is for).
        let ns: Vec<f64> = lat.iter().map(|&n| n as f64).collect();
        let m = pv_stats::Moments::from_slice_chunked(&ns);
        println!(
            "load-gen: latency mean/std = {}/{}, skew {:.2}, excess kurtosis {:.2}",
            pv_obs::humanize_ns(m.mean()),
            pv_obs::humanize_ns(m.sample_std()),
            m.skewness(),
            m.excess_kurtosis()
        );
    }
    if let Some(first) = first_failure.lock().expect("lock").as_ref() {
        eprintln!("load-gen: first failure: {first}");
    }
    if failures > 0 {
        std::process::exit(1);
    }
    Ok(())
}

/// The load generator's backoff jitter seed (arbitrary fixed constant).
fn load_gen_seed() -> u64 {
    0x1040_6e4a_11c3_7a2d
}

// ---------------------------------------------------------------------
// the sweep service subcommand

const SWEEP_HELP: &str = "\
repro sweep — run a config grid through the cached sweep service

USAGE:
    repro -- sweep [OPTIONS]

OPTIONS:
    --uc 1|2             use case (default 1: few-runs on Intel;
                         2: cross-system AMD -> Intel)
    --reverse            swap use-case-2 direction (Intel -> AMD)
    --reprs LIST         all | comma list of Histogram,PyMaxEnt,PearsonRnd
    --models LIST        all | comma list of kNN,RandomForest,XGBoost
    --samples LIST       profile sample counts, e.g. 5,10,25 (default 10)
    --seeds LIST         root seeds, decimal or 0x-hex (default campaign seed)
    --runs N             corpus runs per benchmark (default 1000)
    --append N           corpus-growth scenario: sweep the corpus minus its
                         last N benchmarks first, then sweep the full corpus
                         so unchanged folds replay from the fold cache
    --benchmarks N       scale scenario: sweep a synthetic campaign of N
                         benchmarks (Table I roster first, then generated
                         entries) instead of the 60-benchmark roster. Unless
                         --reprs/--models are given, the grid defaults to
                         PearsonRnd x kNN
    --shard-size K       benchmarks per shard (default 256, so the Table I
                         roster is one shard). The campaign is generated and
                         encoded one shard at a time, so peak memory is
                         bounded by the resident-shard budget, not N.
                         Results are identical at any K
    --cache DIR          cell cache directory (default target/repro/sweep-cache);
                         encoded shards spill to DIR/shard-spill
    --no-cache           run without a cell cache; encoded shards still
                         spill, to target/repro/shard-spill
    --keep-going         exit 0 even when cells fail; report them in the
                         failure summary instead
    --inject LIST        deterministic fault injection, comma list of
                         KIND@CELL where KIND is one of
                         panic,nonconv,nan,corrupt — e.g. panic@3,nonconv@0
    --progress           periodic progress line on stderr (completed/total,
                         hit rate, failed, ETA)
    --trace-out FILE     write a JSONL span trace of the run
    --metrics-out FILE   write the metrics snapshot as JSON
    --obs-summary        print the observability summary table at the end
    --help               print this help

A re-run with a widened grid loads finished cells from the cache and
computes only the delta; cached results are bit-identical to fresh ones.
Each cell is evaluated once, under its own config. Failing cells never
abort the sweep: they are listed in the failure summary and recorded as
failed in their cell file so later runs skip them (delete the cell file
the summary names to retry).";

const SWEEP: Command = Command {
    name: "sweep",
    help: SWEEP_HELP,
    values: "--uc --reprs --models --samples --seeds --runs --append --benchmarks --shard-size \
             --cache --inject",
    switches: "--reverse --no-cache --keep-going --progress",
    operands: false,
    main: sweep_cmd,
};

/// A `--reprs`/`--models` axis: `all` in any case, a comma list, or
/// `default` when the flag is absent.
fn grid_axis<T>(args: &Args, flag: &str, all: &[T], default: Vec<T>) -> Result<Vec<T>, CliError>
where
    T: std::str::FromStr + Copy,
    T::Err: std::fmt::Display,
{
    match args.value(flag) {
        Some(v) if v.eq_ignore_ascii_case("all") => Ok(all.to_vec()),
        _ => Ok(args.list(flag, str::parse)?.unwrap_or(default)),
    }
}

/// `flag`'s count, or `default`; it must be at least 1.
fn at_least_one(args: &Args, flag: &str, default: usize) -> Result<usize, CliError> {
    match args.get(flag, default)? {
        0 => Err(usage(format!("{flag} must be at least 1"))),
        n => Ok(n),
    }
}

/// Parses one `--inject` spec: `KIND@CELL`.
fn parse_fault_spec(spec: &str) -> Result<(usize, FaultKind), CliError> {
    let bad = |what: String| usage(format!("--inject: {spec:?}: {what}"));
    let (kind, cell) = spec
        .split_once('@')
        .ok_or_else(|| bad("not KIND@CELL".into()))?;
    Ok((
        cell.parse().map_err(|e| bad(format!("cell: {e}")))?,
        kind.parse().map_err(bad)?,
    ))
}

/// A `--seeds` entry: decimal, or hex after `0x`/`0X`.
fn parse_seed(t: &str) -> Result<u64, std::num::ParseIntError> {
    match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => t.parse(),
    }
}

/// The `sweep` subcommand: expand the grid, run it over the cell cache,
/// stream per-cell lines as they finish, and render the summary table.
fn sweep_cmd(args: &Args) -> Result<(), CliError> {
    let uc = use_case(args)?;
    let runs = args.get("--runs", CAMPAIGN_RUNS)?;
    // A scale run over thousands of benchmarks defaults to the cheap
    // PearsonRnd × kNN cell so the grid doesn't multiply the campaign.
    let (reprs, models) = match args.value("--benchmarks") {
        Some(_) => (vec![ReprKind::PearsonRnd], vec![ModelKind::Knn]),
        None => (ReprKind::ALL.to_vec(), ModelKind::ALL.to_vec()),
    };
    let grid = GridSpec {
        seeds: args
            .list("--seeds", parse_seed)?
            .unwrap_or(vec![CAMPAIGN_SEED]),
        ..campaign_grid(
            &grid_axis(args, "--reprs", &ReprKind::ALL, reprs)?,
            &grid_axis(args, "--models", &ModelKind::ALL, models)?,
            &args.list("--samples", str::parse)?.unwrap_or(vec![10]),
        )
    };
    let mut faults = FaultPlan::none();
    for spec in args.all("--inject").flat_map(|v| v.split(',')) {
        let (cell, kind) = parse_fault_spec(spec.trim())?;
        faults = faults.inject(cell, kind);
    }
    let cache_dir = match args.last_of(&["--cache", "--no-cache"]) {
        Some("--no-cache") => None,
        _ => Some(
            args.path("--cache")
                .unwrap_or_else(|| out_dir().join("sweep-cache")),
        ),
    };
    let append = args.get("--append", 0)?;
    let n_bench = at_least_one(args, "--benchmarks", pv_sysmodel::roster().len())?;
    let shard_size = at_least_one(args, "--shard-size", 256)?;
    let (reverse, progress) = (args.has("--reverse"), args.has("--progress"));
    if grid.is_degenerate() {
        return Err(usage("the grid has an empty axis"));
    }
    // A fault that can never fire would let a drill pass untested.
    let n_cells = grid.few_runs_cells().len();
    for f in faults.faults() {
        if f.cell >= n_cells {
            return Err(usage(format!(
                "--inject {}@{}: the grid has {n_cells} cell(s), numbered from 0",
                f.kind.name(),
                f.cell
            )));
        }
        if f.kind == FaultKind::CacheCorruption && cache_dir.is_none() {
            return Err(usage(format!(
                "--inject corrupt@{}: --no-cache writes no cell file to corrupt",
                f.cell
            )));
        }
    }
    if append > 0 && cache_dir.is_none() {
        return Err(usage("--append needs the cell cache (drop --no-cache)"));
    }
    if append > 0 && append >= n_bench {
        return Err(usage(format!(
            "--append {append} leaves no base corpus ({n_bench} benchmarks)"
        )));
    }
    let started = Instant::now();
    let collector = args.install_obs();
    println!("perfvar sweep service — use case {uc}, {runs} runs/benchmark");
    if !faults.is_empty() {
        silence_injected_panics();
        println!(
            "[inject] {} deterministic fault(s) armed: {}",
            faults.faults().len(),
            faults
                .faults()
                .iter()
                .map(|f| format!("{}@{}", f.kind.name(), f.cell))
                .collect::<Vec<_>>()
                .join(", "),
        );
    }

    let cache = cache_dir.as_ref().map(CellCache::new);

    // The sharded data plane: generate and encode the campaign one
    // benchmark-range shard at a time, never materializing a whole
    // corpus, with an LRU-bounded resident set. At the default shard
    // size the Table I roster is a single shard; cells are identical
    // (and cache-compatible) at every shard size. Shards spill with or
    // without a cell cache: without a spill file, every LRU fault would
    // regenerate and re-encode its range.
    let spill_dir = cache_dir
        .clone()
        .unwrap_or_else(out_dir)
        .join("shard-spill");
    let campaign = |system: SystemModel, n: usize| CampaignSource {
        system,
        n_benchmarks: n,
        n_runs: runs,
        seed: CAMPAIGN_SEED,
    };
    let build_sharded = |what: &str, source: CampaignSource, spec: &EncodingSpec| {
        let t = Instant::now();
        let sh = ShardedCorpus::builder(ShardSource::Campaign(source), spec)
            .shard_size(shard_size)
            .spill_dir(&spill_dir)
            .build()
            .unwrap_or_else(|e| {
                eprintln!("sweep: cannot build sharded {what} corpus: {e}");
                std::process::exit(1);
            });
        println!(
            "[setup] {what} campaign sharded in {:.1?} ({} benchmarks, {} shard(s) of ≤{shard_size}, {} resident)",
            t.elapsed(),
            sh.len(),
            sh.layout().n_shards(),
            sh.resident_budget(),
        );
        sh
    };
    let run_pass = |n: usize, faults: FaultPlan| -> SweepReport {
        let (primary, src, dst);
        let sweep = if uc == 1 {
            let spec = grid.few_runs_encoding();
            primary = build_sharded("primary", campaign(SystemModel::intel(), n), &spec);
            Sweep::few_runs(&primary)
        } else {
            let (src_sys, dst_sys) = if reverse {
                (SystemModel::intel(), SystemModel::amd())
            } else {
                (SystemModel::amd(), SystemModel::intel())
            };
            let (src_spec, dst_spec) = grid.cross_system_encoding_for_runs(runs);
            src = build_sharded("source", campaign(src_sys, n), &src_spec);
            dst = build_sharded("destination", campaign(dst_sys, n), &dst_spec);
            Sweep::cross_system(&src, &dst)
        };
        let sweep = sweep.with_faults(faults);
        let sweep = match cache.clone() {
            Some(c) => sweep.with_cache(c),
            None => sweep,
        };
        run_sweep_streaming(&sweep, &grid, progress)
    };
    if append > 0 {
        println!(
            "[append] phase 1/2: base campaign, {} of {n_bench} benchmarks",
            n_bench - append
        );
        let seeded = run_pass(n_bench - append, FaultPlan::none());
        println!(
            "[append] fold cache seeded: {} fold(s) scored across {} cell(s)",
            seeded.fold_stats.misses + seeded.fold_stats.deltas,
            seeded.misses,
        );
        println!("[append] phase 2/2: full campaign, +{append} benchmark(s)");
    }
    let report = run_pass(n_bench, faults);

    // Summary table in grid order (healthy cells) + CSV.
    println!();
    let rows: Vec<(String, &EvalSummary)> = report
        .cells
        .iter()
        .filter_map(|c| c.summary().map(|s| (c.config.label(), s)))
        .collect();
    if !rows.is_empty() {
        println!("{}", summary_table(&rows).expect("table"));
    }
    let scored: Vec<_> = report
        .cells
        .iter()
        .filter(|c| c.summary().is_some())
        .collect();
    let csv_rows: Vec<Vec<f64>> = scored
        .iter()
        .map(|c| {
            let s = c.summary().expect("scored cell");
            vec![
                c.config.sample_count() as f64,
                c.config.seed() as f64,
                s.mean,
                s.spread.median,
                s.spread.q1,
                s.spread.q3,
                if c.from_cache { 1.0 } else { 0.0 },
            ]
        })
        .collect();
    let labels: Vec<String> = scored
        .iter()
        .map(|c| c.config.label().replace(' ', "_"))
        .collect();
    write_csv(
        &out_dir().join("sweep.csv"),
        &[
            "cell",
            "samples",
            "seed",
            "mean",
            "median",
            "q1",
            "q3",
            "from_cache",
        ],
        &csv_rows,
        Some(&labels),
    )
    .expect("csv");
    match &cache {
        Some(c) => println!(
            "cache: {} hits, {} misses — {} ({} entries, fingerprint {:016x})",
            report.hits,
            report.misses,
            c.dir().display(),
            c.entries(),
            report.fingerprint,
        ),
        None => println!(
            "cache: disabled — {} cells computed (fingerprint {:016x})",
            report.misses, report.fingerprint,
        ),
    }
    let f = &report.fold_stats;
    if f.total() > 0 {
        println!(
            "fold cache: {} exact hit(s), {} delta-verified, {} recomputed",
            f.hits, f.deltas, f.misses,
        );
    }
    let ok = print_failure_summary(&report, cache.as_ref());
    println!("total: {:.1?}", started.elapsed());
    // Finalize obs before any failure exit so traces of the failing run
    // are exactly the ones worth inspecting.
    args.finalize_obs(collector, pv_core::sweep::SWEEP_OBS_COUNTERS);
    if !ok && !args.has("--keep-going") {
        eprintln!("sweep: failing cells present (re-run with --keep-going to tolerate them)");
        std::process::exit(1);
    }
    Ok(())
}

/// Renders the failure summary table; returns true when the run is clean.
/// With a cache, a failed or skipped cell's row names the cell file to
/// delete to retry it.
fn print_failure_summary(report: &SweepReport, cache: Option<&CellCache>) -> bool {
    if report.store_failures > 0 {
        eprintln!(
            "warning: {} cache write(s) failed; those cells will recompute next run",
            report.store_failures
        );
    }
    if report.is_clean() {
        return true;
    }
    println!(
        "failure summary: {} failed, {} quarantined",
        report.failed, report.quarantined
    );
    println!("  {:<6} {:<42} DETAIL", "STATUS", "CELL");
    for cell in &report.cells {
        let (status, detail) = match &cell.outcome {
            CellOutcome::Ok { .. } => continue,
            CellOutcome::Failed { error } => ("FAIL", format!("[{}] {error}", error.kind())),
            CellOutcome::Quarantined { error } => {
                ("QUAR", format!("skipped, previously failed: {error}"))
            }
        };
        let retry = match cache.map(|c| c.entry_path(report.fingerprint, &cell.config)) {
            Some(Ok(path)) => format!(" (delete {} to retry)", path.display()),
            _ => String::new(),
        };
        println!(
            "  {:<6} {:<42} {detail}{retry}",
            status,
            cell.config.label()
        );
    }
    false
}

/// Minimum spacing between `--progress` stderr lines.
const PROGRESS_EVERY: Duration = Duration::from_millis(250);

/// Runs the sweep, printing one line per cell the moment it completes.
/// With `progress` set, a rate-limited status line (completed/total, hit
/// rate, failures, ETA) also goes to stderr.
fn run_sweep_streaming(sweep: &Sweep<'_, '_>, grid: &GridSpec, progress: bool) -> SweepReport {
    let n_cells = sweep.cells(grid).len();
    let done = AtomicUsize::new(0);
    let hits = AtomicUsize::new(0);
    let failed = AtomicUsize::new(0);
    let started = Instant::now();
    let last_line = std::sync::Mutex::new(Instant::now());
    let result = sweep.run_streaming(grid, |cell| {
        let k = done.fetch_add(1, Ordering::Relaxed) + 1;
        if cell.from_cache {
            hits.fetch_add(1, Ordering::Relaxed);
        }
        if !cell.outcome.is_ok() {
            failed.fetch_add(1, Ordering::Relaxed);
        }
        let provenance = if cell.from_cache {
            "cache hit"
        } else {
            "computed"
        };
        let line = match &cell.outcome {
            CellOutcome::Ok { summary } => {
                format!("mean KS {:.3}  ({provenance})", summary.mean)
            }
            CellOutcome::Failed { error } => format!("FAILED: [{}]", error.kind()),
            CellOutcome::Quarantined { .. } => "quarantined (skipped)".to_string(),
        };
        println!("  [{k:>3}/{n_cells}] {:<42} {line}", cell.config.label());
        if progress {
            let mut last = last_line
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if last.elapsed() >= PROGRESS_EVERY || k == n_cells {
                *last = Instant::now();
                drop(last);
                let elapsed = started.elapsed();
                let eta = elapsed.mul_f64((n_cells - k) as f64 / k as f64);
                eprintln!(
                    "[progress] {k}/{n_cells} cells, {:.0}% hit, {} failed, ETA {:.1?}",
                    100.0 * hits.load(Ordering::Relaxed) as f64 / k as f64,
                    failed.load(Ordering::Relaxed),
                    eta,
                );
            }
        }
    });
    match result {
        Ok(report) => report,
        Err(PvError::CacheIo { what, detail }) => {
            eprintln!("sweep: cache unavailable ({what}: {detail})");
            eprintln!("sweep: another run may hold the lock; retry or use --no-cache");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("sweep: {e}");
            std::process::exit(1);
        }
    }
}

// ---------------------------------------------------------------------
// shared helpers

/// Natural axis for a relative-time sample: data range padded 10%.
fn axis(xs: &[f64]) -> (f64, f64) {
    let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let pad = 0.1 * (hi - lo).max(1e-3);
    (lo - pad, hi + pad)
}

fn axis_pair(a: &[f64], b: &[f64]) -> (f64, f64) {
    let (l1, h1) = axis(a);
    let (l2, h2) = axis(b);
    (l1.min(l2), h1.max(h2))
}

/// Figs. 5 and 9: orders the benchmarks by their LOGO KS in `summary`,
/// then overlays the true and predicted distributions of eight of them
/// at KS quantiles and writes them to `<stem>.csv`. `predict(bi)`
/// returns benchmark `bi`'s truth and its leave-it-out prediction.
fn overlays(
    summary: &EvalSummary,
    stem: &str,
    truth_tag: &str,
    predict: impl Fn(usize) -> (Vec<f64>, Vec<f64>),
) {
    let mut order: Vec<usize> = (0..summary.scores.len()).collect();
    order.sort_by(|&a, &b| {
        summary.scores[a]
            .ks
            .partial_cmp(&summary.scores[b].ks)
            .expect("finite")
    });
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for bi in (0..8).map(|i| order[i * (order.len() - 1) / 7]) {
        let (truth, predicted) = predict(bi);
        let (name, ks) = (intel().benchmarks[bi].id.qualified(), summary.scores[bi].ks);
        let (lo, hi) = axis_pair(&truth, &predicted);
        println!("  {name} (KS = {ks:.3})");
        print!(
            "{}",
            overlay(&truth, &predicted, lo, hi, 64).expect("overlay")
        );
        for (tag, xs) in [(truth_tag, &truth), ("predicted", &predicted)] {
            labels.push(format!("{name}:{tag}"));
            let mut row = vec![ks, lo, hi];
            row.extend(kde_curve(xs, lo, hi, 64).expect("kde"));
            rows.push(row);
        }
    }
    write_csv(
        &out_dir().join(format!("{stem}.csv")),
        &["series", "ks", "axis_lo", "axis_hi", "density_curve"],
        &rows,
        Some(&labels),
    )
    .expect("csv");
    println!();
}

/// Runs the campaign grid `reprs` × `models` × `samples` through
/// `sweep` with no cell cache, returning each cell's summary in grid
/// order. A cell that fails is fatal: an exhibit never leaves one out.
fn run_grid(
    sweep: Sweep<'_, '_>,
    reprs: &[ReprKind],
    models: &[ModelKind],
    samples: &[usize],
) -> Vec<(CellConfig, EvalSummary)> {
    let report = sweep
        .run(&campaign_grid(reprs, models, samples))
        .expect("a sweep without a cache takes no lock");
    let clean = |cell: CellResult| match cell.outcome {
        CellOutcome::Ok { summary } => (cell.config, summary),
        CellOutcome::Failed { error } => {
            eprintln!(
                "repro: cell {}: [{}] {error}",
                cell.config.label(),
                error.kind()
            );
            std::process::exit(1);
        }
        CellOutcome::Quarantined { .. } => {
            unreachable!("a sweep without a cache quarantines nothing")
        }
    };
    report.cells.into_iter().map(clean).collect()
}

/// The PearsonRnd + kNN cell at `samples` profile runs, which the
/// overlay and direction exhibits show.
fn pearson_knn(sweep: Sweep<'_, '_>, samples: usize) -> EvalSummary {
    let mut cells = run_grid(
        sweep,
        &[ReprKind::PearsonRnd],
        &[ModelKind::Knn],
        &[samples],
    );
    cells.remove(0).1
}

/// Renders a representation × model grid: one stderr line per cell, the
/// summary table, `<stem>.csv`, and the best cell.
fn render_grid(cells: &[(CellConfig, EvalSummary)], stem: &str) {
    let rows: Vec<(String, &EvalSummary)> = cells
        .iter()
        .map(|(cell, s)| {
            let (repr, model) = (cell.repr().name(), cell.model().name());
            eprintln!("  [{repr} × {model}] mean KS {:.3}", s.mean);
            (format!("{repr} + {model}"), s)
        })
        .collect();
    println!("{}", summary_table(&rows).expect("table"));
    let csv_rows: Vec<Vec<f64>> = rows
        .iter()
        .map(|(_, s)| {
            let mut r = vec![s.mean, s.spread.median, s.spread.q1, s.spread.q3];
            r.extend(s.ks_values());
            r
        })
        .collect();
    let labels: Vec<String> = rows.iter().map(|(l, _)| l.replace(' ', "")).collect();
    write_csv(
        &out_dir().join(format!("{stem}.csv")),
        &["config", "mean", "median", "q1", "q3", "per_benchmark_ks"],
        &csv_rows,
        Some(&labels),
    )
    .expect("csv");
    let (best, s) = rows
        .iter()
        .min_by(|a, b| a.1.mean.total_cmp(&b.1.mean))
        .expect("non-empty");
    println!("  best cell: {best} (mean KS {:.3})\n", s.mean);
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|t| t.to_string()).collect()
    }

    /// The `--flags` a help text names, without the shared obs flags and
    /// `--help`, sorted.
    fn documented_flags(help: &str) -> Vec<&str> {
        let shared = ["--trace-out", "--metrics-out", "--obs-summary", "--help"];
        let mut flags: Vec<&str> = help
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|w| w.starts_with("--") && w.len() > 2 && !shared.contains(w))
            .collect();
        flags.sort_unstable();
        flags.dedup();
        flags
    }

    #[test]
    fn every_command_accepts_exactly_the_flags_its_help_names() {
        for cmd in [&REPRO, &SWEEP, &TRAIN, &LOAD_GEN, &OBS_CHECK] {
            let flags = cmd.values.split_whitespace();
            let mut table: Vec<&str> = flags.chain(cmd.switches.split_whitespace()).collect();
            table.sort_unstable();
            assert_eq!(documented_flags(cmd.help), table, "{}", cmd.name);
        }
    }

    #[test]
    fn the_exhibit_path_takes_exactly_the_exhibit_names() {
        // Rejected before any exhibit runs.
        for (bad, culprit) in [
            (&["fig44"][..], "fig44"),
            (&["fig4", "Fig6"], "Fig6"),
            (&["all", "sweep2"], "sweep2"),
            (&["fig4", "--uc", "2"], "--uc"),
        ] {
            match REPRO.parse(&argv(bad)).and_then(|a| exhibits_cmd(&a)) {
                Err(CliError::Usage(msg)) => assert!(msg.contains(culprit), "{msg}"),
                other => panic!("{bad:?}: expected a usage error, got {other:?}"),
            }
        }
        assert_eq!(
            REPRO.parse(&argv(&["fig4", "-h"])).unwrap_err(),
            CliError::Help
        );
        for (name, _) in EXHIBITS {
            assert!(REPRO.help.contains(name), "{name} missing from the help");
        }
        assert!(REPRO.help.contains("all,"));
    }

    #[test]
    fn sweep_flags_keep_their_rules() {
        let args = SWEEP
            .parse(&argv(&["--reprs", "ALL", "--models", "knn, RF"]))
            .unwrap();
        let reprs = grid_axis(&args, "--reprs", &ReprKind::ALL, vec![]).unwrap();
        assert_eq!(reprs, ReprKind::ALL);
        let models = grid_axis(&args, "--models", &ModelKind::ALL, vec![]).unwrap();
        assert_eq!(models, [ModelKind::Knn, ModelKind::RandomForest]);
        let seeds = grid_axis(&args, "--seeds", &[], vec![7u64]).unwrap();
        assert_eq!(seeds, [7], "an absent axis takes its default");
        assert_eq!(parse_seed("10"), Ok(10));
        assert_eq!(parse_seed("0x10"), Ok(16));
        assert_eq!(parse_seed("0X20"), Ok(32));
        assert_eq!(
            parse_fault_spec("nonconv@3"),
            Ok((3, FaultKind::NonConvergence))
        );
        assert_eq!(parse_fault_spec("panic@0"), Ok((0, FaultKind::Panic)));
        // Every rule below rejects the line before the sweep does anything.
        // `--inject` accumulates, so a bad early spec is still an error.
        for bad in [
            &["--uc", "3"][..],
            &["--benchmarks", "0"],
            &["--shard-size", "0"],
            &["--append", "60"],
            &["--append", "1", "--no-cache"],
            &["--inject", "panic"],
            &["--inject", "panic@0:1"],
            &["--max-retries", "2"],
            &["--inject", "nan@x", "--inject", "panic@0"],
            &["--inject", "panic@9"],
            &["--models", "kNN", "--inject", "nan@3"],
            &["--inject", "corrupt@0", "--no-cache"],
            &["--seeds", "0xZZ"],
            &["--samples", "5,,10"],
        ] {
            let result = SWEEP.parse(&argv(bad)).and_then(|a| sweep_cmd(&a));
            assert!(
                matches!(result, Err(CliError::Usage(_))),
                "{bad:?} must be a usage error"
            );
        }
        assert!(SWEEP.parse(&argv(&["extra"])).is_err());
    }
}
