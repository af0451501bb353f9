//! `paper_pipeline`: the June-2006 synthesis followed by the nine
//! paper experiments of `digg_bench::registry::REGISTRY`, with every
//! artifact serialized and written.
//!
//! The untraced pass calls `synthesize` as users do. The traced pass
//! runs the same synthesis phase by phase (population, `Sim::new`,
//! `Sim::run` to the scrape condition, `scrape_stories`,
//! `scrape_network`, saturation, `augment_final_votes`) so every layer
//! gets its own span, and must reproduce the untraced dataset and
//! artifacts byte for byte. After the pipeline the traced pass also
//! times the layers the experiments use internally: a story sweep over
//! every scraped record, C4.5 training and cross-validation, and one
//! snapshot/restore of the finished simulation.

use crate::measure::{digest, Fnv, Outcome};
use crate::trace::{Tracer, Unit};
use crate::{layer_sim_metrics, layer_sweep_metrics, Args, SweepTally};
use digg_bench::registry::{Artifact, Runner, REGISTRY};
use digg_bench::timing::stopwatch;
use digg_core::experiments::{fig4::Fig4Result, fig5::Fig5Result, prediction::PredictionResult};
use digg_core::features::INTERESTINGNESS_THRESHOLD;
use digg_core::incremental::IncrementalSweep;
use digg_core::predictor::InterestingnessPredictor;
use digg_data::model::DiggDataset;
use digg_data::scrape::{augment_final_votes, scrape_network, scrape_stories};
use digg_data::synth::{synthesize, SynthConfig, Synthesis};
use digg_ml::c45::C45Params;
use digg_sim::scenario;
use digg_sim::time::DAY;
use digg_sim::{Population, Sim};
use digg_snapshot::{Restore, Snapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Deserialize;
use std::path::Path;

/// Salts `synthesize` mixes into the seed for the population and the
/// scraper; the phase-by-phase pass must use the same ones.
const POPULATION_SALT: u64 = 0x9E37_79B9;
const SCRAPER_SALT: u64 = 0x5C4A_9E11;
/// Set-up repetitions; the median is reported.
const SETUP_REPS: usize = 11;
/// Cross-validation seed the fig5 experiment uses.
const CV_SEED: u64 = 0x1e12;

/// What one pass produced, for the equality checks.
struct PassResult {
    dataset_digest: u64,
    artifact_digest: u64,
    artifacts: u64,
    failed: u64,
    emitted_bytes: u64,
    events: u64,
    votes: u64,
    minutes: u64,
}

/// Set-up: build and fingerprint the input population the synthesis
/// will generate, so each pass can be checked to have run on it.
fn setup(seed: u64) -> u64 {
    scenario::june2006_population(seed ^ POPULATION_SALT).fingerprint()
}

pub fn run(args: &Args, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let (fingerprint, setup_s) = crate::repeat_setup(SETUP_REPS, || {
        let f = setup(args.seed);
        Ok((f, f))
    });
    out.setup_s = setup_s;
    let fingerprint = match fingerprint {
        Ok(f) => f,
        Err(e) => {
            out.error(e);
            return out;
        }
    };
    let results = work.join("results");
    let cfg = SynthConfig::june2006(args.seed);
    let mut reference: Option<PassResult> = None;
    let clock = stopwatch();
    while out.pass_s.is_empty() || clock.elapsed().as_secs_f64() < args.seconds {
        let sw = stopwatch();
        let syn = synthesize(&cfg);
        let (artifacts, failed, emitted) =
            experiments_and_emit(&syn, &results, &mut Tracer::new(false));
        out.pass_s.push(sw.elapsed().as_secs_f64());
        let result = check_pass(&syn, fingerprint, &artifacts, failed, emitted, &mut out);
        drop(syn);
        match &reference {
            Some(r) => compare("repeated", r, &result, &mut out),
            None => {
                out.count("pipeline.artifacts", result.artifacts);
                out.count("emit.bytes", result.emitted_bytes);
                out.count("sim.events", result.events);
                out.votes = result.votes;
                out.exact("pipeline.dataset_digest", result.dataset_digest);
                out.exact("pipeline.artifact_digest", result.artifact_digest);
                out.summary("simulated_days", result.minutes as f64 / DAY as f64, "days");
                reference = Some(result);
            }
        }
    }
    let pipeline_s = crate::measure::median(&out.pass_s);
    out.summary("pipeline_s", pipeline_s, "s");
    if args.trace {
        if let Some(r) = &reference {
            let (traced, seconds) = traced_pass(args.seed, &cfg, &results, &mut out);
            compare("traced", r, &traced, &mut out);
            // The last untraced pass ran warm, like the traced one.
            let warm = out.pass_s.last().copied().unwrap_or(f64::NAN);
            out.layer("trace.overhead_ms", (seconds - warm) * 1e3, "ms");
        }
    }
    out
}

/// Run the nine synthesis-backed experiments and write their
/// artifacts. Returns the artifacts, the number of runners that
/// produced none, and the bytes written.
fn experiments_and_emit(
    syn: &Synthesis,
    dir: &Path,
    tracer: &mut Tracer,
) -> (Vec<Artifact>, u64, u64) {
    let mut artifacts = Vec::new();
    let mut empty_runners = 0u64;
    for spec in REGISTRY {
        if let Runner::Synth { run, .. } = spec.runner {
            let produced = tracer.span(
                experiment_span(spec.name),
                Unit::Artifact(spec.name.to_string()),
                |_| run(syn),
            );
            if produced.is_empty() {
                empty_runners += 1;
            }
            artifacts.extend(produced);
        }
    }
    let mut bytes = 0u64;
    for a in &artifacts {
        bytes += tracer.span("emit.write", Unit::Artifact(a.name.clone()), |_| {
            emit(dir, a)
        });
    }
    (artifacts, empty_runners, bytes)
}

/// Serialize one artifact as `<name>.json` and `<name>.txt`; returns
/// the bytes written (0 on a write error, which the digest check then
/// catches).
fn emit(dir: &Path, a: &Artifact) -> u64 {
    let json = serde_json::to_vec_pretty(&a.payload).unwrap_or_default();
    let ok = std::fs::create_dir_all(dir).is_ok()
        && digg_bench::write_atomic(&dir.join(format!("{}.json", a.name)), &json).is_ok()
        && digg_bench::write_atomic(&dir.join(format!("{}.txt", a.name)), a.rendered.as_bytes())
            .is_ok();
    if ok {
        (json.len() + a.rendered.len()) as u64
    } else {
        0
    }
}

/// Span names must be `'static`; one per registry experiment.
fn experiment_span(name: &str) -> &'static str {
    match name {
        "fig1" => "experiments.fig1",
        "fig2" => "experiments.fig2",
        "fig3" => "experiments.fig3",
        "fig4" => "experiments.fig4",
        "fig5" => "experiments.fig5",
        "prediction" => "experiments.prediction",
        "scatter" => "experiments.scatter",
        "intext" => "experiments.intext",
        "decay" => "experiments.decay",
        _ => "experiments.other",
    }
}

/// Check every artifact of one pass (structural checks count as
/// failures, paper-shape claims as misses) and digest the pass.
fn check_pass(
    syn: &Synthesis,
    fingerprint: u64,
    artifacts: &[Artifact],
    empty_runners: u64,
    emitted: u64,
    out: &mut Outcome,
) -> PassResult {
    if syn.sim.population().fingerprint() != fingerprint {
        out.error("synthesis ran on a population other than the set-up one".to_string());
    }
    let mut failed = empty_runners;
    let mut h = Fnv::default();
    for a in artifacts {
        if let Err(e) = structural_check(a) {
            eprintln!("[perfbench] artifact {} failed its check: {e}", a.name);
            failed += 1;
        }
        if let Some(claim) = shape_claim(a) {
            out.shape_claims += 1;
            if let Err(e) = claim {
                eprintln!(
                    "[perfbench] artifact {} misses its paper-shape claim: {e}",
                    a.name
                );
                out.shape_misses += 1;
            }
        }
        h.bytes(a.name.as_bytes());
        h.bytes(&serde_json::to_vec_pretty(&a.payload).unwrap_or_default());
        h.bytes(a.rendered.as_bytes());
    }
    out.attempted += artifacts.len() as u64 + empty_runners;
    out.failed += failed;
    PassResult {
        dataset_digest: dataset_digest(&syn.dataset),
        artifact_digest: h.finish(),
        artifacts: artifacts.len() as u64,
        failed,
        emitted_bytes: emitted,
        events: syn.sim.events_fired(),
        votes: syn.sim.metrics().total_votes(),
        minutes: syn.sim.now().0,
    }
}

fn dataset_digest(ds: &DiggDataset) -> u64 {
    digest(serde_json::to_string(ds).unwrap_or_default().as_bytes())
}

/// Structural checks every artifact must pass: it reports no
/// violations (the in-text statistics include the 43/42 promotion
/// boundary) and its payload parses back into its result type.
fn structural_check(a: &Artifact) -> Result<(), String> {
    if !a.ok {
        return Err("the artifact reports violations".to_string());
    }
    match a.name.as_str() {
        "fig5" => Fig5Result::from_value(&a.payload).map(|_| ()),
        "prediction" => PredictionResult::from_value(&a.payload).map(|_| ()),
        "fig4" => Fig4Result::from_value(&a.payload).map(|_| ()),
        _ => Ok(()),
    }
    .map_err(|e| e.to_string())
}

/// The ROADMAP's statistical paper-shape claims: fig5 cross-validation
/// above the majority baseline, holdout classifier precision above the
/// promoter's, and a negative v10-vs-final-votes Spearman in fig4.
/// They hold on the development seed but not on every seed, so a miss
/// is reported beside the error rate instead of failing the artifact.
fn shape_claim(a: &Artifact) -> Option<Result<(), String>> {
    let check = match a.name.as_str() {
        "fig5" => Fig5Result::from_value(&a.payload).map(|r| {
            let majority = r.positives.max(r.training_stories - r.positives) as f64
                / r.training_stories.max(1) as f64;
            if r.cv_accuracy() > majority {
                Ok(())
            } else {
                Err(format!(
                    "CV accuracy {:.3} <= majority {majority:.3}",
                    r.cv_accuracy()
                ))
            }
        }),
        "prediction" => {
            PredictionResult::from_value(&a.payload).map(|r| match r.classifier_beats_digg() {
                Some(true) => Ok(()),
                other => Err(format!("classifier beats promoter: {other:?}")),
            })
        }
        "fig4" => Fig4Result::from_value(&a.payload).map(|r| {
            match r
                .panels
                .iter()
                .find(|p| p.window == 10)
                .and_then(|p| p.spearman)
            {
                Some(rho) if rho < 0.0 => Ok(()),
                other => Err(format!(
                    "v10 vs final-vote spearman {other:?} is not negative"
                )),
            }
        }),
        _ => return None,
    };
    Some(check.unwrap_or_else(|e| Err(e.to_string())))
}

fn compare(what: &str, a: &PassResult, b: &PassResult, out: &mut Outcome) {
    let pairs = [
        ("dataset digest", a.dataset_digest, b.dataset_digest),
        ("artifact digest", a.artifact_digest, b.artifact_digest),
        ("artifact count", a.artifacts, b.artifacts),
        ("failed artifacts", a.failed, b.failed),
        ("emitted bytes", a.emitted_bytes, b.emitted_bytes),
        ("simulator events", a.events, b.events),
        ("simulated votes", a.votes, b.votes),
    ];
    for (name, x, y) in pairs {
        if x != y {
            out.error(format!("{what} pass differs in {name}: {x:#x} vs {y:#x}"));
        }
    }
}

/// The phase-by-phase synthesis under spans, then the experiments and
/// emit, then the internal layers. Returns the pass digests and the
/// traced pipeline wall time (synthesis through emit), seconds.
fn traced_pass(seed: u64, cfg: &SynthConfig, dir: &Path, out: &mut Outcome) -> (PassResult, f64) {
    let mut t = Tracer::new(true);
    let sw = stopwatch();
    let syn = t.span("pipeline.synthesize", Unit::Run, |t| {
        synthesize_phases(seed, cfg, t)
    });
    let (artifacts, empty, emitted) = experiments_and_emit(&syn, dir, &mut t);
    let seconds = sw.elapsed().as_secs_f64();

    let mut tally = SweepTally::default();
    let mut incr = IncrementalSweep::new(&syn.dataset.network);
    for r in syn.dataset.all_records() {
        t.span("sweep.apply", Unit::Story(r.story.index()), |_| {
            tally.replay(&mut incr, &syn.dataset.network, &r.voters)
        });
    }
    let ds = &syn.dataset;
    let params = C45Params::default();
    let trained = t.span("c45.train", Unit::Run, |_| {
        InterestingnessPredictor::train(
            &ds.front_page,
            &ds.network,
            INTERESTINGNESS_THRESHOLD,
            &params,
        )
    });
    let cv = t.span("c45.cv", Unit::Run, |_| {
        InterestingnessPredictor::cross_validate(
            &ds.front_page,
            &ds.network,
            INTERESTINGNESS_THRESHOLD,
            &params,
            10,
            CV_SEED,
        )
    });
    if trained.is_none() || cv.is_none() {
        out.error("C4.5 training or cross-validation found no trainable stories".to_string());
    }
    snapshot_roundtrip(&syn.sim, &mut t, out);

    let mut scratch = Outcome::default();
    let result = check_pass(
        &syn,
        syn.sim.population().fingerprint(),
        &artifacts,
        empty,
        emitted,
        &mut scratch,
    );
    for e in scratch.errors {
        out.error(e);
    }
    layer_sim_metrics(out, &t, &syn.sim);
    layer_sweep_metrics(out, &t, &tally);
    out.layer("population.build_ms", t.total_ms("population.build"), "ms");
    out.layer("scrape.stories_ms", t.total_ms("scrape.stories"), "ms");
    out.layer("scrape.network_ms", t.total_ms("scrape.network"), "ms");
    out.layer("augment.ms", t.total_ms("augment.final_votes"), "ms");
    for spec in REGISTRY {
        if let Runner::Synth { .. } = spec.runner {
            let span = experiment_span(spec.name);
            out.layer(&format!("{span}_ms"), t.total_ms(span), "ms");
        }
    }
    out.layer("c45.train_ms", t.total_ms("c45.train"), "ms");
    out.layer("c45.cv_ms", t.total_ms("c45.cv"), "ms");
    out.layer("emit.ms", t.total_ms("emit.write"), "ms");
    crate::layer_self_times(out, &t);
    t.write_jsonl(0, &mut out.spans_jsonl);
    (result, seconds)
}

/// `synthesize_with` for the June-2006 scenario, one span per layer
/// call.
fn synthesize_phases(seed: u64, cfg: &SynthConfig, t: &mut Tracer) -> Synthesis {
    let pop: Population = t.span("population.build", Unit::Run, |_| {
        scenario::june2006_population(seed ^ POPULATION_SALT)
    });
    let mut sim = t.span("sim.new", Unit::Run, |_| {
        Sim::new(scenario::june2006(seed), pop)
    });
    t.span("sim.run", Unit::Run, |_| sim.run(cfg.min_scrape_days * DAY));
    while (sim.metrics().promotions as usize) < cfg.min_promotions && sim.now().0 < cfg.max_minutes
    {
        t.span("sim.run", Unit::Run, |_| sim.run(60));
    }
    let (front_page, upcoming) = t.span("scrape.stories", Unit::Run, |_| {
        scrape_stories(&sim, &cfg.scrape)
    });
    let (network, excess, top_users) = t.span("scrape.network", Unit::Run, |_| {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ SCRAPER_SALT);
        let (network, excess) = scrape_network(&sim, &cfg.scrape, &mut rng);
        let top: Vec<_> = network
            .users_by_fans_desc()
            .into_iter()
            .take(cfg.scrape.top_users)
            .collect();
        (network, excess, top)
    });
    let mut dataset = DiggDataset {
        scraped_at: sim.now(),
        front_page,
        upcoming,
        network,
        top_users,
    };
    t.span("sim.run", Unit::Run, |_| sim.run(cfg.saturation_days * DAY));
    t.span("augment.final_votes", Unit::Run, |_| {
        augment_final_votes(&sim, &mut dataset.front_page);
        augment_final_votes(&sim, &mut dataset.upcoming);
    });
    Synthesis {
        dataset,
        sim,
        network_excess_links: excess,
    }
}

/// Encode the simulation, restore it against its population, and check
/// the restored state agrees. Records the snapshot layer metrics.
pub fn snapshot_roundtrip(sim: &Sim, t: &mut Tracer, out: &mut Outcome) {
    let bytes = t.span("snapshot.encode", Unit::Run, |_| sim.snapshot());
    let pop = sim.population().clone();
    let restored = t.span("snapshot.restore", Unit::Run, |_| Sim::restore(&bytes, pop));
    match restored {
        Ok(r) if r.metrics() == sim.metrics() && r.stories().len() == sim.stories().len() => {}
        Ok(_) => out.error("restored simulation disagrees with the snapshotted one".to_string()),
        Err(e) => out.error(format!("snapshot restore failed: {e}")),
    }
    out.layer("snapshot.encode_ms", t.total_ms("snapshot.encode"), "ms");
    out.layer("snapshot.restore_ms", t.total_ms("snapshot.restore"), "ms");
    out.count("snapshot.bytes", bytes.len() as u64);
    out.count("snapshot.checkpoints", 1);
}
