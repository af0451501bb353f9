//! Quickstart: simulate a small Digg, scrape it, and predict story
//! interestingness from the first ten votes.
//!
//! ```sh
//! cargo run --release --example quickstart [seed]
//! ```
//!
//! This walks the full pipeline of the reproduction in miniature:
//!
//! 1. generate a heavy-tailed user population with a fan graph;
//! 2. run the platform simulator (queue → promotion → front page);
//! 3. scrape it with the paper's fidelity limits;
//! 4. extract `(v10, fans1)` features and train the C4.5 tree;
//! 5. predict on fresh stories and compare with their actual outcome.

use digg_core::features::INTERESTINGNESS_THRESHOLD;
use digg_core::pipeline::{run_pipeline, PipelineConfig};
use digg_data::scrape::ScrapeConfig;
use digg_data::synth::{synthesize_small, SynthConfig};
use digg_sim::time::DAY;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    println!("== 1-3. simulate + scrape (reduced-scale June-2006 scenario) ==");
    let cfg = SynthConfig {
        seed,
        scrape: ScrapeConfig {
            front_page_stories: 80,
            upcoming_stories: 300,
            top_users: 300,
            ..ScrapeConfig::default()
        },
        min_promotions: 80,
        min_scrape_days: 2,
        saturation_days: 3,
        max_minutes: 30 * DAY,
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "progress timing printed to the console, never an artifact"
    )]
    let t0 = std::time::Instant::now();
    let synthesis = synthesize_small(&cfg);
    let ds = &synthesis.dataset;
    println!(
        "   simulated {} days in {:.1?}; scraped {} front-page + {} upcoming stories, {} users, {} watch edges",
        synthesis.sim.now().as_days().round(),
        t0.elapsed(),
        ds.front_page.len(),
        ds.upcoming.len(),
        ds.network.user_count(),
        ds.network.edge_count(),
    );

    println!("\n== 4. train the early-vote predictor ==");
    let pipeline_cfg = PipelineConfig {
        top_user_rank: 300,
        ..PipelineConfig::default()
    };
    let sim = &synthesis.sim;
    let Some(result) = run_pipeline(ds, &pipeline_cfg, &|r| sim.story(r.story).is_front_page())
    else {
        println!("   not enough data at this scale; try another seed");
        return;
    };
    println!(
        "   trained on {} stories; 10-fold CV {}/{} correct",
        result.training_stories,
        result.cv_correct,
        result.cv_correct + result.cv_errors
    );
    println!("   learned tree:\n{}", indent(&result.tree_text, 6));

    println!("== 5. holdout: upcoming stories by well-connected users ==");
    println!(
        "   {} stories: {} (interesting = >{} final votes)",
        result.holdout_stories, result.holdout, INTERESTINGNESS_THRESHOLD
    );
    match (result.digg_precision(), result.classifier_precision()) {
        (Some(digg), Some(clf)) => println!(
            "   precision on the promoted subset: platform {digg:.2} vs early-vote classifier {clf:.2}"
        ),
        _ => println!("   promoted subset too small for a precision comparison"),
    }
}

fn indent(text: &str, by: usize) -> String {
    let pad = " ".repeat(by);
    text.lines().map(|l| format!("{pad}{l}\n")).collect()
}
