//! Promotion audit: the "tyranny of the minority" question.
//!
//! ```sh
//! cargo run --release --example promotion_audit [seed]
//! ```
//!
//! The paper's §5 discusses the September 2006 controversy: top users
//! dominated the front page, and Digg responded by adding "unique
//! digging diversity" to the promotion algorithm. This example runs
//! the same platform twice — once with the raw vote-count threshold,
//! once with the diversity-weighted rule — and audits the resulting
//! front pages: who gets promoted, how network-driven their stories
//! are, and what happens to genuinely broad stories.

use digg_core::cascade::in_network_count_within;
use digg_sim::scenario;
use digg_sim::time::DAY;
use digg_sim::Sim;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(11);
    let days = 3;

    for (name, promoter) in [
        (
            "raw threshold (pre-2006-09)",
            scenario::june2006(seed).promoter,
        ),
        (
            "diversity-weighted (post-2006-09)",
            scenario::september2006(seed).promoter,
        ),
    ] {
        let (mut cfg, pop) = scenario::june2006_small(seed);
        cfg.promoter = promoter;
        let graph = pop.graph.clone();
        let top100: std::collections::HashSet<_> = pop.ranking().into_iter().take(100).collect();
        let mut sim = Sim::new(cfg, pop);
        #[expect(
            clippy::disallowed_methods,
            reason = "progress timing printed to the console, never an artifact"
        )]
        let t0 = std::time::Instant::now();
        sim.run(days * DAY);
        let promoted: Vec<_> = sim.stories().iter().filter(|s| s.is_front_page()).collect();
        println!(
            "== {name} ==  ({days} days simulated in {:.1?})",
            t0.elapsed()
        );
        println!(
            "  promotions: {} ({:.1}/day)",
            promoted.len(),
            promoted.len() as f64 / days as f64
        );
        if promoted.is_empty() {
            println!();
            continue;
        }
        let by_top = promoted
            .iter()
            .filter(|s| top100.contains(&s.submitter))
            .count();
        println!(
            "  submitted by top-100 users: {} ({:.0}%)",
            by_top,
            100.0 * by_top as f64 / promoted.len() as f64
        );
        let v10s: Vec<f64> = promoted
            .iter()
            .map(|s| in_network_count_within(&graph, &s.voters_chronological(), 10) as f64)
            .collect();
        println!(
            "  mean in-network votes among first 10: {:.2}",
            digg_stats::descriptive::mean(&v10s).unwrap_or(0.0)
        );
        let qualities: Vec<f64> = promoted.iter().map(|s| s.quality).collect();
        println!(
            "  mean latent quality of promoted stories: {:.3} (ground truth the platform cannot see)",
            digg_stats::descriptive::mean(&qualities).unwrap_or(0.0)
        );
        let broad = promoted.iter().filter(|s| s.quality >= 0.55).count();
        println!(
            "  broadly appealing stories promoted: {} ({:.0}%)\n",
            broad,
            100.0 * broad as f64 / promoted.len() as f64
        );
    }
    println!(
        "Reading: the diversity rule trades promotion volume for quality —\n\
         it discounts fan votes, so network-driven stories need broader\n\
         support, raising the mean quality of what reaches the front page."
    );
}
