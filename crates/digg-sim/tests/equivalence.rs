//! The event-driven engine must reproduce the seed tick loop exactly.
//!
//! `baseline::TickSim` is an independent copy of the per-minute loop;
//! `Sim` (Compat kernel) replays it on the `des-core` event queue. The
//! two implementations share no scheduling code, so agreement here —
//! exact `SimMetrics`, exact vote logs, across seeds, configs, and
//! incremental run() splits — pins the port.

use digg_sim::baseline::TickSim;
use digg_sim::config::PromoterKind;
use digg_sim::population::{Population, PopulationConfig};
use digg_sim::{Sim, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn population(seed: u64, users: usize) -> Population {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
    Population::generate(&mut rng, &PopulationConfig::toy(users))
}

/// Assert full observable equality between the two engines.
fn assert_equivalent(tick: &TickSim, event: &Sim) {
    assert_eq!(tick.metrics(), event.metrics(), "metrics diverged");
    assert_eq!(tick.now(), event.now());
    assert_eq!(tick.stories().len(), event.stories().len());
    for (a, b) in tick.stories().iter().zip(event.stories()) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.submitter, b.submitter);
        assert_eq!(a.quality, b.quality, "quality diverged on {}", a.id);
        assert_eq!(a.status, b.status, "status diverged on {}", a.id);
        assert_eq!(a.votes, b.votes, "vote log diverged on {}", a.id);
    }
    assert_eq!(tick.front_page().all(), event.front_page().all());
    assert_eq!(tick.upcoming_queue().all(), event.upcoming_queue().all());
}

fn run_both(cfg: SimConfig, minutes: u64) -> (TickSim, Sim) {
    let pop = population(cfg.seed, cfg.users);
    let mut tick = TickSim::new(cfg.clone(), pop.clone());
    let pop = population(cfg.seed, cfg.users);
    let mut event = Sim::new(cfg, pop);
    tick.run(minutes);
    event.run(minutes);
    (tick, event)
}

#[test]
fn compat_kernel_matches_tick_loop_across_seeds() {
    // The issue's acceptance bar: identical SimMetrics on toy configs
    // for >= 3 seeds. We also demand identical vote logs and listings.
    for seed in [1u64, 2, 7, 42, 2006] {
        let (tick, event) = run_both(SimConfig::toy(seed), 1200);
        assert!(tick.metrics().submissions > 0, "dead scenario");
        assert_equivalent(&tick, &event);
    }
}

#[test]
fn compat_kernel_matches_under_config_variations() {
    // Knock the rates around so different code paths dominate.
    let mut busy = SimConfig::toy(5);
    busy.submissions_per_minute = 1.0;
    busy.frontpage_sessions_per_minute = 12.0;
    busy.external_rate = 0.2;

    let mut quiet = SimConfig::toy(6);
    quiet.submissions_per_minute = 0.02;
    quiet.upcoming_sessions_per_minute = 0.1;
    quiet.frontpage_sessions_per_minute = 0.1;

    let mut unpromotable = SimConfig::toy(9);
    unpromotable.promoter = PromoterKind::Threshold { min_votes: 100_000 };

    for cfg in [busy, quiet, unpromotable] {
        let (tick, event) = run_both(cfg, 1500);
        assert_equivalent(&tick, &event);
    }
}

#[test]
fn compat_kernel_matches_across_incremental_runs() {
    // digg-data drives the sim in stages (run to scrape, scrape, run
    // on); the staged schedule must not perturb equivalence.
    let cfg = SimConfig::toy(11);
    let pop = population(cfg.seed, cfg.users);
    let mut tick = TickSim::new(cfg.clone(), pop.clone());
    let pop = population(cfg.seed, cfg.users);
    let mut event = Sim::new(cfg, pop);
    for span in [1u64, 59, 240, 7, 693, 200] {
        tick.run(span);
        event.run(span);
        assert_equivalent(&tick, &event);
    }
}

#[test]
fn submissions_invariant_holds_on_the_event_kernel() {
    // Regression for the `Sim::run` invariant that previously lived
    // only in the doctest: every submission creates exactly one story.
    let cfg = SimConfig::toy(123);
    let pop = population(cfg.seed, cfg.users);
    let mut sim = Sim::new(cfg, pop);
    sim.run(900);
    assert_eq!(sim.metrics().submissions as usize, sim.stories().len());
}
