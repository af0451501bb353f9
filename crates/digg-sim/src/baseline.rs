//! The seed per-minute tick loop, kept verbatim as an equivalence
//! baseline for the event-driven engine.
//!
//! [`TickSim`] is an independent copy of the simulator as it existed
//! before the port to the `des-core` event kernel: every minute it
//! rescans the upcoming queue for expiry, drains due exposures, and
//! walks every story in the external-discovery window — even when
//! nothing happens. The event-driven [`crate::Sim`] must reproduce its
//! [`SimMetrics`] and vote logs *exactly* (in [`crate::Kernel::Compat`]
//! mode, given `feed_lifetime >= 1`); `tests/equivalence.rs` and the
//! `sim_sweep` bench baseline hold the two implementations against
//! each other, so a bug would have to be introduced twice, in two
//! different algorithms, to go unnoticed.
//!
//! Keep this module boring: it intentionally duplicates engine logic
//! and should only change when the *model* changes, never for
//! performance.

use crate::config::SimConfig;
use crate::decay::{novelty, sample_pages_viewed};
use crate::feeds::ExposureQueue;
use crate::frontpage::FrontPage;
use crate::metrics::SimMetrics;
use crate::population::Population;
use crate::promotion::{self, Promoter};
use crate::queue::UpcomingQueue;
use crate::story::{Story, StoryId, StoryStatus, VoteChannel};
use crate::time::Minute;
use digg_stats::distributions::{coin, exponential, poisson, LogNormal};
use digg_stats::sampling::AliasTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use social_graph::UserId;

/// The original per-minute simulation loop (see module docs). Same
/// constructor contract as [`crate::Sim`]: `cfg` must validate and the
/// population size must match `cfg.users`.
pub struct TickSim {
    cfg: SimConfig,
    pop: Population,
    rng: StdRng,
    now: Minute,
    stories: Vec<Story>,
    queue: UpcomingQueue,
    front: FrontPage,
    exposures: ExposureQueue,
    promoter: Box<dyn Promoter>,
    browse_table: AliasTable,
    submit_table: AliasTable,
    metrics: SimMetrics,
    niche_quality: LogNormal,
    /// Index of the oldest story still inside the external-discovery
    /// window (stories are indexed in submission order).
    external_lo: usize,
}

impl TickSim {
    /// Create a simulation over an existing population.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the population size
    /// disagrees with `cfg.users`.
    pub fn new(cfg: SimConfig, pop: Population) -> TickSim {
        #[expect(
            clippy::panic,
            reason = "documented constructor contract (\"# Panics\"): invalid config is a caller bug"
        )]
        if let Err(e) = cfg.validate() {
            panic!("invalid SimConfig: {e}");
        }
        assert_eq!(
            cfg.users,
            pop.len(),
            "config.users must match population size"
        );
        #[expect(
            clippy::expect_used,
            reason = "Population::validate (checked above via cfg) guarantees positive weights"
        )]
        let browse_table =
            AliasTable::new(&pop.browse_weight).expect("population browse weights are positive");
        #[expect(
            clippy::expect_used,
            reason = "Population::validate (checked above via cfg) guarantees positive weights"
        )]
        let submit_table =
            AliasTable::new(&pop.submit_weight).expect("submission weights are positive");
        let rng = StdRng::seed_from_u64(cfg.seed);
        let promoter = promotion::from_kind(cfg.promoter);
        let niche_quality = LogNormal::new(cfg.niche_quality_mu, cfg.niche_quality_sigma);
        TickSim {
            queue: UpcomingQueue::new(cfg.page_size, cfg.queue_lifetime),
            front: FrontPage::new(cfg.page_size),
            exposures: ExposureQueue::new(),
            stories: Vec::new(),
            now: Minute::ZERO,
            metrics: SimMetrics::default(),
            browse_table,
            submit_table,
            promoter,
            niche_quality,
            external_lo: 0,
            rng,
            cfg,
            pop,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Minute {
        self.now
    }

    /// All stories, in submission order.
    pub fn stories(&self) -> &[Story] {
        &self.stories
    }

    /// One story.
    pub fn story(&self, id: StoryId) -> &Story {
        &self.stories[id.index()]
    }

    /// The front page.
    pub fn front_page(&self) -> &FrontPage {
        &self.front
    }

    /// The upcoming queue.
    pub fn upcoming_queue(&self) -> &UpcomingQueue {
        &self.queue
    }

    /// Run metrics so far.
    pub fn metrics(&self) -> &SimMetrics {
        &self.metrics
    }

    /// Advance the simulation by `minutes`.
    pub fn run(&mut self, minutes: u64) {
        for _ in 0..minutes {
            self.step();
        }
    }

    /// Advance one minute.
    pub fn step(&mut self) {
        self.now = self.now + 1;
        self.metrics.minutes += 1;
        self.expire_queue();
        self.process_submissions();
        self.process_exposures();
        self.process_frontpage_browsing();
        self.process_upcoming_browsing();
        self.process_external();
    }

    // ------------------------------------------------------------ steps

    fn expire_queue(&mut self) {
        for id in self.queue.expire(self.now) {
            let story = &mut self.stories[id.index()];
            if story.is_upcoming() {
                story.status = StoryStatus::Expired(self.now);
                self.metrics.expirations += 1;
            }
        }
    }

    fn process_submissions(&mut self) {
        let n = poisson(&mut self.rng, self.cfg.submissions_per_minute);
        for _ in 0..n {
            let submitter = UserId::from_index(self.submit_table.sample(&mut self.rng));
            let quality = self.draw_quality(submitter);
            let id = StoryId::from_index(self.stories.len());
            let story = Story::new(id, submitter, self.now, quality);
            self.stories.push(story);
            self.queue.push(id, self.now);
            self.metrics.submissions += 1;
            // "See the stories your friends submitted": expose the
            // submitter's fans.
            self.schedule_fan_exposures(submitter, id, true);
        }
    }

    fn draw_quality(&mut self, submitter: UserId) -> f64 {
        let skill = (self.pop.activity[submitter.index()] / self.cfg.skill_activity_ref).min(1.0);
        let p_broad = self.cfg.high_quality_fraction + self.cfg.high_quality_skill * skill;
        if coin(&mut self.rng, p_broad) {
            let lo = self.cfg.broad_quality_min;
            lo + (1.0 - lo) * self.rng.random::<f64>()
        } else {
            self.niche_quality.sample(&mut self.rng).clamp(1e-4, 1.0)
        }
    }

    fn process_exposures(&mut self) {
        let due = self.exposures.drain_due(self.now);
        for e in due {
            self.metrics.exposures_fired += 1;
            // Feed entries lapse 48h after the triggering activity.
            if self.now.since(e.triggered_at) > self.cfg.feed_lifetime {
                continue;
            }
            let story = &self.stories[e.story.index()];
            if story.has_voted(e.fan) {
                continue;
            }
            // Fans back their friends' own submissions loyally; for
            // stories a friend merely dugg, interest dominates.
            let p = if e.from_submitter {
                self.cfg.friend_vote_submitted
            } else {
                self.cfg.friend_vote_base + self.cfg.friend_vote_quality_slope * story.quality
            };
            if coin(&mut self.rng, p) {
                self.cast_vote(e.story, e.fan, VoteChannel::Friends);
            }
        }
    }

    fn process_frontpage_browsing(&mut self) {
        let sessions = poisson(&mut self.rng, self.cfg.frontpage_sessions_per_minute);
        for _ in 0..sessions {
            let user = UserId::from_index(self.browse_table.sample(&mut self.rng));
            let pages = sample_pages_viewed(&mut self.rng, self.cfg.page_stop_prob);
            for p in 0..pages.min(self.front.page_count()) {
                for id in self.front.page(p) {
                    let story = &self.stories[id.index()];
                    if story.has_voted(user) {
                        continue;
                    }
                    let age = match story.status {
                        StoryStatus::FrontPage(t) => self.now.since(t),
                        _ => continue,
                    };
                    let prob = self.cfg.frontpage_vote_prob
                        * story.quality
                        * novelty(age, self.cfg.novelty_tau);
                    if coin(&mut self.rng, prob) {
                        self.cast_vote(id, user, VoteChannel::FrontPage);
                    }
                }
            }
        }
    }

    fn process_upcoming_browsing(&mut self) {
        let sessions = poisson(&mut self.rng, self.cfg.upcoming_sessions_per_minute);
        for _ in 0..sessions {
            let user = UserId::from_index(self.browse_table.sample(&mut self.rng));
            let pages = sample_pages_viewed(&mut self.rng, self.cfg.page_stop_prob);
            for p in 0..pages.min(self.queue.page_count()) {
                for id in self.queue.page(p) {
                    let story = &self.stories[id.index()];
                    if story.has_voted(user) || !story.is_upcoming() {
                        continue;
                    }
                    let prob = self.cfg.upcoming_vote_prob * story.quality;
                    if coin(&mut self.rng, prob) {
                        self.cast_vote(id, user, VoteChannel::Upcoming);
                    }
                }
            }
        }
    }

    fn process_external(&mut self) {
        // Advance the window start past stories that left the
        // external-discovery window.
        while self.external_lo < self.stories.len()
            && self.stories[self.external_lo].age_at(self.now) > self.cfg.external_window
        {
            self.external_lo += 1;
        }
        for idx in self.external_lo..self.stories.len() {
            let (quality, id) = {
                let s = &self.stories[idx];
                (s.quality, s.id)
            };
            let rate = self.cfg.external_rate * quality;
            let n = poisson(&mut self.rng, rate);
            for _ in 0..n {
                let user = UserId::from_index(self.browse_table.sample(&mut self.rng));
                if !self.stories[idx].has_voted(user) {
                    self.cast_vote(id, user, VoteChannel::External);
                }
            }
        }
    }

    // ------------------------------------------------------------ voting

    /// Record a vote, schedule the voter's fans' exposures, update
    /// channel metrics, and re-check promotion.
    fn cast_vote(&mut self, id: StoryId, user: UserId, channel: VoteChannel) {
        let added = self.stories[id.index()].add_vote(user, self.now, channel);
        if !added {
            return;
        }
        match channel {
            VoteChannel::Friends => self.metrics.votes_friends += 1,
            VoteChannel::FrontPage => self.metrics.votes_frontpage += 1,
            VoteChannel::Upcoming => self.metrics.votes_upcoming += 1,
            VoteChannel::External => self.metrics.votes_external += 1,
        }
        self.schedule_fan_exposures(user, id, false);
        self.maybe_promote(id);
    }

    /// Expose `actor`'s fans to `story` ("see the stories my friends
    /// dugg / submitted").
    fn schedule_fan_exposures(&mut self, actor: UserId, story: StoryId, from_submitter: bool) {
        // Collect scheduling decisions first to appease the borrow
        // checker; fan lists are small.
        let fans: Vec<UserId> = self.pop.graph.fans(actor).to_vec();
        for fan in fans {
            if self.stories[story.index()].has_voted(fan) {
                continue;
            }
            if self.exposures.was_scheduled(fan, story) {
                continue;
            }
            // Exposure = (fan visits the site during the window) x
            // (fan notices this entry in their feed). The first factor
            // grows with activity; the second is diluted by how many
            // friends the fan watches — the Friends interface of a
            // user watching hundreds of people scrolls any single
            // story out of attention quickly. Together these keep
            // social cascades subcritical (refs [12, 23]: most
            // recommendation cascades terminate after a few steps).
            let a = self.pop.activity[fan.index()];
            let f = self.pop.graph.friend_count(fan).max(1) as f64;
            let visits = (a / self.cfg.attention_ref).min(1.0);
            // The submissions view is far less crowded than the diggs
            // view, so its congestion dilution is gentler.
            let dilution_exp = if from_submitter {
                self.cfg.submitted_dilution
            } else {
                self.cfg.feed_dilution
            };
            let dilution = f.powf(-dilution_exp);
            let p = (self.cfg.fan_exposure_prob * visits * dilution).min(1.0);
            if !coin(&mut self.rng, p) {
                // Consume the pair so another friend's vote doesn't
                // grant a second chance; the interface shows a story
                // once.
                self.exposures
                    .schedule(fan, story, Minute(u64::MAX), self.now, from_submitter);
                continue;
            }
            let delay = 1.0 + exponential(&mut self.rng, 1.0 / self.cfg.fan_exposure_delay_mean);
            let delay = (delay as u64).min(self.cfg.feed_lifetime);
            self.exposures
                .schedule(fan, story, self.now + delay, self.now, from_submitter);
            self.metrics.exposures_scheduled += 1;
        }
    }

    fn maybe_promote(&mut self, id: StoryId) {
        let story = &self.stories[id.index()];
        if !story.is_upcoming() || story.age_at(self.now) > self.cfg.queue_lifetime {
            return;
        }
        if self
            .promoter
            .should_promote(story, &self.pop.graph, self.now)
        {
            self.stories[id.index()].status = StoryStatus::FrontPage(self.now);
            self.queue.remove(id);
            self.front.promote(id, self.now);
            self.metrics.promotions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationConfig;

    #[test]
    fn tick_baseline_is_deterministic() {
        let make = || {
            let cfg = SimConfig::toy(42);
            let mut rng = StdRng::seed_from_u64(42 ^ 0xABCD);
            let pop = Population::generate(&mut rng, &PopulationConfig::toy(cfg.users));
            let mut sim = TickSim::new(cfg, pop);
            sim.run(300);
            sim
        };
        let (a, b) = (make(), make());
        assert_eq!(a.metrics(), b.metrics());
        for (x, y) in a.stories().iter().zip(b.stories()) {
            assert_eq!(x.votes, y.votes);
        }
        assert!(a.metrics().submissions > 0);
    }
}
