//! The event-driven simulation engine.
//!
//! The simulator runs on the `des-core` kernel: a single
//! [`EventQueue`] ordered by `(minute, class, seq)` where `class`
//! encodes the intra-minute phase order the platform model fixes:
//!
//! 1. queue expiry (per-story events — no per-minute rescans);
//! 2. new submissions (Poisson arrivals; submitter drawn by
//!    submission propensity);
//! 3. due Friends-interface exposures → possible social votes;
//! 4. front-page browsing sessions → possible interest votes;
//! 5. upcoming-queue browsing sessions → possible interest votes;
//! 6. external discovery → independent seed votes.
//!
//! Every vote immediately (a) schedules exposures for the voter's fans
//! and (b) re-evaluates the promotion rule if the story is still in
//! the queue — so, exactly as on Digg, no queue story can be observed
//! with more votes than the promotion boundary.
//!
//! The engine replays the seed tick loop draw-for-draw: per-minute
//! heartbeat events batch each phase's Poisson arrivals, and all
//! randomness comes from one `StdRng` in the tick loop's exact call
//! order. Results are byte-identical to [`crate::baseline::TickSim`]
//! whenever `feed_lifetime >= 1` (which every shipped scenario
//! satisfies; at `feed_lifetime == 0` the tick loop delays same-minute
//! exposures to the next drain while the engine fires them
//! immediately).
//!
//! The per-vote path is built for speed without touching that draw
//! order. Voter membership uses the fast id hash of the `idhash`
//! module, each story keeps the fans already offered it as a dense
//! bitset over users, the event queue is des-core's calendar queue,
//! and every probability that depends only on the population, the config
//! or the minute is computed once: the per-user exposure probabilities
//! and per-story discovery samplers in `Derived`, and the front-page
//! vote probabilities once per listed story per minute. Each is the
//! tick loop's own expression, so every value is bit-equal.

use crate::config::{PromoterKind, SimConfig};
use crate::decay::{novelty, sample_pages_viewed};
use crate::frontpage::FrontPage;
use crate::metrics::SimMetrics;
use crate::population::Population;
use crate::promotion::{self, Promoter, PromoterState};
use crate::queue::UpcomingQueue;
use crate::story::{Story, StoryId, StoryStatus, VoteChannel};
use crate::time::Minute;
use des_core::EventQueue;
use digg_snapshot::{
    ByteReader, ByteWriter, Codec, Restore, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter,
};
use digg_stats::distributions::{coin, exponential, poisson, LogNormal, Poisson};
use digg_stats::sampling::AliasTable;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use social_graph::UserId;
use std::fmt;

// Event classes: the fixed intra-minute phase order (see module docs).
const CLASS_EXPIRY: u8 = 0;
const CLASS_SUBMIT: u8 = 1;
const CLASS_EXPOSE: u8 = 2;
const CLASS_FRONT: u8 = 3;
const CLASS_UPCOMING: u8 = 4;
const CLASS_EXTERNAL: u8 = 5;

/// The simulator kernel. It has a single variant and survives only
/// because the benchmark harness in `perfbench/` names it
/// (`ScenarioSpec::kernel`, [`Sim::with_kernel`]); use [`Sim::new`]
/// everywhere else.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Kernel {
    /// Tick-loop replay: one `StdRng` consumed in the seed loop's call
    /// order through per-minute heartbeat events. Byte-identical to
    /// the [`crate::baseline::TickSim`] sample path.
    #[default]
    Compat,
}

/// Event payloads routed through the kernel queue.
enum Ev {
    /// A story reaches the end of its queue lifetime.
    Expiry(StoryId),
    /// This minute's Poisson batch of submissions.
    SubmitBatch,
    /// This minute's front-page browsing sessions.
    FrontBatch,
    /// This minute's upcoming browsing sessions.
    UpcomingBatch,
    /// This minute's external-discovery scan.
    ExternalBatch,
    /// A fan's Friends-interface exposure to a story comes due.
    Exposure {
        fan: UserId,
        story: StoryId,
        triggered_at: Minute,
        from_submitter: bool,
    },
}

/// A running simulation.
///
/// # Examples
///
/// ```
/// use digg_sim::population::{Population, PopulationConfig};
/// use digg_sim::{Sim, SimConfig};
/// use rand::SeedableRng;
///
/// let cfg = SimConfig::toy(7);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let pop = Population::generate(&mut rng, &PopulationConfig::toy(cfg.users));
/// let mut sim = Sim::new(cfg, pop);
/// sim.run(120); // two simulated hours
/// assert_eq!(sim.now().0, 120);
/// assert_eq!(sim.metrics().submissions as usize, sim.stories().len());
/// ```
pub struct Sim {
    cfg: SimConfig,
    pop: Population,
    now: Minute,
    stories: Vec<Story>,
    queue: UpcomingQueue,
    front: FrontPage,
    events: EventQueue<Ev>,
    /// The fans ever offered an exposure to each story, indexed like
    /// `stories`, to collapse duplicate entries from multiple friends
    /// (the interface shows a story once): one bit per user, bit
    /// `u % 64` of word `u / 64`. The snapshot writes them as one
    /// fan-major `(fan, story)` list.
    offered: Vec<Vec<u64>>,
    /// Per-story incremental promoter state, indexed like `stories`.
    /// Lets each promotion re-check fold only the votes it has not
    /// seen; the tick-loop baseline stays on the batch path, so the
    /// engine-vs-baseline equivalence tests hold the two against each
    /// other.
    promo_states: Vec<PromoterState>,
    // digg-lint: allow(snapshot-coverage) — pure functions of the config, the population and the story qualities, rebuilt on restore
    derived: Derived,
    metrics: SimMetrics,
    /// The tick loop's single RNG.
    rng: StdRng,
    /// Index of the oldest story still inside the external-discovery
    /// window.
    external_lo: usize,
    /// Events fired by *this instance* since construction or restore.
    /// Diagnostics only (checkpoint-overhead rates); deliberately not
    /// serialized — a restored sim starts its own count at zero.
    // digg-lint: allow(snapshot-coverage) — diagnostics counter, deliberately restarts at zero after restore
    events_fired: u64,
}

/// Everything a [`Sim`] rebuilds on restore instead of serializing:
/// pure functions of the config, the population and the stories'
/// qualities.
struct Derived {
    /// The promotion rule, from `cfg.promoter`.
    promoter: Box<dyn Promoter>,
    /// Browsing sessions and external voters, by activity.
    browse_table: AliasTable,
    /// Submitters, by submission propensity.
    submit_table: AliasTable,
    /// The niche-story quality distribution.
    niche_quality: LogNormal,
    /// Per user, the chance an entry in their Friends interface gets
    /// an exposure: `[from a vote, from a submission]`, each
    /// `min(1, fan_exposure_prob · visits · friends^-dilution)`.
    exposure_prob: Vec<[f64; 2]>,
    /// Per story, indexed like `stories`: the sampler for its external
    /// votes per minute, Poisson with mean `external_rate · quality`.
    discovery: Vec<Poisson>,
}

impl Derived {
    fn build(cfg: &SimConfig, pop: &Population, stories: &[Story]) -> Result<Derived, String> {
        let browse_table = AliasTable::new(&pop.browse_weight)
            .ok_or("population browse weights yield no alias table")?;
        let submit_table = AliasTable::new(&pop.submit_weight)
            .ok_or("population submit weights yield no alias table")?;
        let exposure_prob = (0..pop.len())
            .map(|i| {
                // Exposure = (fan visits the site during the window) x
                // (fan notices this entry in their feed). The first
                // factor grows with activity; the second is diluted by
                // how many friends the fan watches — the Friends
                // interface of a user watching hundreds of people
                // scrolls any single story out of attention quickly.
                // Together these keep social cascades subcritical
                // (refs [12, 23]: most recommendation cascades
                // terminate after a few steps). The submissions view
                // is far less crowded than the diggs view, so its
                // congestion dilution is gentler.
                let f = pop.graph.friend_count(UserId::from_index(i)).max(1) as f64;
                let visits = (pop.activity[i] / cfg.attention_ref).min(1.0);
                let p = |dilution_exp: f64| {
                    (cfg.fan_exposure_prob * visits * f.powf(-dilution_exp)).min(1.0)
                };
                [p(cfg.feed_dilution), p(cfg.submitted_dilution)]
            })
            .collect();
        let mut discovery = Vec::with_capacity(stories.len());
        for s in stories {
            // A quality outside (0, 1] never comes from the engine; it
            // would give a negative or NaN Poisson mean.
            if !(s.quality > 0.0 && s.quality <= 1.0) {
                return Err(format!(
                    "story {} has quality {} outside (0, 1]",
                    s.id, s.quality
                ));
            }
            discovery.push(Poisson::new(cfg.external_rate * s.quality));
        }
        Ok(Derived {
            promoter: promotion::from_kind(cfg.promoter),
            browse_table,
            submit_table,
            niche_quality: LogNormal::new(cfg.niche_quality_mu, cfg.niche_quality_sigma),
            exposure_prob,
            discovery,
        })
    }
}

impl Sim {
    /// Create a simulation over an existing population.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the population size
    /// disagrees with `cfg.users`.
    pub fn new(cfg: SimConfig, pop: Population) -> Sim {
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
        let derived = Derived::build(&cfg, &pop, &[]).expect("population weights are positive");
        let rng = StdRng::seed_from_u64(cfg.seed);
        let mut sim = Sim {
            queue: UpcomingQueue::new(cfg.page_size, cfg.queue_lifetime),
            front: FrontPage::new(cfg.page_size),
            events: EventQueue::new(),
            offered: Vec::new(),
            stories: Vec::new(),
            promo_states: Vec::new(),
            now: Minute::ZERO,
            metrics: SimMetrics::default(),
            derived,
            rng,
            external_lo: 0,
            events_fired: 0,
            cfg,
            pop,
        };
        // One heartbeat per phase; each reschedules itself for the
        // next minute, replaying the tick loop.
        sim.events.schedule(1, CLASS_SUBMIT, Ev::SubmitBatch);
        sim.events.schedule(1, CLASS_FRONT, Ev::FrontBatch);
        sim.events.schedule(1, CLASS_UPCOMING, Ev::UpcomingBatch);
        sim.events.schedule(1, CLASS_EXTERNAL, Ev::ExternalBatch);
        sim
    }

    /// [`Sim::new`] under another name, kept only because the
    /// benchmark harness in `perfbench/` calls it; `Kernel` has the
    /// single variant [`Kernel::Compat`].
    pub fn with_kernel(cfg: SimConfig, pop: Population, _kernel: Kernel) -> Sim {
        Sim::new(cfg, pop)
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

    /// The population being simulated.
    pub fn population(&self) -> &Population {
        &self.pop
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

    /// Events fired by this instance since construction or restore —
    /// a diagnostics counter for throughput rates, not simulation
    /// state (it is not serialized into snapshots).
    pub fn events_fired(&self) -> u64 {
        self.events_fired
    }

    /// The active configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Advance the simulation by `minutes`: drain every event due in
    /// the window, then land on the horizon. Minutes with no events
    /// cost nothing.
    pub fn run(&mut self, minutes: u64) {
        self.run_budgeted(self.now + minutes, u64::MAX);
    }

    /// Advance toward `horizon`, firing at most `max_events` events.
    /// Returns `true` once no events remain inside the window (the
    /// clock then lands exactly on the horizon, as [`Sim::run`] does);
    /// `false` means the budget ran out mid-drain — the natural moment
    /// to [`Snapshot`] the sim and call `run_budgeted` again with the
    /// same horizon. Interleaving snapshots (or a restore on another
    /// process) between budget slices changes nothing: the final state
    /// is bit-identical to one uninterrupted [`Sim::run`].
    pub fn run_budgeted(&mut self, horizon: Minute, max_events: u64) -> bool {
        // A horizon in the past is a no-op landing at `now`: the clock
        // never moves backward.
        let horizon = Minute(horizon.0.max(self.now.0));
        let mut fired = 0u64;
        while fired < max_events {
            let Some(t) = self.events.peek_time() else {
                break;
            };
            if t > horizon.0 {
                break;
            }
            #[expect(
                clippy::expect_used,
                reason = "queue invariant: peek_time just returned Some and nothing popped in between"
            )]
            let e = self.events.pop().expect("peeked event vanished");
            // The clock only moves forward; events never fire early.
            self.now = Minute(e.time.max(self.now.0));
            self.handle(e.payload);
            fired += 1;
            self.events_fired += 1;
        }
        let done = match self.events.peek_time() {
            Some(t) => t > horizon.0,
            None => true,
        };
        if done {
            // At every rest point `metrics.minutes == now.0` (both
            // start at zero and only run()'s horizon landing moves
            // them), so assigning the horizon here is exactly the
            // `+= minutes` a one-shot run() performs.
            self.now = horizon;
            self.metrics.minutes = horizon.0;
        }
        done
    }

    /// Advance one minute.
    pub fn step(&mut self) {
        self.run(1);
    }

    // ---------------------------------------------------------- dispatch

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Expiry(id) => self.on_expiry(id),
            Ev::SubmitBatch => {
                self.compat_submissions();
                self.events
                    .schedule(self.now.0 + 1, CLASS_SUBMIT, Ev::SubmitBatch);
            }
            Ev::FrontBatch => {
                self.compat_frontpage_browsing();
                self.events
                    .schedule(self.now.0 + 1, CLASS_FRONT, Ev::FrontBatch);
            }
            Ev::UpcomingBatch => {
                self.compat_upcoming_browsing();
                self.events
                    .schedule(self.now.0 + 1, CLASS_UPCOMING, Ev::UpcomingBatch);
            }
            Ev::ExternalBatch => {
                self.compat_external();
                self.events
                    .schedule(self.now.0 + 1, CLASS_EXTERNAL, Ev::ExternalBatch);
            }
            Ev::Exposure {
                fan,
                story,
                triggered_at,
                from_submitter,
            } => self.on_exposure(fan, story, triggered_at, from_submitter),
        }
    }

    // ------------------------------------------------------------ expiry

    /// Fires at `submitted_at + queue_lifetime + 1` — the first minute
    /// the tick loop's strict `age > lifetime` test would have evicted
    /// the story.
    fn on_expiry(&mut self, id: StoryId) {
        let story = &mut self.stories[id.index()];
        if story.is_upcoming() {
            story.status = StoryStatus::Expired(self.now);
            self.metrics.expirations += 1;
            self.queue.remove(id);
        }
    }

    // ------------------------------------------------------- submissions

    /// Shared submission bookkeeping once submitter and quality are
    /// drawn: create the story, enqueue it, plant its expiry event,
    /// expose the submitter's fans.
    fn admit_story(&mut self, submitter: UserId, quality: f64) {
        let id = StoryId::from_index(self.stories.len());
        let story = Story::new(id, submitter, self.now, quality);
        self.stories.push(story);
        self.promo_states.push(self.derived.promoter.new_state());
        self.offered.push(vec![0; self.pop.len().div_ceil(64)]);
        self.derived
            .discovery
            .push(Poisson::new(self.cfg.external_rate * quality));
        self.queue.push(id, self.now);
        self.metrics.submissions += 1;
        self.events.schedule(
            self.now.0 + self.cfg.queue_lifetime + 1,
            CLASS_EXPIRY,
            Ev::Expiry(id),
        );
        // "See the stories your friends submitted": expose the
        // submitter's fans.
        self.schedule_fan_exposures(submitter, id, true);
    }

    fn compat_submissions(&mut self) {
        let n = poisson(&mut self.rng, self.cfg.submissions_per_minute);
        for _ in 0..n {
            let submitter = UserId::from_index(self.derived.submit_table.sample(&mut self.rng));
            let quality = {
                let activity = self.pop.activity[submitter.index()];
                draw_quality(
                    &mut self.rng,
                    &self.cfg,
                    &self.derived.niche_quality,
                    activity,
                )
            };
            self.admit_story(submitter, quality);
        }
    }

    // --------------------------------------------------------- exposures

    fn on_exposure(
        &mut self,
        fan: UserId,
        story_id: StoryId,
        triggered_at: Minute,
        from_submitter: bool,
    ) {
        self.metrics.exposures_fired += 1;
        // Feed entries lapse 48h after the triggering activity.
        if self.now.since(triggered_at) > self.cfg.feed_lifetime {
            return;
        }
        let story = &self.stories[story_id.index()];
        if story.has_voted(fan) {
            return;
        }
        // Fans back their friends' own submissions loyally; for
        // stories a friend merely dugg, interest dominates.
        let p = if from_submitter {
            self.cfg.friend_vote_submitted
        } else {
            self.cfg.friend_vote_base + self.cfg.friend_vote_quality_slope * story.quality
        };
        if coin(&mut self.rng, p) {
            self.cast_vote(story_id, fan, VoteChannel::Friends);
        }
    }

    // ---------------------------------------------------------- browsing

    // Browsing uses `self.rng` directly: the session draws and
    // the exposure draws nested under each cast_vote must interleave
    // on the one tick-loop RNG in the seed's exact call order.

    fn compat_frontpage_browsing(&mut self) {
        let sessions = poisson(&mut self.rng, self.cfg.frontpage_sessions_per_minute);
        // A listed story's vote probability is fixed within the minute
        // (the front page cannot change during this phase: its votes
        // land on promoted stories, which never re-promote). Evaluate
        // it once per story, the first time a session scrolls to it;
        // `None` marks an entry the tick loop skips.
        let mut listed: Vec<(StoryId, Option<f64>)> = Vec::new();
        for _ in 0..sessions {
            let user = UserId::from_index(self.derived.browse_table.sample(&mut self.rng));
            let pages = sample_pages_viewed(&mut self.rng, self.cfg.page_stop_prob);
            let seen =
                (pages.min(self.front.page_count()) * self.cfg.page_size).min(self.front.len());
            for &(id, _) in &self.front.all()[listed.len().min(seen)..seen] {
                listed.push((id, self.frontpage_vote_prob(id)));
            }
            for &(id, prob) in &listed[..seen] {
                let Some(prob) = prob else {
                    continue;
                };
                if self.stories[id.index()].has_voted(user) {
                    continue;
                }
                if coin(&mut self.rng, prob) {
                    self.cast_vote(id, user, VoteChannel::FrontPage);
                }
            }
        }
    }

    /// This minute's vote probability for a front-page story, or
    /// `None` if the story is not on the front page.
    fn frontpage_vote_prob(&self, id: StoryId) -> Option<f64> {
        let story = &self.stories[id.index()];
        match story.status {
            StoryStatus::FrontPage(t) => Some(
                self.cfg.frontpage_vote_prob
                    * story.quality
                    * novelty(self.now.since(t), self.cfg.novelty_tau),
            ),
            _ => None,
        }
    }

    fn compat_upcoming_browsing(&mut self) {
        let sessions = poisson(&mut self.rng, self.cfg.upcoming_sessions_per_minute);
        // A vote can promote a listed story and so take it out of the
        // queue mid-page; each page view votes from a copy of its
        // listing, as the tick loop does. One buffer serves the minute.
        let mut page: Vec<StoryId> = Vec::with_capacity(self.cfg.page_size);
        for _ in 0..sessions {
            let user = UserId::from_index(self.derived.browse_table.sample(&mut self.rng));
            let pages = sample_pages_viewed(&mut self.rng, self.cfg.page_stop_prob);
            for p in 0..pages.min(self.queue.page_count()) {
                page.clear();
                page.extend(self.queue.page(p));
                for &id in &page {
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

    // ---------------------------------------------------------- external

    fn compat_external(&mut self) {
        // Advance the window start past stories that left the
        // external-discovery window.
        while self.external_lo < self.stories.len()
            && self.stories[self.external_lo].age_at(self.now) > self.cfg.external_window
        {
            self.external_lo += 1;
        }
        for idx in self.external_lo..self.stories.len() {
            let n = self.derived.discovery[idx].sample(&mut self.rng);
            for _ in 0..n {
                let user = UserId::from_index(self.derived.browse_table.sample(&mut self.rng));
                if !self.stories[idx].has_voted(user) {
                    self.cast_vote(self.stories[idx].id, user, VoteChannel::External);
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
    /// dugg / submitted"). Runs once per vote over the voter's whole
    /// fan row, so it borrows the row in place and reads each fan's
    /// exposure probability from `Derived::exposure_prob`.
    // digg-lint: hot-path
    fn schedule_fan_exposures(&mut self, actor: UserId, story: StoryId, from_submitter: bool) {
        let voters = &self.stories[story.index()];
        let offered = &mut self.offered[story.index()];
        let view = usize::from(from_submitter);
        let delay_rate = 1.0 / self.cfg.fan_exposure_delay_mean;
        for &fan in self.pop.graph.fans(actor) {
            // Offering consumes the pair whether or not the exposure
            // happens, so another friend's vote doesn't grant a second
            // chance; the interface shows a story once. Voters are
            // never offered the story.
            let (word, bit) = (fan.index() / 64, 1u64 << (fan.index() % 64));
            if offered[word] & bit != 0 || voters.has_voted(fan) {
                continue;
            }
            offered[word] |= bit;
            if !coin(&mut self.rng, self.derived.exposure_prob[fan.index()][view]) {
                continue;
            }
            let delay = 1.0 + exponential(&mut self.rng, delay_rate);
            let delay = (delay as u64).min(self.cfg.feed_lifetime);
            self.events.schedule(
                (self.now + delay).0,
                CLASS_EXPOSE,
                Ev::Exposure {
                    fan,
                    story,
                    triggered_at: self.now,
                    from_submitter,
                },
            );
            self.metrics.exposures_scheduled += 1;
        }
    }

    fn maybe_promote(&mut self, id: StoryId) {
        let story = &self.stories[id.index()];
        if !story.is_upcoming() || story.age_at(self.now) > self.cfg.queue_lifetime {
            return;
        }
        let state = &mut self.promo_states[id.index()];
        if self
            .derived
            .promoter
            .should_promote_with(state, story, &self.pop.graph, self.now)
        {
            self.stories[id.index()].status = StoryStatus::FrontPage(self.now);
            self.queue.remove(id);
            self.front.promote(id, self.now);
            self.metrics.promotions += 1;
        }
    }

    /// The `scheduled` snapshot section: every offered `(fan, story)`
    /// pair as two `u32`s behind a `u64` count, ordered by fan, then
    /// story. Written without a sort: count each fan's offers,
    /// prefix-sum the counts into each fan's first slot, then scatter
    /// the pairs story by story, which leaves each fan's stories in
    /// ascending order.
    fn encode_offered(&self) -> Vec<u8> {
        let users = self.pop.len();
        let mut next = vec![0usize; users + 1];
        for bits in &self.offered {
            for fan in set_bits(bits) {
                next[fan + 1] += 1;
            }
        }
        for fan in 0..users {
            next[fan + 1] += next[fan];
        }
        let pairs = next[users];
        let mut out = vec![0u8; 8 + 8 * pairs];
        out[..8].copy_from_slice(&(pairs as u64).to_le_bytes());
        for (idx, bits) in self.offered.iter().enumerate() {
            let story = StoryId::from_index(idx).0.to_le_bytes();
            for fan in set_bits(bits) {
                let at = 8 + 8 * next[fan];
                next[fan] += 1;
                out[at..at + 4].copy_from_slice(&UserId::from_index(fan).0.to_le_bytes());
                out[at + 4..at + 8].copy_from_slice(&story);
            }
        }
        out
    }
}

/// The indices of the set bits in `bits`, ascending.
fn set_bits(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors(Some(word), |&x| Some(x & x.wrapping_sub(1)))
            .take_while(|&x| x != 0)
            .map(move |x| w * 64 + x.trailing_zeros() as usize)
    })
}

// ------------------------------------------------- checkpoint/replay

impl Codec for Ev {
    fn encode(&self, out: &mut ByteWriter) {
        match *self {
            Ev::Expiry(id) => {
                out.put_u8(0);
                out.put_u32(id.0);
            }
            Ev::SubmitBatch => out.put_u8(1),
            Ev::FrontBatch => out.put_u8(2),
            Ev::UpcomingBatch => out.put_u8(3),
            Ev::ExternalBatch => out.put_u8(4),
            Ev::Exposure {
                fan,
                story,
                triggered_at,
                from_submitter,
            } => {
                // Tags 5-8 belonged to a retired kernel; the numbering
                // stays so existing checkpoints keep decoding.
                out.put_u8(9);
                out.put_u32(fan.0);
                out.put_u32(story.0);
                out.put_u64(triggered_at.0);
                out.put_u8(u8::from(from_submitter));
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Ev, SnapshotError> {
        Ok(match r.get_u8()? {
            0 => Ev::Expiry(StoryId(r.get_u32()?)),
            1 => Ev::SubmitBatch,
            2 => Ev::FrontBatch,
            3 => Ev::UpcomingBatch,
            4 => Ev::ExternalBatch,
            9 => Ev::Exposure {
                fan: UserId(r.get_u32()?),
                story: StoryId(r.get_u32()?),
                triggered_at: Minute(r.get_u64()?),
                from_submitter: match r.get_u8()? {
                    0 => false,
                    1 => true,
                    b => return Err(SnapshotError::Malformed(format!("from_submitter flag {b}"))),
                },
            },
            t => return Err(SnapshotError::Malformed(format!("event tag {t}"))),
        })
    }
}

/// What a [`Sim`] snapshot carries vs rebuilds (DESIGN.md §15):
///
/// **Serialized** — everything whose value is path-dependent: stories
/// (votes, statuses, qualities), per-story [`PromoterState`] partial
/// sums, both listings, the pending event queue (as a nested
/// [`EventQueue`] container, tombstones dropped), the per-story
/// offered-fan bitsets (as one fan-major `(fan, story)` pair list), the
/// tick-loop `StdRng` core, metrics, the clock, the external-discovery
/// window start, and the full [`SimConfig`].
///
/// **Rebuilt on restore** — pure functions of serialized state or of
/// the context population, all in `Derived`: alias tables and
/// per-user exposure probabilities (from the population), the promoter
/// object and niche-quality sampler (from cfg), the per-story discovery
/// samplers (from story qualities); and every story's `voter_pos`
/// index (from its votes).
/// The population itself is the restore *context*: it is a pure
/// function of `(PopulationConfig, seed)` and is only fingerprinted,
/// not stored.
impl Snapshot for Sim {
    fn snapshot(&self) -> Vec<u8> {
        let mut c = SnapshotWriter::new();

        let mut w = ByteWriter::new();
        self.cfg.encode(&mut w);
        c.section("config", w.into_bytes());

        // The leading tag names the kernel; only tag 0 (the tick-loop
        // replay) exists. Restore reads the section as a prefix, so
        // older checkpoints carrying trailing fields still resume.
        let mut w = ByteWriter::new();
        w.put_u8(0);
        w.put_u64(self.now.0);
        w.put_usize(self.external_lo);
        c.section("state", w.into_bytes());

        let mut w = ByteWriter::new();
        self.metrics.encode(&mut w);
        c.section("metrics", w.into_bytes());

        let mut w = ByteWriter::new();
        w.put_usize(self.pop.len());
        w.put_u64(self.pop.fingerprint());
        c.section("pop", w.into_bytes());

        let mut w = ByteWriter::new();
        w.put_usize(self.stories.len());
        for s in &self.stories {
            s.encode(&mut w);
        }
        c.section("stories", w.into_bytes());

        let mut w = ByteWriter::new();
        w.put_usize(self.promo_states.len());
        for p in &self.promo_states {
            p.encode(&mut w);
        }
        c.section("promo", w.into_bytes());

        let mut w = ByteWriter::new();
        let entries: Vec<_> = self.queue.snapshot_entries().collect();
        w.put_usize(entries.len());
        for (id, t) in entries {
            w.put_u32(id.0);
            w.put_u64(t.0);
        }
        c.section("queue", w.into_bytes());

        let mut w = ByteWriter::new();
        w.put_usize(self.front.all().len());
        for &(id, t) in self.front.all() {
            w.put_u32(id.0);
            w.put_u64(t.0);
        }
        c.section("front", w.into_bytes());

        c.section("scheduled", self.encode_offered());

        c.section("events", self.events.snapshot());

        let mut w = ByteWriter::new();
        for word in self.rng.state() {
            w.put_u64(word);
        }
        c.section("rng", w.into_bytes());

        c.finish()
    }
}

impl Restore for Sim {
    /// The regenerated population — from the same
    /// `(PopulationConfig, seed)` the snapshotted sim was built with.
    /// Checked against the stored fingerprint before anything else is
    /// trusted.
    type Context<'a> = Population;

    fn restore(bytes: &[u8], pop: Population) -> Result<Sim, SnapshotError> {
        let c = SnapshotReader::parse(bytes)?;

        let mut r = c.section_reader("config")?;
        let cfg = SimConfig::decode(&mut r)?;
        cfg.validate()
            .map_err(|e| SnapshotError::Malformed(format!("invalid config in snapshot: {e}")))?;

        let mut r = c.section_reader("pop")?;
        let users = r.get_usize()?;
        let fingerprint = r.get_u64()?;
        if users != pop.len() || fingerprint != pop.fingerprint() {
            return Err(SnapshotError::Malformed(
                "population does not match the snapshot fingerprint — regenerate it from the \
                 same (PopulationConfig, seed) the snapshotted run used"
                    .into(),
            ));
        }

        let mut r = c.section_reader("state")?;
        match r.get_u8()? {
            0 => {}
            t => return Err(SnapshotError::Malformed(format!("kernel tag {t}"))),
        }
        let now = Minute(r.get_u64()?);
        let external_lo = r.get_usize()?;

        let metrics = SimMetrics::decode(&mut c.section_reader("metrics")?)?;

        // Every id a section names must index the population or the
        // stories, or `run` would panic on it later.
        let users = pop.len();
        let mut r = c.section_reader("stories")?;
        let n = r.get_usize()?;
        let mut stories = Vec::with_capacity(n.min(1 << 20));
        for k in 0..n {
            let story = Story::decode(&mut r)?;
            if story.id.index() != k {
                return Err(SnapshotError::Malformed(format!(
                    "stories section holds {} at index {k}",
                    story.id
                )));
            }
            user_in("stories", story.submitter, users)?;
            for &u in story.votes.users() {
                user_in("stories", u, users)?;
            }
            stories.push(story);
        }
        if external_lo > stories.len() {
            return Err(SnapshotError::Malformed(format!(
                "external_lo {external_lo} beyond {} stories",
                stories.len()
            )));
        }

        let mut r = c.section_reader("promo")?;
        let np = r.get_usize()?;
        if np != stories.len() {
            return Err(SnapshotError::Malformed(format!(
                "{np} promoter states for {} stories",
                stories.len()
            )));
        }
        let mut promo_states = Vec::with_capacity(np.min(1 << 20));
        for _ in 0..np {
            promo_states.push(PromoterState::decode(&mut r)?);
        }

        let mut r = c.section_reader("queue")?;
        let nq = r.get_usize()?;
        let mut queue_entries = Vec::with_capacity(nq.min(1 << 20));
        for _ in 0..nq {
            let id = StoryId(r.get_u32()?);
            story_in("queue", id, stories.len())?;
            queue_entries.push((id, Minute(r.get_u64()?)));
        }

        let mut r = c.section_reader("front")?;
        let nf = r.get_usize()?;
        let mut front_entries = Vec::with_capacity(nf.min(1 << 20));
        for _ in 0..nf {
            let id = StoryId(r.get_u32()?);
            story_in("front", id, stories.len())?;
            front_entries.push((id, Minute(r.get_u64()?)));
        }

        // The pair count is untrusted: it bounds the loop, never an
        // allocation; the bitsets are sized by the decoded stories and
        // the population.
        let mut r = c.section_reader("scheduled")?;
        let ns = r.get_usize()?;
        let mut offered = vec![vec![0u64; users.div_ceil(64)]; stories.len()];
        for _ in 0..ns {
            let fan = UserId(r.get_u32()?);
            let story = StoryId(r.get_u32()?);
            user_in("scheduled", fan, users)?;
            story_in("scheduled", story, stories.len())?;
            offered[story.index()][fan.index() / 64] |= 1 << (fan.index() % 64);
        }

        let events: EventQueue<Ev> = EventQueue::restore(c.section("events")?, ())?;
        for ev in events.payloads() {
            match *ev {
                Ev::Expiry(story) => story_in("events", story, stories.len())?,
                Ev::Exposure { fan, story, .. } => {
                    user_in("events", fan, users)?;
                    story_in("events", story, stories.len())?;
                }
                Ev::SubmitBatch | Ev::FrontBatch | Ev::UpcomingBatch | Ev::ExternalBatch => {}
            }
        }

        let mut r = c.section_reader("rng")?;
        let rng = StdRng::from_state([r.get_u64()?, r.get_u64()?, r.get_u64()?, r.get_u64()?]);

        let derived = Derived::build(&cfg, &pop, &stories).map_err(SnapshotError::Malformed)?;

        Ok(Sim {
            queue: UpcomingQueue::from_snapshot(cfg.page_size, cfg.queue_lifetime, queue_entries),
            front: FrontPage::from_snapshot(cfg.page_size, front_entries),
            events,
            offered,
            stories,
            promo_states,
            now,
            metrics,
            derived,
            rng,
            external_lo,
            events_fired: 0,
            cfg,
            pop,
        })
    }
}

/// `Malformed` unless `user` indexes the population of `users`.
fn user_in(section: &str, user: UserId, users: usize) -> Result<(), SnapshotError> {
    bounded(section, "user", user, user.index(), users)
}

/// `Malformed` unless `story` indexes the `stories` decoded so far.
fn story_in(section: &str, story: StoryId, stories: usize) -> Result<(), SnapshotError> {
    bounded(section, "story", story, story.index(), stories)
}

fn bounded(
    section: &str,
    kind: &str,
    id: impl fmt::Display,
    index: usize,
    len: usize,
) -> Result<(), SnapshotError> {
    if index < len {
        Ok(())
    } else {
        Err(SnapshotError::Malformed(format!(
            "{section} section names {kind} {id} of {len}"
        )))
    }
}

/// Story quality: a coin between the broad-appeal regime (uniform above
/// `broad_quality_min`, likelier for skilled submitters) and the niche
/// regime (log-normal, clamped into `(0, 1]`).
fn draw_quality<R: RngCore>(
    rng: &mut R,
    cfg: &SimConfig,
    niche_quality: &LogNormal,
    activity: f64,
) -> f64 {
    let skill = (activity / cfg.skill_activity_ref).min(1.0);
    let p_broad = cfg.high_quality_fraction + cfg.high_quality_skill * skill;
    if coin(rng, p_broad) {
        let lo = cfg.broad_quality_min;
        lo + (1.0 - lo) * rng.random::<f64>()
    } else {
        niche_quality.sample(rng).clamp(1e-4, 1.0)
    }
}

/// Convenience: build a population and run a simulation for `minutes`,
/// returning the finished [`Sim`].
pub fn run_simulation(cfg: SimConfig, pop: Population, minutes: u64) -> Sim {
    let mut sim = Sim::new(cfg, pop);
    sim.run(minutes);
    sim
}

/// Promotion-boundary invariant check used by tests and the dataset
/// validator: with a threshold promoter of `min_votes`, no story that
/// is currently in the queue may have reached `min_votes`.
pub fn queue_boundary_violations(sim: &Sim) -> usize {
    let min_votes = match sim.config().promoter {
        PromoterKind::Threshold { min_votes } => min_votes,
        PromoterKind::Diversity { .. } => return 0, // boundary is weighted
    };
    sim.upcoming_queue()
        .all()
        .into_iter()
        .filter(|id| sim.story(*id).vote_count() >= min_votes)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationConfig;

    fn toy_sim(seed: u64) -> Sim {
        let cfg = SimConfig::toy(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let pop = Population::generate(&mut rng, &PopulationConfig::toy(cfg.users));
        Sim::new(cfg, pop)
    }

    #[test]
    fn runs_and_submits() {
        let mut sim = toy_sim(1);
        sim.run(600);
        assert_eq!(sim.now(), Minute(600));
        assert!(sim.metrics().submissions > 0, "no submissions in 10h");
        assert_eq!(sim.metrics().submissions as usize, sim.stories().len());
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = toy_sim(42);
        let mut b = toy_sim(42);
        a.run(300);
        b.run(300);
        assert_eq!(a.metrics(), b.metrics());
        assert_eq!(a.stories().len(), b.stories().len());
        for (x, y) in a.stories().iter().zip(b.stories()) {
            assert_eq!(x.votes, y.votes);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = toy_sim(1);
        let mut b = toy_sim(2);
        a.run(300);
        b.run(300);
        // Overwhelmingly likely to differ somewhere.
        assert_ne!(
            (a.metrics().submissions, a.metrics().total_votes()),
            (b.metrics().submissions, b.metrics().total_votes())
        );
    }

    #[test]
    fn promotion_boundary_holds() {
        let mut sim = toy_sim(7);
        sim.run(1200);
        assert!(sim.metrics().promotions > 0, "nothing promoted");
        assert_eq!(queue_boundary_violations(&sim), 0);
        // Every promoted story crossed the threshold.
        for (id, _) in sim.front_page().all() {
            assert!(sim.story(*id).vote_count() >= 10);
        }
    }

    #[test]
    fn promoted_stories_leave_queue() {
        let mut sim = toy_sim(3);
        sim.run(1200);
        for (id, _) in sim.front_page().all() {
            assert!(!sim.upcoming_queue().contains(*id));
            assert!(sim.story(*id).is_front_page());
        }
    }

    #[test]
    fn expired_stories_are_marked() {
        // Make promotion unattainable so stories can only expire.
        let mut cfg = SimConfig::toy(4);
        cfg.promoter = PromoterKind::Threshold { min_votes: 100_000 };
        let mut rng = StdRng::seed_from_u64(4 ^ 0xABCD);
        let pop = Population::generate(&mut rng, &PopulationConfig::toy(cfg.users));
        let mut sim = Sim::new(cfg, pop);
        sim.run(1500);
        assert!(sim.metrics().expirations > 0);
        let expired = sim
            .stories()
            .iter()
            .filter(|s| matches!(s.status, StoryStatus::Expired(_)))
            .count();
        assert_eq!(expired as u64, sim.metrics().expirations);
    }

    #[test]
    fn votes_are_unique_per_user() {
        let mut sim = toy_sim(5);
        sim.run(800);
        for s in sim.stories() {
            let mut users: Vec<UserId> = s.votes.iter().map(|v| v.user).collect();
            users.sort_unstable();
            let before = users.len();
            users.dedup();
            assert_eq!(users.len(), before, "duplicate votes on {}", s.id);
        }
    }

    #[test]
    fn vote_times_are_monotone() {
        let mut sim = toy_sim(6);
        sim.run(800);
        for s in sim.stories() {
            assert!(s.votes.ats().windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(s.votes.get(0).user, s.submitter);
        }
    }

    #[test]
    fn social_channel_is_active() {
        let mut sim = toy_sim(8);
        sim.run(1200);
        assert!(
            sim.metrics().votes_friends > 0,
            "friends channel never fired: {:?}",
            sim.metrics()
        );
        assert!(sim.metrics().votes_frontpage > 0);
    }

    #[test]
    fn config_accessible() {
        let sim = toy_sim(9);
        assert_eq!(sim.config().users, 400);
        assert_eq!(sim.population().len(), 400);
    }

    #[test]
    #[should_panic(expected = "must match population size")]
    fn population_size_mismatch_panics() {
        let cfg = SimConfig::toy(1);
        let mut rng = StdRng::seed_from_u64(1);
        let pop = Population::generate(&mut rng, &PopulationConfig::toy(10));
        let _ = Sim::new(cfg, pop);
    }

    #[test]
    fn incremental_runs_match_one_shot() {
        // run(a); run(b) must equal run(a + b) — the heartbeats and
        // pending events survive across run() calls.
        let mut split = toy_sim(13);
        split.run(200);
        split.run(400);
        let mut whole = toy_sim(13);
        whole.run(600);
        assert_eq!(split.metrics(), whole.metrics());
        for (x, y) in split.stories().iter().zip(whole.stories()) {
            assert_eq!(x.votes, y.votes);
        }
    }

    fn toy_pop(seed: u64, users: usize) -> Population {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        Population::generate(&mut rng, &PopulationConfig::toy(users))
    }

    fn assert_same_trajectory(a: &Sim, b: &Sim) {
        assert_eq!(a.metrics(), b.metrics());
        assert_eq!(a.now(), b.now());
        assert_eq!(a.stories().len(), b.stories().len());
        for (x, y) in a.stories().iter().zip(b.stories()) {
            assert_eq!(x.votes, y.votes);
            assert_eq!(x.status, y.status);
            assert_eq!(x.quality.to_bits(), y.quality.to_bits());
        }
        assert_eq!(a.front_page().all(), b.front_page().all());
        assert_eq!(a.snapshot(), b.snapshot(), "snapshot bytes diverge");
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let mut straight = toy_sim(21);
        let mut paused = toy_sim(21);
        paused.run(350);
        let bytes = paused.snapshot();
        let mut resumed =
            Sim::restore(&bytes, toy_pop(21, paused.config().users)).expect("restore");
        // The restored sim snapshots back to the same bytes…
        assert_eq!(resumed.snapshot(), bytes);
        // …and the remainder of the run is bit-identical to never
        // having paused at all.
        straight.run(900);
        paused.run(550);
        resumed.run(550);
        assert_same_trajectory(&straight, &paused);
        assert_same_trajectory(&straight, &resumed);
    }

    #[test]
    fn restore_rejects_the_wrong_population() {
        let mut sim = toy_sim(30);
        sim.run(100);
        let bytes = sim.snapshot();
        let err = match Sim::restore(&bytes, toy_pop(31, sim.config().users)) {
            Err(e) => e,
            Ok(_) => panic!("restore accepted a mismatched population"),
        };
        match err {
            SnapshotError::Malformed(msg) => assert!(msg.contains("fingerprint"), "{msg}"),
            other => panic!("expected Malformed, got {other}"),
        }
    }

    #[test]
    fn restore_of_corrupted_snapshot_is_a_typed_error() {
        let mut sim = toy_sim(33);
        sim.run(120);
        let mut bytes = sim.snapshot();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        match Sim::restore(&bytes, toy_pop(33, sim.config().users)) {
            Err(_) => {}
            Ok(_) => panic!("restore accepted a corrupted snapshot"),
        }
    }

    #[test]
    fn restore_rejects_a_scheduled_pair_beyond_the_stories() {
        let mut sim = toy_sim(34);
        sim.run(120);
        let bytes = sim.snapshot();
        let stories = sim.stories().len();
        let story = u32::try_from(stories).expect("story count fits u32");
        // One pair naming story index == stories.len(), behind a pair
        // count far beyond the section: neither may panic or allocate.
        for count in [1usize, usize::MAX] {
            let mut w = ByteWriter::new();
            w.put_usize(count);
            w.put_u32(0);
            w.put_u32(story);
            let patched = with_section(&bytes, "scheduled", w.into_bytes(), &[]);
            match Sim::restore(&patched, toy_pop(34, sim.config().users)) {
                Err(SnapshotError::Malformed(msg)) => {
                    assert!(msg.contains(&format!("story s{story}")), "{msg}")
                }
                Err(other) => panic!("expected Malformed, got {other}"),
                Ok(_) => panic!("restore accepted a pair naming story {story} of {stories}"),
            }
        }
    }

    /// A fan id far beyond the toy population.
    const STRAY_FAN: UserId = UserId(4_000_000_000);

    /// Restore `patched` against the toy population of `seed` and
    /// require a `Malformed` error whose message contains `needle`.
    fn assert_malformed(patched: &[u8], seed: u64, users: usize, needle: &str) {
        match Sim::restore(patched, toy_pop(seed, users)) {
            Err(SnapshotError::Malformed(msg)) => assert!(msg.contains(needle), "{msg}"),
            Err(other) => panic!("expected Malformed naming {needle}, got {other}"),
            Ok(_) => panic!("restore accepted a snapshot naming {needle}"),
        }
    }

    /// `stories` re-encoded after `edit` changes story 0.
    fn stories_with(sim: &Sim, edit: impl Fn(&mut Story)) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_usize(sim.stories().len());
        for (k, story) in sim.stories().iter().enumerate() {
            let mut story = story.clone();
            if k == 0 {
                edit(&mut story);
            }
            story.encode(&mut w);
        }
        w.into_bytes()
    }

    #[test]
    fn restore_rejects_stories_naming_ids_out_of_range() {
        let mut sim = toy_sim(36);
        sim.run(120);
        let bytes = sim.snapshot();
        let users = sim.config().users;
        let stray = StoryId::from_index(sim.stories().len());
        let cases: [(Vec<u8>, String); 3] = [
            (
                stories_with(&sim, |s| s.submitter = STRAY_FAN),
                format!("user {STRAY_FAN}"),
            ),
            (
                stories_with(&sim, |s| {
                    s.votes.push(crate::story::Vote {
                        user: STRAY_FAN,
                        at: s.submitted_at,
                        channel: VoteChannel::Friends,
                    })
                }),
                format!("user {STRAY_FAN}"),
            ),
            (
                stories_with(&sim, |s| s.id = stray),
                format!("{stray} at index 0"),
            ),
        ];
        for (payload, needle) in cases {
            assert_malformed(
                &with_section(&bytes, "stories", payload, &[]),
                36,
                users,
                &needle,
            );
        }
    }

    /// Replace the listing `section` with one entry naming the story
    /// one past the last, and require restore to refuse it.
    fn assert_listing_bound(section: &str, seed: u64) {
        let mut sim = toy_sim(seed);
        sim.run(120);
        let bytes = sim.snapshot();
        let stray = StoryId::from_index(sim.stories().len());
        let mut w = ByteWriter::new();
        w.put_usize(1);
        w.put_u32(stray.0);
        w.put_u64(0);
        let patched = with_section(&bytes, section, w.into_bytes(), &[]);
        let needle = format!("{section} section names story {stray}");
        assert_malformed(&patched, seed, sim.config().users, &needle);
    }

    #[test]
    fn restore_rejects_a_queue_entry_beyond_the_stories() {
        assert_listing_bound("queue", 37);
    }

    #[test]
    fn restore_rejects_a_front_page_entry_beyond_the_stories() {
        assert_listing_bound("front", 40);
    }

    #[test]
    fn restore_rejects_a_scheduled_fan_beyond_the_population() {
        let mut sim = toy_sim(38);
        sim.run(120);
        let bytes = sim.snapshot();
        let mut w = ByteWriter::new();
        w.put_usize(1);
        w.put_u32(STRAY_FAN.0);
        w.put_u32(0);
        let patched = with_section(&bytes, "scheduled", w.into_bytes(), &[]);
        let needle = format!("scheduled section names user {STRAY_FAN}");
        assert_malformed(&patched, 38, sim.config().users, &needle);
    }

    #[test]
    fn restore_rejects_events_naming_ids_out_of_range() {
        let mut sim = toy_sim(39);
        sim.run(120);
        let bytes = sim.snapshot();
        let stray = StoryId::from_index(sim.stories().len());
        let exposure = |fan, story| Ev::Exposure {
            fan,
            story,
            triggered_at: Minute(100),
            from_submitter: false,
        };
        let cases = [
            (Ev::Expiry(stray), format!("story {stray}")),
            (exposure(STRAY_FAN, StoryId(0)), format!("user {STRAY_FAN}")),
            (exposure(UserId(0), stray), format!("story {stray}")),
        ];
        for (ev, needle) in cases {
            let mut q = EventQueue::new();
            q.schedule(200, CLASS_EXPOSE, ev);
            let patched = with_section(&bytes, "events", q.snapshot(), &[]);
            let needle = format!("events section names {needle}");
            assert_malformed(&patched, 39, sim.config().users, &needle);
        }
    }

    #[test]
    fn restore_rejects_a_story_quality_outside_the_unit_interval() {
        // A negative quality would give the story's discovery sampler a
        // negative Poisson mean, which panics; restore must refuse it.
        let mut sim = toy_sim(35);
        sim.run(120);
        let bytes = sim.snapshot();
        let stories = stories_with(&sim, |s| s.quality = -1.0);
        let patched = with_section(&bytes, "stories", stories, &[]);
        assert_malformed(&patched, 35, sim.config().users, "quality -1");
    }

    #[test]
    fn paper_regime_snapshot_resumes_to_the_same_bytes() {
        // The per-story exposure sets and the derived tables must
        // rebuild exactly at the paper's fan-out, not only on toys.
        let fresh = || {
            let (cfg, pop) = crate::scenario::june2006_small(2006);
            Sim::new(cfg, pop)
        };
        let mut straight = fresh();
        let mut paused = fresh();
        paused.run(crate::time::DAY / 2);
        let bytes = paused.snapshot();
        let (_, pop) = crate::scenario::june2006_small(2006);
        let mut resumed = Sim::restore(&bytes, pop).expect("restore");
        assert_eq!(resumed.snapshot(), bytes);
        straight.run(crate::time::DAY);
        resumed.run(crate::time::DAY / 2);
        assert!(straight.metrics().votes_friends > 0, "no social votes");
        assert_same_trajectory(&straight, &resumed);
    }

    /// Rebuild `bytes` with section `name` replaced by `payload` and
    /// any `extra` sections appended.
    fn with_section(
        bytes: &[u8],
        name: &str,
        payload: Vec<u8>,
        extra: &[(&str, Vec<u8>)],
    ) -> Vec<u8> {
        let c = SnapshotReader::parse(bytes).expect("parse");
        let mut w = SnapshotWriter::new();
        for section in c.section_names() {
            let body = if section == name {
                payload.clone()
            } else {
                c.section(section).expect("section").to_vec()
            };
            w.section(section, body);
        }
        for (name, payload) in extra {
            w.section(name, payload.clone());
        }
        w.finish()
    }

    #[test]
    fn restore_accepts_checkpoints_with_trailing_state_fields() {
        // Older checkpoints carried more fields after `external_lo`
        // and a "streams" section; the restore reads only the prefix
        // it needs and resumes on the same trajectory.
        let mut straight = toy_sim(22);
        let mut paused = toy_sim(22);
        paused.run(300);
        let bytes = paused.snapshot();
        let mut state = SnapshotReader::parse(&bytes)
            .expect("parse")
            .section("state")
            .expect("state")
            .to_vec();
        state.extend_from_slice(&[0u8; 40]);
        let legacy = with_section(&bytes, "state", state, &[("streams", vec![0u8; 64])]);
        let mut resumed =
            Sim::restore(&legacy, toy_pop(22, paused.config().users)).expect("restore");
        assert_eq!(resumed.snapshot(), bytes);
        straight.run(600);
        resumed.run(300);
        assert_same_trajectory(&straight, &resumed);
    }

    #[test]
    fn restore_rejects_an_unknown_kernel_tag() {
        let mut sim = toy_sim(23);
        sim.run(60);
        let bytes = sim.snapshot();
        let mut state = SnapshotReader::parse(&bytes)
            .expect("parse")
            .section("state")
            .expect("state")
            .to_vec();
        state[0] = 1;
        match Sim::restore(
            &with_section(&bytes, "state", state, &[]),
            toy_pop(23, sim.config().users),
        ) {
            Err(SnapshotError::Malformed(msg)) => assert!(msg.contains("kernel tag 1"), "{msg}"),
            Err(other) => panic!("expected Malformed, got {other}"),
            Ok(_) => panic!("restore accepted kernel tag 1"),
        }
    }

    #[test]
    fn run_budgeted_pauses_without_disturbing_the_trajectory() {
        // Drain the same horizon in tiny event budgets; state at the
        // end must match a single unbudgeted run — this is what lets a
        // sweep worker checkpoint every N events.
        let mut budgeted = toy_sim(17);
        let mut straight = toy_sim(17);
        let horizon = Minute(500);
        let mut slices = 0u32;
        while !budgeted.run_budgeted(horizon, 64) {
            slices += 1;
            assert!(slices < 100_000, "budgeted run failed to make progress");
        }
        straight.run(500);
        assert_same_trajectory(&straight, &budgeted);
        assert!(slices > 2, "budget was never exhausted mid-run");
    }
}
