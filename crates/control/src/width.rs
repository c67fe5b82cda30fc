//! Width policies: who decides how wide an ordered parallel region is.
//!
//! PR 5 built the elastic-width *mechanism* ([`ControlPlane::grow`] /
//! [`ControlPlane::shrink`](crate::ControlPlane::shrink) drive the
//! open-slot → grow → install and shrink → install → close-slot ordering
//! rules end-to-end), but every layer still *scripted* its resizes. This
//! module makes width a policy decision:
//!
//! - [`WidthPolicy`] is the closed set of policies: once per control round
//!   the plane shows the policy a [`WidthView`] — the solved minimax
//!   blocking rate, the observed blocking, the current width and
//!   liveness — and the policy answers with a [`WidthDecision`].
//! - [`ScriptedWidth`] is the adapter the wall-clock layers' scripted
//!   resizes ride: `grow_after`/`shrink_after` builder calls become
//!   scripted steps fired by elapsed time. (The discrete-event simulator
//!   owns its clock and schedules its scripted resizes as events.)
//! - [`Autoscaler`] is the production closed-loop policy: high/low
//!   watermarks on the scaling pressure ([`WidthView::pressure`] — solved
//!   minimax blocking or total observed blocking, whichever is worse), a
//!   utilization-headroom guard before shrinking, hysteresis
//!   (consecutive-round confirmation plus a post-resize cooldown) and
//!   bounded step sizes.
//! - [`ReactiveWidth`] is the DPA-style reactive baseline the reports
//!   compare against: threshold reaction on the *observed* blocking with
//!   no hysteresis and no cooldown — deliberately flappy.
//!
//! Decisions are pure functions of `(view history, config)`: no clocks, no
//! randomness, so every run replays exactly. See `docs/AUTOSCALING.md`.
//!
//! [`ControlPlane::grow`]: crate::ControlPlane::grow

use std::time::Duration;

/// What a [`WidthPolicy`] wants done with the region width this round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WidthDecision {
    /// Open `n` new slots (applied through the grow ordering rule:
    /// open slots, grow the balancer, install).
    Grow(usize),
    /// Close `n` tail slots (applied through the shrink ordering rule:
    /// shrink the balancer, install, close slots).
    Shrink(usize),
    /// Keep the current width.
    Hold,
}

/// One round's inputs to a [`WidthPolicy`] — a width-focused view of the
/// same round the controller just solved.
#[derive(Debug)]
pub struct WidthView<'a> {
    /// Milliseconds since the run started (wall clock or virtual).
    pub elapsed_ms: u64,
    /// The region's current width (connection slots, attached or not).
    pub width: usize,
    /// How many of those slots are currently attached.
    pub live: usize,
    /// The solved minimax blocking rate: the worst *predicted* blocking
    /// across attached slots at the installed weights — the objective
    /// value of the round's solve. Near zero means capacity headroom;
    /// high means the region is saturated and no reallancing can fix it.
    pub solved_blocking: f64,
    /// The worst *observed* blocking rate across attached slots this
    /// round (uncapped).
    pub observed_blocking: f64,
    /// Per-slot observed blocking rates for the round.
    pub rates: &'a [f64],
    /// The installed allocation weights, raw units.
    pub weights: &'a [u32],
}

impl WidthView<'_> {
    /// The scaling-pressure signal the [`Autoscaler`] watches: the larger
    /// of the solved minimax blocking and the *total* observed blocking
    /// across slots, capped at 1.
    ///
    /// Both terms are needed. The solved term catches *skew* saturation —
    /// one slot stays blocked even at the optimal allocation, so its
    /// rebuilt blocking-rate function learns it and the solve's objective
    /// value stays high. Aggregate *overload* is invisible to that term:
    /// the splitter blocks on whichever buffer happens to fill first, the
    /// blocked slot rotates round to round, every per-slot function sees
    /// mostly-zero samples, and the model keeps predicting that
    /// reallocation will fix what reallocation cannot fix. The sum of the
    /// observed per-slot rates is exactly the splitter's blocked fraction
    /// of the interval, whoever it was blocked on — the utilization
    /// headroom term that sees overload immediately.
    #[must_use]
    pub fn pressure(&self) -> f64 {
        let total: f64 = self.rates.iter().map(|r| r.max(0.0)).sum();
        self.solved_blocking.max(total.min(1.0))
    }
}

/// A width policy: consulted once per control round, after the weight
/// solve, with that round's [`WidthView`]; answers with a
/// [`WidthDecision`] the control plane applies through the elastic
/// grow/shrink ordering rules.
///
/// Every policy is deterministic in `(view history, config)`, so runs
/// replay exactly.
#[derive(Debug, Clone)]
pub enum WidthPolicy {
    /// Scripted steps fired by elapsed time.
    Scripted(ScriptedWidth),
    /// The production closed-loop policy.
    Autoscaler(Autoscaler),
    /// The reactive baseline.
    Reactive(ReactiveWidth),
}

impl WidthPolicy {
    /// Decides this round's width change.
    pub fn decide(&mut self, view: &WidthView<'_>) -> WidthDecision {
        match self {
            WidthPolicy::Scripted(p) => p.decide(view),
            WidthPolicy::Autoscaler(p) => p.decide(view),
            WidthPolicy::Reactive(p) => p.decide(view),
        }
    }

    /// Whether the most recent [`Hold`](WidthDecision::Hold) was a resize
    /// suppressed by a cooldown window (feeds the
    /// `autoscale.cooldown_suppressed` counter).
    #[must_use]
    pub fn suppressed_by_cooldown(&self) -> bool {
        matches!(self, WidthPolicy::Autoscaler(a) if a.suppressed_by_cooldown())
    }
}

impl From<ScriptedWidth> for WidthPolicy {
    fn from(p: ScriptedWidth) -> Self {
        WidthPolicy::Scripted(p)
    }
}

impl From<Autoscaler> for WidthPolicy {
    fn from(p: Autoscaler) -> Self {
        WidthPolicy::Autoscaler(p)
    }
}

impl From<ReactiveWidth> for WidthPolicy {
    fn from(p: ReactiveWidth) -> Self {
        WidthPolicy::Reactive(p)
    }
}

/// One scripted resize step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ScriptedStep {
    /// Fires once `elapsed_ms` reaches this.
    after_ms: u64,
    /// `true` grows, `false` shrinks.
    grow: bool,
    /// How many slots.
    count: usize,
}

/// The shared scripted-width adapter: a list of "grow/shrink by N after
/// T" steps, fired by elapsed time through the normal [`WidthPolicy`]
/// round hook.
///
/// The `grow_after`/`shrink_after` builders of the threaded runtime, the
/// TCP runtime and the dataflow pipeline all compile down to one of
/// these. The discrete-event simulator does not: it owns its event clock,
/// so its scripted resizes are heap events applied at their exact time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScriptedWidth {
    steps: Vec<ScriptedStep>,
    next: usize,
}

impl ScriptedWidth {
    /// An empty script (holds forever).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends "grow by `count` once `after` has elapsed".
    pub fn grow_after(&mut self, after: Duration, count: usize) -> &mut Self {
        self.push(after, true, count)
    }

    /// Appends "shrink by `count` once `after` has elapsed".
    pub fn shrink_after(&mut self, after: Duration, count: usize) -> &mut Self {
        self.push(after, false, count)
    }

    fn push(&mut self, after: Duration, grow: bool, count: usize) -> &mut Self {
        self.steps.push(ScriptedStep {
            after_ms: u64::try_from(after.as_millis()).unwrap_or(u64::MAX),
            grow,
            count,
        });
        self
    }

    /// Whether any step is scripted at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Sorts steps by fire time, keeping insertion order for ties. Called
    /// by builders once the script is complete.
    pub fn sort(&mut self) {
        self.steps.sort_by_key(|s| s.after_ms);
    }

    /// Fires every step due at `view.elapsed_ms` and returns the *net*
    /// change — identical to the old `grow_after`/`shrink_after` target
    /// reconciliation, where a round applied the net of all due steps.
    pub fn decide(&mut self, view: &WidthView<'_>) -> WidthDecision {
        let mut net = 0i64;
        while let Some(step) = self.steps.get(self.next) {
            if step.after_ms > view.elapsed_ms {
                break;
            }
            net += if step.grow {
                step.count as i64
            } else {
                -(step.count as i64)
            };
            self.next += 1;
        }
        match net {
            n if n > 0 => WidthDecision::Grow(n as usize),
            n if n < 0 => WidthDecision::Shrink((-n) as usize),
            _ => WidthDecision::Hold,
        }
    }
}

/// Knobs for the closed-loop [`Autoscaler`]. See `docs/AUTOSCALING.md`
/// for tuning guidance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalerConfig {
    /// Grow when the scaling pressure ([`WidthView::pressure`]) stays
    /// above this (default 0.15: the splitter spends 15% of the interval
    /// blocked even at the optimal allocation).
    pub high_watermark: f64,
    /// Shrink when the scaling pressure stays below this (default 0.02).
    pub low_watermark: f64,
    /// Consecutive rounds the signal must stay beyond a watermark before
    /// the scaler acts (default 3) — the confirmation half of hysteresis.
    pub confirm_rounds: u32,
    /// Rounds after a resize during which further resizes are suppressed
    /// (default 8) — the cooldown half of hysteresis.
    pub cooldown_rounds: u32,
    /// Largest single grow/shrink step, slots (default 2).
    pub max_step: usize,
    /// Never shrink below this width (default 1).
    pub min_width: usize,
    /// Never grow above this width (default `usize::MAX`; the data plane
    /// may refuse earlier — e.g. the proxy runs out of reserve backends).
    pub max_width: usize,
}

impl Default for AutoscalerConfig {
    fn default() -> Self {
        AutoscalerConfig {
            high_watermark: 0.15,
            low_watermark: 0.02,
            confirm_rounds: 3,
            cooldown_rounds: 8,
            max_step: 2,
            min_width: 1,
            max_width: usize::MAX,
        }
    }
}

/// The production closed-loop width policy.
///
/// Watches the scaling pressure ([`WidthView::pressure`]): the larger of
/// the solved minimax blocking rate — the objective value of the round's
/// weight solve, which stays high when *skew* saturates one slot beyond
/// what reallocation can fix — and the total observed blocking across
/// slots, which sees aggregate *overload* the per-slot model cannot
/// (the blocked slot rotates, so no single function learns it). High
/// pressure means the region is out of capacity and must grow; pressure
/// near zero means capacity headroom, a shrink candidate. Guards:
///
/// - **confirmation**: the signal must stay beyond a watermark for
///   [`confirm_rounds`](AutoscalerConfig::confirm_rounds) consecutive
///   rounds (one noisy interval never resizes the region);
/// - **cooldown**: after any resize,
///   [`cooldown_rounds`](AutoscalerConfig::cooldown_rounds) must pass
///   before the next (the region gets time to reconverge — and the new
///   slots' exploration-bounded admission time to show up in the solve);
/// - **headroom guard**: a shrink is only taken if the post-shrink load
///   projection (`solved × width / (width − n)`) stays under the high
///   watermark, shrinking the step until it does;
/// - **bounded steps**: never more than
///   [`max_step`](AutoscalerConfig::max_step) slots per decision, never
///   outside `[min_width, max_width]`.
#[derive(Debug, Clone)]
pub struct Autoscaler {
    cfg: AutoscalerConfig,
    above_streak: u32,
    below_streak: u32,
    cooldown_left: u32,
    suppressed: bool,
}

impl Autoscaler {
    /// Creates the policy.
    ///
    /// # Panics
    ///
    /// Panics if the watermarks are inverted, `min_width` is 0, or
    /// `min_width > max_width`.
    #[must_use]
    pub fn new(cfg: AutoscalerConfig) -> Self {
        assert!(
            cfg.low_watermark <= cfg.high_watermark,
            "low watermark above high"
        );
        assert!(cfg.min_width >= 1, "min_width must be at least 1");
        assert!(cfg.min_width <= cfg.max_width, "min_width above max_width");
        Autoscaler {
            cfg,
            above_streak: 0,
            below_streak: 0,
            cooldown_left: 0,
            suppressed: false,
        }
    }

    /// The policy's configuration.
    #[must_use]
    pub fn config(&self) -> &AutoscalerConfig {
        &self.cfg
    }

    /// Decides this round's width change.
    pub fn decide(&mut self, view: &WidthView<'_>) -> WidthDecision {
        self.suppressed = false;
        let signal = view.pressure();
        let beyond = signal > self.cfg.high_watermark || signal < self.cfg.low_watermark;
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            // Streaks do not accumulate through a cooldown: the region is
            // still absorbing the last resize, so old evidence is stale.
            self.above_streak = 0;
            self.below_streak = 0;
            self.suppressed = beyond;
            return WidthDecision::Hold;
        }
        if signal > self.cfg.high_watermark {
            self.above_streak += 1;
            self.below_streak = 0;
            if self.above_streak >= self.cfg.confirm_rounds && view.width < self.cfg.max_width {
                let n = self.cfg.max_step.min(self.cfg.max_width - view.width);
                self.above_streak = 0;
                self.cooldown_left = self.cfg.cooldown_rounds;
                return WidthDecision::Grow(n);
            }
        } else if signal < self.cfg.low_watermark {
            self.below_streak += 1;
            self.above_streak = 0;
            if self.below_streak >= self.cfg.confirm_rounds && view.width > self.cfg.min_width {
                let mut n = self.cfg.max_step.min(view.width - self.cfg.min_width);
                // Headroom guard: the survivors will absorb the leavers'
                // share; project the post-shrink blocking and back off the
                // step until the projection clears the high watermark.
                while n > 0 {
                    let projected = signal * view.width as f64 / (view.width - n) as f64;
                    if projected < self.cfg.high_watermark {
                        break;
                    }
                    n -= 1;
                }
                if n > 0 {
                    self.below_streak = 0;
                    self.cooldown_left = self.cfg.cooldown_rounds;
                    return WidthDecision::Shrink(n);
                }
            }
        } else {
            self.above_streak = 0;
            self.below_streak = 0;
        }
        WidthDecision::Hold
    }

    /// Whether the most recent [`Hold`](WidthDecision::Hold) was a resize
    /// suppressed by the cooldown window.
    #[must_use]
    pub fn suppressed_by_cooldown(&self) -> bool {
        self.suppressed
    }
}

impl Default for Autoscaler {
    fn default() -> Self {
        Autoscaler::new(AutoscalerConfig::default())
    }
}

/// The DPA-style reactive-migration baseline: immediate threshold
/// reaction on the *observed* worst blocking rate, step 1, no
/// confirmation, no cooldown, no headroom guard. This is the policy shape
/// of reactive operator-migration balancers — it chases every noisy
/// interval, which is exactly what the flapping oracle and the
/// autoscale comparison report are there to show.
#[derive(Debug, Clone)]
pub struct ReactiveWidth {
    /// Grow when observed blocking exceeds this.
    pub high: f64,
    /// Shrink when observed blocking is below this.
    pub low: f64,
    /// Never shrink below this width.
    pub min_width: usize,
    /// Never grow above this width.
    pub max_width: usize,
}

impl ReactiveWidth {
    /// Creates the baseline with the given thresholds and width bounds.
    #[must_use]
    pub fn new(high: f64, low: f64, min_width: usize, max_width: usize) -> Self {
        ReactiveWidth {
            high,
            low,
            min_width,
            max_width,
        }
    }

    /// Decides this round's width change.
    pub fn decide(&mut self, view: &WidthView<'_>) -> WidthDecision {
        if view.observed_blocking > self.high && view.width < self.max_width {
            WidthDecision::Grow(1)
        } else if view.observed_blocking < self.low && view.width > self.min_width {
            WidthDecision::Shrink(1)
        } else {
            WidthDecision::Hold
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streambal_core::rng::SplitMix64;

    fn view(width: usize, solved: f64) -> WidthView<'static> {
        WidthView {
            elapsed_ms: 0,
            width,
            live: width,
            solved_blocking: solved,
            observed_blocking: solved,
            rates: &[],
            weights: &[],
        }
    }

    #[test]
    fn scripted_fires_by_elapsed_time_net() {
        let mut s = ScriptedWidth::new();
        s.grow_after(Duration::from_millis(50), 2)
            .shrink_after(Duration::from_millis(200), 1);
        assert_eq!(s.decide(&mut_view(49)), WidthDecision::Hold);
        assert_eq!(s.decide(&mut_view(50)), WidthDecision::Grow(2));
        assert_eq!(s.decide(&mut_view(60)), WidthDecision::Hold, "fires once");
        assert_eq!(s.decide(&mut_view(500)), WidthDecision::Shrink(1));
        assert_eq!(s.decide(&mut_view(1000)), WidthDecision::Hold);
    }

    fn mut_view(elapsed_ms: u64) -> WidthView<'static> {
        WidthView {
            elapsed_ms,
            ..view(2, 0.0)
        }
    }

    #[test]
    fn scripted_nets_steps_due_in_the_same_round() {
        let mut s = ScriptedWidth::new();
        s.grow_after(Duration::from_millis(10), 3)
            .shrink_after(Duration::from_millis(20), 1);
        assert_eq!(s.decide(&mut_view(25)), WidthDecision::Grow(2));
        let mut t = ScriptedWidth::new();
        t.grow_after(Duration::from_millis(10), 1)
            .shrink_after(Duration::from_millis(20), 1);
        assert_eq!(t.decide(&mut_view(25)), WidthDecision::Hold);
    }

    #[test]
    fn pressure_sees_rotating_overload_the_model_misses() {
        // Aggregate overload: the splitter's blocked time rotates across
        // slots, so the solved model signal stays near zero while the
        // *sum* of observed rates is the real blocked fraction.
        let rates = [0.0, 0.9, 0.0, 0.0];
        let v = WidthView {
            rates: &rates,
            ..view(4, 0.01)
        };
        assert!((v.pressure() - 0.9).abs() < 1e-12);
        // Skew saturation: the model's solved value dominates.
        let v = WidthView {
            rates: &[0.1, 0.0],
            ..view(2, 0.6)
        };
        assert!((v.pressure() - 0.6).abs() < 1e-12);
        // The observed term is capped at 1 even if spans overlap.
        let v = WidthView {
            rates: &[0.8, 0.8],
            ..view(2, 0.0)
        };
        assert!((v.pressure() - 1.0).abs() < 1e-12);
        let mut a = Autoscaler::new(AutoscalerConfig {
            confirm_rounds: 1,
            ..AutoscalerConfig::default()
        });
        let overload = [0.0, 0.9, 0.0, 0.0];
        let v = WidthView {
            rates: &overload,
            ..view(4, 0.0)
        };
        assert_eq!(a.decide(&v), WidthDecision::Grow(2));
    }

    #[test]
    fn autoscaler_grows_after_confirmation_only() {
        let mut a = Autoscaler::new(AutoscalerConfig {
            confirm_rounds: 3,
            cooldown_rounds: 2,
            ..AutoscalerConfig::default()
        });
        assert_eq!(a.decide(&view(4, 0.5)), WidthDecision::Hold);
        assert_eq!(a.decide(&view(4, 0.5)), WidthDecision::Hold);
        assert_eq!(a.decide(&view(4, 0.5)), WidthDecision::Grow(2));
    }

    #[test]
    fn autoscaler_one_noisy_round_never_resizes() {
        let mut a = Autoscaler::default();
        for _ in 0..20 {
            assert_eq!(a.decide(&view(4, 0.9)), WidthDecision::Hold);
            assert_eq!(a.decide(&view(4, 0.05)), WidthDecision::Hold);
        }
    }

    #[test]
    fn autoscaler_cooldown_is_respected_and_reported() {
        let cfg = AutoscalerConfig {
            confirm_rounds: 1,
            cooldown_rounds: 5,
            ..AutoscalerConfig::default()
        };
        let mut a = Autoscaler::new(cfg);
        assert_eq!(a.decide(&view(4, 0.9)), WidthDecision::Grow(2));
        for i in 0..cfg.cooldown_rounds {
            assert_eq!(a.decide(&view(6, 0.9)), WidthDecision::Hold, "round {i}");
            assert!(a.suppressed_by_cooldown(), "round {i} was suppressed");
        }
        // First post-cooldown round with the signal still high acts again.
        assert_eq!(a.decide(&view(6, 0.9)), WidthDecision::Grow(2));
    }

    #[test]
    fn autoscaler_step_bound_and_width_clamps() {
        let mut a = Autoscaler::new(AutoscalerConfig {
            confirm_rounds: 1,
            cooldown_rounds: 0,
            max_step: 3,
            min_width: 2,
            max_width: 6,
            ..AutoscalerConfig::default()
        });
        assert_eq!(
            a.decide(&view(4, 0.9)),
            WidthDecision::Grow(2),
            "clamped to max_width"
        );
        assert_eq!(a.decide(&view(6, 0.9)), WidthDecision::Hold, "at max_width");
        assert_eq!(a.decide(&view(6, 0.0)), WidthDecision::Shrink(3));
        assert_eq!(
            a.decide(&view(3, 0.0)),
            WidthDecision::Shrink(1),
            "clamped to min_width"
        );
        assert_eq!(a.decide(&view(2, 0.0)), WidthDecision::Hold, "at min_width");
    }

    #[test]
    fn autoscaler_headroom_guard_backs_off_the_shrink() {
        let mut a = Autoscaler::new(AutoscalerConfig {
            confirm_rounds: 1,
            cooldown_rounds: 0,
            max_step: 2,
            high_watermark: 0.15,
            low_watermark: 0.02,
            ..AutoscalerConfig::default()
        });
        // solved 0.019 at width 4: shrinking by 2 projects 0.038 (< 0.15),
        // fine; solved 0.019 at width 4 with a 0.03 high watermark must
        // back off to 1 (projection 0.0253 < 0.03) — and a tighter one
        // refuses entirely.
        assert_eq!(a.decide(&view(4, 0.019)), WidthDecision::Shrink(2));
        let mut tight = Autoscaler::new(AutoscalerConfig {
            confirm_rounds: 1,
            cooldown_rounds: 0,
            max_step: 2,
            high_watermark: 0.026,
            low_watermark: 0.02,
            ..AutoscalerConfig::default()
        });
        assert_eq!(tight.decide(&view(4, 0.019)), WidthDecision::Shrink(1));
        let mut tighter = Autoscaler::new(AutoscalerConfig {
            confirm_rounds: 1,
            cooldown_rounds: 0,
            max_step: 2,
            high_watermark: 0.0201,
            low_watermark: 0.02,
            ..AutoscalerConfig::default()
        });
        assert_eq!(tighter.decide(&view(4, 0.019)), WidthDecision::Hold);
    }

    #[test]
    fn autoscaler_monotone_ramp_never_oscillates() {
        // Seeded monotone ramps: the width trajectory must be free of
        // direction reversals — on a rising signal, no Shrink after the
        // first Grow; on a falling one, no Grow after the first Shrink.
        for seed in 0..32u64 {
            let mut rng = SplitMix64::new(seed);
            let mut a = Autoscaler::default();
            let mut width = 4usize;
            let mut signal = 0.0f64;
            let mut grew = false;
            for _ in 0..200 {
                signal += rng.frange(0.0, 0.02);
                match a.decide(&view(width, signal)) {
                    WidthDecision::Grow(n) => {
                        width += n;
                        grew = true;
                    }
                    WidthDecision::Shrink(n) => {
                        assert!(!grew, "reversal on a rising ramp (seed {seed})");
                        width -= n;
                    }
                    WidthDecision::Hold => {}
                }
            }
            let mut a = Autoscaler::default();
            let mut width = 16usize;
            let mut signal = 1.0f64;
            let mut shrank = false;
            for _ in 0..200 {
                signal = (signal - rng.frange(0.0, 0.01)).max(0.0);
                match a.decide(&view(width, signal)) {
                    WidthDecision::Shrink(n) => {
                        width -= n;
                        shrank = true;
                    }
                    WidthDecision::Grow(n) => {
                        assert!(!shrank, "reversal on a falling ramp (seed {seed})");
                        width += n;
                    }
                    WidthDecision::Hold => {}
                }
            }
        }
    }

    #[test]
    fn autoscaler_decisions_are_deterministic() {
        for seed in 0..16u64 {
            let mut rng_a = SplitMix64::new(seed);
            let mut rng_b = SplitMix64::new(seed);
            let mut a = Autoscaler::default();
            let mut b = Autoscaler::default();
            for _ in 0..500 {
                let w = 2 + rng_a.below(14) as usize;
                let s = rng_a.frange(0.0, 1.0);
                assert_eq!(w, 2 + rng_b.below(14) as usize);
                assert!((s - rng_b.frange(0.0, 1.0)).abs() < 1e-18);
                assert_eq!(
                    a.decide(&view(w, s)),
                    b.decide(&view(w, s)),
                    "seed {seed}: same history, same config, same decision"
                );
            }
        }
    }

    #[test]
    fn reactive_baseline_reacts_immediately_and_flaps() {
        let mut r = ReactiveWidth::new(0.3, 0.05, 2, 8);
        assert_eq!(r.decide(&view(4, 0.5)), WidthDecision::Grow(1));
        assert_eq!(r.decide(&view(5, 0.0)), WidthDecision::Shrink(1));
        assert_eq!(r.decide(&view(4, 0.5)), WidthDecision::Grow(1));
        assert_eq!(r.decide(&view(8, 0.5)), WidthDecision::Hold, "at max");
        assert_eq!(r.decide(&view(2, 0.0)), WidthDecision::Hold, "at min");
    }
}
