//! Mining parameters and pruning configuration.

use farmer_dataset::ClassLabel;

/// Additional interestingness constraints — the paper's footnote 3
/// ("other constraints such as lift, conviction, entropy gain, gini and
/// correlation coefficient can be handled similarly").
///
/// Each constraint is both *checked at emission*
/// ([`Thresholds`](crate::Thresholds)) and *used for pruning* with a
/// sound upper bound: lift and conviction are monotone
/// transformations of confidence (given the fixed class margin), so they
/// tighten the effective minimum confidence; entropy gain and gini gain
/// are convex in the contingency counts, so the Morishita–Sese
/// parallelogram-vertex bound applies; positive correlation is bounded
/// through `φ² = χ²/n`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ExtraConstraint {
    /// `lift(rule) >= v`. `v > 1` demands positive association.
    MinLift(f64),
    /// `conviction(rule) >= v` (`v > 1` demands positive association;
    /// exact rules have conviction `+∞` and always pass).
    MinConviction(f64),
    /// `entropy_gain(rule) >= v` bits.
    MinEntropyGain(f64),
    /// `gini_gain(rule) >= v`.
    MinGiniGain(f64),
    /// `correlation(rule) >= v` for `v >= 0` (the φ coefficient).
    MinCorrelation(f64),
}

/// User-facing mining constraints (§2.2 of the paper).
#[derive(Clone, Debug, PartialEq)]
pub struct MiningParams {
    /// The consequent class `C` every mined rule predicts.
    pub target_class: ClassLabel,
    /// Minimum rule support `|R(A ∪ C)|`, as an absolute row count
    /// (≥ 1; the paper's "minsup = 1" effectively disables the
    /// constraint).
    pub min_sup: usize,
    /// Minimum confidence in `[0, 1]`; 0 disables confidence pruning.
    pub min_conf: f64,
    /// Minimum χ² value; 0 disables χ² pruning.
    pub min_chi: f64,
    /// Whether to run MineLB and attach lower bounds to each group
    /// (step 3 of Figure 5 — "Optional" in the paper, but included in
    /// FARMER's reported runtimes, so it defaults to `true`).
    pub lower_bounds: bool,
    /// Footnote-3 extension constraints, all of which must hold for a
    /// group to be reported (and all of which prune the search).
    pub extra: Vec<ExtraConstraint>,
}

impl MiningParams {
    /// Parameters targeting `class` with everything else disabled:
    /// `min_sup = 1`, `min_conf = 0`, `min_chi = 0`, lower bounds on.
    pub fn new(class: ClassLabel) -> Self {
        MiningParams {
            target_class: class,
            min_sup: 1,
            min_conf: 0.0,
            min_chi: 0.0,
            lower_bounds: true,
            extra: Vec::new(),
        }
    }

    /// Sets the minimum support (absolute count, clamped to ≥ 1).
    pub fn min_sup(mut self, s: usize) -> Self {
        self.min_sup = s.max(1);
        self
    }

    /// Sets the minimum confidence (clamped into `[0, 1]`).
    pub fn min_conf(mut self, c: f64) -> Self {
        assert!(!c.is_nan(), "min_conf must not be NaN");
        self.min_conf = c.clamp(0.0, 1.0);
        self
    }

    /// Sets the minimum χ² value (clamped to ≥ 0).
    pub fn min_chi(mut self, c: f64) -> Self {
        assert!(!c.is_nan(), "min_chi must not be NaN");
        self.min_chi = c.max(0.0);
        self
    }

    /// Enables or disables lower-bound computation.
    pub fn lower_bounds(mut self, on: bool) -> Self {
        self.lower_bounds = on;
        self
    }

    /// Adds a footnote-3 extension constraint.
    pub fn constrain(mut self, c: ExtraConstraint) -> Self {
        self.extra.push(c);
        self
    }

    /// Checks the parameters for values the builders would reject (or
    /// that a caller constructing the struct directly could smuggle in):
    /// non-finite or out-of-range `min_conf` / `min_chi` / extra
    /// thresholds, or a zero `min_sup`. The CLI calls this on raw user
    /// input instead of letting the builder assertions panic.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_sup == 0 {
            return Err("min_sup must be >= 1".into());
        }
        if !self.min_conf.is_finite() || !(0.0..=1.0).contains(&self.min_conf) {
            return Err(format!(
                "min_conf must be a finite value in [0, 1], got {}",
                self.min_conf
            ));
        }
        if !self.min_chi.is_finite() || self.min_chi < 0.0 {
            return Err(format!(
                "min_chi must be a finite value >= 0, got {}",
                self.min_chi
            ));
        }
        for c in &self.extra {
            let v = match *c {
                ExtraConstraint::MinLift(v)
                | ExtraConstraint::MinConviction(v)
                | ExtraConstraint::MinEntropyGain(v)
                | ExtraConstraint::MinGiniGain(v)
                | ExtraConstraint::MinCorrelation(v) => v,
            };
            if v.is_nan() {
                return Err(format!("extra constraint threshold is NaN: {c:?}"));
            }
        }
        Ok(())
    }
}

/// Which pruning strategies the search applies.
///
/// All strategies are *sound* — any combination yields exactly the same
/// IRGs — so this switchboard exists for the ablation experiments, not
/// for tuning results. Defaults to everything on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PruningConfig {
    /// Strategy 1: delete candidate rows occurring in every tuple of the
    /// conditional table and fold them into the support counts
    /// (Lemma 3.5).
    pub strategy1_compression: bool,
    /// Strategy 2: stop when a skipped row proves the subtree's groups
    /// were all discovered earlier (Lemma 3.6, the "back scan").
    pub strategy2_duplicate: bool,
    /// Strategy 3, loose half: support/confidence bounds computable
    /// before scanning the conditional table (`Us2`, `Uc2`).
    pub strategy3_loose: bool,
    /// Strategy 3, tight half: support/confidence/χ² bounds after the
    /// scan (`Us1`, `Uc1`, Lemma 3.9).
    pub strategy3_tight: bool,
}

impl Default for PruningConfig {
    fn default() -> Self {
        PruningConfig {
            strategy1_compression: true,
            strategy2_duplicate: true,
            strategy3_loose: true,
            strategy3_tight: true,
        }
    }
}

impl PruningConfig {
    /// Every pruning strategy disabled — the plain enumeration of
    /// Figure 3. Exponentially slower; only for tests and ablations.
    pub fn none() -> Self {
        PruningConfig {
            strategy1_compression: false,
            strategy2_duplicate: false,
            strategy3_loose: false,
            strategy3_tight: false,
        }
    }

    /// All strategies enabled (same as `Default`).
    pub fn all() -> Self {
        Self::default()
    }
}

/// Which conditional-transposed-table representation the search uses.
///
/// The search has one representation, item-column row bitsets (see
/// [`cond`](crate::cond)), so this enum has one variant and selects
/// nothing. It stays only because the benchmark harness under
/// `perfbench/` names it in its call to
/// `farmer_pipeline::IncrementalMiner::new`; it goes when that call does.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// Tuples held as row bitsets; scans are word-parallel.
    #[default]
    Bitset,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_clamps() {
        let p = MiningParams::new(1).min_sup(0).min_conf(1.5).min_chi(-2.0);
        assert_eq!(p.min_sup, 1);
        assert_eq!(p.min_conf, 1.0);
        assert_eq!(p.min_chi, 0.0);
        assert_eq!(p.target_class, 1);
        assert!(p.lower_bounds);
        assert!(!p.lower_bounds(false).lower_bounds);
    }

    #[test]
    fn validate_accepts_builder_output_and_rejects_raw_garbage() {
        assert!(MiningParams::new(0)
            .min_conf(0.8)
            .min_chi(3.84)
            .validate()
            .is_ok());
        let mut p = MiningParams::new(0);
        p.min_sup = 0;
        assert!(p.validate().is_err());
        let mut p = MiningParams::new(0);
        p.min_conf = f64::NAN;
        assert!(p.validate().is_err());
        let mut p = MiningParams::new(0);
        p.min_conf = -0.5;
        assert!(p.validate().is_err());
        let mut p = MiningParams::new(0);
        p.min_chi = f64::INFINITY;
        assert!(p.validate().is_err());
        let mut p = MiningParams::new(0);
        p.extra.push(ExtraConstraint::MinLift(f64::NAN));
        assert!(p.validate().is_err());
    }

    #[test]
    fn pruning_presets() {
        assert_eq!(PruningConfig::all(), PruningConfig::default());
        let none = PruningConfig::none();
        assert!(!none.strategy1_compression && !none.strategy2_duplicate);
        assert!(!none.strategy3_loose && !none.strategy3_tight);
    }
}
