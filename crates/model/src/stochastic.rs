//! Probabilistic PSDF extensions: distributions on flow parameters and
//! seeded sampling of concrete models.
//!
//! The paper estimates one deterministic schedule, but real SegBus traffic
//! is stochastic. This module lets a flow carry *distributions* instead of
//! (or rather, alongside) its point values:
//!
//! * `items_dist` — a distribution on the flow's data volume `D`;
//! * `ticks_dist` — a distribution on the per-package compute cost `C`;
//! * `jitter`     — extra per-package arrival delay added on top of the
//!   (possibly sampled) `C`, modelling variable production latency.
//!
//! The annotations are carried as a *sidecar* on [`Application`]
//! ([`Application::set_flow_noise`]) so the base model stays a perfectly
//! ordinary deterministic PSM: every existing command runs it unchanged,
//! and [`crate::digest`] deliberately ignores the annotations — only
//! *sampled* (concrete) models are ever emulated or cached.
//!
//! # Determinism contract
//!
//! [`sample_psm`] maps `(model, seed)` to one concrete [`Psm`] through a
//! single [`SmallRng`] stream: flows are visited in [`FlowId`] order and
//! each flow draws in the fixed order *items → ticks → jitter*, drawing
//! **only** for the distributions that are present. [`sample_flow_values`]
//! is the one place that order is written down; it draws the values
//! alone, for callers that keep the model's structure (Monte-Carlo).
//! The stream, the visit order and the draw order are part of the
//! workspace determinism contract (pinned by golden tests); changing any
//! of them silently re-samples every committed corpus file and every
//! seeded experiment.
//! Monte-Carlo sample `i` of master seed `s` uses [`mix_seed`]`(s, i)`.

use std::fmt;

use crate::error::ModelError;
use crate::ids::FlowId;
use crate::mapping::Psm;
use crate::psdf::{Application, Flow, FlowValues};
use crate::rng::SmallRng;

/// A distribution over unsigned integer values (items, ticks, jitter).
#[derive(Clone, PartialEq, Debug)]
pub enum Dist {
    /// Always `value`. Useful to override a base value in a corpus family
    /// without widening it.
    Constant(u64),
    /// Uniform over the inclusive range `[lo, hi]`.
    Uniform {
        /// Smallest value (inclusive).
        lo: u64,
        /// Largest value (inclusive).
        hi: u64,
    },
    /// Normal with `mean`/`std`, sampled by Box–Muller and clamped into
    /// the inclusive `[lo, hi]` before rounding to an integer.
    Normal {
        /// Mean of the underlying normal.
        mean: u64,
        /// Standard deviation of the underlying normal.
        std: u64,
        /// Clamp floor (inclusive).
        lo: u64,
        /// Clamp ceiling (inclusive).
        hi: u64,
    },
    /// Discrete weighted choice over `(value, weight)` pairs; a value is
    /// drawn with probability `weight / Σ weights`.
    Choice(Vec<(u64, u64)>),
}

impl Dist {
    /// The smallest value this distribution can produce.
    pub fn min_value(&self) -> u64 {
        match self {
            Dist::Constant(v) => *v,
            Dist::Uniform { lo, .. } | Dist::Normal { lo, .. } => *lo,
            Dist::Choice(pairs) => pairs
                .iter()
                .filter(|(_, w)| *w > 0)
                .map(|(v, _)| *v)
                .min()
                .unwrap_or(0),
        }
    }

    /// Check the parameters, with `min` the smallest value the position
    /// may produce (1 for an items distribution — a sampled flow must not
    /// be empty — and 0 for ticks/jitter). Returns a human-readable reason
    /// on failure; the front ends wrap it in their own `P007`/`X004`
    /// diagnostics and [`Application::set_flow_noise`] in
    /// [`ModelError::InvalidNoise`].
    pub fn validate(&self, min: u64) -> Result<(), String> {
        match self {
            Dist::Constant(_) => {}
            Dist::Uniform { lo, hi } | Dist::Normal { lo, hi, .. } => {
                if lo > hi {
                    return Err(format!("range is inverted ({lo} > {hi})"));
                }
            }
            Dist::Choice(pairs) => {
                if pairs.is_empty() {
                    return Err("choice has no alternatives".into());
                }
                let total: u128 = pairs.iter().map(|(_, w)| *w as u128).sum();
                if total == 0 {
                    return Err("choice weights sum to zero".into());
                }
                if total > u64::MAX as u128 {
                    return Err("choice weights overflow".into());
                }
            }
        }
        if self.min_value() < min {
            return Err(format!(
                "may produce {} but the minimum here is {min}",
                self.min_value()
            ));
        }
        Ok(())
    }

    /// Draw one value. The parameters must have passed [`Dist::validate`];
    /// sampling is total on validated distributions and NaN-free.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        match self {
            Dist::Constant(v) => *v,
            Dist::Uniform { lo, hi } => rng.range_u64(*lo, *hi),
            Dist::Normal { mean, std, lo, hi } => {
                // Box–Muller. `u1 = 1 - gen_f64()` lies in (0, 1], so the
                // logarithm is finite and the result can never be NaN.
                let u1 = 1.0 - rng.gen_f64();
                let u2 = rng.gen_f64();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                let x = *mean as f64 + z * *std as f64;
                x.clamp(*lo as f64, *hi as f64).round() as u64
            }
            Dist::Choice(pairs) => {
                let total: u64 = pairs.iter().map(|(_, w)| *w).sum();
                let mut pick = rng.below(total);
                for (v, w) in pairs {
                    if pick < *w {
                        return *v;
                    }
                    pick -= w;
                }
                pairs[pairs.len() - 1].0
            }
        }
    }

    /// Compact string form used by the XML front end and the corpus
    /// manifest: `constant:5`, `uniform:300:400`, `normal:100:15:60:140`,
    /// `choice:0:3:10:1`.
    pub fn encode(&self) -> String {
        match self {
            Dist::Constant(v) => format!("constant:{v}"),
            Dist::Uniform { lo, hi } => format!("uniform:{lo}:{hi}"),
            Dist::Normal { mean, std, lo, hi } => format!("normal:{mean}:{std}:{lo}:{hi}"),
            Dist::Choice(pairs) => {
                let mut s = String::from("choice");
                for (v, w) in pairs {
                    s.push_str(&format!(":{v}:{w}"));
                }
                s
            }
        }
    }

    /// Parse the [`Dist::encode`] form. Returns a human-readable reason on
    /// failure (shape only — call [`Dist::validate`] for parameter checks).
    pub fn decode(s: &str) -> Result<Dist, String> {
        let mut parts = s.split(':');
        let kind = parts.next().unwrap_or("");
        let nums: Vec<u64> = parts
            .map(|p| {
                p.parse::<u64>()
                    .map_err(|_| format!("{p:?} is not a non-negative integer"))
            })
            .collect::<Result<_, _>>()?;
        match (kind, nums.len()) {
            ("constant", 1) => Ok(Dist::Constant(nums[0])),
            ("uniform", 2) => Ok(Dist::Uniform {
                lo: nums[0],
                hi: nums[1],
            }),
            ("normal", 4) => Ok(Dist::Normal {
                mean: nums[0],
                std: nums[1],
                lo: nums[2],
                hi: nums[3],
            }),
            ("choice", n) if n >= 2 && n % 2 == 0 => {
                Ok(Dist::Choice(nums.chunks(2).map(|c| (c[0], c[1])).collect()))
            }
            ("constant" | "uniform" | "normal" | "choice", n) => {
                Err(format!("wrong number of parameters for {kind} ({n})"))
            }
            _ => Err(format!("unknown distribution {kind:?}")),
        }
    }
}

impl fmt::Display for Dist {
    /// The DSL surface form: the [`Dist::encode`] string with spaces
    /// instead of colons (`uniform 300 400`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode().replace(':', " "))
    }
}

/// The stochastic annotations of one flow. All fields optional; an absent
/// distribution means the flow's base value is used verbatim.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct FlowNoise {
    /// Distribution on the data volume `D` (replaces `items` when drawn).
    pub items: Option<Dist>,
    /// Distribution on the per-package cost `C` (replaces `ticks`).
    pub ticks: Option<Dist>,
    /// Per-package arrival jitter, *added* to the (possibly sampled) `C`.
    pub jitter: Option<Dist>,
}

impl FlowNoise {
    /// `true` when no distribution is present.
    pub fn is_empty(&self) -> bool {
        self.items.is_none() && self.ticks.is_none() && self.jitter.is_none()
    }

    /// Validate every present distribution with its positional minimum
    /// (items ≥ 1 — an empty flow is unrepresentable — ticks/jitter ≥ 0).
    pub fn validate(&self) -> Result<(), String> {
        if let Some(d) = &self.items {
            d.validate(1).map_err(|e| format!("items_dist: {e}"))?;
        }
        if let Some(d) = &self.ticks {
            d.validate(0).map_err(|e| format!("ticks_dist: {e}"))?;
        }
        if let Some(d) = &self.jitter {
            d.validate(0).map_err(|e| format!("jitter: {e}"))?;
        }
        Ok(())
    }
}

/// Derive the per-sample seed for Monte-Carlo sample `index` of `master`
/// (a SplitMix64 step over the mixed pair, so neighbouring indices land in
/// unrelated parts of the stream).
pub fn mix_seed(master: u64, index: u64) -> u64 {
    let mut z = master
        .wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Sample the application's stochastic annotations into concrete flow
/// values, one [`FlowValues`] per flow in [`FlowId`] order, written into
/// `out` (cleared first, so one buffer serves every sample of a batch).
///
/// This is the one definition of the draw order: each annotated flow draws
/// *items → ticks → jitter* from one stream seeded with `seed`, drawing
/// only for the distributions that are present; unannotated flows keep
/// their base values. [`sample_application`] builds on it.
///
/// Drawing cannot fail: [`Application::set_flow_noise`], the only writer
/// of the annotations, validated every distribution on the way in.
pub fn sample_flow_values(app: &Application, seed: u64, out: &mut Vec<FlowValues>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    out.clear();
    for (i, f) in app.flows().iter().enumerate() {
        let mut v = f.values();
        if let Some(noise) = app.flow_noise(FlowId(i as u32)) {
            debug_assert!(noise.validate().is_ok(), "set_flow_noise validates");
            if let Some(d) = &noise.items {
                v.items = d.sample(&mut rng);
            }
            if let Some(d) = &noise.ticks {
                v.ticks = d.sample(&mut rng);
            }
            if let Some(d) = &noise.jitter {
                v.ticks = v.ticks.saturating_add(d.sample(&mut rng));
            }
        }
        out.push(v);
    }
}

/// Sample the application's stochastic annotations into a concrete
/// application: [`sample_flow_values`] applied to a copy of the flows.
/// The result carries no annotations (it is a plain deterministic model)
/// and digests like any hand-written one.
pub fn sample_application(app: &Application, seed: u64) -> Result<Application, ModelError> {
    let mut values = Vec::with_capacity(app.flows().len());
    sample_flow_values(app, seed, &mut values);
    let mut out = Application::new(app.name()).with_cost_model(app.cost_model());
    for p in app.processes() {
        out.add_process(p.clone());
    }
    for (f, v) in app.flows().iter().zip(values) {
        out.add_flow(Flow::new(f.src, f.dst, v.items, f.order, v.ticks))?;
    }
    Ok(out)
}

/// Sample a complete PSM: [`sample_application`] plus the unchanged
/// platform and allocation, re-validated as a whole.
pub fn sample_psm(psm: &Psm, seed: u64) -> Result<Psm, ModelError> {
    let app = sample_application(psm.application(), seed)?;
    Psm::new(psm.platform().clone(), app, psm.allocation().clone())
}

/// FNV-1a digest of the stochastic annotations alone (the base
/// [`crate::digest`] deliberately excludes them). Two corpus entries with
/// equal [`Psm::digest`] *and* equal noise digest are true duplicates.
pub fn noise_digest(app: &Application) -> u64 {
    let mut h = crate::digest::Fnv64::new();
    h.write_u8(0x20);
    for (id, noise) in app.noise() {
        h.write_u32(id.0);
        for (tag, d) in [
            (0x21u8, &noise.items),
            (0x22, &noise.ticks),
            (0x23, &noise.jitter),
        ] {
            if let Some(d) = d {
                h.write_u8(tag);
                let enc = d.encode();
                h.write_u32(enc.len() as u32);
                h.write_bytes(enc.as_bytes());
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SegmentId;
    use crate::mapping::Allocation;
    use crate::platform::Platform;
    use crate::psdf::Process;
    use crate::time::ClockDomain;

    fn noisy_psm() -> Psm {
        let mut app = Application::new("noisy");
        let a = app.add_process(Process::initial("A"));
        let b = app.add_process(Process::new("B"));
        let c = app.add_process(Process::final_("C"));
        let f0 = app.add_flow(Flow::new(a, b, 360, 1, 100)).unwrap();
        let f1 = app.add_flow(Flow::new(b, c, 180, 2, 50)).unwrap();
        app.set_flow_noise(
            f0,
            FlowNoise {
                items: Some(Dist::Uniform { lo: 300, hi: 400 }),
                ticks: Some(Dist::Normal {
                    mean: 100,
                    std: 15,
                    lo: 60,
                    hi: 140,
                }),
                jitter: None,
            },
        )
        .unwrap();
        app.set_flow_noise(
            f1,
            FlowNoise {
                items: None,
                ticks: None,
                jitter: Some(Dist::Choice(vec![(0, 3), (10, 1)])),
            },
        )
        .unwrap();
        let mut alloc = Allocation::new(2);
        alloc.assign(a, SegmentId(0));
        alloc.assign(b, SegmentId(0));
        alloc.assign(c, SegmentId(1));
        let platform = Platform::builder("t")
            .uniform_segments(2, ClockDomain::from_mhz(100.0))
            .build()
            .unwrap();
        Psm::new(platform, app, alloc).unwrap()
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let psm = noisy_psm();
        let a = sample_psm(&psm, 7).unwrap();
        let b = sample_psm(&psm, 7).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        let c = sample_psm(&psm, 8).unwrap();
        assert_ne!(
            a.application().flows(),
            c.application().flows(),
            "different seeds draw different values"
        );
    }

    #[test]
    fn sampled_values_respect_ranges() {
        let psm = noisy_psm();
        for seed in 0..200 {
            let s = sample_psm(&psm, seed).unwrap();
            let flows = s.application().flows();
            assert!((300..=400).contains(&flows[0].items), "{}", flows[0].items);
            assert!((60..=140).contains(&flows[0].ticks), "{}", flows[0].ticks);
            assert_eq!(flows[1].items, 180, "no items dist on flow 1");
            assert!(
                flows[1].ticks == 50 || flows[1].ticks == 60,
                "jitter adds 0 or 10: {}",
                flows[1].ticks
            );
            assert!(!s.application().is_stochastic(), "samples are concrete");
        }
    }

    #[test]
    fn deterministic_model_samples_to_itself() {
        let mut app = Application::new("det");
        let a = app.add_process(Process::initial("A"));
        let b = app.add_process(Process::final_("B"));
        app.add_flow(Flow::new(a, b, 72, 1, 10)).unwrap();
        let out = sample_application(&app, 99).unwrap();
        assert_eq!(app, out);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(Dist::Uniform { lo: 5, hi: 4 }.validate(0).is_err());
        assert!(Dist::Choice(vec![]).validate(0).is_err());
        assert!(Dist::Choice(vec![(1, 0)]).validate(0).is_err());
        // An items distribution must not be able to produce zero.
        assert!(Dist::Uniform { lo: 0, hi: 9 }.validate(1).is_err());
        assert!(Dist::Constant(0).validate(1).is_err());
        assert!(Dist::Normal {
            mean: 5,
            std: 1,
            lo: 0,
            hi: 9
        }
        .validate(1)
        .is_err());
        // Zero-weight alternatives are ignored by min_value.
        assert!(Dist::Choice(vec![(0, 0), (3, 1)]).validate(1).is_ok());
        assert!(Dist::Uniform { lo: 1, hi: 1 }.validate(1).is_ok());
    }

    #[test]
    fn normal_is_clamped_and_nan_free() {
        let d = Dist::Normal {
            mean: 100,
            std: 40,
            lo: 80,
            hi: 120,
        };
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..2000 {
            let v = d.sample(&mut rng);
            assert!((80..=120).contains(&v), "{v}");
        }
        // Degenerate clamp window: always the single admissible value.
        let tight = Dist::Normal {
            mean: 0,
            std: 1_000_000,
            lo: 7,
            hi: 7,
        };
        assert_eq!(tight.sample(&mut rng), 7);
    }

    #[test]
    fn choice_tracks_weights() {
        let d = Dist::Choice(vec![(1, 3), (2, 1)]);
        let mut rng = SmallRng::seed_from_u64(11);
        let ones = (0..4000).filter(|_| d.sample(&mut rng) == 1).count();
        assert!((2700..3300).contains(&ones), "~3000 expected, got {ones}");
    }

    #[test]
    fn encode_decode_round_trips() {
        for d in [
            Dist::Constant(5),
            Dist::Uniform { lo: 300, hi: 400 },
            Dist::Normal {
                mean: 100,
                std: 15,
                lo: 60,
                hi: 140,
            },
            Dist::Choice(vec![(0, 3), (10, 1)]),
        ] {
            assert_eq!(Dist::decode(&d.encode()).unwrap(), d);
        }
        assert!(Dist::decode("uniform:3").is_err());
        assert!(Dist::decode("choice:1").is_err());
        assert!(Dist::decode("poisson:4").is_err());
        assert!(Dist::decode("uniform:a:b").is_err());
    }

    /// Golden vectors: the seeded sampling stream is a determinism
    /// contract. If this test fails, every committed corpus file and every
    /// seeded experiment silently re-samples — bump the corpus and the
    /// docs, do not just update the numbers.
    #[test]
    fn pinned_sampling_golden_vectors() {
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
        assert_eq!(
            [rng.next_u64(), rng.next_u64(), rng.next_u64()],
            [
                1256854334177827233,
                5392029431272537335,
                9605439178696550982
            ]
        );
        let psm = noisy_psm();
        let s = sample_psm(&psm, 42).unwrap();
        let flows = s.application().flows();
        assert_eq!(
            (flows[0].items, flows[0].ticks, flows[1].ticks),
            (354, 81, 60)
        );
        assert_eq!(mix_seed(42, 0), 13679457532755275413);
        assert_eq!(mix_seed(42, 1), 2949826092126892291);
    }

    #[test]
    fn noise_digest_separates_annotations() {
        let psm = noisy_psm();
        let mut plain = psm.application().clone();
        plain.clear_noise();
        assert_ne!(noise_digest(psm.application()), noise_digest(&plain));
        // Base digest ignores the annotations entirely.
        let alloc = psm.allocation().clone();
        let noisy_digest = psm.digest();
        let stripped = Psm::new(psm.platform().clone(), plain, alloc).unwrap();
        assert_eq!(noisy_digest, stripped.digest());
    }
}
