//! Content fingerprints for analysis requests.
//!
//! The serving layer caches analysis results; its cache key must cover
//! everything an [`Analyzer`](crate::Analyzer) reads — the program, the topology
//! *and* the analysis configuration (lookahead assumption, hardware queue
//! count). This module extends the model crate's [`CanonicalHash`] to the
//! analysis configuration types and provides [`request_fingerprint`], the
//! canonical 128-bit cache key for one `(Program, Topology,
//! AnalysisConfig)` triple.

use systolic_model::{CanonicalHash, ContentHasher, Program, Topology};

use crate::{
    AnalysisConfig, CommPlan, CompetingSets, Label, Labeling, Lookahead, LookaheadLimits,
    QueueRequirements,
};

impl CanonicalHash for LookaheadLimits {
    fn canonical_hash(&self, hasher: &mut ContentHasher) {
        hasher.write_usize(self.len());
        for limit in self.as_table() {
            match limit {
                None => hasher.write_u8(0),
                Some(n) => {
                    hasher.write_u8(1);
                    hasher.write_usize(*n);
                }
            }
        }
    }
}

impl CanonicalHash for Lookahead {
    fn canonical_hash(&self, hasher: &mut ContentHasher) {
        match self {
            Lookahead::Disabled => hasher.write_u8(0),
            Lookahead::PerQueueCapacity(c) => {
                hasher.write_u8(1);
                hasher.write_usize(*c);
            }
            Lookahead::Explicit(limits) => {
                hasher.write_u8(2);
                limits.canonical_hash(hasher);
            }
            Lookahead::Unbounded => hasher.write_u8(3),
        }
    }
}

impl CanonicalHash for AnalysisConfig {
    fn canonical_hash(&self, hasher: &mut ContentHasher) {
        hasher.write_u8(b'C');
        self.lookahead.canonical_hash(hasher);
        hasher.write_usize(self.queues_per_interval);
    }
}

impl CanonicalHash for Label {
    fn canonical_hash(&self, hasher: &mut ContentHasher) {
        // Labels are stored reduced with positive denominators, so the
        // (numerator, denominator) pair is canonical for the value.
        hasher.write_i64(self.numerator());
        hasher.write_i64(self.denominator());
    }
}

impl CanonicalHash for Labeling {
    fn canonical_hash(&self, hasher: &mut ContentHasher) {
        hasher.write_u8(b'L');
        hasher.write_usize(self.len());
        for (_, label) in self.iter() {
            label.canonical_hash(hasher);
        }
    }
}

impl CanonicalHash for CompetingSets {
    fn canonical_hash(&self, hasher: &mut ContentHasher) {
        hasher.write_u8(b'S');
        hasher.write_usize(self.len());
        for (hop, messages) in self.iter() {
            hasher.write_usize(hop.from().index());
            hasher.write_usize(hop.to().index());
            hasher.write_usize(messages.len());
            for m in messages {
                hasher.write_usize(m.index());
            }
        }
    }
}

impl CanonicalHash for QueueRequirements {
    fn canonical_hash(&self, hasher: &mut ContentHasher) {
        // Length-prefix both sections so the hop-stream/interval-stream
        // boundary is unambiguous in the hash input (injective framing).
        hasher.write_u8(b'Q');
        hasher.write_usize(self.iter_hops().count());
        for (hop, need) in self.iter_hops() {
            hasher.write_usize(hop.from().index());
            hasher.write_usize(hop.to().index());
            hasher.write_usize(need);
        }
        hasher.write_usize(self.iter_intervals().count());
        for (interval, need) in self.iter_intervals() {
            hasher.write_usize(interval.lo().index());
            hasher.write_usize(interval.hi().index());
            hasher.write_usize(need);
        }
    }
}

impl CanonicalHash for CommPlan {
    fn canonical_hash(&self, hasher: &mut ContentHasher) {
        hasher.write_u8(b'N');
        self.labeling().canonical_hash(hasher);
        self.routes().canonical_hash(hasher);
        self.competing().canonical_hash(hasher);
        self.requirements().canonical_hash(hasher);
    }
}

impl CommPlan {
    /// The process-independent 128-bit content fingerprint of this plan —
    /// every label, route, competing set and queue requirement feeds in,
    /// so two plans fingerprint equal exactly when they are byte-for-byte
    /// the same certified artifact. The parity property tests use it to
    /// hold analyses through shared and fresh compilations to identical
    /// output.
    #[must_use]
    pub fn fingerprint(&self) -> u128 {
        self.content_hash()
    }
}

/// The canonical 128-bit cache key of one analysis request.
///
/// Two requests receive the same fingerprint exactly when they would be
/// indistinguishable to an [`Analyzer`](crate::Analyzer): same program (cell
/// names, message declarations, op lists), same topology and same
/// configuration.
///
/// # Examples
///
/// ```
/// use systolic_core::{request_fingerprint, AnalysisConfig};
/// use systolic_model::{parse_program, Topology};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let text = "cells 2\nmessage A: c0 -> c1\nprogram c0 { W(A) }\nprogram c1 { R(A) }\n";
/// let p = parse_program(text)?;
/// let q = parse_program(text)?;
/// let config = AnalysisConfig::default();
/// let t = Topology::linear(2);
/// assert_eq!(
///     request_fingerprint(&p, &t, &config),
///     request_fingerprint(&q, &t, &config),
/// );
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn request_fingerprint(
    program: &Program,
    topology: &Topology,
    config: &AnalysisConfig,
) -> u128 {
    let mut hasher = ContentHasher::new();
    program.canonical_hash(&mut hasher);
    topology.canonical_hash(&mut hasher);
    config.canonical_hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_model::parse_program;

    fn sample() -> Program {
        parse_program(
            "cells 2\nmessage A: c0 -> c1\nprogram c0 { W(A)*2 }\nprogram c1 { R(A)*2 }\n",
        )
        .unwrap()
    }

    #[test]
    fn fingerprint_is_deterministic() {
        let p = sample();
        let t = Topology::linear(2);
        let c = AnalysisConfig::default();
        assert_eq!(
            request_fingerprint(&p, &t, &c),
            request_fingerprint(&p, &t, &c)
        );
    }

    #[test]
    fn every_component_matters() {
        let p = sample();
        let t = Topology::linear(2);
        let c = AnalysisConfig::default();
        let base = request_fingerprint(&p, &t, &c);

        let other_program = parse_program(
            "cells 2\nmessage A: c0 -> c1\nprogram c0 { W(A) }\nprogram c1 { R(A) }\n",
        )
        .unwrap();
        assert_ne!(base, request_fingerprint(&other_program, &t, &c));

        assert_ne!(base, request_fingerprint(&p, &Topology::ring(3), &c));

        let more_queues = AnalysisConfig {
            queues_per_interval: 2,
            ..c.clone()
        };
        assert_ne!(base, request_fingerprint(&p, &t, &more_queues));

        let lookahead = AnalysisConfig {
            lookahead: Lookahead::Unbounded,
            ..c
        };
        assert_ne!(base, request_fingerprint(&p, &t, &lookahead));
    }

    #[test]
    fn lookahead_variants_hash_distinctly() {
        let p = sample();
        let variants = [
            Lookahead::Disabled,
            Lookahead::PerQueueCapacity(0),
            Lookahead::PerQueueCapacity(1),
            Lookahead::Explicit(LookaheadLimits::disabled(&p)),
            Lookahead::Explicit(LookaheadLimits::unbounded(&p)),
            Lookahead::Unbounded,
        ];
        let hashes: Vec<u128> = variants.iter().map(CanonicalHash::content_hash).collect();
        for (i, a) in hashes.iter().enumerate() {
            for b in &hashes[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
