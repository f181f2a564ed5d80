//! Versioned binary snapshot of the daemon's warm state.
//!
//! A snapshot persists the plan cache a restarted daemon wants back
//! immediately, as two sections keyed by the same fingerprints: the
//! outcomes (`fingerprint → certified plan | cached rejection`, each with
//! its diagnostics) and the seed inputs each cache entry keeps
//! (`fingerprint → program + topology + config`, the material `edit`
//! requests re-seed sessions from). Certificates are *static
//! artifacts* — Theorem 1 labelings don't change between runs — so
//! shipping them beats recomputing them on the whole working set.
//!
//! # Container layout
//!
//! ```text
//! magic            8 bytes   "SYSSNAP\0"
//! format version   uvarint   (currently 1)
//! section count    uvarint
//! per section:
//!   kind           uvarint   (1 = plans, 2 = seeds; unknown kinds skipped)
//!   payload len    uvarint   (validated against remaining bytes)
//!   content hash   16 bytes  (ContentHasher over the payload, LE)
//!   payload        len bytes (a systolic_core::codec field sequence)
//! ```
//!
//! Section payloads reuse the core codec (`Encode`/`Decode` with explicit
//! field tags), so the snapshot inherits its forward-compat rules: unknown
//! fields inside entries are skipped, unknown *section kinds* are skipped
//! whole, but an unknown *format version* or a failed section hash rejects
//! the load with a typed [`SnapshotError`].
//!
//! # No partial application
//!
//! [`read_snapshot`] decodes the entire file into a staging
//! [`SnapshotData`] before the service installs anything, so a corrupt
//! byte can never leave a half-warmed cache: either the whole snapshot
//! parses or the daemon keeps serving cold. Per-*entry* skew (an entry
//! re-fingerprinting differently than recorded, or a plan whose config
//! hash mismatches its seed's) is dropped and counted during installation,
//! not an error — that is what lets a daemon under a new `AnalysisConfig`
//! load an old snapshot and keep the still-valid entries.

use std::sync::Arc;

use systolic_core::codec::{
    self, decode_nested, decode_str, decode_u128, decode_u64, encode_to_vec, labeling_method_str,
    Decode, Encode, FieldReader, FieldWriter,
};
use systolic_core::{AnalysisConfig, CodecError, CommPlan, CoreError, Diagnostic, Label};
use systolic_model::{CellId, ContentHasher, Program, Topology};
use systolic_sim::{ReplayDeadlock, VerifyReport};

use crate::service::{Certified, Rejection, ServiceError};

/// Leading magic of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"SYSSNAP\0";
/// Newest container version this build writes and understands.
pub const SNAPSHOT_VERSION: u64 = 1;

/// Section kind holding cached plan outcomes.
const SECTION_PLANS: u64 = 1;
/// Section kind holding recorded incremental seed inputs.
const SECTION_SEEDS: u64 = 2;

/// Typed failure of a snapshot read or write. A failed load applies
/// nothing — the daemon keeps serving with a cold cache.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotError {
    /// Reading or writing the snapshot file failed.
    Io(std::io::Error),
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The file's format version postdates this build.
    UnsupportedVersion {
        /// Version recorded in the file.
        found: u64,
        /// Newest version this build understands.
        supported: u64,
    },
    /// The file ended inside the container framing.
    Truncated,
    /// A section length prefix declared more bytes than the file holds.
    OversizedSection {
        /// Bytes the section header claimed.
        declared: u64,
        /// Bytes actually remaining.
        available: usize,
    },
    /// A section's stored content hash does not match its payload.
    SectionHashMismatch {
        /// Kind discriminant of the corrupt section.
        kind: u64,
    },
    /// A section payload failed to decode.
    Codec(CodecError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io: {e}"),
            SnapshotError::BadMagic => write!(f, "not a systolic snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is newer than supported version {supported}"
            ),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::OversizedSection {
                declared,
                available,
            } => write!(
                f,
                "section declares {declared} bytes but only {available} remain"
            ),
            SnapshotError::SectionHashMismatch { kind } => {
                write!(f, "section {kind} content hash mismatch (corrupt payload)")
            }
            SnapshotError::Codec(e) => write!(f, "snapshot payload: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> Self {
        SnapshotError::Codec(e)
    }
}

/// One cached plan outcome, keyed by its full request fingerprint.
#[derive(Clone, Debug)]
pub(crate) struct PlanEntry {
    /// `request_fingerprint(program, topology, config)` — the plan-cache
    /// key, which already commits to the whole request including config.
    pub fingerprint: u128,
    /// Content hash of the `AnalysisConfig` the outcome was computed
    /// under, cross-checked against the matching seed on load so
    /// config-skewed entries are dropped (counted) instead of installed.
    pub config_hash: u128,
    /// The cached outcome.
    pub outcome: Arc<Result<Certified, Rejection>>,
}

/// One recorded incremental seed input.
#[derive(Clone, Debug)]
pub(crate) struct SeedEntry {
    /// The request fingerprint this seed re-seeds sessions for.
    pub fingerprint: u128,
    /// The request's program.
    pub program: Program,
    /// The request's topology.
    pub topology: Topology,
    /// The request's analysis config.
    pub config: AnalysisConfig,
}

/// Fully decoded snapshot contents, staged before installation so a
/// failed load never partially applies.
#[derive(Default, Debug)]
pub(crate) struct SnapshotData {
    pub plans: Vec<PlanEntry>,
    pub seeds: Vec<SeedEntry>,
}

// ---------------------------------------------------------------------------
// Outcome codecs (service-side companions of the core codec)
// ---------------------------------------------------------------------------

/// Adapter: `VerifyReport` lives in `systolic_sim`, the codec traits in
/// `systolic_core`, so the orphan rule forces a local newtype.
struct VerifyReportCodec(VerifyReport);

impl Encode for VerifyReportCodec {
    fn encode(&self, w: &mut FieldWriter) {
        w.put_u64(1, u64::from(self.0.completed));
        w.put_u64(2, self.0.cycles);
        w.put_u64(3, self.0.words_delivered);
        if let Some(deadlock) = &self.0.deadlock {
            w.put_u64(4, deadlock.cycle);
            w.put_u64(5, u64::from(deadlock.first_blocked.as_u32()));
            w.put_str(6, &deadlock.reason);
            w.put_u64(7, deadlock.blocked_cells as u64);
        }
    }
}

impl Decode for VerifyReportCodec {
    fn decode(r: &FieldReader<'_>) -> Result<Self, CodecError> {
        let completed = match decode_u64(r.req(1)?)? {
            0 => false,
            1 => true,
            other => {
                return Err(CodecError::Invalid(format!(
                    "completed flag must be 0 or 1, got {other}"
                )))
            }
        };
        let deadlock = match r.opt(4) {
            Some(cycle) => Some(ReplayDeadlock {
                cycle: decode_u64(cycle)?,
                first_blocked: CellId::new(
                    u32::try_from(decode_u64(r.req(5)?)?)
                        .map_err(|_| CodecError::Invalid("blocked cell exceeds u32".to_owned()))?,
                ),
                reason: decode_str(r.req(6)?)?.to_owned(),
                blocked_cells: usize::try_from(decode_u64(r.req(7)?)?)
                    .map_err(|_| CodecError::Invalid("blocked count exceeds usize".to_owned()))?,
            }),
            None => None,
        };
        Ok(VerifyReportCodec(VerifyReport {
            completed,
            cycles: decode_u64(r.req(2)?)?,
            words_delivered: decode_u64(r.req(3)?)?,
            deadlock,
        }))
    }
}

impl Encode for Certified {
    fn encode(&self, w: &mut FieldWriter) {
        w.put_nested(1, &self.plan);
        w.put_str(2, labeling_method_str(self.labeling_method));
        for (name, label) in &self.message_labels {
            let mut entry = FieldWriter::default();
            entry.put_str(1, name);
            entry.put_nested(2, label);
            w.put_bytes(3, &entry.into_bytes());
        }
        w.put_u64(4, self.max_queues_per_interval as u64);
        if let Some(report) = &self.verified {
            w.put_nested(5, &VerifyReportCodec(report.clone()));
        }
        w.put_u64(6, self.analysis_micros);
        for diagnostic in &self.diagnostics {
            w.put_nested(7, diagnostic);
        }
    }
}

impl Decode for Certified {
    fn decode(r: &FieldReader<'_>) -> Result<Self, CodecError> {
        let plan: CommPlan = decode_nested(r.req(1)?)?;
        let method_str = decode_str(r.req(2)?)?;
        let labeling_method = codec::labeling_method_from_str(method_str).ok_or_else(|| {
            CodecError::Invalid(format!("unknown labeling method {method_str:?}"))
        })?;
        let message_labels = r
            .all(3)
            .map(|payload| {
                let entry = FieldReader::parse(payload)?;
                Ok((
                    decode_str(entry.req(1)?)?.to_owned(),
                    decode_nested::<Label>(entry.req(2)?)?,
                ))
            })
            .collect::<Result<Vec<(String, Label)>, CodecError>>()?;
        let verified = r
            .opt(5)
            .map(decode_nested::<VerifyReportCodec>)
            .transpose()?
            .map(|codec| codec.0);
        let diagnostics = r
            .all(7)
            .map(decode_nested::<Diagnostic>)
            .collect::<Result<Vec<Diagnostic>, CodecError>>()?;
        Ok(Certified {
            plan: Arc::new(plan),
            labeling_method,
            message_labels,
            max_queues_per_interval: usize::try_from(decode_u64(r.req(4)?)?)
                .map_err(|_| CodecError::Invalid("queue count exceeds usize".to_owned()))?,
            verified,
            analysis_micros: decode_u64(r.req(6)?)?,
            diagnostics,
        })
    }
}

impl Encode for ServiceError {
    fn encode(&self, w: &mut FieldWriter) {
        match self {
            ServiceError::Analysis(error) => {
                w.put_u64(1, 0);
                w.put_nested(2, error);
            }
            ServiceError::Panicked(message) => {
                w.put_u64(1, 1);
                w.put_str(2, message);
            }
        }
    }
}

impl Decode for ServiceError {
    fn decode(r: &FieldReader<'_>) -> Result<Self, CodecError> {
        Ok(match decode_u64(r.req(1)?)? {
            0 => ServiceError::Analysis(decode_nested::<CoreError>(r.req(2)?)?),
            1 => ServiceError::Panicked(decode_str(r.req(2)?)?.to_owned()),
            other => {
                return Err(CodecError::Invalid(format!(
                    "unrecognised service error variant {other}"
                )))
            }
        })
    }
}

impl Encode for Rejection {
    fn encode(&self, w: &mut FieldWriter) {
        w.put_nested(1, &self.error);
        for diagnostic in &self.diagnostics {
            w.put_nested(2, diagnostic);
        }
    }
}

impl Decode for Rejection {
    fn decode(r: &FieldReader<'_>) -> Result<Self, CodecError> {
        Ok(Rejection {
            error: decode_nested(r.req(1)?)?,
            diagnostics: r
                .all(2)
                .map(decode_nested::<Diagnostic>)
                .collect::<Result<Vec<Diagnostic>, CodecError>>()?,
        })
    }
}

/// Adapter for the cached outcome (`Result` is foreign to both crates).
struct OutcomeCodec(Result<Certified, Rejection>);

impl Encode for OutcomeCodec {
    fn encode(&self, w: &mut FieldWriter) {
        match &self.0 {
            Ok(certified) => {
                w.put_u64(1, 0);
                w.put_nested(2, certified);
            }
            Err(rejection) => {
                w.put_u64(1, 1);
                w.put_nested(3, rejection);
            }
        }
    }
}

impl Decode for OutcomeCodec {
    fn decode(r: &FieldReader<'_>) -> Result<Self, CodecError> {
        Ok(OutcomeCodec(match decode_u64(r.req(1)?)? {
            0 => Ok(decode_nested::<Certified>(r.req(2)?)?),
            1 => Err(decode_nested::<Rejection>(r.req(3)?)?),
            other => {
                return Err(CodecError::Invalid(format!(
                    "unrecognised outcome variant {other}"
                )))
            }
        }))
    }
}

impl Encode for PlanEntry {
    fn encode(&self, w: &mut FieldWriter) {
        w.put_u128(1, self.fingerprint);
        w.put_u128(2, self.config_hash);
        w.put_nested(3, &OutcomeCodec((*self.outcome).clone()));
    }
}

impl Decode for PlanEntry {
    fn decode(r: &FieldReader<'_>) -> Result<Self, CodecError> {
        Ok(PlanEntry {
            fingerprint: decode_u128(r.req(1)?)?,
            config_hash: decode_u128(r.req(2)?)?,
            outcome: Arc::new(decode_nested::<OutcomeCodec>(r.req(3)?)?.0),
        })
    }
}

impl Encode for SeedEntry {
    fn encode(&self, w: &mut FieldWriter) {
        w.put_u128(1, self.fingerprint);
        w.put_nested(2, &self.program);
        w.put_nested(3, &self.topology);
        w.put_nested(4, &self.config);
    }
}

impl Decode for SeedEntry {
    fn decode(r: &FieldReader<'_>) -> Result<Self, CodecError> {
        Ok(SeedEntry {
            fingerprint: decode_u128(r.req(1)?)?,
            program: decode_nested(r.req(2)?)?,
            topology: decode_nested(r.req(3)?)?,
            config: decode_nested(r.req(4)?)?,
        })
    }
}

/// Repeated-entry section payloads.
struct Section<T>(Vec<T>);

impl<T: Encode> Encode for Section<T> {
    fn encode(&self, w: &mut FieldWriter) {
        for entry in &self.0 {
            w.put_nested(1, entry);
        }
    }
}

impl<T: Decode> Decode for Section<T> {
    fn decode(r: &FieldReader<'_>) -> Result<Self, CodecError> {
        Ok(Section(
            r.all(1)
                .map(decode_nested::<T>)
                .collect::<Result<Vec<T>, CodecError>>()?,
        ))
    }
}

// ---------------------------------------------------------------------------
// Container writer / reader
// ---------------------------------------------------------------------------

fn write_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn read_uvarint(input: &mut &[u8]) -> Result<u64, SnapshotError> {
    let mut value: u64 = 0;
    for (i, &byte) in input.iter().enumerate() {
        if i >= 10 || (i == 9 && byte > 0x01) {
            return Err(SnapshotError::Codec(CodecError::VarintOverflow));
        }
        value |= u64::from(byte & 0x7f) << (7 * i);
        if byte & 0x80 == 0 {
            *input = &input[i + 1..];
            return Ok(value);
        }
    }
    Err(SnapshotError::Truncated)
}

fn section_hash(payload: &[u8]) -> u128 {
    let mut hasher = ContentHasher::new();
    hasher.write_bytes(payload);
    hasher.finish()
}

fn push_section(out: &mut Vec<u8>, kind: u64, payload: &[u8]) {
    write_uvarint(out, kind);
    write_uvarint(out, payload.len() as u64);
    out.extend_from_slice(&section_hash(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Serializes staged snapshot contents into the container format.
pub(crate) fn write_snapshot(data: &SnapshotData) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    write_uvarint(&mut out, SNAPSHOT_VERSION);
    write_uvarint(&mut out, 2);
    push_section(
        &mut out,
        SECTION_PLANS,
        &encode_to_vec(&Section(data.plans.clone())),
    );
    push_section(
        &mut out,
        SECTION_SEEDS,
        &encode_to_vec(&Section(data.seeds.clone())),
    );
    out
}

/// Parses and fully validates a snapshot file into staged contents.
///
/// Every framing check (magic, version, section lengths, per-section
/// content hashes) and every entry decode runs before this returns, so a
/// caller that installs the result cannot partially apply a corrupt file.
/// Unknown section kinds are skipped (forward compat); an unknown
/// *version* is a typed rejection.
pub(crate) fn read_snapshot(bytes: &[u8]) -> Result<SnapshotData, SnapshotError> {
    let mut input = bytes;
    if input.len() < SNAPSHOT_MAGIC.len() {
        return Err(SnapshotError::Truncated);
    }
    let (magic, rest) = input.split_at(SNAPSHOT_MAGIC.len());
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    input = rest;
    let version = read_uvarint(&mut input)?;
    if version > SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    let sections = read_uvarint(&mut input)?;
    let mut data = SnapshotData::default();
    for _ in 0..sections {
        let kind = read_uvarint(&mut input)?;
        let len = read_uvarint(&mut input)?;
        if input.len() < 16 {
            return Err(SnapshotError::Truncated);
        }
        let (hash_bytes, rest) = input.split_at(16);
        // lint: panic-ok(split_at(16) after the len >= 16 guard yields exactly 16 bytes)
        let stored_hash = u128::from_le_bytes(hash_bytes.try_into().expect("split_at(16)"));
        input = rest;
        if len > input.len() as u64 {
            return Err(SnapshotError::OversizedSection {
                declared: len,
                available: input.len(),
            });
        }
        let (payload, rest) = input.split_at(len as usize);
        input = rest;
        if section_hash(payload) != stored_hash {
            return Err(SnapshotError::SectionHashMismatch { kind });
        }
        match kind {
            SECTION_PLANS => {
                data.plans = codec::decode_from_slice::<Section<PlanEntry>>(payload)?.0;
            }
            SECTION_SEEDS => {
                data.seeds = codec::decode_from_slice::<Section<SeedEntry>>(payload)?.0;
            }
            // Forward compat: a future writer may append section kinds
            // this build does not know; they are hash-checked (above) and
            // skipped.
            _ => {}
        }
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_core::LabelingMethod;
    use systolic_model::CanonicalHash;
    use systolic_workloads::{fig7, fig7_topology};

    fn sample_data() -> SnapshotData {
        let program = fig7(3);
        let topology = fig7_topology();
        let config = AnalysisConfig::default();
        let fingerprint = systolic_core::request_fingerprint(&program, &topology, &config);
        let analysis = systolic_core::Analyzer::for_topology(&topology, &config)
            .analyze(&program)
            .expect("certifies");
        let plan = Arc::new(analysis.into_plan());
        let message_labels = program
            .message_ids()
            .map(|m| (program.message(m).name().to_owned(), plan.label(m)))
            .collect();
        let certified = Certified {
            max_queues_per_interval: plan.requirements().max_per_interval(),
            plan,
            labeling_method: LabelingMethod::Section6,
            message_labels,
            verified: Some(VerifyReport {
                completed: true,
                cycles: 42,
                words_delivered: 9,
                deadlock: None,
            }),
            analysis_micros: 1234,
            diagnostics: Vec::new(),
        };
        SnapshotData {
            plans: vec![PlanEntry {
                fingerprint,
                config_hash: config.content_hash(),
                outcome: Arc::new(Ok(certified)),
            }],
            seeds: vec![SeedEntry {
                fingerprint,
                program,
                topology,
                config,
            }],
        }
    }

    #[test]
    fn container_roundtrips() {
        let data = sample_data();
        let bytes = write_snapshot(&data);
        let back = read_snapshot(&bytes).expect("snapshot parses");
        assert_eq!(back.plans.len(), 1);
        assert_eq!(back.seeds.len(), 1);
        assert_eq!(back.plans[0].fingerprint, data.plans[0].fingerprint);
        assert_eq!(back.plans[0].config_hash, data.plans[0].config_hash);
        let original = data.plans[0].outcome.as_ref().as_ref().expect("certified");
        let restored = back.plans[0].outcome.as_ref().as_ref().expect("certified");
        assert_eq!(restored.plan.fingerprint(), original.plan.fingerprint());
        assert_eq!(restored.message_labels, original.message_labels);
        assert_eq!(restored.verified, original.verified);
        assert_eq!(back.seeds[0].program, data.seeds[0].program);
        assert_eq!(back.seeds[0].topology, data.seeds[0].topology);
        assert_eq!(back.seeds[0].config, data.seeds[0].config);
    }

    #[test]
    fn rejection_outcomes_roundtrip() {
        let rejection = Rejection {
            error: ServiceError::Analysis(CoreError::ProgramDeadlocked {
                crossed_words: 7,
                remaining_ops: 2,
            }),
            diagnostics: vec![Diagnostic::new(
                systolic_core::DiagnosticCode::Deadlock,
                "deadlocked after 7 crossed words",
            )],
        };
        let data = SnapshotData {
            plans: vec![PlanEntry {
                fingerprint: 99,
                config_hash: 7,
                outcome: Arc::new(Err(rejection.clone())),
            }],
            seeds: Vec::new(),
        };
        let back = read_snapshot(&write_snapshot(&data)).expect("parses");
        let restored = back.plans[0]
            .outcome
            .as_ref()
            .as_ref()
            .expect_err("rejected");
        assert_eq!(*restored, rejection);
    }

    // ---- corrupt-input corpus -------------------------------------------

    #[test]
    fn truncated_header_rejected() {
        for cut in 0..SNAPSHOT_MAGIC.len() {
            assert!(matches!(
                read_snapshot(&SNAPSHOT_MAGIC[..cut]),
                Err(SnapshotError::Truncated)
            ));
        }
        // Magic alone, version byte missing.
        assert!(matches!(
            read_snapshot(&SNAPSHOT_MAGIC),
            Err(SnapshotError::Truncated)
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = write_snapshot(&sample_data());
        bytes[0] ^= 0x40;
        assert!(matches!(
            read_snapshot(&bytes),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        write_uvarint(&mut bytes, SNAPSHOT_VERSION + 1);
        write_uvarint(&mut bytes, 0);
        match read_snapshot(&bytes) {
            Err(SnapshotError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, SNAPSHOT_VERSION + 1);
                assert_eq!(supported, SNAPSHOT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn wrong_section_hash_rejected() {
        let bytes = write_snapshot(&sample_data());
        // Flip one byte inside the first section payload (well past the
        // magic + version + count + kind + len + hash prefix).
        let mut corrupt = bytes.clone();
        let idx = bytes.len() - 3;
        corrupt[idx] ^= 0xff;
        assert!(matches!(
            read_snapshot(&corrupt),
            Err(SnapshotError::SectionHashMismatch { .. })
        ));
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        write_uvarint(&mut bytes, SNAPSHOT_VERSION);
        write_uvarint(&mut bytes, 1); // one section
        write_uvarint(&mut bytes, SECTION_PLANS);
        write_uvarint(&mut bytes, 1 << 50); // declared length >> file size
        bytes.extend_from_slice(&[0u8; 16]); // hash placeholder
        match read_snapshot(&bytes) {
            Err(SnapshotError::OversizedSection { declared, .. }) => {
                assert_eq!(declared, 1 << 50);
            }
            other => panic!("expected OversizedSection, got {other:?}"),
        }
    }

    #[test]
    fn every_single_byte_truncation_is_typed_not_panic() {
        let bytes = write_snapshot(&sample_data());
        for cut in 0..bytes.len() {
            // Any prefix must produce a typed error (or, for prefixes that
            // happen to frame completely, a successful parse) — never a
            // panic and never a half-decoded staging struct.
            let _ = read_snapshot(&bytes[..cut]);
        }
    }

    #[test]
    fn every_single_byte_corruption_is_typed_not_panic() {
        let bytes = write_snapshot(&sample_data());
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            let _ = read_snapshot(&corrupt);
        }
    }

    #[test]
    fn unknown_section_kinds_are_skipped() {
        let data = sample_data();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        write_uvarint(&mut bytes, SNAPSHOT_VERSION);
        write_uvarint(&mut bytes, 3);
        // A section kind from the future, first in the table.
        push_section(&mut bytes, 77, b"opaque payload from a future build");
        push_section(
            &mut bytes,
            SECTION_PLANS,
            &encode_to_vec(&Section(data.plans.clone())),
        );
        push_section(
            &mut bytes,
            SECTION_SEEDS,
            &encode_to_vec(&Section(data.seeds.clone())),
        );
        let back = read_snapshot(&bytes).expect("unknown section skipped");
        assert_eq!(back.plans.len(), 1);
        assert_eq!(back.seeds.len(), 1);
    }
}
